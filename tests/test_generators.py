from __future__ import annotations

import pytest

from conftest import same_decl_ignoring_constructor
from theoryforge import generators, theory
from theoryforge.ast import (
    RESERVED_WORDS,
    Arrow,
    Binder,
    DataDecl,
    Equation,
    Quant,
    SetKind,
    SortRef,
    TyApp,
    arrow_components,
)
from theoryforge.checker import check_module
from theoryforge.generators import (
    DEFAULT_KINDS,
    GenError,
    GenKind,
    NameSupply,
    gen_all,
    gen_endomorphism,
    gen_hom,
    gen_monomorphism,
    gen_open_termlang,
    gen_product,
    gen_signature,
    gen_termlang,
    prod_decl,
)
from theoryforge.parser import parse_decl
from theoryforge.printer import print_decl
from theoryforge.theory import associativity_op, embed, extract

BARE = extract(parse_decl("record Carrier (A : Set) : Set where"))
POINTED = extract(parse_decl("record Pointed (A : Set) : Set where\n  field\n    e : A"))
MAGMA = extract(parse_decl("record Magma (A : Set) : Set where\n  field\n    op : A → A → A"))


# -- signature ---------------------------------------------------------------

def test_signature_matches_golden(monoid, golden_constructions):
    got = embed(gen_signature(monoid))
    assert same_decl_ignoring_constructor(got, golden_constructions["MonoidSig"])


def test_signature_of_bare_sort():
    sig = gen_signature(BARE)
    assert sig.name == "CarrierSig"
    assert sig.sort.name == "AS"
    assert sig.func_types == [] and sig.axioms == []


def test_signature_counts_over_library(library):
    group = library.expanded["Group"]
    sig = gen_signature(group)
    assert len(sig.func_types) == len(group.func_types) == 3
    assert sig.axioms == []
    assert sig.waist == group.waist


# -- product -------------------------------------------------------------------

def test_product_matches_golden(monoid, golden_constructions):
    got = embed(gen_product(monoid))
    assert same_decl_ignoring_constructor(got, golden_constructions["MonoidProd"])


def test_product_of_bare_sort():
    prod = gen_product(BARE)
    assert prod.name == "CarrierProd"
    assert prod.func_types == [] and prod.axioms == []


def sort_occurrences(ty, sort: str, inside_prod: bool = False) -> list[bool]:
    """Each occurrence of the sort, tagged with whether it sits directly
    under the Prod type constructor."""
    if isinstance(ty, SortRef):
        return [inside_prod] if ty.name == sort else []
    if isinstance(ty, TyApp):
        inner = ty.head == "Prod"
        return [hit for a in ty.args for hit in sort_occurrences(a, sort, inner)]
    if isinstance(ty, Arrow):
        return sort_occurrences(ty.dom, sort) + sort_occurrences(ty.cod, sort)
    if isinstance(ty, Quant):
        hits = [h for b in ty.binders for h in sort_occurrences(b.ty, sort)]
        return hits + sort_occurrences(ty.body, sort)
    return []


def test_product_replaces_every_sort_occurrence(library):
    for t in library.theories():
        prod = gen_product(t)
        sort = prod.sort.name
        for f in prod.func_types:
            assert all(sort_occurrences(f.ty, sort)), (t.name, f.name)
        for ax in prod.axioms:
            for b in ax.binders:
                assert all(sort_occurrences(b.ty, sort)), (t.name, ax.name)
        assert len(prod.func_types) == len(t.func_types)
        assert len(prod.axioms) == len(t.axioms)


def test_product_of_magma_field_type():
    prod = gen_product(MAGMA)
    (op,) = prod.func_types
    p = TyApp("Prod", [SortRef("AP"), SortRef("AP")])
    assert op.ty == Arrow(p, Arrow(p, p))


def test_product_names_each_axiom_after_what_it_states(monoid):
    assert [a.name for a in gen_product(monoid).axioms] == ["lunit_eP", "runit_eP", "associative_opP"]


def test_product_names_an_axiom_without_a_constant_by_its_suffix():
    comm = extract(parse_decl(
        "record C (A : Set) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    comm : {x y : A} → op x y == op y x"
    ))
    assert [a.name for a in gen_product(comm).axioms] == ["commP"]


def test_product_names_an_axiom_after_the_first_declared_constant_it_mentions():
    # the axiom mentions b before a; a is declared first
    t = extract(parse_decl(
        "record C (A : Set) : Set where\n"
        "  field\n"
        "    a : A\n"
        "    b : A\n"
        "    op : A → A → A\n"
        "    ax : op b a == op a b"
    ))
    assert [a.name for a in gen_product(t).axioms] == ["ax_aP"]


def test_product_reads_each_axiom_once(library, monkeypatch):
    calls = []

    def counted(ax):
        calls.append(ax.name)
        return associativity_op(ax)

    monkeypatch.setattr(theory, "associativity_op", counted)
    monkeypatch.setattr(generators, "associativity_op", counted)
    for t in library.theories():
        gen_product(t)
    assert len(calls) == sum(len(t.axioms) for t in library.theories()) == 233


def test_an_empty_suffix_primes_every_taken_name(monoid):
    sig = gen_signature(monoid, "")
    assert [sig.sort.name, *(f.name for f in sig.func_types)] == ["A'", "e'", "op'"]
    prod = gen_product(monoid, "")
    assert [a.name for a in prod.axioms] == ["lunit_e", "runit_e", "associative_op"]


def test_product_binders_are_explicit_even_if_source_hidden(monoid):
    prod = gen_product(monoid)
    for ax in prod.axioms:
        assert all(not b.hidden for b in ax.binders)
        assert all(len(b.names) == 1 for b in ax.binders)


# -- term languages --------------------------------------------------------------

def test_termlang_matches_golden(monoid, golden_constructions):
    assert gen_termlang(monoid) == golden_constructions["MonoidLang"]


def test_termlang_of_bare_sort_is_empty():
    lang = gen_termlang(BARE)
    assert isinstance(lang, DataDecl)
    assert lang.constructors == [] and lang.params == []


def test_termlang_arities_mirror_function_symbols(library):
    group = library.expanded["Group"]
    lang = gen_termlang(group)
    arities = [len(arrow_components(c.ty)) - 1 for c in lang.constructors]
    assert arities == [0, 2, 1]  # e, op, inv


def test_open_termlang_adds_variable_constructor(monoid):
    lang = gen_open_termlang(monoid)
    assert lang.name == "MonoidOpenLang"
    assert lang.params == [Binder(["V"], SetKind())]
    assert [c.name for c in lang.constructors] == ["v", "eOL", "opOL"]
    assert lang.constructors[0].ty == Arrow(SortRef("V"), SortRef("MonoidOpenLang"))


def test_open_termlang_of_bare_sort_has_only_v():
    lang = gen_open_termlang(BARE)
    assert [c.name for c in lang.constructors] == ["v"]


def test_open_termlang_count_is_one_plus_symbols(library):
    sg = library.expanded["Semigroup"]
    assert len(gen_open_termlang(sg).constructors) == 1 + len(sg.func_types)


# -- homomorphism family -------------------------------------------------------------

def test_hom_matches_golden(monoid, golden_constructions):
    assert same_decl_ignoring_constructor(gen_hom(monoid), golden_constructions["MonoidHom"])


def test_hom_of_bare_sort_is_single_function(golden_constructions):
    hom = gen_hom(BARE)
    assert [f.name for f in hom.fields] == ["hom"]
    assert [b.names for b in hom.params] == [["A1"], ["A2"], ["Ca1"], ["Ca2"]]


def test_hom_of_pointed_set():
    hom = gen_hom(POINTED)
    assert [f.name for f in hom.fields] == ["hom", "pres-e"]
    pres = hom.fields[1].ty
    assert isinstance(pres, Equation)  # nullary symbol: no quantifier


def test_hom_requires_carrier_parameter(monoid):
    t = extract(parse_decl("record M : Set where\n  field\n    A : Set\n    e : A"))
    with pytest.raises(GenError, match="waist"):
        gen_hom(t)


def test_monomorphism_is_hom_plus_injectivity(library):
    for t in library.theories():
        hom = gen_hom(t)
        mono = gen_monomorphism(t)
        assert len(mono.fields) == len(hom.fields) + 1
        assert mono.fields[-1].name == "injective"
    inj = gen_monomorphism(POINTED).fields[-1].ty
    assert isinstance(inj, Quant) and isinstance(inj.body, Arrow)


def test_endomorphism_has_one_carrier_and_instance(monoid):
    endo = gen_endomorphism(monoid)
    assert endo.name == "MonoidEnd"
    assert [b.names for b in endo.params] == [["A1"], ["Mo1"]]
    assert endo.fields[0].ty == Arrow(SortRef("A1"), SortRef("A1"))
    text = print_decl(endo)
    assert "Mo2" not in text
    assert "pres-e : hom (e Mo1) == e Mo1" in text


def test_endo_vs_hom_parameter_counts(monoid):
    assert len(gen_endomorphism(monoid).params) == monoid.waist + 1
    assert len(gen_hom(monoid).params) == monoid.waist * 2 + 2


def test_hom_lifts_extra_parameters_verbatim():
    t = extract(parse_decl(
        "record Pointed2 (A : Set) (e : A) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    lunit : {x : A} → op e x == x"
    ))
    assert t.waist == 2
    hom = gen_hom(t)
    assert [b.names for b in hom.params] == [["A1"], ["e1"], ["A2"], ["e2"], ["Po1"], ["Po2"]]
    # the lifted constant is preserved directly, not projected
    assert print_decl(hom).count("pres-e : hom e1 == e2") == 1
    module = [embed(t), prod_decl()] + gen_all(t)
    assert check_module(module) == []


def test_hom_preservation_quantifies_arity_many_variables(library):
    for t in library.theories():
        hom = gen_hom(t)
        assert len(hom.fields) == 1 + len(t.func_types)
        for f, field in zip(t.func_types, hom.fields[1:]):
            arity = len(arrow_components(f.ty)) - 1
            ty = field.ty
            if arity == 0:
                assert isinstance(ty, Equation)
            else:
                assert isinstance(ty, Quant)
                assert sum(len(b.names) for b in ty.binders) == arity
                assert all(b.ty == SortRef("A1") for b in ty.binders)


# -- batch -----------------------------------------------------------------------------

def test_gen_all_emits_catalog_order(monoid):
    decls = gen_all(monoid, list(reversed(DEFAULT_KINDS)))
    assert [d.name for d in decls] == ["MonoidSig", "MonoidProd", "MonoidLang", "MonoidHom"]


def test_gen_all_empty_kinds(monoid):
    assert gen_all(monoid, []) == []


def test_gen_all_full_catalog_checks_as_one_module(monoid, monoid_decl):
    decls = gen_all(monoid, list(GenKind))
    module = [monoid_decl, prod_decl()] + decls
    assert check_module(module) == []


def test_gen_all_module_checks_across_library(library):
    for t in library.theories():
        module = [embed(t), prod_decl()] + gen_all(t)
        assert check_module(module) == [], t.name


def test_default_suffixes_can_be_overridden(monoid):
    sig = gen_signature(monoid, "Zz")
    assert [f.name for f in sig.func_types] == ["eZz", "opZz"]


def test_a_fresh_name_is_never_a_reserved_word():
    names = NameSupply()
    words = sorted(RESERVED_WORDS)
    assert [names.fresh(w) for w in words] == [w + "'" for w in words]
