from __future__ import annotations

import pytest

from theoryforge.ast import SetKind, SortRef
from theoryforge.parser import parse_decl
from theoryforge.theory import (
    CollisionError,
    RenameScheme,
    ShapeError,
    associativity_op,
    embed,
    extract,
    mentioned_constants,
    rename,
    rename_with,
)


def test_extract_monoid(monoid):
    assert monoid.name == "Monoid"
    assert monoid.sort.name == "A"
    assert monoid.sort.ty == SetKind()
    assert [f.name for f in monoid.func_types] == ["e", "op"]
    assert [a.name for a in monoid.axioms] == ["lunit", "runit", "assoc"]
    assert monoid.waist == 1
    assert monoid.arities == {"e": 0, "op": 2}


def test_extract_bare_sort_theory():
    t = extract(parse_decl("record Carrier (A : Set) : Set where"))
    assert t.func_types == [] and t.axioms == [] and t.waist == 1


def test_extract_rejects_multiple_sorts():
    d = parse_decl("record M (A : Set) : Set where\n  field\n    B : Set")
    with pytest.raises(ShapeError, match="multiple sorts"):
        extract(d)


def test_extract_rejects_missing_sort():
    with pytest.raises(ShapeError, match="no sort"):
        extract(parse_decl("record M : Set where"))


def test_extract_rejects_higher_order_symbols():
    d = parse_decl("record M (A : Set) : Set where\n  field\n    f : (A → A) → A")
    with pytest.raises(ShapeError, match="higher-order"):
        extract(d)


def test_extract_rejects_non_theory_field():
    d = parse_decl(
        "record M (A : Set) : Set where\n  field\n    op : A → A → A\n    w : {x : A} → op x x == op x"
    )
    with pytest.raises(ShapeError, match="argument"):
        extract(d)


def test_extract_waist_zero():
    d = parse_decl("record M : Set where\n  field\n    A : Set\n    e : A")
    t = extract(d)
    assert t.waist == 0
    assert t.sort.name == "A"
    assert [f.name for f in t.func_types] == ["e"]


def test_rename_with_suffix_renames_sort_and_symbols(monoid):
    t = rename(monoid, RenameScheme("S"))
    assert t.sort.name == "AS"
    assert [f.name for f in t.func_types] == ["eS", "opS"]
    # occurrences inside types follow
    assert t.func_types[0].ty == SortRef("AS")


def test_identity_scheme_is_identity(monoid):
    assert rename(monoid, RenameScheme("")) == monoid


def test_axiom_rename_convention(monoid):
    mapping = RenameScheme("P").mapping_for(monoid)
    assert mapping["lunit"] == "lunit_eP"
    assert mapping["runit"] == "runit_eP"
    assert mapping["assoc"] == "associative_opP"


def test_fallback_axiom_rename_appends_suffix():
    d = parse_decl(
        "record C (A : Set) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    comm : {x y : A} → op x y == op y x"
    )
    t = extract(d)
    assert RenameScheme("P").mapping_for(t)["comm"] == "commP"


def test_rename_preserves_counts_and_shape(library):
    for t in library.theories():
        r = rename(t, RenameScheme("Q"))
        assert len(r.func_types) == len(t.func_types)
        assert len(r.axioms) == len(t.axioms)
        assert r.waist == t.waist
        for old, new in zip(t.axioms, r.axioms):
            assert [b.hidden for b in old.binders] == [b.hidden for b in new.binders]
            assert old.var_names == new.var_names


@pytest.mark.parametrize("suffix", ["S", "_c03"])
def test_rename_round_trips_across_library(library, suffix):
    for t in library.theories():
        m = RenameScheme(suffix).mapping_for(t)
        renamed = rename_with(t, m)
        # re-extraction fails on any occurrence the renaming missed
        assert extract(embed(renamed)) == renamed, t.name
        assert rename_with(renamed, {v: k for k, v in m.items()}) == t, t.name


def test_rename_rejects_non_injective(monoid):
    with pytest.raises(CollisionError, match="duplicate"):
        rename_with(monoid, {"e": "same", "op": "same"})


def test_rename_rejects_unknown_names(monoid):
    with pytest.raises(CollisionError, match="undeclared"):
        rename_with(monoid, {"nope": "x"})


def test_rename_rejects_variable_capture(monoid):
    with pytest.raises(CollisionError, match="captures"):
        rename_with(monoid, {"e": "x"})


def test_embed_monoid_matches_source(monoid, monoid_decl):
    embedded = embed(monoid)
    assert embedded.params == monoid_decl.params
    assert embedded.fields == monoid_decl.fields
    assert embedded.constructor_name == "MonoidC"


def test_embed_waist_zero_puts_everything_in_fields(monoid):
    t = rename_with(monoid, {})
    t.waist = 0
    d = embed(t)
    assert d.params == []
    assert [f.name for f in d.fields] == ["A", "e", "op", "lunit", "runit", "assoc"]


def test_embed_extract_roundtrip_across_library(library):
    for t in library.theories():
        assert extract(embed(t)) == t, t.name


def test_associativity_recognized_in_both_orientations():
    left_first = parse_decl(
        "record M (A : Set) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    ax : {x y z : A} → op (op x y) z == op x (op y z)"
    )
    right_first = parse_decl(
        "record M (A : Set) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    ax : {x y z : A} → op x (op y z) == op (op x y) z"
    )
    assert associativity_op(extract(left_first).axioms[0]) == "op"
    assert associativity_op(extract(right_first).axioms[0]) == "op"


def test_self_distributivity_is_not_associativity():
    d = parse_decl(
        "record M (A : Set) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    sd : {x y z : A} → op x (op y z) == op (op x y) (op x z)"
    )
    assert associativity_op(extract(d).axioms[0]) is None


def test_mentioned_constants_in_declaration_order(monoid):
    lunit = monoid.axioms[0]
    assert mentioned_constants(lunit, monoid) == ["e"]
    assoc = monoid.axioms[2]
    assert mentioned_constants(assoc, monoid) == []
