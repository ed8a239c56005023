from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from theoryforge.ast import App, Binder, SetKind, SortRef, Sym, Term, Var, spine
from theoryforge.parser import parse_decl
from theoryforge.theory import (
    Axiom,
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


def _reference_associativity_op(ax: Axiom) -> str | None:
    """``associativity_op`` as it was written before it compared the sides
    with ``associativity``'s output: each side matched against a shape
    string."""
    names = ax.var_names
    if len(names) != 3 or len(set(names)) != 3:
        return None

    def _match(side: Term, shape: str) -> tuple[str, tuple[str, str, str]] | None:
        # shape "L": f (f a b) c ; shape "R": f a (f b c)
        head, args = spine(side)
        if not (isinstance(head, Sym) and len(args) == 2):
            return None
        outer = head.name
        first, second = args
        nested = first if shape == "L" else second
        plain = second if shape == "L" else first
        nhead, nargs = spine(nested)
        if not (isinstance(nhead, Sym) and nhead.name == outer and len(nargs) == 2):
            return None
        if not all(isinstance(x, Var) for x in (*nargs, plain)):
            return None
        if shape == "L":
            seq = (nargs[0].name, nargs[1].name, plain.name)
        else:
            seq = (plain.name, nargs[0].name, nargs[1].name)
        return outer, seq

    for lhs_shape, rhs_shape in (("L", "R"), ("R", "L")):
        left = _match(ax.lhs, lhs_shape)
        right = _match(ax.rhs, rhs_shape)
        if left and right and left == right and set(left[1]) == set(names):
            return left[0]
    return None


def _binary(f: str, a: Term, b: Term) -> Term:
    return App(App(Sym(f), a), b)


_SYMBOLS = st.sampled_from(["op", "g"])
_LEAVES = st.one_of(st.sampled_from("xyzw").map(Var), st.just(Sym("e")))
_TERMS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.builds(_binary, _SYMBOLS, kids, kids), st.builds(App, _SYMBOLS.map(Sym), kids)),
    max_leaves=5,
)


@st.composite
def _nearly_associative_axioms(draw) -> Axiom:
    """``op (op a b) c == op a (op b c)`` over binders ``x y z`` in some
    order, its variables in any order and either orientation, with at most
    one change: other binder names (repeated, missing or extra), ``g`` for
    one ``op``, another leaf on one side, or one side another term."""
    names = draw(st.permutations("xyz"))
    leaves = [Var(n) for n in draw(st.permutations(names))]
    others = list(leaves)
    symbols = ["op"] * 4
    change = draw(st.sampled_from(["none", "binders", "symbol", "leaf", "side"]))
    if change == "binders":
        names = draw(st.lists(st.sampled_from("xyzw"), min_size=2, max_size=4))
    elif change == "symbol":
        symbols[draw(st.integers(0, 3))] = "g"
    elif change == "leaf":
        others[draw(st.integers(0, 2))] = draw(_LEAVES)
    lhs = _binary(symbols[0], _binary(symbols[1], leaves[0], leaves[1]), leaves[2])
    rhs = _binary(symbols[2], others[0], _binary(symbols[3], others[1], others[2]))
    if change == "side":
        rhs = draw(_TERMS)
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    return Axiom("ax", [Binder(list(names), SortRef("A"))], lhs, rhs)


@given(_nearly_associative_axioms())
def test_associativity_op_agrees_with_the_shape_matcher_it_replaced(ax):
    assert associativity_op(ax) == _reference_associativity_op(ax)


def test_mentioned_constants_in_declaration_order(monoid):
    lunit = monoid.axioms[0]
    assert mentioned_constants(lunit, monoid) == ["e"]
    assoc = monoid.axioms[2]
    assert mentioned_constants(assoc, monoid) == []
