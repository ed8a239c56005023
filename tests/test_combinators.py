from __future__ import annotations

import pytest

from theoryforge.ast import Binder, RecordDecl
from theoryforge.combinators import (
    Base,
    ClashError,
    Combine,
    Extend,
    Library,
    LibraryError,
    Rename,
    expand,
    expand_library,
    parse_library,
    standard_library_path,
)
from theoryforge import theory
from theoryforge.checker import check_module
from theoryforge.parser import ParseError, parse_decl, parse_file
from theoryforge.theory import EqTheory, ShapeError, embed, extract

from conftest import EARLIER_AXIOM_LIBRARIES, SHADOWING_LIBRARIES

@pytest.fixture(scope="module")
def entries():
    """The entries of the bundled library, in order."""
    return parse_library(standard_library_path().read_text(encoding="utf-8"))


MONOID_VIA_COMBINATORS = """
theory Carrier = base { A : Set }
theory Pointed = extend Carrier with { e : A }
theory Magma = extend Carrier with { op : A → A → A }
theory PointedMagma = combine Pointed Magma over Carrier
theory LeftUnital = extend PointedMagma with { lunit : {x : A} → op e x == x }
theory RightUnital = extend PointedMagma with { runit : {x : A} → op x e == x }
theory Unital = combine LeftUnital RightUnital over PointedMagma
theory Semigroup = extend Magma with { assoc : {x y z : A} → op x (op y z) == op (op x y) z }
theory Monoid = combine Unital Semigroup over Magma
"""


def test_lib_format_parses():
    entries = parse_library(MONOID_VIA_COMBINATORS)
    assert [type(e).__name__ for e in entries] == [
        "Base", "Extend", "Extend", "Combine", "Extend", "Extend", "Combine", "Extend", "Combine",
    ]
    assert entries[0].name == "Carrier"


def test_expansion_trace_reproduces_handwritten_monoid(monoid_decl):
    lib = expand_library(parse_library(MONOID_VIA_COMBINATORS))
    assert lib.expanded["Monoid"] == extract(monoid_decl)


def test_rename_with_identity_mapping_changes_only_the_name(library):
    magma = library.expanded["Magma"]
    renamed = expand(Rename("Magma2", "Magma", {"op": "op"}), library)
    assert renamed.name == "Magma2"
    assert renamed.sort == magma.sort
    assert renamed.func_types == magma.func_types


def test_combine_is_union_along_over(library):
    unital = library.expanded["Unital"]
    left = library.expanded["LeftUnital"]
    right = library.expanded["RightUnital"]
    # independent set-union oracle over declaration names
    assert set(unital.declared_names()) == set(left.declared_names()) | set(right.declared_names())
    names = unital.declared_names()
    assert len(names) == len(set(names))


def test_combine_rejects_untraceable_clash(library):
    lib_text = """
theory Carrier = base { A : Set }
theory P1 = extend Carrier with { e : A }
theory P2 = extend Carrier with { e : A → A }
theory Bad = combine P1 P2 over Carrier
"""
    with pytest.raises(LibraryError, match="Bad"):
        expand_library(parse_library(lib_text))


def test_combine_rejects_same_name_same_type_not_from_over():
    lib_text = """
theory Carrier = base { A : Set }
theory P1 = extend Carrier with { e : A }
theory P2 = extend Carrier with { e : A }
theory Bad = combine P1 P2 over Carrier
"""
    with pytest.raises(LibraryError, match="does not come from"):
        expand_library(parse_library(lib_text))


def test_combine_commutes_up_to_order(library, entries):
    for entry in entries:
        if not isinstance(entry, Combine):
            continue
        flipped = expand(Combine(entry.name, entry.right, entry.left, entry.over), library)
        original = library.expanded[entry.name]
        assert sorted(f.name for f in flipped.func_types) == sorted(
            f.name for f in original.func_types
        )
        assert sorted(a.name for a in flipped.axioms) == sorted(a.name for a in original.axioms)
        key = lambda c: (c.name,)
        assert sorted(flipped.func_types, key=key) == sorted(original.func_types, key=key)
        assert sorted(flipped.axioms, key=lambda a: a.name) == sorted(
            original.axioms, key=lambda a: a.name
        )


def test_extend_may_not_redeclare_the_sort():
    lib_text = """
theory Carrier = base { A : Set }
theory Bad = extend Carrier with { B : Set }
"""
    with pytest.raises(LibraryError) as exc:
        expand_library(parse_library(lib_text))
    assert str(exc.value) == "while expanding 'Bad': multiple sorts (A, B); theories are single-sorted"


def test_extend_rejects_existing_name():
    lib_text = """
theory Carrier = base { A : Set }
theory P = extend Carrier with { e : A }
theory Bad = extend P with { e : A }
"""
    with pytest.raises(LibraryError) as exc:
        expand_library(parse_library(lib_text))
    assert str(exc.value) == "while expanding 'Bad': duplicate declaration name 'e'"


def test_extend_sees_symbols_from_its_own_block():
    lib_text = """
theory Carrier = base { A : Set }
theory Q = extend Carrier with {
  f : A → A
  fix : {x : A} → f (f x) == f x
}
"""
    lib = expand_library(parse_library(lib_text))
    q = lib.expanded["Q"]
    assert [c.name for c in q.func_types] == ["f"]
    assert [a.name for a in q.axioms] == ["fix"]


def test_forward_reference_fails_with_entry_name():
    with pytest.raises(LibraryError, match="Early"):
        expand_library(parse_library("theory Early = extend Later with { }\ntheory Later = base { A : Set }"))


def test_duplicate_entry_name_rejected():
    text = "theory T = base { A : Set }\ntheory T = base { A : Set }"
    with pytest.raises(LibraryError, match="defined twice"):
        expand_library(parse_library(text))


def test_rename_must_be_injective(library):
    entry = Rename("Bad", "Unital", {"lunit": "u", "runit": "u"})
    with pytest.raises(Exception, match="^renaming produces duplicate names$"):
        expand(entry, library)


def test_empty_library_expands_to_nothing():
    lib = expand_library([])
    assert lib.expanded == {} and lib.theories() == []


def test_combine_refuses_two_sides_over_different_sorts():
    lib_text = """
theory Carrier = base { A : Set }
theory P = extend Carrier with { e : A }
theory Q = rename P renaming (A to B)
theory Bad = combine P Q over Carrier
"""
    with pytest.raises(LibraryError) as exc:
        expand_library(parse_library(lib_text))
    assert str(exc.value) == "while expanding 'Bad': cannot combine 'P' and 'Q': sorts differ"


def test_combine_refuses_two_sides_with_different_waists(library):
    # no library text gives a waist other than one, so the theories are built here
    magma = library.expanded["Magma"]
    lib = Library()
    for name, waist in [("L", 1), ("R", 2), ("O", 1)]:
        lib.expanded[name] = EqTheory(name, magma.sort, magma.func_types, [], waist)
    with pytest.raises(ClashError) as exc:
        expand(Combine("Bad", "L", "R", "O"), lib)
    assert str(exc.value) == "cannot combine 'L' and 'R': waists differ"


@pytest.mark.parametrize(
    "text, message",
    [
        ("theory T = ( A", "1:12: expected a combinator, got '(' (expected one of: base, combine, extend, rename)"),
        ("theory T = merge A B", "1:12: unknown combinator 'merge' (expected one of: base, combine, extend, rename)"),
        ("theory T = rename P renaming (a to b, a to c)", "1:39: 'a' renamed twice"),
    ],
    ids=["no-combinator", "unknown-combinator", "renamed-twice"],
)
def test_library_syntax_errors_are_pinned(text, message):
    with pytest.raises(ParseError) as exc:
        parse_library(text)
    assert str(exc.value) == message


def test_base_requires_sort_first():
    with pytest.raises(ParseError, match="sort first"):
        parse_library("theory T = base { e : A }")


def test_base_theory_has_waist_one():
    lib = expand_library(parse_library("theory T = base { A : Set e : A }"))
    t = lib.expanded["T"]
    assert t.waist == 1 and t.sort.name == "A"
    assert [f.name for f in t.func_types] == ["e"]


def test_extend_is_monotone_over_parents(library, entries):
    checked = 0
    for entry in entries:
        if not isinstance(entry, Extend):
            continue
        parent = library.expanded[entry.parent]
        child = library.expanded[entry.name]
        assert child.func_types[: len(parent.func_types)] == parent.func_types
        assert child.axioms[: len(parent.axioms)] == parent.axioms
        checked += 1
    assert checked > 0


def test_standard_library_has_expected_scale(library):
    assert len(library.expanded) >= 50
    names = set(library.expanded)
    assert {"Carrier", "Magma", "Semigroup", "Monoid", "CommutativeMonoid", "Group",
            "AbelianGroup", "Ring", "BoundedDistributedLattice"} <= names
    for t in library.theories():
        assert t.waist == 1


def test_expansion_is_deterministic(library, entries):
    again = expand_library(entries)
    assert list(again.expanded) == list(library.expanded) == [e.name for e in entries]
    assert [t.name for t in library.theories()] == [e.name for e in entries]
    for name, t in again.expanded.items():
        assert t == library.expanded[name]


def test_library_cut_short_names_end_of_input():
    with pytest.raises(ParseError) as exc:
        parse_library("theory T = base { A : Set }\ntheory U = extend T")
    e = exc.value
    assert (e.line, e.col, e.message) == (2, 20, "expected 'with', got end of input")


def test_extend_refuses_higher_order_like_a_record():
    with pytest.raises(ShapeError) as record:
        extract(parse_decl("record T (A : Set) : Set where\n  field\n    f : (A → A) → A"))
    with pytest.raises(LibraryError) as lib:
        expand_library(parse_library(
            "theory T = base { A : Set }\ntheory U = extend T with { f : (A → A) → A }"
        ))
    assert str(lib.value.cause) == str(record.value)
    assert "higher-order" in str(record.value)


def test_extend_axiom_may_use_an_operation_declared_later_in_its_block():
    lib = expand_library(parse_library("""
theory Carrier = base { A : Set }
theory Q = extend Carrier with {
  fix : {x : A} → f (f x) == f x
  f : A → A
}
"""))
    q = lib.expanded["Q"]
    assert [c.name for c in q.func_types] == ["f"]
    assert [a.name for a in q.axioms] == ["fix"]


def test_base_with_two_operations_of_one_name_is_refused():
    with pytest.raises(LibraryError) as exc:
        expand_library(parse_library("theory T = base { A : Set  f : A  f : A → A }"))
    assert str(exc.value) == "while expanding 'T': duplicate declaration name 'f'"


def _as_record(entry, library) -> RecordDecl:
    """The record a library entry other than a rename denotes: its
    parent's record with the entry's new members as further fields.  The
    parent of a ``combine`` is its left theory, and the new members are
    those of its right theory that the left one lacks."""
    if isinstance(entry, Base):
        sort = entry.block[0]
        return RecordDecl(entry.name, [Binder([sort.name], sort.ty)], "C", entry.block[1:])
    if isinstance(entry, Extend):
        parent, members = embed(library.expanded[entry.parent]), entry.new_decls
    else:
        left, right = library.expanded[entry.left], library.expanded[entry.right]
        parent, have = embed(left), set(left.declared_names())
        members = [c for c in [*right.func_types, *(a.to_constr() for a in right.axioms)] if c.name not in have]
    return RecordDecl(entry.name, parent.params, parent.constructor_name, parent.fields + members)


def test_extend_reads_its_block_like_record_fields_after_the_parent(library, entries):
    # and so do base and combine entries
    kinds = set()
    for entry in entries:
        if not isinstance(entry, Rename):
            assert extract(_as_record(entry, library)) == library.expanded[entry.name], entry.name
            kinds.add(type(entry))
    assert kinds == {Base, Extend, Combine}


COMM_X = "op : A → A → A\n    comm : (x y : A) → op x y == op y x\n    x : A"
EARLIER_AXIOM = "f : A → A\n    x : (y : A) → f y == y\n    e : (x : A) → f x == x"


@pytest.mark.parametrize(
    "library_text, fields, message",
    [
        (SHADOWING_LIBRARIES["extend"], COMM_X, "axiom 'comm': variable 'x' shadows another name"),
        (SHADOWING_LIBRARIES["combine"], COMM_X, "axiom 'comm': variable 'x' shadows another name"),
        (
            SHADOWING_LIBRARIES["combine-flipped"],
            "op : A → A → A\n    x : A\n    comm : (x y : A) → op x y == op y x",
            "axiom 'comm': variable 'x' shadows another name",
        ),
        (
            "theory C = base { A : Set }\ntheory P = extend C with { e : A }\ntheory Bad = extend P with { e : A }",
            "e : A\n    e : A",
            "duplicate declaration name 'e'",
        ),
        ("theory Bad = base { A : Set  f : A  f : A → A }", "f : A\n    f : A → A", "duplicate declaration name 'f'"),
        (
            "theory C = base { A : Set }\ntheory Bad = extend C with { B : Set }",
            "B : Set",
            "multiple sorts (A, B); theories are single-sorted",
        ),
        (
            "theory C = base { A : Set }\ntheory Bad = extend C with { ax : A == A }",
            "ax : A == A",
            "axiom 'ax', left side: 'A' is a type, not a term",
        ),
        (
            "theory C = base { A : Set }\ntheory Bad = extend C with { op : A → A → A  ax : (x : A) → op A x == x }",
            "op : A → A → A\n    ax : (x : A) → op A x == x",
            "axiom 'ax', left side: 'A' is a type, not a term",
        ),
        (EARLIER_AXIOM_LIBRARIES["extend"], EARLIER_AXIOM, "axiom 'e': variable 'x' shadows another name"),
        (EARLIER_AXIOM_LIBRARIES["combine"], EARLIER_AXIOM, "axiom 'e': variable 'x' shadows another name"),
    ],
    ids=["shadow-extend", "shadow-combine", "shadow-combine-flipped", "repeated-name-extend",
         "repeated-name-base", "second-sort", "equation-between-sorts", "sort-as-argument",
         "earlier-axiom-extend", "earlier-axiom-combine"],
)
def test_a_library_entry_is_refused_as_its_record_is(library_text, fields, message):
    with pytest.raises(LibraryError) as lib:
        expand_library(parse_library(library_text))
    with pytest.raises(ShapeError) as record:
        extract(parse_decl(f"record M (A : Set) : Set where\n  field\n    {fields}"))
    assert str(lib.value.cause) == str(record.value) == message


def test_a_variable_may_take_the_name_of_a_later_axiom():
    lib = expand_library(parse_library(
        "theory C = base { A : Set  f : A → A }\n"
        "theory D = extend C with { e : (x : A) → f x == x  x : (y : A) → f y == y }"
    ))
    (record,) = decls = parse_file(
        "record D (A : Set) : Set where\n  field\n"
        "    f : A → A\n    e : (x : A) → f x == x\n    x : (y : A) → f y == y\n"
    )
    assert check_module(decls) == []
    assert extract(record) == lib.expanded["D"]


def test_each_written_axiom_is_read_once(monkeypatch, entries, library):
    # combine hands over the axioms its sides have read, so the only
    # axioms read are those written in base and extend blocks
    read = []
    constr_to_axiom = theory.constr_to_axiom
    monkeypatch.setattr(theory, "constr_to_axiom", lambda c, *rest: read.append(c.name) or constr_to_axiom(c, *rest))
    expand_library(entries)
    written = [
        c.name
        for e in entries
        if isinstance(e, (Base, Extend))
        for c in (e.block[1:] if isinstance(e, Base) else e.new_decls)
        if c.name in {a.name for a in library.expanded[e.name].axioms}
    ]
    assert read == written
    assert len(read) == 25
