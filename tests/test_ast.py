"""Equality, hashing and repr of the syntax-tree, declaration and theory
classes: structural ``==`` that ignores positions and never recurses; and
the members a declaration adds to its module."""

from __future__ import annotations

import inspect
import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from theoryforge.ast import (
    App,
    Arrow,
    Binder,
    Constr,
    DataDecl,
    Equation,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Structure,
    Sym,
    TyApp,
    Var,
    apply_spine,
    arrow_chain,
    decl_members,
    write_repr,
)
from theoryforge.checker import CheckError
from theoryforge.parser import parse_decl
from theoryforge.printer import print_type
from theoryforge.theory import Axiom, EqTheory, RenameScheme, extract

DEEP = 5000
assert DEEP > sys.getrecursionlimit()


# -- deep structures ----------------------------------------------------------------

def _arrows(changed: int | None = None):
    """A type of ``DEEP`` arrows; component ``changed`` names ``B``."""
    return arrow_chain([SortRef("B" if i == changed else "A") for i in range(DEEP + 1)])


def _spine(changed: int | None = None):
    """``f`` applied to ``DEEP`` arguments; argument ``changed`` is ``y``
    (``-1`` changes the head)."""
    head = Sym("g" if changed == -1 else "f")
    return apply_spine(head, [Var("y" if i == changed else "x") for i in range(DEEP)])


def _nest(wrap, leaf):
    t = leaf
    for _ in range(DEEP):
        t = wrap(t)
    return t


# each builds a structure nested DEEP levels through one field, with the
# innermost leaf named by its argument
NESTINGS = {
    "arrow domains": lambda n: _nest(lambda t: Arrow(t, SortRef("A")), SortRef(n)),
    "application arguments": lambda n: _nest(lambda t: App(Sym("s"), t), Sym(n)),
    "type-application arguments": lambda n: _nest(lambda t: TyApp("F", [SortRef("A"), t]), SortRef(n)),
    "quantifier bodies": lambda n: _nest(lambda t: Quant([Binder(["x"], SortRef("A"))], t), SortRef(n)),
    "binder types": lambda n: _nest(lambda t: Quant([Binder(["x"], t)], SortRef("A")), SortRef(n)),
    "first arguments of a binary operation": lambda n: _nest(lambda t: App(App(Sym("op"), t), Var("x")), Var(n)),
}


@pytest.mark.parametrize("changed", [0, DEEP // 2, DEEP])
def test_a_5000_arrow_type_compares_without_recursion(changed):
    a = _arrows()
    assert a == _arrows() and not a != _arrows()
    assert a != _arrows(changed) and not a == _arrows(changed)
    leaf = "SortRef(name='A', pos=None)"
    assert repr(a) == f"Arrow(dom={leaf}, cod=" * DEEP + leaf + ", pos=None)" * DEEP


@pytest.mark.parametrize("changed", [-1, 0, DEEP // 2, DEEP - 1])
def test_a_5000_argument_application_compares_without_recursion(changed):
    a = _spine()
    assert a == _spine() and not a != _spine()
    assert a != _spine(changed) and not a == _spine(changed)


@pytest.mark.parametrize("nesting", NESTINGS.values(), ids=NESTINGS.keys())
def test_deep_nesting_through_any_field_compares_without_recursion(nesting):
    a = nesting("a")
    assert a == nesting("a")
    assert a != nesting("b")
    text = repr(a)
    assert text.count("(name='a', pos=None)") == 1 and text.count("(") == text.count(")")


def test_deep_equation_sides_and_declarations_compare_without_recursion():
    side = NESTINGS["first arguments of a binary operation"]
    assert Equation(side("a"), Var("x")) == Equation(side("a"), Var("x"))
    assert Equation(side("a"), Var("x")) != Equation(side("b"), Var("x"))
    field = Constr("f", _arrows())
    assert RecordDecl("M", [], "mk", [field]) == RecordDecl("M", [], "mk", [Constr("f", _arrows())])
    assert RecordDecl("M", [], "mk", [field]) != RecordDecl("M", [], "mk", [Constr("f", _arrows(DEEP))])


# -- semantics ------------------------------------------------------------------------

MONOID_TIGHT = """record Monoid (A : Set) : Set where
  constructor monoid
  field
    e : A
    op : A → A → A
    assoc : {x y z : A} → op x (op y z) == op (op x y) z
"""

MONOID_LOOSE = """-- the same declaration, laid out differently
record   Monoid
    ( A : Set )   : Set   where
  constructor   monoid
  field
    e   :   A
    op  :  A -> (A -> A)
    assoc : { x y z : A }
            -> op x ((op y z)) == (op (op x y) z)
"""


def test_the_same_declaration_laid_out_differently_parses_to_equal_trees():
    a, b = parse_decl(MONOID_TIGHT), parse_decl(MONOID_LOOSE)
    assert a.pos != b.pos and a.fields[2].pos != b.fields[2].pos
    assert a == b and not a != b
    assert extract(a) == extract(b)
    c = parse_decl(MONOID_LOOSE.replace("op x ((op y z))", "op x ((op z y))"))
    assert a != c and extract(a) != extract(c)


def test_positions_never_take_part_in_equality():
    assert SortRef("A", (1, 2)) == SortRef("A", (3, 4))
    assert SetKind((1, 1)) == SetKind()
    assert Binder(["x"], SortRef("A"), True, (1, 1)) == Binder(["x"], SortRef("A"), True)
    assert Binder(["x"], SortRef("A"), True) != Binder(["x"], SortRef("A"), False)


def test_nodes_of_different_classes_are_never_equal():
    assert SortRef("A") != Sym("A") and not SortRef("A") == Sym("A")
    assert Var("x") != Sym("x")
    assert App(Sym("f"), Var("x")) != App(Sym("f"), Sym("x"))
    assert TyApp("F", [SortRef("A")]) != TyApp("F", [TyApp("A", [])])
    assert SortRef("A") != "A" and SetKind() != None  # noqa: E711
    assert Axiom("a", [], Var("x"), Var("x")) != Equation(Var("x"), Var("x"))


@pytest.mark.parametrize(
    "source, members",
    [
        (
            MONOID_TIGHT,
            [("e", "A", (4, 5)), ("op", "A → A → A", (5, 5)),
             ("assoc", "{x y z : A} → op x (op y z) == op (op x y) z", (6, 5)), ("monoid", None, (1, 1))],
        ),
        ("data N : Set where\n  z : N\n  s : N → N\n", [("z", "N", (2, 3)), ("s", "N → N", (3, 3))]),
    ],
    ids=["record", "data"],
)
def test_the_members_of_a_declaration_are_listed_in_order_with_type_and_position(source, members):
    # a record's constructor comes last, has no type and stands at the record
    listed = decl_members(parse_decl(source))
    assert [(m.name, m.ty and print_type(m.ty), m.pos) for m in listed] == members


UNHASHABLE = [
    Var("x"),
    Sym("f"),
    App(Sym("f"), Var("x")),
    SetKind(),
    SortRef("A"),
    TyApp("F", []),
    Arrow(SortRef("A"), SortRef("A")),
    Binder(["x"], SortRef("A")),
    Quant([], SortRef("A")),
    Equation(Var("x"), Var("x")),
    Constr("f", SortRef("A")),
    RecordDecl("M", [], "mk", []),
    DataDecl("D", [], []),
    Axiom("a", [], Var("x"), Var("x")),
    EqTheory("T", Constr("A", SetKind()), [], [], 1),
]


@pytest.mark.parametrize("value", UNHASHABLE, ids=lambda v: type(v).__name__)
def test_trees_and_theories_stay_unhashable(value):
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_check_errors_and_rename_schemes_are_hashable_records():
    a = CheckError("SortMismatch", "m", (1, 2))
    assert a == CheckError("SortMismatch", "m", (1, 2))
    assert a != CheckError("SortMismatch", "m", (1, 3))
    assert a != CheckError("UnboundName", "m", (1, 2))
    assert len({a, CheckError("SortMismatch", "m", (1, 2))}) == 1
    assert CheckError("k", "m").pos is None
    assert RenameScheme("S") == RenameScheme(suffix="S") != RenameScheme("P")
    assert len({RenameScheme("S"), RenameScheme("S"), RenameScheme("P")}) == 2


def test_repr_lists_every_field_in_constructor_order():
    b = Binder(["x", "y"], SortRef("A", (2, 9)), hidden=True, pos=(2, 3))
    assert repr(b) == (
        "Binder(names=['x', 'y'], ty=SortRef(name='A', pos=(2, 9)), hidden=True, pos=(2, 3))"
    )
    assert repr(SetKind()) == "SetKind(pos=None)"
    assert repr(EqTheory("T", Constr("A", SetKind()), [], [], 1)) == (
        "EqTheory(name='T', sort=Constr(name='A', ty=SetKind(pos=None), pos=None),"
        " func_types=[], axioms=[], waist=1)"
    )


# every constructor's parameters, in order, with the defaults of the optional
# ones: what callers across the package and outside it rely on
CONSTRUCTORS = {
    App: ("fn", "arg", ("pos", None)),
    Arrow: ("dom", "cod", ("pos", None)),
    Axiom: ("name", "binders", "lhs", "rhs", ("pos", None)),
    Binder: ("names", "ty", ("hidden", False), ("pos", None)),
    Constr: ("name", "ty", ("pos", None)),
    DataDecl: ("name", "params", "constructors", ("pos", None)),
    EqTheory: ("name", "sort", "func_types", "axioms", "waist"),
    Equation: ("lhs", "rhs", ("pos", None)),
    Quant: ("binders", "body", ("pos", None)),
    RecordDecl: ("name", "params", "constructor_name", "fields", ("pos", None)),
    SetKind: (("pos", None),),
    SortRef: ("name", ("pos", None)),
    Sym: ("name", ("pos", None)),
    TyApp: ("head", "args", ("pos", None)),
    Var: ("name", ("pos", None)),
}


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
def test_each_constructor_takes_its_fields_in_order_with_their_defaults(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(params)
    assert tuple(p.name if p.default is p.empty else (p.name, p.default) for p in params) == CONSTRUCTORS[cls]
    names = [p.name for p in params]
    values = [f"{cls.__name__}.{n}" for n in names]
    for x in (cls(*values), cls(**dict(zip(names, values)))):
        assert [getattr(x, n) for n in names] == values
    required = [p.name for p in params if p.default is p.empty]
    x = cls(*required)
    assert [getattr(x, p.name) for p in params] == [p.name if p.default is p.empty else p.default for p in params]
    with pytest.raises(TypeError):
        cls(*values, None)


def test_every_structure_class_has_a_pinned_constructor():
    assert set(CONSTRUCTORS) == set(STRUCTURE_CLASSES)


def test_a_new_structure_class_is_its_slots_and_defaults():
    class Pair(Structure):
        __slots__ = ("left", "right", "pos")
        _defaults = {**Structure._defaults, "right": "r"}

    p, q = Pair("l"), Pair("l", pos=(1, 2), right="x")
    assert (p.left, p.right, p.pos, q.left, q.right, q.pos) == ("l", "r", None, "l", "x", (1, 2))
    assert Pair("l") == Pair("l", "r", (3, 4)) != Pair("l", "x")
    with pytest.raises(TypeError, match=r"__init__\(\) missing 1 required positional argument: 'left'"):
        Pair()
    with pytest.raises(TypeError, match="writes __init__"):

        class Own(Structure):
            __slots__ = ("pos",)

            def __init__(self, pos=None):
                self.pos = pos


# -- == and repr against recursive references ------------------------------------------

def _reference_eq(a, b) -> bool:
    """Field-by-field equality, written recursively: what ``==`` must give."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_reference_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, Structure):
        return all(_reference_eq(getattr(a, f), getattr(b, f)) for f in a.__slots__ if f != "pos")
    return a == b


# two names each, so that equal and nearly equal pairs are common
_names = st.sampled_from(["a", "b"])
_pos = st.none() | st.tuples(st.integers(1, 2), st.integers(1, 2))
_small = {"max_size": 2}

_terms = st.recursive(
    st.builds(Var, _names, _pos) | st.builds(Sym, _names, _pos),
    lambda kids: st.builds(App, kids, kids, _pos),
    max_leaves=5,
)


def _binders(types):
    return st.builds(Binder, st.lists(_names, min_size=1, **_small), types, st.booleans(), _pos)


_types = st.recursive(
    st.builds(SetKind, _pos) | st.builds(SortRef, _names, _pos) | st.builds(Equation, _terms, _terms, _pos),
    lambda kids: (
        st.builds(TyApp, _names, st.lists(kids, **_small), _pos)
        | st.builds(Arrow, kids, kids, _pos)
        | st.builds(Quant, st.lists(_binders(kids), **_small), kids, _pos)
    ),
    max_leaves=5,
)
_constrs = st.builds(Constr, _names, _types, _pos)
_params = st.lists(_binders(_types), **_small)
_axioms = st.builds(Axiom, _names, st.lists(_binders(_types), **_small), _terms, _terms, _pos)

# one strategy per class, so that each class is drawn at the top
BY_CLASS = {
    "Var": st.builds(Var, _names, _pos),
    "Sym": st.builds(Sym, _names, _pos),
    "App": st.builds(App, _terms, _terms, _pos),
    "SetKind": st.builds(SetKind, _pos),
    "SortRef": st.builds(SortRef, _names, _pos),
    "TyApp": st.builds(TyApp, _names, st.lists(_types, **_small), _pos),
    "Arrow": st.builds(Arrow, _types, _types, _pos),
    "Binder": _binders(_types),
    "Quant": st.builds(Quant, _params, _types, _pos),
    "Equation": st.builds(Equation, _terms, _terms, _pos),
    "Constr": _constrs,
    "RecordDecl": st.builds(RecordDecl, _names, _params, _names, st.lists(_constrs, **_small), _pos),
    "DataDecl": st.builds(DataDecl, _names, _params, st.lists(_constrs, **_small), _pos),
    "Axiom": _axioms,
    "EqTheory": st.builds(
        EqTheory, _names, _constrs, st.lists(_constrs, **_small), st.lists(_axioms, **_small), st.integers(0, 1)
    ),
}
STRUCTURES = st.one_of(*BY_CLASS.values())


def _copy(x, countdown: list[int]):
    """``x`` rebuilt without positions, with the ``countdown[0]``-th field
    value in pre-order changed: a name gets a prime, a ``hidden`` flag
    flips, a waist grows, a list loses its last item.  ``countdown[0]``
    stays positive when it is past the last value."""
    if isinstance(x, Structure):
        return type(x)(**{f: None if f == "pos" else _copy(getattr(x, f), countdown) for f in x.__slots__})
    countdown[0] -= 1
    hit = countdown[0] == 0
    if isinstance(x, list):
        return [_copy(v, countdown) for v in (x[:-1] if hit else x)]
    if not hit:
        return x
    if isinstance(x, str):
        return x + "'"
    return not x if isinstance(x, bool) else x + 1


def _assert_equality_as_the_reference(a, b) -> None:
    expected = _reference_eq(a, b)
    assert (a == b) is expected
    assert (a != b) is not expected
    assert (b == a) is expected


@given(STRUCTURES, STRUCTURES)
def test_equality_agrees_with_the_recursive_reference(a, b):
    _assert_equality_as_the_reference(a, b)


@pytest.mark.parametrize("structures", BY_CLASS.values(), ids=BY_CLASS.keys())
@settings(max_examples=25)
@given(data=st.data())
def test_a_copy_is_equal_until_any_one_field_changes(structures, data):
    a = data.draw(structures)
    _assert_equality_as_the_reference(a, _copy(a, [0]))
    for changed in itertools.count(1):
        countdown = [changed]
        _assert_equality_as_the_reference(a, _copy(a, countdown))
        if countdown[0] > 0:
            break


def _structure_classes() -> list[type]:
    """Every class under ``Structure`` that declares a slot, found by
    walking ``__subclasses__``, so that a class added later is covered."""
    found, todo = [], [Structure]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__slots__ and cls.__module__ in ("theoryforge.ast", "theoryforge.theory"):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


STRUCTURE_CLASSES = _structure_classes()
assert {Var, Sym, SortRef, RecordDecl, Axiom, EqTheory} <= set(STRUCTURE_CLASSES)

# each slot holds a child structure and a plain value; every variant
# differs from it in one of them, in its length or in its kind
_SLOT_VALUE = [SortRef("x"), "s"]
_OTHER_SLOT_VALUES = [[SortRef("y"), "s"], [SortRef("x"), "t"], [SortRef("x")], "s"]


def _instance(cls: type, **slots):
    x = cls.__new__(cls)
    for f in cls.__slots__:
        setattr(x, f, slots[f] if f in slots else (None if f == "pos" else list(_SLOT_VALUE)))
    return x


@pytest.mark.parametrize("cls", STRUCTURE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_slot_but_pos_takes_part_in_equality(cls):
    a = _instance(cls)
    assert a == _instance(cls)
    for f in cls.__slots__:
        if f == "pos":
            assert a == _instance(cls, pos=(9, 9))
            continue
        for value in _OTHER_SLOT_VALUES:
            b = _instance(cls, **{f: value})
            assert a != b and b != a, (f, value)


def _reference_repr(x) -> str:
    """``repr`` written recursively: every field of a structure, lists and
    tuples as Python spells them."""
    if isinstance(x, Structure):
        fields = ", ".join(f"{f}={_reference_repr(getattr(x, f))}" for f in x.__slots__)
        return f"{type(x).__qualname__}({fields})"
    if type(x) is list:
        return "[" + ", ".join(map(_reference_repr, x)) + "]"
    if type(x) is tuple:
        inner = ", ".join(map(_reference_repr, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    return repr(x)


@given(STRUCTURES)
def test_repr_agrees_with_the_recursive_reference(a):
    assert repr(a) == _reference_repr(a)


@settings(max_examples=30)
@given(st.lists(STRUCTURES | st.integers() | st.text(max_size=2) | st.none(), max_size=3), st.booleans())
def test_the_repr_writer_spells_lists_and_tuples_as_python_does(items, as_tuple):
    x = tuple(items) if as_tuple else items
    assert write_repr(x, Structure, "__slots__") == _reference_repr(x) == repr(x)
