from __future__ import annotations

import copy
import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import read_data
from theoryforge.checker import (
    ARITY_MISMATCH,
    DUPLICATE_FIELD,
    SORT_MISMATCH,
    UNBOUND_NAME,
    check_module,
    format_errors,
)
from theoryforge.ast import (
    App,
    Equation,
    RecordDecl,
    SetKind,
    SortRef,
    Structure,
    Sym,
    TyApp,
    decl_members,
    spine,
)
from theoryforge.generators import gen_all, prod_decl
from theoryforge.parser import parse_file


def kinds_of(errors):
    return [e.kind for e in errors]


def test_golden_blocks_check_clean(monoid_decl, monoid):
    module = [monoid_decl, prod_decl()] + gen_all(monoid)
    assert check_module(module) == []


def test_duplicate_field_within_record():
    errors = check_module(parse_file(read_data("bad_duplicate_field.eqt")))
    assert kinds_of(errors) == [DUPLICATE_FIELD]


def test_unbound_name():
    errors = check_module(parse_file(read_data("bad_unbound_name.eqt")))
    assert kinds_of(errors) == [UNBOUND_NAME]


def test_arity_mismatch_in_axiom():
    errors = check_module(parse_file(read_data("bad_arity_mismatch.eqt")))
    assert kinds_of(errors) == [ARITY_MISMATCH]


def test_two_copies_of_a_record_clash_across_decls(monoid_source):
    errors = check_module(parse_file(monoid_source + "\n" + monoid_source))
    assert DUPLICATE_FIELD in kinds_of(errors)
    # one error for the duplicated declaration name, one per member
    assert all(k == DUPLICATE_FIELD for k in kinds_of(errors))


def test_sort_mismatch_across_carriers(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (A2 : Set) (Mo1 : Monoid A1) : Set where
  constructor badC
  field
    f : A1 → A2
    w : (x : A1) → f x == x
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [SORT_MISMATCH]


@pytest.mark.parametrize(
    "field", ["g : Monoid A1 → A1\n    w : g Mo2 == g Mo1", "w : Mo1 == Mo2"], ids=["argument", "equation"]
)
def test_sort_mismatch_between_instances_over_different_carriers(monoid_source, field):
    # an argument sort and the two sides of an equation, each ``Monoid A1``
    # against ``Monoid A2``: same head, different argument
    source = monoid_source + f"""
record Bad (A1 : Set) (A2 : Set) (Mo1 : Monoid A1) (Mo2 : Monoid A2) : Set where
  constructor badC
  field
    {field}
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [SORT_MISMATCH]
    assert "Monoid A1" in errors[0].message and "Monoid A2" in errors[0].message


def test_projection_arity_checked(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (Mo1 : Monoid A1) : Set where
  constructor badC
  field
    w : (x : A1) → op Mo1 x == x
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [ARITY_MISMATCH]


def test_instance_type_must_match_owner(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (Mo1 : Monoid A1) : Set where
  constructor badC
  field
    w : (x : A1) → e x == x
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [SORT_MISMATCH]


def test_binder_shadowing_is_reported(monoid_source):
    source = """
record M (A : Set) : Set where
  constructor mC
  field
    e : A
    w : {e : A} → e == e
"""
    errors = check_module(parse_file(source))
    assert DUPLICATE_FIELD in kinds_of(errors)


def test_type_arity_enforced(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (Mo1 : Monoid) : Set where
  constructor badC
  field
    f : A1
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [ARITY_MISMATCH]


N_RECORD = "record N (A : Set) (e : A) : Set where\n\n"


@pytest.mark.parametrize(
    "source, lines",
    [
        (
            N_RECORD + "record P (B : Set) (b : B) (x : N B B) (y : N b b) : Set where\n",
            ["m:3:37: SortMismatch: 'B' is a type, not a term", "m:3:47: SortMismatch: 'b' is a term, not a type"],
        ),
        (N_RECORD + "record P (B : Set) (b : B) (x : N B b) : Set where\n", []),
        (N_RECORD + "record P (B : Set) (x : N B zz) : Set where\n", ["m:3:29: UnboundName: unknown name 'zz'"]),
        (
            N_RECORD + "record P (B : Set) (x : N B (N B B)) : Set where\n",
            ["m:3:30: SortMismatch: argument of 'N' must be a term of type B, got N B B"],
        ),
        (
            # a term parameter whose type reads an earlier term argument
            N_RECORD + "record Q (A : Set) (e : A) (n : N A e) : Set where\n\n"
            "record P (B : Set) (b : B) (c : B) (m : N B b) (q : Q B b m) (r : Q B c m) : Set where\n",
            ["m:5:73: SortMismatch: argument 'm' of 'Q' has type N B b, expected N B c"],
        ),
        (
            # the hom of a record with an axiom parameter, as it was once generated
            "record M (A : Set) (lu : (x : A) → x == x) : Set where\n  field\n    e : A\n\n"
            "record MHom (A1 : Set) (e1 : A1) (M1 : M A1 e1) : Set where\n",
            ["m:5:45: SortMismatch: argument 'e1' of 'M' has type A1, expected (x : A1) → x == x"],
        ),
        # a data type without parameters applied to itself, in its own declaration
        ("data D : Set where c : D D → D", ["m:1:24: ArityMismatch: type 'D' expects 0 argument(s), got 1"]),
        # a projection of the second of two records with one name: the field's own type is read
        (
            "record R (A : Set) : Set where\n  field\n    f : A\n\n"
            "record R (A : Set) : Set where\n  field\n    g : A\n\n"
            "record S (A : Set) (r : R A) : Set where\n  field\n    w : g r == g r\n",
            [
                "m:5:1: DuplicateField: declaration name 'R' is already defined in this module",
                "m:5:1: DuplicateField: member name 'RC' is already used"
                " (all field and constructor names must be distinct across the module)",
            ],
        ),
        # ... whose parameters have other names: the field is read with its own record's
        (
            "record R (A : Set) : Set where\n  field\n    f : A\n\n"
            "record R (X : Set) : Set where\n  field\n    g : X\n\n"
            "record S (B : Set) (r : R B) : Set where\n  field\n    w : (x : B) → g r == x\n",
            [
                "m:5:1: DuplicateField: declaration name 'R' is already defined in this module",
                "m:5:1: DuplicateField: member name 'RC' is already used"
                " (all field and constructor names must be distinct across the module)",
            ],
        ),
        # projections put the instance's arguments in for every parameter of the owner
        (
            "record P (A B : Set) : Set where\n  field\n    f : A → B\n\n"
            "record Q (X : Set) (p : P X X) : Set where\n  field\n    w : (x : X) → f p x == x\n",
            [],
        ),
        (
            "data D : Set where\n  d : D\n\nrecord U : Set where\n  field\n    u : D\n\n"
            "record V (q : U) : Set where\n  field\n    w : u q == d\n",
            [],
        ),
        # a local sort shadows a type of the module, bare or applied
        (
            "record Mo (A : Set) : Set where\n\nrecord R (Mo : Set) (X : Set) : Set where\n  field\n    g : Mo X\n",
            ["m:5:9: ArityMismatch: sort 'Mo' takes no arguments"],
        ),
        ("record Mo (A : Set) : Set where\n\nrecord R (Mo : Set) : Set where\n  field\n    g : Mo\n", []),
        ("record R (A : Set) : Set where\n  field\n    g : A A\n", ["m:3:9: ArityMismatch: sort 'A' takes no arguments"]),
        ("record R (A : Set) (A : Set) : Set where\n", ["m:1:20: DuplicateField: parameter 'A' repeats an earlier name"]),
        # a field may not repeat a parameter name, a sort's or a term's
        (
            "record R (A : Set) : Set where\n  field\n    A : A\n",
            ["m:3:5: DuplicateField: field 'A' repeats a parameter name"],
        ),
        (
            "record R (A : Set) (e : A) : Set where\n  field\n    e : A\n",
            ["m:3:5: DuplicateField: field 'e' repeats a parameter name"],
        ),
        # a record's constructor is a member, but no term
        (
            "record M (A : Set) : Set where\n  constructor mk\n  field\n    f : A\n\n"
            "record R (B : Set) : Set where\n  constructor rC\n  field\n    g : (x : B) → x == mk\n",
            ["m:9:24: SortMismatch: constructor 'mk' of record 'M' cannot be used here"],
        ),
        # the data type being declared is a type where a term is expected
        ("data D : Set where\n  c : (x : D) → x == D\n", ["m:2:22: SortMismatch: 'D' is a type, not a term"]),
        # of two members with one name the first declared is read: here a data constructor
        (
            "data D : Set where\n  g : D\n\nrecord R (A : Set) : Set where\n  field\n    g : A → A\n\n"
            "record S (B : Set) (r : R B) : Set where\n  field\n    w : (x : B) → g r x == x\n    v : g == g\n",
            [
                "m:6:5: DuplicateField: member name 'g' is already used"
                " (all field and constructor names must be distinct across the module)",
                "m:10:19: ArityMismatch: 'g' expects 0 argument(s), got 2",
            ],
        ),
        # an axiom's variable may not take the name of a later operation, as
        # extract refuses; a later axiom's name is free to take
        (
            "record M (A : Set) : Set where\n  field\n    op : A → A → A\n"
            "    comm : (x y : A) → op x y == op y x\n    x : A\n",
            ["m:4:12: DuplicateField: binder 'x' shadows another name"],
        ),
        ("record M (A : Set) : Set where\n  field\n    u : (x : A) → x == x\n    x : (y : A) → y == y\n", []),
        # a term argument that names both a member and a type reads as the member
        (
            N_RECORD + "record F (X : Set) : Set where\n  field\n    N : X\n\n"
            "record P (B : Set) (x : N B N) : Set where\n",
            ["m:7:29: SortMismatch: argument of 'N' must be a term of type B, got N"],
        ),
    ],
    ids=["type-for-term-and-term-for-type", "term-argument", "unknown-term", "type-application-for-term",
         "dependent-parameter", "axiom-parameter", "self-applied-data", "projection-of-a-duplicate-record",
         "projection-of-a-duplicate-record-with-other-parameter-names",
         "projection-through-two-sorts", "projection-through-no-parameters", "shadowing-sort-applied",
         "shadowing-sort-bare", "applied-sort", "repeated-parameter", "field-repeats-sort-parameter",
         "field-repeats-term-parameter", "record-constructor-in-a-term", "own-data-type-in-a-term",
         "first-declared-member-wins", "variable-named-like-a-later-operation",
         "variable-named-like-a-later-axiom", "member-and-type-as-term-argument"],
)
def test_type_application_arguments_are_checked_against_the_parameters(source, lines):
    assert format_errors(check_module(parse_file(source)), "m").splitlines() == lines


NAT_AND_LIST = (
    "data Nat : Set where\n  z : Nat\n  s : Nat → Nat\n\n"
    "data L (X : Set) : Set where\n  nil : L X\n\n"
    "record R (A : Set) : Set where\n  field\n    n : Nat\n"
)


@pytest.mark.parametrize(
    "field, lines",
    [
        ("w : n == s z", []),
        ("w : n == nil", ["m:11:14: SortMismatch: constructor 'nil' of parameterized type 'L' cannot be used here"]),
        ("w : n == Nat", ["m:11:14: SortMismatch: 'Nat' is a type, not a term"]),
        ("w : n == q", ["m:11:14: UnboundName: unknown name 'q'"]),
        ("w : (x : A) → x x == x", ["m:11:19: ArityMismatch: variable 'x' cannot be applied"]),
    ],
    ids=["data-constructor", "parameterized-constructor", "type-for-term", "unknown-name", "applied-variable"],
)
def test_the_head_of_a_term_is_looked_up_by_what_it_names(field, lines):
    source = NAT_AND_LIST + f"    {field}\n"
    assert format_errors(check_module(parse_file(source)), "m").splitlines() == lines


# declaration, parameter, member and bound names all come from three names,
# so repeated and shadowed names are common
_NAMES = st.sampled_from(["A", "B", "R"])
_APPLIED = st.lists(_NAMES, min_size=1, max_size=3).map(" ".join)


@st.composite
def _types(draw, depth=2):
    """A type: a name applied to names, an equation between two such
    terms (projections among them), an arrow or a quantifier."""
    kind = draw(st.sampled_from(["app", "equation", "arrow", "quantifier"] if depth else ["app"]))
    if kind == "app":
        return draw(_APPLIED)
    if kind == "equation":
        return f"{draw(_APPLIED)} == {draw(_APPLIED)}"
    dom = draw(st.one_of(st.just("Set"), _types(depth - 1)))
    cod = draw(_types(depth - 1))
    if kind == "arrow":
        return f"({dom}) → {cod}"
    return f"({draw(_NAMES)} : {dom}) → {cod}"


@st.composite
def _decls(draw):
    keyword = draw(st.sampled_from(["record", "data"]))
    params = "".join(
        f" ({draw(_NAMES)} : {draw(st.one_of(st.just('Set'), _types(0)))})" for _ in range(draw(st.integers(0, 2)))
    )
    members = "".join(f"    {draw(_NAMES)} : {draw(_types())}\n" for _ in range(draw(st.integers(0, 2))))
    if keyword == "record":
        constructor = draw(st.one_of(st.just(""), _NAMES.map("  constructor {}\n".format)))
        return f"record {draw(_NAMES)}{params} : Set where\n{constructor}  field\n{members}"
    return f"data {draw(_NAMES)}{params} : Set where\n{members}"


@settings(max_examples=200)
@given(st.lists(_decls(), min_size=1, max_size=4).map("\n".join))
@example(
    "record R (A : Set) : Set where\n  field\n    A : A\n"
    "record R (A : Set) : Set where\n  field\n    B : A\n"
    "record A (B : Set) (R : R B) : Set where\n  field\n    A : B R == B R\n"
)
def test_checking_a_module_returns_a_list_of_errors_and_never_raises(source):
    assert isinstance(check_module(parse_file(source)), list)


def test_an_applied_field_in_a_type_is_a_term_not_a_type():
    source = "record M (A : Set) : Set where\n  field\n    r : A → A → Set\n    refl : (x : A) → r x x\n"
    assert format_errors(check_module(parse_file(source)), "m") == "m:4:22: SortMismatch: 'r' is a term, not a type"


def test_error_lines_have_stable_format():
    errors = check_module(parse_file(read_data("bad_unbound_name.eqt")))
    report = format_errors(errors, "m.eqt")
    assert report == "m.eqt:4:9: UnboundName: unknown type 'B'"


def test_all_errors_collected_not_just_first():
    source = """
record M (A : Set) : Set where
  constructor mC
  field
    e : B
    f : C
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [UNBOUND_NAME, UNBOUND_NAME]


def test_error_detection_order_insensitive():
    fields = ["bad1 : B", "bad2 : C", "good : A"]
    base = "record M (A : Set) : Set where\n  constructor mC\n  field\n"
    import itertools

    reports = set()
    for perm in itertools.permutations(fields):
        source = base + "".join(f"    {f}\n" for f in perm)
        errors = check_module(parse_file(source))
        reports.add(frozenset((e.kind, e.message) for e in errors))
    assert len(reports) == 1


def test_checker_is_pure_given_snapshot(monoid_decl):
    from theoryforge.checker import CheckContext, check_decl

    ctx = CheckContext()
    for d in parse_file(NAT_AND_LIST):
        ctx.register(d)
    before = copy.deepcopy(vars(ctx))
    assert all(before.values())  # every table holds something
    for d in [monoid_decl, *parse_file(NAT_AND_LIST)]:
        check_decl(d, ctx)
        assert vars(ctx) == before


# -- pinned error lines on mutated library modules --------------------------------


def _nodes(ty):
    """Every node of a type expression, terms included."""
    todo = [ty]
    while todo:
        n = todo.pop()
        yield n
        if isinstance(n, Structure):
            todo += [v for f in n.__slots__ if f != "pos" for v in _children(getattr(n, f))]


def _children(value):
    return value if isinstance(value, list) else [value] if isinstance(value, Structure) else []


def _drop_last_projection_argument(t, fields):
    """``t`` with the last argument dropped from every projection of a
    field in ``fields`` (``op Mo1 x1 x2`` becomes ``op Mo1 x1``)."""
    if not isinstance(t, App):
        return t
    head, args = spine(t)
    args = [_drop_last_projection_argument(a, fields) for a in args]
    if isinstance(head, Sym) and head.name in fields:
        args.pop()
    for a in args:
        head = App(head, a, t.pos)
    return head


def _members(d):
    return d.fields if isinstance(d, RecordDecl) else d.constructors


def _mutated_modules(text):
    """Three mutants of one module text, each reparsed from the text and
    changed in place: every projection of a source field loses its last
    argument; the two instances trade places in every ``pres-*`` field;
    and in every declaration the first sort parameter is renamed, in its
    uses only, to a name nothing binds."""
    decls = parse_file(text)
    fields = {m.name for m in decl_members(decls[0])}
    for d in decls[1:]:
        for m in _members(d):
            for n in _nodes(m.ty):
                if isinstance(n, Equation):
                    n.lhs = _drop_last_projection_argument(n.lhs, fields)
                    n.rhs = _drop_last_projection_argument(n.rhs, fields)
    yield decls

    decls = parse_file(text)
    source = decls[0].name
    for d in decls:
        instances = [n for b in d.params if isinstance(b.ty, TyApp) and b.ty.head == source for n in b.names]
        if len(instances) == 2:
            swap = dict(zip(instances, reversed(instances)))
            for m in _members(d):
                if "pres-" in m.name:
                    for n in _nodes(m.ty):
                        if isinstance(n, Sym) and n.name in swap:
                            n.name = swap[n.name]
    yield decls

    decls = parse_file(text)
    for d in decls:
        sorts = [n for b in d.params if isinstance(b.ty, SetKind) for n in b.names]
        for m in _members(d) if sorts else []:
            for n in _nodes(m.ty):
                if isinstance(n, SortRef) and n.name == sorts[0]:
                    n.name = "Unbound"
    yield decls


def test_error_lines_on_mutated_library_modules_are_pinned(library):
    # kind, message and position of every error, in order, over three
    # mutants of each of the 62 all-seven standard.lib modules
    from theoryforge.cli import RunConfig, generate_for_theory
    from theoryforge.generators import GenKind

    cfg = RunConfig(kinds=tuple(GenKind))
    digest = hashlib.sha256()
    lines = 0
    kinds = set()
    for t in library.theories():
        for decls in _mutated_modules(generate_for_theory(t, cfg).module_text):
            errors = check_module(decls)
            kinds.update(e.kind for e in errors)
            lines += len(errors)
            digest.update((format_errors(errors, t.name) + "\n").encode())
    assert kinds == {ARITY_MISMATCH, SORT_MISMATCH, UNBOUND_NAME}
    assert lines == 4476
    assert digest.hexdigest() == "645c4dc193ccf2849cf649c559bc2b6b88b02e7122640152438f64b13b36e93d"
