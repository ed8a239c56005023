from __future__ import annotations

import random

import pytest

from theoryforge.engine import (
    ArityError,
    Model,
    TOp,
    TVar,
    default_fuel,
    enumerate_terms,
    eval_term,
    is_normal,
    normalize,
    orient,
    rules_for_theory,
    symbol_count,
)
from theoryforge.ast import App, Arrow, Binder, Constr, Equation, Quant, RecordDecl, SetKind, SortRef, Sym, Var
from theoryforge.parser import parse_decl
from theoryforge.theory import Axiom, ShapeError, extract

E = TOp("e")


def op(a, b):
    return TOp("op", (a, b))


@pytest.fixture(scope="module")
def int_model(monoid):
    return Model.for_theory(monoid, {"e": lambda: 0, "op": lambda a, b: a + b})


@pytest.fixture(scope="module")
def bool_model(monoid):
    return Model.for_theory(monoid, {"e": lambda: True, "op": lambda a, b: a and b})


# -- evaluation ---------------------------------------------------------------

def test_eval_constant_fold(int_model):
    assert eval_term(op(E, E), int_model, []) == 0


def test_eval_with_environment(int_model):
    assert eval_term(op(TVar(0), TVar(1)), int_model, [3, 4]) == 7
    assert eval_term(op(E, TVar(0)), int_model, [5]) == 5


def test_eval_second_model(bool_model):
    assert eval_term(op(TVar(0), E), bool_model, [False]) is False
    assert eval_term(op(E, E), bool_model, []) is True


def test_eval_is_compositional(int_model):
    rng = random.Random(7)

    def direct(t, env):
        # independent recursive oracle
        if isinstance(t, TVar):
            return env[t.index]
        if t.sym == "e":
            return 0
        return direct(t.args[0], env) + direct(t.args[1], env)

    def rand(depth):
        if depth <= 1:
            return TVar(rng.randrange(2)) if rng.random() < 0.5 else E
        return op(rand(depth - 1), rand(depth - 1))

    for _ in range(300):
        t = rand(5)
        env = [rng.randrange(-20, 20), rng.randrange(-20, 20)]
        assert eval_term(t, int_model, env) == direct(t, env)


def test_eval_rejects_bad_index(int_model):
    with pytest.raises(ArityError):
        eval_term(TVar(2), int_model, [1])


def test_eval_rejects_wrong_arity(int_model):
    with pytest.raises(ArityError):
        eval_term(TOp("op", (E,)), int_model, [])


def test_model_requires_total_interpretation(monoid):
    with pytest.raises(ArityError, match="lacks"):
        Model.for_theory(monoid, {"e": lambda: 0})


# -- orientation -----------------------------------------------------------------

def test_unit_axioms_orient_left_to_right(monoid):
    by_name = {a.name: a for a in monoid.axioms}
    rule = orient(by_name["lunit"], monoid.arities)
    assert rule is not None
    assert rule.lhs == op(E, TVar(0))
    assert rule.rhs == TVar(0)
    assert rule.source_axiom == "lunit"


def test_associativity_does_not_orient(monoid):
    by_name = {a.name: a for a in monoid.axioms}
    assert orient(by_name["assoc"], monoid.arities) is None


def test_reflexive_equation_does_not_orient():
    t = extract(
        parse_decl(
            "record M (A : Set) : Set where\n  field\n    op : A → A → A\n    r : {x : A} → x == x"
        )
    )
    assert orient(t.axioms[0], t.arities) is None


def test_orientation_flips_growing_equations():
    # x == op x e must orient right-to-left
    t = extract(
        parse_decl(
            "record M (A : Set) : Set where\n  field\n    e : A\n    op : A → A → A\n"
            "    r : {x : A} → x == op x e"
        )
    )
    rule = orient(t.axioms[0], t.arities)
    assert rule is not None
    assert rule.lhs == op(TVar(0), E) and rule.rhs == TVar(0)


@pytest.mark.parametrize(
    ("lhs", "message"),
    [
        (Var("y"), "unbound variable 'y'"),
        (App(Var("x"), Var("x")), "variable 'x' applied to arguments"),
        (Sym("f"), "unknown symbol 'f'"),
        (App(Sym("op"), Var("x")), "'op' expects 2 arguments, got 1"),
    ],
    ids=["unbound-variable", "applied-variable", "unknown-symbol", "wrong-arity"],
)
def test_extract_and_orient_share_the_axiom_validator(lhs, message):
    # built by hand: the parser never produces an unbound variable
    binders = [Binder(["x"], SortRef("A"))]
    expected = f"axiom 'bad', left side: {message}"
    decl = RecordDecl(
        "M",
        [Binder(["A"], SetKind())],
        "MC",
        [
            Constr("op", Arrow(SortRef("A"), Arrow(SortRef("A"), SortRef("A")))),
            Constr("bad", Quant(binders, Equation(lhs, Var("x")))),
        ],
    )
    with pytest.raises(ShapeError) as shape:
        extract(decl)
    assert str(shape.value) == expected
    with pytest.raises(ArityError) as arity:
        orient(Axiom("bad", binders, lhs, Var("x")), {"op": 2})
    assert str(arity.value) == expected


def test_oriented_rule_never_invents_variables(library):
    for t in library.theories():
        for ax in t.axioms:
            rule = orient(ax, t.arities)
            if rule is not None:
                from theoryforge.engine import free_indices

                assert free_indices(rule.rhs) <= free_indices(rule.lhs), (t.name, ax.name)


def test_forced_association_is_canonical(monoid):
    rules = rules_for_theory(monoid, force_orient_assoc=True)
    assoc = [r for r in rules if r.source_axiom == "assoc"]
    assert len(assoc) == 1
    (r,) = assoc
    assert r.lhs == op(op(TVar(0), TVar(1)), TVar(2))
    assert r.rhs == op(TVar(0), op(TVar(1), TVar(2)))


def test_rules_for_theory_declaration_order(monoid):
    assert [r.source_axiom for r in rules_for_theory(monoid)] == ["lunit", "runit"]


# -- normalization -----------------------------------------------------------------

def test_normalize_unit_chain(monoid):
    rules = rules_for_theory(monoid)
    t = op(E, op(TVar(0), E))
    assert normalize(t, rules, default_fuel(t)) == TVar(0)


def test_normalize_without_rules_is_identity(monoid):
    t = op(E, op(TVar(0), E))
    assert normalize(t, [], default_fuel(t)) == t


def test_normalize_requires_positive_fuel(monoid):
    with pytest.raises(ValueError):
        normalize(E, rules_for_theory(monoid), 0)


def test_fuel_exhaustion_returns_partial_result(monoid):
    rules = rules_for_theory(monoid)
    t = op(E, op(E, op(E, TVar(0))))
    partial = normalize(t, rules, 1)
    assert symbol_count(partial) < symbol_count(t)
    assert partial != TVar(0)


def test_termination_bound_under_strict_decrease(monoid):
    # each rewrite strictly shrinks the term, so symbol count bounds steps
    rules = rules_for_theory(monoid)
    rng = random.Random(11)

    def rand(depth):
        if depth <= 1:
            return TVar(rng.randrange(3)) if rng.random() < 0.6 else E
        return op(rand(depth - 1), rand(depth - 1))

    for _ in range(200):
        t = rand(6)
        normal = normalize(t, rules, symbol_count(t))
        assert is_normal(normal, rules)


def test_normalize_right_nests_under_forced_associativity(monoid):
    rules = rules_for_theory(monoid, force_orient_assoc=True)
    t = op(op(op(TVar(0), TVar(1)), TVar(2)), TVar(3))
    normal = normalize(t, rules, default_fuel(t))
    assert normal == op(TVar(0), op(TVar(1), op(TVar(2), TVar(3))))


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_depth_one(monoid):
    assert list(enumerate_terms(monoid, 1, 0)) == [E]


def test_enumerate_depth_two(monoid):
    assert list(enumerate_terms(monoid, 2, 0)) == [E, op(E, E)]


def test_enumerate_includes_variables(monoid):
    terms = list(enumerate_terms(monoid, 1, 2))
    assert set(terms) == {TVar(0), TVar(1), E}


def test_enumerate_is_duplicate_free_and_size_ordered(monoid):
    terms = list(enumerate_terms(monoid, 3, 1))
    assert len(terms) == len(set(terms))
    sizes = [symbol_count(t) for t in terms]
    assert sizes == sorted(sizes)


def test_enumerate_count_monotone_in_depth(monoid):
    counts = [len(list(enumerate_terms(monoid, d, 1))) for d in range(5)]
    assert counts == sorted(counts)
