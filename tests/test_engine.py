from __future__ import annotations

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theoryforge.engine import (
    ArityError,
    FuelExhausted,
    Model,
    RewriteRule,
    RuleSet,
    TOp,
    TVar,
    default_fuel,
    enumerate_terms,
    eval_term,
    free_indices,
    is_normal,
    normalize,
    orient,
    rules_for_theory,
    symbol_count,
)
from theoryforge.ast import App, Arrow, Binder, Constr, Equation, Quant, RecordDecl, SetKind, SortRef, Sym, Var
from theoryforge.engine import _BUILD
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


MONOID_RULES = [
    "RewriteRule(var_count=1, lhs=TOp(sym='op', args=(TOp(sym='e', args=()), TVar(index=0))), "
    "rhs=TVar(index=0), source_axiom='lunit')",
    "RewriteRule(var_count=1, lhs=TOp(sym='op', args=(TVar(index=0), TOp(sym='e', args=()))), "
    "rhs=TVar(index=0), source_axiom='runit')",
    "RewriteRule(var_count=3, lhs=TOp(sym='op', args=(TOp(sym='op', args=(TVar(index=0), TVar(index=1))), "
    "TVar(index=2))), rhs=TOp(sym='op', args=(TVar(index=0), TOp(sym='op', args=(TVar(index=1), "
    "TVar(index=2))))), source_axiom='assoc')",
]


def _assert_frozen(value, fields):
    """Assigning or deleting any of ``fields`` of ``value`` is refused."""
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_compiled_rules_keep_their_repr_equality_and_hash(monoid):
    # the contract of a frozen dataclass, for the rules and the other
    # engine values alike
    rules = rules_for_theory(monoid, force_orient_assoc=True)
    assert [repr(r) for r in rules] == MONOID_RULES
    for a, b in zip(rules, rules_for_theory(monoid, force_orient_assoc=True)):
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        _assert_frozen(a, ("var_count", "lhs", "rhs", "source_axiom", "plan"))

    term = op(TVar(1), E)
    assert repr(TVar(1)) == "TVar(index=1)"
    assert repr(term) == "TOp(sym='op', args=(TVar(index=1), TOp(sym='e', args=())))"
    for value, fields in ((TVar(1), ("index",)), (term, ("sym", "args"))):
        same = pickle.loads(pickle.dumps(value))
        assert same == value and same is not value and hash(same) == hash(value)
        _assert_frozen(value, fields)
    assert hash(TVar(1)) == hash((1,)) and hash(E) == hash(("e", ()))
    assert TOp("f", ()) != ("f", ()) and TVar(0) != (0,) and TVar(0) != TOp("e")
    assert term != op(TVar(0), E) and op(E, E) == op(E, E)
    match term:
        case TOp("op", (TVar(i), TOp("e"))):
            assert i == 1

    model = Model({"op": max, "e": int}, {"op": 2, "e": 0})
    assert repr(model) == (
        "Model(interp={'op': <built-in function max>, 'e': <class 'int'>}, arities={'op': 2, 'e': 0})"
    )
    same = pickle.loads(pickle.dumps(model))
    assert same == model and same is not model
    assert model != Model({"op": min, "e": int}, {"op": 2, "e": 0})
    with pytest.raises(TypeError):
        hash(model)  # its fields are dicts
    _assert_frozen(model, ("interp", "arities"))


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


def test_fuel_exhaustion_raises_with_partial_result(monoid):
    rules = rules_for_theory(monoid)
    t = op(E, op(E, op(E, TVar(0))))
    with pytest.raises(FuelExhausted) as exhausted:
        normalize(t, rules, 1)
    partial = exhausted.value.partial
    assert symbol_count(partial) < symbol_count(t)
    assert partial != TVar(0)


def test_exactly_enough_fuel_does_not_raise(monoid):
    assert normalize(op(E, TVar(0)), rules_for_theory(monoid), 1) == TVar(0)


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


def _right_nested(t) -> bool:
    if isinstance(t, TVar) or not t.args:
        return True
    left, right = t.args
    return not (isinstance(left, TOp) and left.sym == "op") and _right_nested(left) and _right_nested(right)


def _left_comb(leaves):
    comb = TVar(0)
    for i in range(1, leaves):
        comb = op(comb, TVar(i % 3))
    return comb


def test_forced_association_work_grows_quadratically(monoid):
    # a left comb is the rotation's worst case: the rule-matching work must
    # grow about quadratically in the leaves (4x per doubling), not cubically;
    # the work is the number of calls to the rule set's dispatchers, one per
    # node where the rules were tried
    rules = rules_for_theory(monoid, force_orient_assoc=True)
    calls = 0

    def counting(dispatch):
        def counted(args):
            nonlocal calls
            calls += 1
            return dispatch(args)

        return counted

    for sym, dispatch in rules.dispatch.items():
        rules.dispatch[sym] = counting(dispatch)
    counts = []
    for leaves in (64, 128):
        comb = _left_comb(leaves)
        calls = 0
        normal = normalize(comb, rules, default_fuel(comb))
        counts.append(calls)
        assert _right_nested(normal)
        assert symbol_count(normal) == symbol_count(comb)
    assert counts[1] < 5 * counts[0], counts


def test_forced_association_recursion_depth_stays_linear(monoid):
    # normalize works on an explicit stack, so no Python frame is spent per
    # leaf; deeper combs are covered by the depth tests below
    rules = rules_for_theory(monoid, force_orient_assoc=True)
    comb = _left_comb(400)
    assert _right_nested(normalize(comb, rules, default_fuel(comb)))


# -- depth: no entry point recurses on the term ----------------------------------------

def test_deep_left_comb_needs_no_recursion(monoid, int_model):
    comb = _left_comb(2000)
    rules = rules_for_theory(monoid)
    fuel = default_fuel(comb)
    assert fuel == 3999 * 3999 + 3999 + 1
    assert normalize(comb, rules, fuel) is comb
    assert is_normal(comb, rules)
    env = [1, 2, 3]
    assert eval_term(comb, int_model, env) == sum(env[i % 3] for i in range(2000))


def test_forced_association_right_nests_a_600_leaf_comb(monoid):
    rules = rules_for_theory(monoid, force_orient_assoc=True)
    comb = _left_comb(600)
    t = normalize(comb, rules, default_fuel(comb))
    leaves = []
    while isinstance(t, TOp):
        left, t = t.args
        assert isinstance(left, TVar)
        leaves.append(left)
    leaves.append(t)
    assert leaves == [TVar(i % 3) for i in range(600)]


def test_idempotence_compares_deep_terms_without_recursion(library):
    lattice = library.expanded["Lattice"]
    rules = rules_for_theory(lattice)

    def join_comb():
        comb = TVar(0)
        for i in range(1, 2000):
            comb = TOp("join", (comb, TVar(i % 3)))
        return comb

    # equal but separately built, so only a structural comparison sees it
    c, c2 = join_comb(), join_comb()
    assert c is not c2
    assert is_normal(c, rules)
    t = TOp("join", (c, c2))
    assert not is_normal(t, rules)
    assert normalize(t, rules, default_fuel(t)) is c


def test_deep_terms_compare_hash_print_and_pickle_without_recursion():
    # equal but separately built, so == has to walk both
    a, b = _left_comb(3000), _left_comb(3000)
    assert a is not b and a == b and not a != b
    assert a != _left_comb(2999) and a != op(_left_comb(2999), TVar(1))
    assert hash(a) == hash(b)
    text = repr(a)
    assert text.startswith("TOp(sym='op', args=(" * 2999 + "TVar(index=0), TVar(index=1))")
    assert text.count("TVar(") == 3000
    same = pickle.loads(pickle.dumps(a))
    assert same == a and same is not a and hash(same) == hash(a)


# -- term walks and repr against recursive references -----------------------------------

def _reference_symbol_count(t) -> int:
    return 1 if isinstance(t, TVar) else 1 + sum(map(_reference_symbol_count, t.args))


def _reference_free_indices(t) -> set[int]:
    return {t.index} if isinstance(t, TVar) else set().union(*map(_reference_free_indices, t.args))


def _reference_postfix(t) -> list:
    """Variables as their index, and each node as a build marker after its
    arguments."""
    if isinstance(t, TVar):
        return [t.index]
    return [x for a in t.args for x in _reference_postfix(a)] + [(_BUILD, t.sym, len(t.args))]


def _reference_plan(rhs) -> tuple:
    """A rule's plan as its docstring states it: the variables before the
    first node, the rest reversed, and whether that rest holds a variable."""
    post = _reference_postfix(rhs)
    lead = len(list(itertools.takewhile(lambda x: type(x) is int, post)))
    rest = post[lead:]
    return tuple(post[:lead]), tuple(reversed(rest)), any(type(x) is int for x in rest)


REPR_FIELDS = {TVar: ("index",), TOp: ("sym", "args"), RewriteRule: ("var_count", "lhs", "rhs", "source_axiom")}


def _reference_repr(x) -> str:
    """What a frozen dataclass's ``repr`` gives, written recursively."""
    if type(x) in REPR_FIELDS:
        fields = ", ".join(f"{f}={_reference_repr(getattr(x, f))}" for f in REPR_FIELDS[type(x)])
        return f"{type(x).__qualname__}({fields})"
    if type(x) is tuple:
        inner = ", ".join(map(_reference_repr, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    return repr(x)


WALK_ARITIES = {"e": 0, "inv": 1, "op": 2, "f": 3}


@settings(max_examples=50)
@given(st.data())
def test_term_walks_plans_and_repr_agree_with_the_recursive_references(data):
    t = data.draw(_terms(WALK_ARITIES, 5), label="term")
    u = data.draw(_terms(WALK_ARITIES, 3), label="other side")
    assert symbol_count(t) == _reference_symbol_count(t)
    assert free_indices(t) == _reference_free_indices(t)
    assert repr(t) == _reference_repr(t)
    # a rule plans its right-hand side whatever its left-hand side
    rule = RewriteRule(3, TOp("op", (u, t)), t, "ax")
    assert rule.plan == _reference_plan(t)
    assert repr(rule) == _reference_repr(rule)


def _right_comb(leaves):
    comb = TVar((leaves - 1) % 3)
    for i in range(leaves - 2, -1, -1):
        comb = op(TVar(i % 3), comb)
    return comb


def test_term_walks_plans_and_repr_of_3000_deep_combs_need_no_recursion():
    left, right = _left_comb(3000), _right_comb(3000)
    marker = (_BUILD, "op", 2)
    for comb in (left, right):
        assert symbol_count(comb) == 5999
        assert free_indices(comb) == {0, 1, 2}
    rule = RewriteRule(3, left, right, "deep")
    # a right comb's postfix order is its 3000 variables, then its 2999 nodes
    assert rule.plan == (tuple(i % 3 for i in range(3000)), (marker,) * 2999, False)
    # a left comb's is two variables, then a node after each further one
    lead, rest, rest_vars = RewriteRule(3, right, left, "deep").plan
    assert lead == (0, 1) and rest_vars
    assert rest == tuple(x for i in range(2998, 0, -1) for x in (marker, (i + 1) % 3)) + (marker,)
    text = repr(rule)
    assert text.startswith("RewriteRule(var_count=3, lhs=" + "TOp(sym='op', args=(" * 2999 + "TVar(index=0), ")
    assert ", rhs=TOp(sym='op', args=(TVar(index=0), TOp(sym='op', args=(TVar(index=1), " in text
    assert text.endswith("TVar(index=2)" + "))" * 2999 + ", source_axiom='deep')")
    assert text.count("TVar(") == 6000 and text.count("(") == text.count(")")


# -- the skeleton rebuild against the full re-normalization it replaced ----------------

def _reference_match(pattern, term, subst) -> bool:
    if isinstance(pattern, TVar):
        seen = subst.get(pattern.index)
        if seen is None:
            subst[pattern.index] = term
            return True
        return seen == term
    return (
        isinstance(term, TOp)
        and term.sym == pattern.sym
        and len(term.args) == len(pattern.args)
        and all(_reference_match(p, a, subst) for p, a in zip(pattern.args, term.args))
    )


def _reference_instantiate(t, subst):
    if isinstance(t, TVar):
        return subst[t.index]
    return TOp(t.sym, tuple(_reference_instantiate(a, subst) for a in t.args))


def _reference_normalize(t, rules, fuel):
    """The oracle: innermost-leftmost rewriting that normalizes the whole
    instantiated right-hand side after every rewrite and returns the
    partial term when the fuel runs out."""

    def norm(t, fuel):
        if isinstance(t, TVar):
            return t, fuel
        args = []
        for a in t.args:
            a, fuel = norm(a, fuel)
            args.append(a)
        t = TOp(t.sym, tuple(args))
        if fuel <= 0:
            return t, fuel
        for rule in rules:
            subst = {}
            if _reference_match(rule.lhs, t, subst):
                return norm(_reference_instantiate(rule.rhs, subst), fuel - 1)
        return t, fuel

    return norm(t, fuel)[0]


def _reference_eval_term(t, model, env):
    """The recursive evaluator the iterative ``eval_term`` replaced."""
    if isinstance(t, TVar):
        if not 0 <= t.index < len(env):
            raise ArityError(f"variable index {t.index} outside environment of size {len(env)}")
        return env[t.index]
    fn = model.interp.get(t.sym)
    if fn is None:
        raise ArityError(f"model has no interpretation for {t.sym!r}")
    if len(t.args) != model.arities.get(t.sym, len(t.args)):
        raise ArityError(
            f"{t.sym!r} expects {model.arities[t.sym]} argument(s), got {len(t.args)}"
        )
    return fn(*(_reference_eval_term(a, model, env) for a in t.args))


def _reference_is_normal(t, rules):
    """The recursive test the iterative ``is_normal`` replaced."""
    if isinstance(t, TVar):
        return True
    for rule in rules:
        if _reference_match(rule.lhs, t, {}):
            return False
    return all(_reference_is_normal(a, rules) for a in t.args)


def _terms(arities, height):
    """Open terms of height at most ``height`` over ``arities`` and three variables."""
    leaf = st.one_of(
        st.builds(TVar, st.integers(0, 2)),
        *(st.just(TOp(sym)) for sym, n in arities.items() if n == 0),
    )
    if height <= 1:
        return leaf
    sub = _terms(arities, height - 1)
    node = st.one_of(
        *(st.tuples(*[sub] * n).map(lambda args, sym=sym: TOp(sym, args))
          for sym, n in arities.items() if n > 0)
    )
    # a leaf one time in four, so most drawn terms are more than a few nodes
    return st.integers(0, 3).flatmap(lambda k: leaf if k == 0 else node)


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced-assoc"])
@pytest.mark.parametrize("name", ["Monoid", "Group", "Ring", "Lattice"])
def test_normalize_agrees_with_full_renormalization(library, name, forced):
    theory = library.expanded[name]
    rules = rules_for_theory(theory, force_orient_assoc=forced)

    @given(st.data())
    def agrees(data):
        t = data.draw(_terms(theory.arities, 7), label="term")
        fuel = data.draw(st.integers(1, default_fuel(t)), label="fuel")
        expected = _reference_normalize(t, rules, fuel)
        try:
            result = normalize(t, rules, fuel)
        except FuelExhausted as exhausted:
            assert exhausted.partial == expected
            assert not is_normal(expected, rules)
        else:
            assert result == expected
            assert is_normal(expected, rules)

    agrees()


def _logging_model(arities, log, missing=None):
    """The term model over ``arities``: each symbol but ``missing`` builds
    ``(symbol, arguments)`` and logs the value it builds."""

    def interp(sym):
        def apply(*args):
            log.append((sym, args))
            return log[-1]

        return apply

    return Model({sym: interp(sym) for sym in arities if sym != missing}, dict(arities))


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced-assoc"])
@pytest.mark.parametrize("name", ["Monoid", "Group", "Ring", "Lattice"])
def test_is_normal_and_eval_term_agree_with_the_recursive_versions(library, name, forced):
    theory = library.expanded[name]
    rules = rules_for_theory(theory, force_orient_assoc=forced)
    env = ("x", "y", "z")

    @given(st.data())
    def agrees(data):
        t = data.draw(_terms(theory.arities, 7), label="term")
        normal = normalize(t, rules, default_fuel(t))
        assert is_normal(t, rules) == _reference_is_normal(t, rules)
        assert is_normal(normal, rules) and _reference_is_normal(normal, rules)
        for term in (t, normal):
            logs = ([], [])
            value = eval_term(term, _logging_model(theory.arities, logs[0]), env)
            assert value == _reference_eval_term(term, _logging_model(theory.arities, logs[1]), env)
            assert logs[0] == logs[1]

    agrees()


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced-assoc"])
@pytest.mark.parametrize("name", ["Monoid", "Group", "Ring", "Lattice"])
def test_eval_term_fails_like_the_recursive_version(library, name, forced):
    # bad input of three kinds, alone or mixed: a short environment, a model
    # without one interpretation, and a symbol drawn with a wrong arity
    theory = library.expanded[name]
    rules = rules_for_theory(theory, force_orient_assoc=forced)
    symbols = sorted(theory.arities)
    kinds = set()

    @given(st.data())
    def fails_alike(data):
        arities = dict(theory.arities)
        wrong = data.draw(st.none() | st.sampled_from(symbols), label="wrong arity")
        if wrong is not None:
            arities[wrong] = arities[wrong] + 1 if arities[wrong] == 0 else arities[wrong] + data.draw(
                st.sampled_from([-1, 1]), label="arity change"
            )
        t = data.draw(_terms(arities, 6), label="term")
        env = tuple(range(data.draw(st.integers(0, 3), label="environment size")))
        missing = data.draw(st.none() | st.sampled_from(symbols), label="missing")
        assert is_normal(t, rules) == _reference_is_normal(t, rules)
        outcomes = []
        for evaluate in (eval_term, _reference_eval_term):
            log = []
            try:
                value = evaluate(t, _logging_model(theory.arities, log, missing), env)
            except ArityError as e:
                outcomes.append(("error", str(e), log))
            else:
                outcomes.append(("value", value, log))
        assert outcomes[0] == outcomes[1]
        if outcomes[0][0] == "error":
            kinds.add(outcomes[0][1].split(" ")[1])

    fails_alike()
    # each kind of error was drawn: variable index, model has no, 'sym' expects
    assert {"index", "has", "expects"} <= kinds, kinds


def _random_term(arities, rng, height):
    constants = sorted(sym for sym, n in arities.items() if n == 0)
    if height <= 1 or rng.random() < 0.3:
        k = rng.randrange(3 + len(constants))
        return TVar(k) if k < 3 else TOp(constants[k - 3])
    sym = rng.choice(sorted(arities))
    return TOp(sym, tuple(_random_term(arities, rng, height - 1) for _ in range(arities[sym])))


def _copy(t):
    """An equal term that shares no node with ``t``."""
    if isinstance(t, TVar):
        return TVar(t.index)
    return TOp(t.sym, tuple(_copy(a) for a in t.args))


def _near_instance(pattern, arities, rng, subst):
    """An instance of ``pattern`` with the same head, where a repeated
    variable's later occurrence is its first value, an equal copy or another
    term, and any proper subpattern may be replaced by a random term."""
    if isinstance(pattern, TVar):
        seen = subst.get(pattern.index)
        if seen is None:
            subst[pattern.index] = seen = _random_term(arities, rng, 3)
            return seen
        return rng.choice([seen, _copy(seen), _random_term(arities, rng, 3)])
    args = []
    for p in pattern.args:
        if rng.random() < 0.1:
            args.append(_random_term(arities, rng, 3))
        else:
            args.append(_near_instance(p, arities, rng, subst))
    return TOp(pattern.sym, tuple(args))


def _first_reference_match(rules, t):
    """The first rule, in declaration order, whose left-hand side ``t`` is
    an instance of, with its substitution; ``None`` if there is none."""
    for rule in rules:
        subst = {}
        if _reference_match(rule.lhs, t, subst):
            return rule, subst
    return None


def _check_dispatchers(rules, arities, rng, per_rule):
    """Run each head's dispatcher on terms with the head of each rule of
    ``rules``, random or near instances of its left-hand side, and on random
    terms, against the first reference match; counts the matches."""
    matched = unmatched = 0
    for rule in rules:
        lhs = rule.lhs
        for k in range(per_rule):
            if k % 4 == 0:
                t = TOp(lhs.sym, tuple(_random_term(arities, rng, 3) for _ in lhs.args))
            else:
                t = _near_instance(lhs, arities, rng, {})
            for term in (t, _random_term(arities, rng, 3)):
                if isinstance(term, TVar):
                    continue
                expected = _first_reference_match(rules, term)
                dispatch = rules.dispatch.get(term.sym)
                found = None if dispatch is None else dispatch(term.args)
                if expected is None:
                    assert found is None, (rule.source_axiom, term)
                else:
                    assert found is not None and found[0] is expected[0], (rule.source_axiom, term)
                    assert found[1] == expected[1], (rule.source_axiom, term)
                matched += expected is not None
                unmatched += expected is None
    return matched, unmatched


def test_dispatchers_return_the_first_rule_that_matches(library):
    theories = list(library.theories())
    assert len(theories) == 62
    rng = random.Random(31)
    matched = unmatched = 0
    for theory in theories:
        for forced in (False, True):
            rules = rules_for_theory(theory, force_orient_assoc=forced)
            assert type(rules) is RuleSet
            m, u = _check_dispatchers(rules, theory.arities, rng, 60)
            matched, unmatched = matched + m, unmatched + u
    assert matched > 1000 and unmatched > 1000, (matched, unmatched)


def test_dispatchers_embed_symbols_safely():
    # odd symbols, as constants under a head and as heads: each matches only
    # itself, and a repeated variable still needs equal subterms
    odd = ["it's", 'say "x"', "back\\slash", "two\nlines", "a'); import os; ('"]
    arities = {"f": 2, **{sym: 0 for sym in odd}, "g'\n\\": 2}
    rules = RuleSet(
        [RewriteRule(1, TOp("f", (TOp(sym), TVar(0))), TVar(0), sym) for sym in odd]
        + [RewriteRule(1, TOp("g'\n\\", (TOp("f", (TVar(0), TOp(sym))), TVar(0))), TVar(0), sym) for sym in odd]
    )
    matched, unmatched = _check_dispatchers(rules, arities, random.Random(37), 40)
    assert matched > 100 and unmatched > 100, (matched, unmatched)


def test_rule_sets_pickle_and_stay_immutable(monoid):
    rules = rules_for_theory(monoid, force_orient_assoc=True)
    back = pickle.loads(pickle.dumps(rules))
    assert type(back) is RuleSet and back == rules and back.dispatch.keys() == rules.dispatch.keys()
    assert back.dispatch is not rules.dispatch
    comb = _left_comb(40)
    assert normalize(comb, back, default_fuel(comb)) == normalize(comb, rules, default_fuel(comb))
    with pytest.raises(AttributeError):
        rules.dispatch = {}
    with pytest.raises(AttributeError):
        del rules.dispatch


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced-assoc"])
@pytest.mark.parametrize("name", ["Monoid", "Group", "Ring", "Lattice"])
def test_a_list_of_rules_normalizes_like_its_rule_set(library, name, forced):
    theory = library.expanded[name]
    rules = rules_for_theory(theory, force_orient_assoc=forced)
    listed = list(rules)
    rng = random.Random(41)
    exhausted = 0
    for _ in range(150):
        t = _random_term(theory.arities, rng, 7)
        fuel = rng.choice([rng.randint(1, 4), default_fuel(t)])
        outcomes = []
        for given_rules in (rules, listed):
            try:
                outcomes.append(("normal", normalize(t, given_rules, fuel)))
            except FuelExhausted as e:
                outcomes.append(("partial", e.partial))
            outcomes.append(is_normal(t, given_rules))
        assert outcomes[:2] == outcomes[2:], t
        exhausted += outcomes[0][0] == "partial"
    assert exhausted > 0


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
