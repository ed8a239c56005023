"""Open terms, models, evaluation, and rewrite-based simplification.

Terms use positional variables (``TVar(i)`` indexes an environment slot), so
an axiom's quantified variables map to indices in binding order.  Axioms
whose equations can be oriented — variable containment plus a strict
symbol-count decrease, tried in both directions — become rewrite rules, and
``normalize`` applies them innermost-leftmost, first matching rule wins,
rules tried in declaration order.  Under that orientation policy every step
shrinks the term, so the symbol count of the input bounds the number of
steps; the fuel argument is a defensive cap that also covers deliberately
forced orientations (associativity) which only rearrange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from .ast import Term, Var, spine
from .theory import Axiom, EqTheory, ShapeError, _check_axiom_term, associativity_op


class ArityError(Exception):
    """A term does not fit its theory's arities (defensive; checked input
    never triggers it)."""


@dataclass(frozen=True)
class TVar:
    index: int


@dataclass(frozen=True)
class TOp:
    sym: str
    args: tuple["OpenTerm", ...] = ()


OpenTerm = TVar | TOp

Env = Sequence[Any]


def symbol_count(t: OpenTerm) -> int:
    """Total node count: operation symbols plus variable occurrences."""
    if isinstance(t, TVar):
        return 1
    return 1 + sum(symbol_count(a) for a in t.args)


def free_indices(t: OpenTerm) -> set[int]:
    if isinstance(t, TVar):
        return {t.index}
    out: set[int] = set()
    for a in t.args:
        out |= free_indices(a)
    return out


def term_from_axiom_side(side: Term, var_index: Mapping[str, int]) -> OpenTerm:
    """Convert one side of a validated axiom's equation into an open term."""
    head, args = spine(side)
    if isinstance(head, Var):
        return TVar(var_index[head.name])
    return TOp(head.name, tuple(term_from_axiom_side(a, var_index) for a in args))  # type: ignore[union-attr]


# -- models and evaluation ---------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A carrier with one n-ary function per operation symbol.  The carrier
    is implicit: whatever Python values the interpretations produce, with
    ``==`` as its decidable equality."""

    interp: Mapping[str, Callable[..., Any]]
    arities: Mapping[str, int]

    @classmethod
    def for_theory(cls, t: EqTheory, interp: Mapping[str, Callable[..., Any]]) -> Model:
        arities = t.arities
        missing = set(arities) - set(interp)
        if missing:
            raise ArityError(f"model lacks interpretations for: {', '.join(sorted(missing))}")
        return cls(dict(interp), arities)


def eval_term(t: OpenTerm, model: Model, env: Env) -> Any:
    """The homomorphic extension of ``env`` through the model: variables
    look up their slot, operations apply their interpretation to the
    evaluated arguments."""
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
    return fn(*(eval_term(a, model, env) for a in t.args))


# -- orientation ----------------------------------------------------------------

@dataclass(frozen=True)
class RewriteRule:
    var_count: int
    lhs: TOp
    rhs: OpenTerm
    source_axiom: str


def _orientable(lhs: OpenTerm, rhs: OpenTerm) -> bool:
    return (
        isinstance(lhs, TOp)
        and free_indices(rhs) <= free_indices(lhs)
        and symbol_count(rhs) < symbol_count(lhs)
    )


def axiom_sides(ax: Axiom, arities: Mapping[str, int]) -> tuple[int, OpenTerm, OpenTerm]:
    """Validate both sides of an axiom against ``arities`` and convert them;
    raises :class:`ArityError` on a side that does not fit."""
    index = {name: i for i, name in enumerate(ax.var_names)}
    for side, t in (("left side", ax.lhs), ("right side", ax.rhs)):
        try:
            _check_axiom_term(t, index, arities, f"axiom {ax.name!r}, {side}")
        except ShapeError as e:
            raise ArityError(str(e)) from e
    return len(index), term_from_axiom_side(ax.lhs, index), term_from_axiom_side(ax.rhs, index)


def orient(ax: Axiom, arities: Mapping[str, int]) -> RewriteRule | None:
    """Turn an equation into a terminating rewrite rule if either direction
    passes the containment and strict-decrease tests; ``None`` otherwise."""
    var_count, lhs, rhs = axiom_sides(ax, arities)
    if _orientable(lhs, rhs):
        return RewriteRule(var_count, lhs, rhs, ax.name)  # type: ignore[arg-type]
    if _orientable(rhs, lhs):
        return RewriteRule(var_count, rhs, lhs, ax.name)  # type: ignore[arg-type]
    return None


def assoc_rule(ax: Axiom, arities: Mapping[str, int]) -> RewriteRule | None:
    """The canonical orientation of an associativity axiom,
    ``f (f x y) z -> f x (f y z)``, which right-nests every normal form."""
    op = associativity_op(ax)
    if op is None or arities.get(op) != 2:
        return None
    x, y, z = TVar(0), TVar(1), TVar(2)
    return RewriteRule(3, TOp(op, (TOp(op, (x, y)), z)), TOp(op, (x, TOp(op, (y, z)))), ax.name)


def rules_for_theory(t: EqTheory, force_orient_assoc: bool = False) -> list[RewriteRule]:
    """Orient every axiom that admits it, in declaration order.  With
    ``force_orient_assoc`` associativity axioms (normally unorientable) are
    added with their canonical orientation."""
    arities = t.arities
    rules: list[RewriteRule] = []
    for ax in t.axioms:
        rule = orient(ax, arities)
        if rule is None and force_orient_assoc:
            rule = assoc_rule(ax, arities)
        if rule is not None:
            rules.append(rule)
    return rules


# -- normalization ------------------------------------------------------------------

def _match(pattern: OpenTerm, term: OpenTerm, subst: dict[int, OpenTerm]) -> bool:
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
        and all(_match(p, a, subst) for p, a in zip(pattern.args, term.args))
    )


def _instantiate(t: OpenTerm, subst: Mapping[int, OpenTerm]) -> OpenTerm:
    if isinstance(t, TVar):
        return subst[t.index]
    return TOp(t.sym, tuple(_instantiate(a, subst) for a in t.args))


def normalize(t: OpenTerm, rules: Sequence[RewriteRule], fuel: int) -> OpenTerm:
    """Innermost-leftmost rewriting to a fixpoint, spending at most ``fuel``
    rewrite steps; on exhaustion the partially simplified term is returned."""

    def norm(t: OpenTerm, fuel: int) -> tuple[OpenTerm, int]:
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
            subst: dict[int, OpenTerm] = {}
            if _match(rule.lhs, t, subst):
                return norm(_instantiate(rule.rhs, subst), fuel - 1)
        return t, fuel

    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    result, _ = norm(t, fuel)
    return result


def default_fuel(t: OpenTerm) -> int:
    """Enough fuel for any rule set this engine produces: strictly
    decreasing rules need at most ``symbol_count - 1`` steps, and the forced
    associativity rotation is quadratic in the worst case."""
    n = symbol_count(t)
    return n * n + n + 1


def is_normal(t: OpenTerm, rules: Sequence[RewriteRule]) -> bool:
    if isinstance(t, TVar):
        return True
    for rule in rules:
        if _match(rule.lhs, t, {}):
            return False
    return all(is_normal(a, rules) for a in t.args)


# -- enumeration ---------------------------------------------------------------------

def enumerate_terms(t: EqTheory, depth: int, num_vars: int = 0) -> Iterator[OpenTerm]:
    """All distinct open terms of height at most ``depth`` over the
    theory's symbols and ``num_vars`` variables, smallest first."""
    by_height: list[set[OpenTerm]] = [set()]
    arities = sorted(t.arities.items())
    for h in range(1, depth + 1):
        layer: set[OpenTerm] = set()
        if h == 1:
            layer.update(TVar(i) for i in range(num_vars))
            layer.update(TOp(name) for name, arity in arities if arity == 0)
        else:
            smaller = set().union(*by_height)
            for name, arity in arities:
                if arity == 0:
                    continue
                stack: list[tuple[OpenTerm, ...]] = [()]
                for _ in range(arity):
                    stack = [args + (extra,) for args in stack for extra in smaller]
                for args in stack:
                    layer.add(TOp(name, args))
        by_height.append(layer)
    seen = sorted(set().union(*by_height), key=_term_key)
    yield from seen


def _term_key(t: OpenTerm) -> tuple:
    return (symbol_count(t), repr(t))


__all__ = [
    "ArityError",
    "Env",
    "Model",
    "OpenTerm",
    "RewriteRule",
    "TOp",
    "TVar",
    "assoc_rule",
    "axiom_sides",
    "default_fuel",
    "enumerate_terms",
    "eval_term",
    "free_indices",
    "is_normal",
    "normalize",
    "orient",
    "rules_for_theory",
    "symbol_count",
    "term_from_axiom_side",
]
