"""Open terms, models, evaluation, and rewrite-based simplification.

Terms use positional variables (``TVar(i)`` indexes an environment slot), so
an axiom's quantified variables map to indices in binding order.  Axioms
whose equations can be oriented — variable containment plus a strict
symbol-count decrease, tried in both directions — become rewrite rules, and
``normalize`` applies them innermost-leftmost, first matching rule wins,
rules tried in declaration order.  After a rewrite only the rule's
right-hand-side skeleton is rebuilt, trying the rules at each rebuilt node;
the substituted subterms are already normal and are reused as they are.
Under that orientation policy every step shrinks the term, so the symbol
count of the input bounds the number of steps; the fuel argument is a
defensive cap that also covers deliberately forced orientations
(associativity) which only rearrange.  Running out of fuel with a redex
left raises :class:`FuelExhausted`, which carries the partial result.

Each rule compiles its left-hand side once, when it is made, into a
generated matcher over a term's arguments, and plans the rebuild of its
right-hand side.  ``normalize`` and ``is_normal`` index the rules by the
head symbol and arity of their left-hand side, so a node tries only the
rules that can match it, still in declaration order.  ``normalize``,
``is_normal``, ``eval_term``, ``symbol_count`` and the equality test of a
repeated pattern variable run on explicit stacks: no term is too deep for
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from .ast import Term, Var, spine
from .theory import Axiom, EqTheory, ShapeError, _check_axiom_term, associativity_op


class ArityError(Exception):
    """A term does not fit its theory's arities (defensive; checked input
    never triggers it)."""


class FuelExhausted(Exception):
    """``normalize`` spent all its fuel and the term still has a redex;
    ``partial`` is the term as far as it got."""

    def __init__(self, partial: OpenTerm) -> None:
        super().__init__("normalization ran out of fuel before reaching a normal form")
        self.partial = partial


@dataclass(frozen=True, slots=True)
class TVar:
    index: int


@dataclass(frozen=True, slots=True)
class TOp:
    sym: str
    args: tuple["OpenTerm", ...] = ()


OpenTerm = TVar | TOp

Env = Sequence[Any]


def symbol_count(t: OpenTerm) -> int:
    """Total node count: operation symbols plus variable occurrences."""
    count = 0
    todo = [t]
    while todo:
        t = todo.pop()
        count += 1
        if type(t) is not TVar:
            todo.extend(t.args)
    return count


def free_indices(t: OpenTerm) -> set[int]:
    out: set[int] = set()
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is TVar:
            out.add(t.index)
        else:
            todo.extend(t.args)
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
    evaluated arguments.  Each node is checked before its arguments are
    visited, left to right, and its interpretation is applied once they are
    all evaluated, so the first node in that order that does not fit raises
    :class:`ArityError`."""
    interp = model.interp
    arities = model.arities
    todo: list = [t]
    values: list = []
    while todo:
        t = todo.pop()
        if type(t) is TVar:
            if not 0 <= t.index < len(env):
                raise ArityError(f"variable index {t.index} outside environment of size {len(env)}")
            values.append(env[t.index])
        elif type(t) is tuple:
            # every argument of the node is evaluated: apply its interpretation
            fn, n = t
            args = values[-n:]
            del values[-n:]
            values.append(fn(*args))
        else:
            fn = interp.get(t.sym)
            if fn is None:
                raise ArityError(f"model has no interpretation for {t.sym!r}")
            args = t.args
            if len(args) != arities.get(t.sym, len(args)):
                raise ArityError(f"{t.sym!r} expects {arities[t.sym]} argument(s), got {len(args)}")
            if args:
                todo.append((fn, len(args)))
                todo.extend(args[::-1])
            else:
                values.append(fn())
    return values[0]


# -- orientation ----------------------------------------------------------------

Matcher = Callable[[tuple[OpenTerm, ...]], "dict[int, OpenTerm] | None"]


@dataclass(frozen=True)
class RewriteRule:
    """``lhs -> rhs``.  ``match`` is the left-hand side compiled when the
    rule is made: given the arguments of a term whose head symbol and arity
    are the left-hand side's, it returns the substitution (variable index to
    subterm) under which the two are equal, or ``None``.  ``plan`` is how
    ``normalize`` rebuilds the right-hand side (see :func:`_plan_rhs`)."""

    var_count: int
    lhs: TOp
    rhs: OpenTerm
    source_axiom: str
    match: Matcher = field(init=False, compare=False, repr=False)
    plan: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "match", _compile_lhs(self.lhs))
        object.__setattr__(self, "plan", _plan_rhs(self.rhs))

    def __reduce__(self) -> tuple:
        # a generated matcher does not pickle: remake the rule from its fields
        return RewriteRule, (self.var_count, self.lhs, self.rhs, self.source_axiom)


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


# -- compiled rules -----------------------------------------------------------------

# job-stack markers of ``normalize``; a build marker is (_BUILD, symbol, arity)
_DONE, _BUILD, _VALUE = 0, 1, 2


def _compile_lhs(lhs: TOp) -> Matcher:
    """Generate the matcher of a left-hand side.  The function unpacks the
    argument tuple into one local per pattern position, named after its
    path; symbols appear in its source only as ``repr`` literals.  It makes
    the structural tests first, in pattern order, then the equality tests
    of repeated variables."""
    lines: list[str] = []
    equal: list[str] = []
    bound: dict[int, str] = {}
    todo: list[tuple[OpenTerm, str]] = []

    def unpack(args: tuple[OpenTerm, ...], source: str, path: str) -> None:
        names = [f"{path}_{i}" for i in range(len(args))]
        if names:
            lines.append(f"{', '.join(names)}, = {source}")
        todo.extend(zip(args[::-1], names[::-1]))

    unpack(lhs.args, "args", "a")
    while todo:
        p, name = todo.pop()
        if type(p) is TVar:
            if p.index in bound:
                other = bound[p.index]
                equal.append(f"if {name} is not {other} and not same({name}, {other}): return None")
            else:
                bound[p.index] = name
        else:
            lines.append(
                f"if type({name}) is not TOp or {name}.sym != {p.sym!r} "
                f"or len({name}.args) != {len(p.args)}: return None"
            )
            unpack(p.args, f"{name}.args", name)
    subst = ", ".join(f"{i}: {name}" for i, name in bound.items())
    body = "".join(f"    {line}\n" for line in [*lines, *equal, f"return {{{subst}}}"])
    namespace = {"TOp": TOp, "same": _same}
    exec(compile(f"def match(args):\n{body}", f"<lhs of {lhs.sym!r}>", "exec"), namespace)
    return namespace["match"]


def _same(a: OpenTerm, b: OpenTerm) -> bool:
    """``a == b`` for terms, without recursion."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if type(a) is TVar:
            if a.index != b.index:
                return False
        elif a.sym != b.sym or len(a.args) != len(b.args):
            return False
        else:
            todo.extend(zip(a.args, b.args))
    return True


def _plan_rhs(rhs: OpenTerm) -> tuple[tuple[int, ...], tuple, bool]:
    """How ``normalize`` rebuilds a right-hand side, from its postfix order
    (variables as their index, nodes as build markers): the variables
    before the first node, whose values go straight to the results; the
    rest reversed, ready for the job stack; and whether that rest holds a
    variable."""
    post: list = []
    todo: list = [rhs]
    while todo:
        r = todo.pop()
        if type(r) is tuple:
            post.append(r)
        elif type(r) is TVar:
            post.append(r.index)
        else:
            todo.append((_BUILD, r.sym, len(r.args)))
            todo.extend(r.args[::-1])
    lead = 0
    while lead < len(post) and type(post[lead]) is int:
        lead += 1
    rest = post[lead:]
    return tuple(post[:lead]), tuple(rest[::-1]), any(type(x) is int for x in rest)


def _index(rules: Sequence[RewriteRule]) -> dict[tuple[str, int], list[tuple[Matcher, tuple]]]:
    """Each rule's matcher and plan under the head symbol and arity of its
    left-hand side, in declaration order."""
    index: dict[tuple[str, int], list[tuple[Matcher, tuple]]] = {}
    for rule in rules:
        lhs = rule.lhs
        index.setdefault((lhs.sym, len(lhs.args)), []).append((rule.match, rule.plan))
    return index


# -- normalization ------------------------------------------------------------------

def normalize(t: OpenTerm, rules: Sequence[RewriteRule], fuel: int) -> OpenTerm:
    """Innermost-leftmost rewriting to a fixpoint, spending at most ``fuel``
    rewrite steps.  A rewrite rebuilds only the rule's right-hand side
    around the (already normal) substituted subterms.  Raises
    :class:`FuelExhausted` with the partially simplified term when the fuel
    runs out before a normal form is reached."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    index = _index(rules)
    # ``todo`` holds input subterms still to normalize and markers; ``done``
    # holds finished results, the arguments of the pending nodes
    todo: list = [t]
    done: list[OpenTerm] = []
    while todo:
        job = todo.pop()
        if type(job) is TOp:
            if job.args:
                todo.append((_DONE, job))
                todo.extend(job.args[::-1])
                continue
            t = job
        elif type(job) is TVar:
            done.append(job)
            continue
        elif job[0] == _DONE:
            # a subterm that no rule touched comes back as the same object
            t = job[1]
            n = len(t.args)
            args = tuple(done[-n:])
            del done[-n:]
            for a, b in zip(args, t.args):
                if a is not b:
                    t = TOp(t.sym, args)
                    break
        elif job[0] == _BUILD:
            _, sym, n = job
            if n:
                args = tuple(done[-n:])
                del done[-n:]
                t = TOp(sym, args)
            else:
                t = TOp(sym)
        else:
            # a value of a substitution, after a node of its right-hand side
            done.append(job[1])
            continue
        # the arguments of t are normal unless the fuel is gone: try the
        # rules at t; a rewrite rebuilds the right-hand side in its place
        if fuel > 0:
            for match, (lead, rest, rest_vars) in index.get((t.sym, len(t.args)), ()):
                subst = match(t.args)
                if subst is not None:
                    fuel -= 1
                    for i in lead:
                        done.append(subst[i])
                    if rest_vars:
                        todo.extend([x if type(x) is tuple else (_VALUE, subst[x]) for x in rest])
                    else:
                        todo.extend(rest)
                    break
            else:
                done.append(t)
        else:
            done.append(t)
    (result,) = done
    if fuel == 0 and not is_normal(result, rules):
        raise FuelExhausted(result)
    return result


def default_fuel(t: OpenTerm) -> int:
    """Enough fuel for any rule set this engine produces: strictly
    decreasing rules need at most ``symbol_count - 1`` steps, and the forced
    associativity rotation is quadratic in the worst case."""
    n = symbol_count(t)
    return n * n + n + 1


def is_normal(t: OpenTerm, rules: Sequence[RewriteRule]) -> bool:
    index = _index(rules)
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is not TVar:
            for match, _ in index.get((t.sym, len(t.args)), ()):
                if match(t.args) is not None:
                    return False
            todo.extend(t.args)
    return True


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
    "FuelExhausted",
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
