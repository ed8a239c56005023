"""Models, seeded terms and a reference evaluator for the engine workloads.

The reference evaluator is the benchmark's own and shares no code with
``theoryforge.engine``: it reads open terms by their fields, and axioms
straight from the surface syntax tree.  Each model is checked against its
theory's axioms on a sample before any term is timed, so a normal form that
evaluates differently from its input is a wrong rewrite, not a wrong model.

Monoid, Group and Ring use non-commutative carriers (strings, permutations,
2x2 matrices), so a rewrite that swaps or wrongly re-nests operands changes
the value.  Lattice uses the pentagon N5, which is not distributive.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

from theoryforge.ast import App, Sym, Var
from theoryforge.engine import OpenTerm, TOp, TVar
from theoryforge.theory import EqTheory

NUM_VARS = 3
MAX_DEPTH = 8
COMB_LEAVES = (32, 64)


@dataclass(frozen=True)
class RefModel:
    interp: dict[str, Callable[..., Any]]
    sample: Callable[[random.Random], Any]
    assoc_ops: tuple[str, ...]  # binary operations that get left combs


# -- carriers ------------------------------------------------------------------------

def _strings() -> RefModel:
    return RefModel(
        {"e": lambda: "", "op": lambda x, y: x + y},
        lambda rng: "".join(rng.choice("ab") for _ in range(rng.randint(1, 3))),
        ("op",),
    )


_S4 = list(itertools.permutations(range(4)))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[i] for i in q)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _permutations() -> RefModel:
    return RefModel(
        {"e": lambda: (0, 1, 2, 3), "op": _compose, "inv": _inverse},
        lambda rng: rng.choice(_S4),
        ("op",),
    )


_P = 5  # 2x2 matrices over Z/5, entries (a, b, c, d) for [[a, b], [c, d]]


def _madd(x, y):
    return tuple((a + b) % _P for a, b in zip(x, y))


def _mmul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % _P, (a * f + b * h) % _P, (c * e + d * g) % _P, (c * f + d * h) % _P)


def _matrices() -> RefModel:
    return RefModel(
        {
            "zero": lambda: (0, 0, 0, 0),
            "one": lambda: (1, 0, 0, 1),
            "plus": _madd,
            "neg": lambda x: tuple((-a) % _P for a in x),
            "times": _mmul,
        },
        lambda rng: tuple(rng.randrange(_P) for _ in range(4)),
        ("plus", "times"),
    )


# N5: bottom < a < c < top, bottom < b < top, b incomparable to a and c.
_N5 = ("bot", "a", "b", "c", "top")
_N5_BELOW = {"bot": {"bot"}, "a": {"bot", "a"}, "b": {"bot", "b"}, "c": {"bot", "a", "c"}, "top": set(_N5)}


def _leq(x: str, y: str) -> bool:
    return x in _N5_BELOW[y]


def _join(x: str, y: str) -> str:
    upper = [z for z in _N5 if _leq(x, z) and _leq(y, z)]
    return next(z for z in upper if all(_leq(z, w) for w in upper))


def _meet(x: str, y: str) -> str:
    lower = [z for z in _N5 if _leq(z, x) and _leq(z, y)]
    return next(z for z in lower if all(_leq(w, z) for w in lower))


def _pentagon() -> RefModel:
    return RefModel({"join": _join, "meet": _meet}, lambda rng: rng.choice(_N5), ("join", "meet"))


MODELS: dict[str, Callable[[], RefModel]] = {
    "Monoid": _strings,
    "Group": _permutations,
    "Ring": _matrices,
    "Lattice": _pentagon,
}


# -- reference evaluation ------------------------------------------------------------

def ref_eval(t: OpenTerm, model: RefModel, env: tuple) -> Any:
    """Evaluate an engine open term without the engine's evaluator."""
    if isinstance(t, TVar):
        return env[t.index]
    return model.interp[t.sym](*(ref_eval(a, model, env) for a in t.args))


def _eval_surface(t, model: RefModel, assignment: dict[str, Any]) -> Any:
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    if isinstance(t, Var):
        return assignment[t.name]
    if isinstance(t, Sym):
        return model.interp[t.name](*(_eval_surface(a, model, assignment) for a in reversed(args)))
    raise TypeError(f"unexpected term {t!r}")


def check_model(theory: EqTheory, model: RefModel, rng: random.Random, samples: int = 64) -> None:
    """Raise ``ValueError`` unless every axiom of ``theory`` holds in
    ``model`` on ``samples`` random assignments."""
    missing = set(theory.arities) - set(model.interp)
    if missing:
        raise ValueError(f"{theory.name}: model lacks {sorted(missing)}")
    for ax in theory.axioms:
        for _ in range(samples):
            assignment = {name: model.sample(rng) for name in ax.var_names}
            lhs = _eval_surface(ax.lhs, model, assignment)
            rhs = _eval_surface(ax.rhs, model, assignment)
            if lhs != rhs:
                raise ValueError(f"{theory.name}.{ax.name} fails in the model at {assignment}")


# -- seeded terms ----------------------------------------------------------------------

def random_term(rng: random.Random, arities: dict[str, int], depth: int) -> OpenTerm:
    """A random open term of height at most ``depth`` over ``NUM_VARS``
    variables and the given symbols."""
    constants = [s for s, n in sorted(arities.items()) if n == 0]
    operations = [s for s, n in sorted(arities.items()) if n > 0]
    if depth <= 1 or rng.random() < 0.25:
        if constants and rng.random() < 0.2:
            return TOp(rng.choice(constants))
        return TVar(rng.randrange(NUM_VARS))
    sym = rng.choice(operations)
    return TOp(sym, tuple(random_term(rng, arities, depth - 1) for _ in range(arities[sym])))


def left_comb(rng: random.Random, op: str, leaves: int) -> OpenTerm:
    """``op (op (... (op v v) ...) v) v`` with ``leaves`` random variables."""
    t: OpenTerm = TVar(rng.randrange(NUM_VARS))
    for _ in range(leaves - 1):
        t = TOp(op, (t, TVar(rng.randrange(NUM_VARS))))
    return t


def term_set(rng: random.Random, arities: dict[str, int], model: RefModel, symbols: int) -> list[OpenTerm]:
    """Random terms until they hold ``symbols`` nodes in all, then left
    combs of each size for each of the model's associative operations.  A
    node budget rather than a term count keeps the input size, and so the
    work, nearly the same from seed to seed."""
    terms: list[OpenTerm] = []
    total = 0
    while total < symbols:
        terms.append(random_term(rng, arities, MAX_DEPTH))
        total += size(terms[-1])
    for op in model.assoc_ops:
        terms.extend(left_comb(rng, op, n) for n in COMB_LEAVES)
    return terms


def size(t: OpenTerm) -> int:
    """Node count: operation symbols plus variable occurrences."""
    if isinstance(t, TVar):
        return 1
    return 1 + sum(size(a) for a in t.args)
