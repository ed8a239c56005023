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

``rules_for_theory`` returns a :class:`RuleSet`, which compiles its rules
once, when it is made, into one generated dispatcher per head symbol of
their left-hand sides (term indexing by head symbol).  A dispatcher
unpacks a term's arguments once per arity, tries that head's rules in
declaration order, each as one generated test, and returns the first rule
that matches with its substitution.  ``normalize`` runs the dispatcher on
a node's normalized arguments before it builds the node, and builds it
(without the frozen ``__init__``) only when no rule fires and an argument
changed.  Each rule plans the rebuild of its right-hand side when it is
made.  ``normalize``, ``is_normal``, ``eval_term``, the equality test
of a repeated pattern variable and ``TOp``'s ``==`` run on explicit
stacks; ``symbol_count``, ``free_indices``, the rule plans and ``TOp``'s
``hash`` and pickling read one postfix node list (``_postfix``), and
``repr`` is the syntax trees' explicit-stack writer
(``ast.write_repr``): no term is too deep for them.

``TVar``, ``TOp``, ``Model`` and ``RewriteRule`` share one small frozen
base instead of being dataclasses, so loading the engine does not load
``dataclasses`` (nor ``inspect``, which it imports).
"""

from __future__ import annotations

from operator import attrgetter, is_not
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .ast import Term, Var, spine, write_repr
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


_set = object.__setattr__


class _Frozen:
    """Base of the engine's value classes, with the contract of a frozen
    dataclass over the fields named in ``_fields``: ``repr`` lists them,
    ``==`` holds only between instances of one class whose fields are
    equal, ``hash`` is that of the tuple of fields, assigning or deleting
    an attribute raises ``AttributeError``, and pickling calls the
    constructor with the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields
        get = attrgetter(*cls._fields)
        # the field tuple; ``attrgetter`` of one name gives the bare value
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return write_repr(self, _Frozen, "_fields")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)


class TVar(_Frozen):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class TOp(_Frozen):
    """An operation symbol applied to a tuple of terms.  ``==``, ``hash``
    and pickling give what the frozen-dataclass contract gives, but walk
    explicit stacks, as ``repr`` does, so no depth of nesting raises
    ``RecursionError``; a term pickles as its postfix node sequence."""

    __slots__ = _fields = ("sym", "args")

    def __init__(self, sym: str, args: tuple[OpenTerm, ...] = ()) -> None:
        _set(self, "sym", sym)
        _set(self, "args", args)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _same(self, other)  # type: ignore[arg-type]
        return NotImplemented

    def __hash__(self) -> int:
        # hash((sym, args)), bottom-up: in the tuples hashed, an argument's
        # hash stands in for the argument
        return hash(_fold(_postfix(self), lambda sym, args: _Hashed(hash((sym, args)))))

    def __reduce__(self) -> tuple:
        return _from_postfix, (_postfix(self),)


OpenTerm = TVar | TOp


def _postfix(t: OpenTerm) -> list:
    """The nodes of ``t`` in postfix order, each ``TOp`` as the marker
    ``(sym, argument count)`` after its arguments and each variable as
    itself."""
    out: list = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, TOp):
            todo.append((t.sym, len(t.args)))
            todo.extend(reversed(t.args))
        else:
            out.append(t)
    return out


def _fold(nodes: list, node: Callable[[str, tuple], Any]) -> Any:
    """Combine a postfix node sequence bottom-up: each variable stands for
    itself, each marker for ``node(sym, the values of its arguments)``."""
    values: list = []
    for x in nodes:
        if type(x) is tuple:
            sym, n = x
            k = len(values) - n
            args = tuple(values[k:])
            del values[k:]
            values.append(node(sym, args))
        else:
            values.append(x)
    return values[0]


def _from_postfix(nodes: list) -> OpenTerm:
    """The term whose postfix node sequence is ``nodes``."""
    return _fold(nodes, TOp)


class _Hashed:
    """Whatever hashes to ``value``: a subterm already hashed, inside the
    tuples that ``TOp.__hash__`` hashes.  (An int will not do, since
    ``hash(h) != h`` for hashes beyond the int hash's modulus.)"""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


# ``normalize`` builds the nodes it keeps through the slot descriptors,
# without ``TOp.__init__``
_new_node = object.__new__
_set_sym = TOp.sym.__set__  # type: ignore[attr-defined]
_set_args = TOp.args.__set__  # type: ignore[attr-defined]

Env = Sequence[Any]


def symbol_count(t: OpenTerm) -> int:
    """Total node count: operation symbols plus variable occurrences."""
    return len(_postfix(t))


def free_indices(t: OpenTerm) -> set[int]:
    return {x.index for x in _postfix(t) if type(x) is TVar}


def term_from_axiom_side(side: Term, var_index: Mapping[str, int]) -> OpenTerm:
    """Convert one side of a validated axiom's equation into an open term."""
    head, args = spine(side)
    if isinstance(head, Var):
        return TVar(var_index[head.name])
    return TOp(head.name, tuple(term_from_axiom_side(a, var_index) for a in args))  # type: ignore[union-attr]


# -- models and evaluation ---------------------------------------------------

class Model(_Frozen):
    """A carrier with one n-ary function per operation symbol.  The carrier
    is implicit: whatever Python values the interpretations produce, with
    ``==`` as its decidable equality."""

    __slots__ = _fields = ("interp", "arities")

    def __init__(self, interp: Mapping[str, Callable[..., Any]], arities: Mapping[str, int]) -> None:
        _set(self, "interp", interp)
        _set(self, "arities", arities)

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
    size = len(env)
    todo: list = [t]
    values: list = []
    pop, push, extend = todo.pop, todo.append, todo.extend
    value = values.append
    while todo:
        t = pop()
        if type(t) is TVar:
            i = t.index
            if not 0 <= i < size:
                raise ArityError(f"variable index {i} outside environment of size {size}")
            value(env[i])
        elif type(t) is tuple:
            # every argument of the node is evaluated: apply its interpretation
            fn, n = t
            if n == 2:
                b = values.pop()
                values[-1] = fn(values[-1], b)
            elif n == 1:
                values[-1] = fn(values[-1])
            else:
                args = values[-n:]
                del values[-n:]
                value(fn(*args))
        else:
            fn = interp.get(t.sym)
            if fn is None:
                raise ArityError(f"model has no interpretation for {t.sym!r}")
            args = t.args
            if len(args) != arities.get(t.sym, len(args)):
                raise ArityError(f"{t.sym!r} expects {arities[t.sym]} argument(s), got {len(args)}")
            if args:
                push((fn, len(args)))
                extend(args[::-1])
            else:
                value(fn())
    return values[0]


# -- orientation ----------------------------------------------------------------

class RewriteRule(_Frozen):
    """``lhs -> rhs``.  ``plan`` is how ``normalize`` rebuilds the
    right-hand side (see :func:`_plan_rhs`); it is not a field."""

    _fields = ("var_count", "lhs", "rhs", "source_axiom")
    __slots__ = (*_fields, "plan")

    def __init__(self, var_count: int, lhs: TOp, rhs: OpenTerm, source_axiom: str) -> None:
        _set(self, "var_count", var_count)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "source_axiom", source_axiom)
        _set(self, "plan", _plan_rhs(rhs))


class RuleSet(tuple):
    """Rewrite rules in declaration order, as an immutable sequence, with
    what ``normalize`` and ``is_normal`` run: ``dispatch`` maps each head
    symbol of a left-hand side to one function, generated and compiled when
    the set is made, which takes the arguments of a term with that head and
    returns the first rule whose left-hand side the term is an instance of,
    with the substitution, or ``None``."""

    dispatch: dict[str, Callable[[tuple[OpenTerm, ...]], "tuple[RewriteRule, dict[int, OpenTerm]] | None"]]

    def __new__(cls, rules: Iterable[RewriteRule]) -> RuleSet:
        self = super().__new__(cls, rules)
        object.__setattr__(self, "dispatch", _dispatchers(self))
        return self

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("a RuleSet is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("a RuleSet is immutable")

    def __reduce__(self) -> tuple:
        # generated dispatchers do not pickle: remake the set from its rules
        return RuleSet, (tuple(self),)


def _orientable(lhs: OpenTerm, rhs: OpenTerm) -> bool:
    return (
        isinstance(lhs, TOp)
        and free_indices(rhs) <= free_indices(lhs)
        and symbol_count(rhs) < symbol_count(lhs)
    )


def orient(ax: Axiom, arities: Mapping[str, int]) -> RewriteRule | None:
    """Turn an equation into a terminating rewrite rule if either direction
    passes the containment and strict-decrease tests; ``None`` otherwise.
    Raises :class:`ArityError` on a side that does not fit ``arities``."""
    index = {name: i for i, name in enumerate(ax.var_names)}
    for side, t in (("left side", ax.lhs), ("right side", ax.rhs)):
        try:
            _check_axiom_term(t, index, arities, f"axiom {ax.name!r}, {side}")
        except ShapeError as e:
            raise ArityError(str(e)) from e
    lhs, rhs = term_from_axiom_side(ax.lhs, index), term_from_axiom_side(ax.rhs, index)
    if _orientable(lhs, rhs):
        return RewriteRule(len(index), lhs, rhs, ax.name)  # type: ignore[arg-type]
    if _orientable(rhs, lhs):
        return RewriteRule(len(index), rhs, lhs, ax.name)  # type: ignore[arg-type]
    return None


def assoc_rule(ax: Axiom, arities: Mapping[str, int]) -> RewriteRule | None:
    """The canonical orientation of an associativity axiom,
    ``f (f x y) z -> f x (f y z)``, which right-nests every normal form."""
    op = associativity_op(ax)
    if op is None or arities.get(op) != 2:
        return None
    x, y, z = TVar(0), TVar(1), TVar(2)
    return RewriteRule(3, TOp(op, (TOp(op, (x, y)), z)), TOp(op, (x, TOp(op, (y, z)))), ax.name)


def rules_for_theory(t: EqTheory, force_orient_assoc: bool = False) -> RuleSet:
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
    return RuleSet(rules)


# -- compiled rules -----------------------------------------------------------------

# job-stack markers of ``normalize``; a build marker is (_BUILD, symbol, arity)
_DONE, _BUILD, _VALUE = 0, 1, 2


def _lhs_source(lhs: TOp) -> tuple[str, str]:
    """The test under which a term with the head symbol and arity of a
    left-hand side is an instance of it (``""`` when every term is), and
    the substitution it then gives, as source over the term's arguments
    unpacked into ``a_0``, ``a_1``, ….  A tested position is bound to a
    local named after its path (``a_0_1`` is the second argument of the
    first), and its argument tuple to that name plus ``s``; symbols appear
    only as ``repr`` literals.  The structural tests come first, in pattern
    order, then the equality tests of repeated variables."""
    tests: list[str] = []
    equal: list[str] = []
    bound: dict[int, str] = {}
    todo = [(p, f"a_{i}", f"a_{i}") for i, p in enumerate(lhs.args)][::-1]
    while todo:
        p, path, source = todo.pop()
        if type(p) is TVar:
            if p.index in bound:
                other = bound[p.index]
                equal.append(f"({source} is {other} or same({source}, {other}))")
            else:
                bound[p.index] = source
            continue
        tests.append(f"type({path}) is TOp" if source == path else f"type({path} := {source}) is TOp")
        tests.append(f"{path}.sym == {p.sym!r}")
        if p.args:
            tests.append(f"len({path}s := {path}.args) == {len(p.args)}")
            todo.extend((q, f"{path}_{i}", f"{path}s[{i}]") for i, q in reversed(list(enumerate(p.args))))
        else:
            tests.append(f"not {path}.args")
    subst = ", ".join(f"{i}: {source}" for i, source in bound.items())
    return " and ".join(tests + equal), f"{{{subst}}}"


def _dispatchers(rules: Sequence[RewriteRule]) -> dict[str, Callable]:
    """The dispatch table of a :class:`RuleSet`, generated and compiled in
    one ``compile`` call: for each head symbol, a function that takes the
    arguments of a term with that head, unpacks them once per arity and
    returns the first of that head's rules, in declaration order, whose
    test from :func:`_lhs_source` holds, with its substitution, or
    ``None``."""
    heads: dict[str, dict[int, list[tuple[str, str]]]] = {}
    for i, rule in enumerate(rules):
        lhs = rule.lhs
        test, subst = _lhs_source(lhs)
        heads.setdefault(lhs.sym, {}).setdefault(len(lhs.args), []).append((test, f"r{i}, {subst}"))
    if not heads:
        return {}
    lines: list[str] = []
    for k, by_arity in enumerate(heads.values()):
        lines.append(f"def d{k}(args):")
        for n, branches in by_arity.items():
            lines.append(f"    if len(args) == {n}:")
            if n:
                lines.append(f"        {', '.join(f'a_{i}' for i in range(n))}, = args")
            for test, result in branches:
                if not test:
                    # every later branch of this arity is shadowed
                    lines.append(f"        return {result}")
                    break
                lines.append(f"        if {test}: return {result}")
    namespace: dict[str, Any] = {f"r{i}": rule for i, rule in enumerate(rules)}
    namespace.update(TOp=TOp, same=_same)
    exec(compile("\n".join(lines), "<rules>", "exec"), namespace)
    return {sym: namespace[f"d{k}"] for k, sym in enumerate(heads)}


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
    post = [x.index if type(x) is TVar else (_BUILD, *x) for x in _postfix(rhs)]
    lead = next((i for i, x in enumerate(post) if type(x) is tuple), len(post))
    rest = post[lead:]
    return tuple(post[:lead]), tuple(rest[::-1]), any(type(x) is int for x in rest)


# -- normalization ------------------------------------------------------------------

def normalize(t: OpenTerm, rules: Sequence[RewriteRule], fuel: int) -> OpenTerm:
    """Innermost-leftmost rewriting to a fixpoint, spending at most ``fuel``
    rewrite steps.  A rewrite rebuilds only the rule's right-hand side
    around the (already normal) substituted subterms.  Raises
    :class:`FuelExhausted` with the partially simplified term when the fuel
    runs out before a normal form is reached.  ``rules`` that are not a
    :class:`RuleSet` are made into one for the call."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    if type(rules) is not RuleSet:
        rules = RuleSet(rules)
    find = rules.dispatch.get
    # ``todo`` holds input subterms still to normalize and markers; ``done``
    # holds finished results, the arguments of the pending nodes
    todo: list = [t]
    done: list[OpenTerm] = []
    pop, push, extend = todo.pop, todo.append, todo.extend
    result = done.append
    while todo:
        job = pop()
        if type(job) is TOp:
            args = job.args
            if args:
                push((_DONE, job))
                extend(args[::-1])
                continue
            t = job
            sym = job.sym
        elif type(job) is TVar:
            result(job)
            continue
        elif job[0] == _DONE:
            # a subterm that no rule touched comes back as the same object;
            # ``t`` is None while the node is still to be built
            t = job[1]
            sym = t.sym
            n = len(t.args)
            args = tuple(done[-n:])
            del done[-n:]
            if any(map(is_not, args, t.args)):
                t = None
        elif job[0] == _BUILD:
            _, sym, n = job
            if n:
                args = tuple(done[-n:])
                del done[-n:]
            else:
                args = ()
            t = None
        else:
            # a value of a substitution, after a node of its right-hand side
            result(job[1])
            continue
        # the arguments are normal unless the fuel is gone: try the rules on
        # them; a rewrite rebuilds the right-hand side in the node's place
        if fuel > 0:
            dispatch = find(sym)
            found = dispatch(args) if dispatch is not None else None
            if found is not None:
                fuel -= 1
                rule, subst = found
                lead, rest, rest_vars = rule.plan
                for i in lead:
                    result(subst[i])
                if rest_vars:
                    extend([x if type(x) is tuple else (_VALUE, subst[x]) for x in rest])
                else:
                    extend(rest)
                continue
        if t is None:
            t = _new_node(TOp)
            _set_sym(t, sym)
            _set_args(t, args)
        result(t)
    (t,) = done
    if fuel == 0 and not is_normal(t, rules):
        raise FuelExhausted(t)
    return t


def default_fuel(t: OpenTerm) -> int:
    """Enough fuel for any rule set this engine produces: strictly
    decreasing rules need at most ``symbol_count - 1`` steps, and the forced
    associativity rotation is quadratic in the worst case."""
    n = symbol_count(t)
    return n * n + n + 1


def is_normal(t: OpenTerm, rules: Sequence[RewriteRule]) -> bool:
    """Whether no rule applies anywhere in ``t``.  ``rules`` that are not a
    :class:`RuleSet` are made into one for the call."""
    if type(rules) is not RuleSet:
        rules = RuleSet(rules)
    find = rules.dispatch.get
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is not TVar:
            dispatch = find(t.sym)
            if dispatch is not None and dispatch(t.args) is not None:
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
    "RuleSet",
    "TOp",
    "TVar",
    "assoc_rule",
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
