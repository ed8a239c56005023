"""Syntax trees for the theory-presentation surface language.

Two layers share one node set: the type layer (``TypeExpr``) describes what a
declaration *is* (a sort, an operation type, a quantified equation), and the
term layer (``Term``) carries the applicative first-order terms that appear on
the two sides of an equation.

Every node owns an optional source position ``(line, column)`` used for
diagnostics.  Positions never participate in equality: two trees parsed from
differently laid-out text compare equal when they have the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, TypeAlias, TypeVar, Union

Pos: TypeAlias = "tuple[int, int]"

RESERVED_WORDS = frozenset({"record", "data", "field", "where", "constructor", "Set"})

_NAME_EXTRA = frozenset("_-'")


def is_valid_name(text: str) -> bool:
    """A usable identifier: nonempty, not reserved, made of letters, digits,
    ``_``, ``-`` and ``'``, starting with a letter or underscore."""
    if not text or text in RESERVED_WORDS:
        return False
    if not (text[0].isalpha() or text[0] == "_"):
        return False
    return all(c.isalnum() or c in _NAME_EXTRA for c in text)


# -- terms -------------------------------------------------------------------

@dataclass(slots=True)
class Var:
    """A bound variable occurrence (bound by an enclosing quantifier)."""

    name: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class Sym:
    """A declared symbol occurrence (a function symbol, field, or instance)."""

    name: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class App:
    fn: Term
    arg: Term
    pos: Pos | None = field(default=None, compare=False)


Term: TypeAlias = Union[Var, Sym, App]


def apply_spine(head: Term, args: list[Term]) -> Term:
    t = head
    for a in args:
        t = App(t, a)
    return t


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Flatten applications: ``App(App(f, a), b)`` becomes ``(f, [a, b])``."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


# -- type expressions ---------------------------------------------------------

@dataclass(slots=True)
class SetKind:
    """The kind of sorts, written ``Set``."""

    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class SortRef:
    name: str
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class TyApp:
    head: str
    args: list[TypeExpr]
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class Arrow:
    dom: TypeExpr
    cod: TypeExpr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class Binder:
    """One binder group, ``(x y : T)`` or ``{x y : T}``."""

    names: list[str]
    ty: TypeExpr
    hidden: bool = False
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class Quant:
    binders: list[Binder]
    body: TypeExpr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class Equation:
    lhs: Term
    rhs: Term
    pos: Pos | None = field(default=None, compare=False)


TypeExpr: TypeAlias = Union[SetKind, SortRef, TyApp, Arrow, Quant, Equation]


def arrow_components(ty: TypeExpr) -> list[TypeExpr]:
    """Split a right-nested arrow chain ``A -> B -> C`` into ``[A, B, C]``."""
    parts: list[TypeExpr] = []
    while isinstance(ty, Arrow):
        parts.append(ty.dom)
        ty = ty.cod
    parts.append(ty)
    return parts


def arity(ty: TypeExpr) -> int:
    """Argument count of an operation type: arrow components minus one."""
    return len(arrow_components(ty)) - 1


def arrow_chain(parts: list[TypeExpr]) -> TypeExpr:
    """Inverse of :func:`arrow_components`; ``parts`` must be nonempty."""
    ty = parts[-1]
    for p in reversed(parts[:-1]):
        ty = Arrow(p, ty)
    return ty


# -- name mapping ----------------------------------------------------------------

_NO_NAMES: Mapping[str, Any] = MappingProxyType({})

Node = TypeVar("Node", bound=Union[Term, TypeExpr, Binder])


def map_names(
    node: Node,
    sorts: Mapping[str, TypeExpr] = _NO_NAMES,
    syms: Mapping[str, str] = _NO_NAMES,
    vars: Mapping[str, str] = _NO_NAMES,
) -> Node:
    """Rebuild a term, type expression or binder with names mapped.

    ``sorts`` replaces sort references by whole type expressions, ``syms``
    renames symbol occurrences and type-application heads, and ``vars``
    renames variable occurrences and binder names.  Unmapped leaves are
    shared with the input; every other node is rebuilt without its source
    position.
    """
    return _walk(node, sorts, syms, vars)


def _walk(n: Any, sorts: Mapping[str, TypeExpr], syms: Mapping[str, str], vars: Mapping[str, str]) -> Any:
    # exact class tests: the node classes are never subclassed
    cls = type(n)
    if cls is App:
        return App(_walk(n.fn, sorts, syms, vars), _walk(n.arg, sorts, syms, vars))
    if cls is Sym:
        name = syms.get(n.name)
        return n if name is None else Sym(name)
    if cls is Var:
        name = vars.get(n.name)
        return n if name is None else Var(name)
    if cls is SortRef:
        return sorts.get(n.name, n)
    if cls is Arrow:
        return Arrow(_walk(n.dom, sorts, syms, vars), _walk(n.cod, sorts, syms, vars))
    if cls is TyApp:
        return TyApp(syms.get(n.head, n.head), [_walk(a, sorts, syms, vars) for a in n.args])
    if cls is Equation:
        return Equation(_walk(n.lhs, sorts, syms, vars), _walk(n.rhs, sorts, syms, vars))
    if cls is Quant:
        binders = [_walk(b, sorts, syms, vars) for b in n.binders]
        return Quant(binders, _walk(n.body, sorts, syms, vars))
    if cls is Binder:
        return Binder([vars.get(x, x) for x in n.names], _walk(n.ty, sorts, syms, vars), n.hidden)
    if cls is SetKind:
        return n
    raise TypeError(f"not a term or type expression: {n!r}")


# -- declarations --------------------------------------------------------------

@dataclass(slots=True)
class Constr:
    """A named typing, ``name : ty`` (a record field or data constructor)."""

    name: str
    ty: TypeExpr
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class RecordDecl:
    name: str
    params: list[Binder]
    constructor_name: str
    fields: list[Constr]
    pos: Pos | None = field(default=None, compare=False)


@dataclass(slots=True)
class DataDecl:
    name: str
    params: list[Binder]
    constructors: list[Constr]
    pos: Pos | None = field(default=None, compare=False)


Decl: TypeAlias = Union[RecordDecl, DataDecl]


def decl_member_names(d: Decl) -> list[str]:
    """Field or constructor names of a declaration, in source order."""
    if isinstance(d, RecordDecl):
        return [f.name for f in d.fields]
    return [c.name for c in d.constructors]


__all__ = [
    "App",
    "Arrow",
    "Binder",
    "Constr",
    "DataDecl",
    "Decl",
    "Equation",
    "Pos",
    "Quant",
    "RecordDecl",
    "RESERVED_WORDS",
    "SetKind",
    "SortRef",
    "Sym",
    "Term",
    "TyApp",
    "TypeExpr",
    "Var",
    "apply_spine",
    "arity",
    "arrow_chain",
    "arrow_components",
    "decl_member_names",
    "is_valid_name",
    "map_names",
    "spine",
]
