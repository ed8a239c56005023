"""Syntax trees for the theory-presentation surface language.

Two layers share one node set: the type layer (``TypeExpr``) describes what a
declaration *is* (a sort, an operation type, a quantified equation), and the
term layer (``Term``) carries the applicative first-order terms that appear on
the two sides of an equation.

Every node owns an optional source position ``(line, column)`` used for
diagnostics.  Positions never participate in equality: two trees parsed from
differently laid-out text compare equal when they have the same structure.

Nodes and declarations are plain slotted classes built through their
constructors (``dataclasses.replace`` does not apply to them).  They share
one base, :class:`Structure`, whose ``==`` compares every field except
``pos`` on an explicit stack, so comparing trees of any depth never raises
``RecursionError``.  They are mutable and unhashable, and their ``repr``
lists every field, ``pos`` included.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence, TypeAlias, TypeVar, Union

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


# -- structural equality ---------------------------------------------------------

class Structure:
    """Base of the syntax-tree, declaration and theory classes.

    ``==`` holds between two instances of one class whose fields other than
    ``pos`` are equal; another class gives ``NotImplemented``.  The two
    structures are walked side by side on explicit stacks.  The node
    classes that are compared most are handled inline: named leaves by
    name, ``App`` and ``Arrow`` chains in a loop, ``Equation`` and
    ``TyApp`` field by field.  Any other composite class says what it
    compares through ``_split``; a leaf without one (``SetKind``) compares
    itself with its own ``__eq__``.  ``repr`` lists the ``__slots__`` in
    order, which is the constructor's order.
    """

    __slots__ = ()
    _split: Callable[[Any], tuple[Any, Sequence[Any]]] | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a: Any = self
        b: Any = other
        left: list[Any] = []  # pending pairs: left[i] against right[i]
        right: list[Any] = []
        while True:
            cls = a.__class__
            if a is b:
                pass
            elif cls is not b.__class__:
                if not a == b:  # False for nodes: another class gives NotImplemented
                    return False
            elif cls in _NAMED:
                if a.name != b.name:
                    return False
            elif cls is App:
                x = a.arg
                y = b.arg
                if x.__class__ in _NAMED and x.__class__ is y.__class__:
                    if x.name != y.name:
                        return False
                else:
                    left.append(x)
                    right.append(y)
                a = a.fn
                b = b.fn
                continue
            elif cls is Arrow:
                x = a.dom
                y = b.dom
                if x.__class__ in _NAMED and x.__class__ is y.__class__:
                    if x.name != y.name:
                        return False
                else:
                    left.append(x)
                    right.append(y)
                a = a.cod
                b = b.cod
                continue
            elif cls is Equation:
                left.append(a.rhs)
                right.append(b.rhs)
                a = a.lhs
                b = b.lhs
                continue
            elif cls is TyApp:
                if a.head != b.head or len(a.args) != len(b.args):
                    return False
                left += a.args
                right += b.args
            else:
                split = getattr(cls, "_split", None)
                if split is None:
                    if not a == b:
                        return False
                else:
                    # the fields compared with plain ``==`` (with the length
                    # of every list of children), and the children
                    values, kids = split(a)
                    other_values, other_kids = split(b)
                    if values != other_values:
                        return False
                    left += kids
                    right += other_kids
            if not left:
                return True
            a = left.pop()
            b = right.pop()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Named(Structure):
    """A leaf that is its name: ``Var``, ``Sym`` or ``SortRef``."""

    __slots__ = ()

    def __init__(self, name: str, pos: Pos | None = None):
        self.name = name
        self.pos = pos

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name  # type: ignore[attr-defined]


# -- terms -------------------------------------------------------------------

class Var(_Named):
    """A bound variable occurrence (bound by an enclosing quantifier)."""

    __slots__ = ("name", "pos")


class Sym(_Named):
    """A declared symbol occurrence (a function symbol, field, or instance)."""

    __slots__ = ("name", "pos")


class App(Structure):
    __slots__ = ("fn", "arg", "pos")

    def __init__(self, fn: Term, arg: Term, pos: Pos | None = None):
        self.fn = fn
        self.arg = arg
        self.pos = pos


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

class SetKind(Structure):
    """The kind of sorts, written ``Set``."""

    __slots__ = ("pos",)

    def __init__(self, pos: Pos | None = None):
        self.pos = pos

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented


class SortRef(_Named):
    __slots__ = ("name", "pos")


class TyApp(Structure):
    __slots__ = ("head", "args", "pos")

    def __init__(self, head: str, args: list[TypeExpr], pos: Pos | None = None):
        self.head = head
        self.args = args
        self.pos = pos

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        xs = self.args
        ys = other.args  # type: ignore[attr-defined]
        if self.head != other.head or len(xs) != len(ys):  # type: ignore[attr-defined]
            return False
        # the common case, a head applied to named types, without the set-up
        # of the walk; any other argument goes through the walk
        i = 0
        for x in xs:
            y = ys[i]
            i += 1
            cls = x.__class__
            if cls in _NAMED and cls is y.__class__:
                if x.name != y.name:
                    return False
            elif cls is not y.__class__ or not Structure.__eq__(x, y):
                return False
        return True


class Arrow(Structure):
    __slots__ = ("dom", "cod", "pos")

    def __init__(self, dom: TypeExpr, cod: TypeExpr, pos: Pos | None = None):
        self.dom = dom
        self.cod = cod
        self.pos = pos


class Binder(Structure):
    """One binder group, ``(x y : T)`` or ``{x y : T}``."""

    __slots__ = ("names", "ty", "hidden", "pos")

    def __init__(self, names: list[str], ty: TypeExpr, hidden: bool = False, pos: Pos | None = None):
        self.names = names
        self.ty = ty
        self.hidden = hidden
        self.pos = pos

    def _split(self) -> tuple[Any, Sequence[Any]]:
        return (self.names, self.hidden), (self.ty,)


class Quant(Structure):
    __slots__ = ("binders", "body", "pos")

    def __init__(self, binders: list[Binder], body: TypeExpr, pos: Pos | None = None):
        self.binders = binders
        self.body = body
        self.pos = pos

    def _split(self) -> tuple[Any, Sequence[Any]]:
        return len(self.binders), (*self.binders, self.body)


class Equation(Structure):
    __slots__ = ("lhs", "rhs", "pos")

    def __init__(self, lhs: Term, rhs: Term, pos: Pos | None = None):
        self.lhs = lhs
        self.rhs = rhs
        self.pos = pos


TypeExpr: TypeAlias = Union[SetKind, SortRef, TyApp, Arrow, Quant, Equation]

_NAMED = frozenset({Var, Sym, SortRef})


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

class Constr(Structure):
    """A named typing, ``name : ty`` (a record field or data constructor)."""

    __slots__ = ("name", "ty", "pos")

    def __init__(self, name: str, ty: TypeExpr, pos: Pos | None = None):
        self.name = name
        self.ty = ty
        self.pos = pos

    def _split(self) -> tuple[Any, Sequence[Any]]:
        return self.name, (self.ty,)


class RecordDecl(Structure):
    __slots__ = ("name", "params", "constructor_name", "fields", "pos")

    def __init__(
        self,
        name: str,
        params: list[Binder],
        constructor_name: str,
        fields: list[Constr],
        pos: Pos | None = None,
    ):
        self.name = name
        self.params = params
        self.constructor_name = constructor_name
        self.fields = fields
        self.pos = pos

    def _split(self) -> tuple[Any, Sequence[Any]]:
        values = (self.name, self.constructor_name, len(self.params), len(self.fields))
        return values, (*self.params, *self.fields)


class DataDecl(Structure):
    __slots__ = ("name", "params", "constructors", "pos")

    def __init__(self, name: str, params: list[Binder], constructors: list[Constr], pos: Pos | None = None):
        self.name = name
        self.params = params
        self.constructors = constructors
        self.pos = pos

    def _split(self) -> tuple[Any, Sequence[Any]]:
        return (self.name, len(self.params), len(self.constructors)), (*self.params, *self.constructors)


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
    "Structure",
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
