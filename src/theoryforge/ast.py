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
one base, :class:`Structure`, whose ``==`` compares every slot but ``pos``:
one loop over an explicit stack, so comparing trees of any depth never
raises ``RecursionError``.  They are mutable and unhashable, and their
``repr`` lists every slot, ``pos`` included; it walks an explicit stack too.

A class lists its fields once, in ``__slots__``, in constructor order; its
optional fields take their defaults from the class attribute ``_defaults``
(``pos=None`` for all, ``hidden=False`` for a binder).  No class writes
``__init__``: :class:`Structure` generates it from those two.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, ClassVar, Container, Mapping, TypeAlias, TypeVar, Union

Pos: TypeAlias = "tuple[int, int]"

RESERVED_WORDS = frozenset({"record", "data", "field", "where", "constructor", "Set"})


# -- structural equality ---------------------------------------------------------

class Structure:
    """Base of the syntax-tree, declaration and theory classes.

    ``==`` holds between two instances of one class whose slots other than
    ``pos`` are equal; another class gives ``NotImplemented``.  The two
    structures are walked side by side on an explicit stack of pairs: two
    structures of one class push their slots but ``pos``, two lists of one
    length their items, and anything else is compared with ``!=``.

    A subclass lists its fields once, in ``__slots__``, in the constructor's
    order, and the optional ones, a suffix of them, with their defaults in
    ``_defaults``; ``repr`` (:func:`write_repr`) reads the slots too.  It
    writes no ``__init__``: each subclass with slots gets one that assigns
    its parameters to its slots in turn, compiled from source so that it
    runs the bytecode a hand-written one would.
    """

    __slots__ = ()
    _defaults: ClassVar[dict[str, Any]] = {"pos": None}

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} writes __init__; list its fields in __slots__ instead")
        fields = cls.__slots__
        if fields:
            params = "".join(f", {f}=_defaults[{f!r}]" if f in cls._defaults else f", {f}" for f in fields)
            body = "".join(f"\n    self.{f} = {f}" for f in fields)
            namespace = {"__name__": cls.__module__, "_defaults": cls._defaults}
            exec(f"def __init__(self{params}):{body}", namespace)
            cls.__init__ = namespace["__init__"]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        left: list[Any] = [self]  # pending pairs: left[i] against right[i]
        right: list[Any] = [other]
        while left:
            a = left.pop()
            b = right.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if isinstance(a, Structure):
                for f in a.__slots__:
                    if f != "pos":
                        left.append(getattr(a, f))
                        right.append(getattr(b, f))
            elif a.__class__ is list:
                if len(a) != len(b):
                    return False
                left += a
                right += b
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:
        return write_repr(self, Structure, "__slots__")


def write_repr(x: Any, base: type, fields: str) -> str:
    """``repr(x)`` for an ``x`` that is a list, a tuple or an instance of
    ``base``, written on an explicit stack so that no depth raises
    ``RecursionError``.  Lists and tuples are spelt as Python spells them
    (``(x,)`` included); an instance of ``base`` as its class name and the
    fields its class attribute ``fields`` names, ``name=value`` each; any
    other value through ``repr``."""
    out: list[str] = []
    todo: list[Any] = [x]  # values still to write, and text ready to append
    while todo:
        x = todo.pop()
        cls = type(x)
        if cls is str:
            out.append(x)
            continue
        if cls is list or cls is tuple:
            text, end = ("[", "]") if cls is list else ("(", ",)" if len(x) == 1 else ")")
            items = [(", " if i else "", v) for i, v in enumerate(x)]
        else:
            text, end = f"{cls.__qualname__}(", ")"
            items = [(f", {f}=" if i else f"{f}=", getattr(x, f)) for i, f in enumerate(getattr(x, fields))]
        parts: list[Any] = []
        for label, v in items:
            text += label
            if type(v) is list or type(v) is tuple or isinstance(v, base):
                parts += (text, v)
                text = ""
            else:
                text += repr(v)
        parts.append(text + end)
        todo += reversed(parts)
    return "".join(out)


# -- terms -------------------------------------------------------------------

class Var(Structure):
    """A bound variable occurrence (bound by an enclosing quantifier)."""

    __slots__ = ("name", "pos")


class Sym(Structure):
    """A declared symbol occurrence (a function symbol, field, or instance)."""

    __slots__ = ("name", "pos")


class App(Structure):
    __slots__ = ("fn", "arg", "pos")


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


class SortRef(Structure):
    __slots__ = ("name", "pos")


class TyApp(Structure):
    __slots__ = ("head", "args", "pos")


class Arrow(Structure):
    __slots__ = ("dom", "cod", "pos")


class Binder(Structure):
    """One binder group, ``(x y : T)`` or ``{x y : T}``."""

    __slots__ = ("names", "ty", "hidden", "pos")
    _defaults = {**Structure._defaults, "hidden": False}


class Quant(Structure):
    __slots__ = ("binders", "body", "pos")


class Equation(Structure):
    __slots__ = ("lhs", "rhs", "pos")


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
    # exact class tests: the node classes are never subclassed.  An
    # application's function spine, and a type's chain of arrow codomains and
    # quantifier bodies, are walked in a loop: only a nesting that the source
    # writes in parentheses or binders costs a level of recursion
    cls = type(n)
    if cls is Sym:
        name = syms.get(n.name)
        return n if name is None else Sym(name)
    if cls is Var:
        name = vars.get(n.name)
        return n if name is None else Var(name)
    if cls is SortRef:
        return sorts.get(n.name, n)
    if cls is App:
        head, args = spine(n)
        t = _walk(head, sorts, syms, vars)
        for a in args:
            t = App(t, _walk(a, sorts, syms, vars))
        return t
    if cls is Arrow or cls is Quant:
        links = []
        while cls is Arrow or cls is Quant:
            links.append(n)
            n = n.cod if cls is Arrow else n.body
            cls = type(n)
        ty = _walk(n, sorts, syms, vars)
        for link in reversed(links):
            if type(link) is Arrow:
                ty = Arrow(_walk(link.dom, sorts, syms, vars), ty)
            else:
                ty = Quant([_walk(b, sorts, syms, vars) for b in link.binders], ty)
        return ty
    if cls is TyApp:
        return TyApp(syms.get(n.head, n.head), [_walk(a, sorts, syms, vars) for a in n.args])
    if cls is Equation:
        return Equation(_walk(n.lhs, sorts, syms, vars), _walk(n.rhs, sorts, syms, vars))
    if cls is Binder:
        return Binder([vars.get(x, x) for x in n.names], _walk(n.ty, sorts, syms, vars), n.hidden)
    if cls is SetKind:
        return n
    raise TypeError(f"not a term or type expression: {n!r}")


# -- declarations --------------------------------------------------------------

class Constr(Structure):
    """A named typing, ``name : ty`` (a record field or data constructor)."""

    __slots__ = ("name", "ty", "pos")


class RecordDecl(Structure):
    __slots__ = ("name", "params", "constructor_name", "fields", "pos")


class DataDecl(Structure):
    __slots__ = ("name", "params", "constructors", "pos")


Decl: TypeAlias = Union[RecordDecl, DataDecl]


def default_constructor(name: str, taken: Container[str] = ()) -> str:
    """The constructor name of a record that declares none: ``<name>C``,
    primed until it is not in ``taken``."""
    constructor = name + "C"
    while constructor in taken:
        constructor += "'"
    return constructor


def decl_members(d: Decl) -> list[Constr]:
    """The members ``d`` adds to its module, in source order: a record's
    fields, then its constructor (``ty`` is ``None``, ``pos`` the
    record's); or a data type's constructors."""
    if isinstance(d, RecordDecl):
        return [*d.fields, Constr(d.constructor_name, None, d.pos)]
    return list(d.constructors)


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
    "decl_members",
    "default_constructor",
    "map_names",
    "spine",
    "write_repr",
]
