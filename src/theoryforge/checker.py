"""Well-formedness checking for declarations and whole output modules.

This is a simply-sorted checker: the type language is ``Set``, declared
sorts, arrows, and equations, which is exactly enough to validate every
construction this tool emits.  All errors are collected rather than raised,
so a batch run reports everything at once.  Each error carries a position
and one of four kinds: ``UnboundName``, ``ArityMismatch``, ``SortMismatch``,
``DuplicateField``.

Member names (record fields, data constructors, record constructor names)
share one namespace across the whole module being checked: generated
records project fields by plain application (``op Mo1 x1 x2``), which only
works if every member name is globally unambiguous.  They are the names
:func:`~theoryforge.ast.decl_members` lists, kept in one table where the
first declaration of a name wins; a record's field may not repeat one of
its parameter names.

The head of a term, and a term argument of a type application, is looked
up in one order: a bound variable, a parameter or earlier field, then a
member (a field of an earlier record is projected, a data constructor
applied; a record constructor is no term).  Any other name is a type, not
a term, where it names a local sort, the data type being declared or a
type of the module, and unknown elsewhere.

Every applied name in a type, bare ones included as applications to zero
arguments, is looked up innermost first: a local sort (which takes no
arguments), then the declaration's own name (a ``data`` type stands bare or
applied to all its parameters), then a type of the module (applied to all
its parameters).  A type application and a projection put arguments in for
parameters by one rule: each parameter stands for its argument in types,
and a term parameter for its argument's name in terms.  A projected field's
type is the field's own type with the instance type's arguments put in for
all of the owner record's parameters.  Nodes are told apart by their exact
class.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .ast import (
    Arrow,
    Binder,
    DataDecl,
    Decl,
    Equation,
    Pos,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Sym,
    Term,
    TyApp,
    TypeExpr,
    Var,
    decl_members,
    map_names,
    spine,
)
from .printer import print_type

UNBOUND_NAME = "UnboundName"
ARITY_MISMATCH = "ArityMismatch"
SORT_MISMATCH = "SortMismatch"
DUPLICATE_FIELD = "DuplicateField"


class CheckError(NamedTuple):
    kind: str
    message: str
    pos: Pos | None = None

    def format(self, filename: str) -> str:
        line, col = self.pos if self.pos else (0, 0)
        return f"{filename}:{line}:{col}: {self.kind}: {self.message}"


def format_errors(errors: list[CheckError], filename: str) -> str:
    return "\n".join(e.format(filename) for e in errors)


def _same_sort(a: TypeExpr, b: TypeExpr) -> bool:
    """``a == b`` for two sorts.  A sort is nearly always a name or a head
    applied to names, which are compared here by name; anything else goes
    through the general ``==`` walk."""
    if a is b:
        return True
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is SortRef:
        return a.name == b.name
    if cls is not TyApp or a.head != b.head or len(a.args) != len(b.args):
        return a == b
    for x, y in zip(a.args, b.args):
        if type(x) is SortRef and type(y) is SortRef:
            if x.name != y.name:
                return False
        elif x != y:
            return False
    return True


def _put_in(p: str, a: TypeExpr, sorts: dict[str, TypeExpr], syms: dict[str, str]) -> None:
    """Parameter ``p`` stands for argument ``a`` in types and, if ``a`` is a name, in terms."""
    sorts[p] = a
    if type(a) is SortRef:
        syms[p] = a.name


class CheckContext:
    """Module-level naming context, threaded across declarations."""

    def __init__(self) -> None:
        self.type_params: dict[str, list[tuple[str, TypeExpr]]] = {}
        # member name → (declaration, its parameters, the member's type or
        # None for a record's constructor)
        self.members: dict[str, tuple[Decl, list[tuple[str, TypeExpr]], TypeExpr | None]] = {}

    def register(self, d: Decl) -> None:
        """Record the declaration's names for use by later declarations,
        unless an earlier one took them.  Call after :func:`check_decl`;
        registration is best-effort even for declarations that had errors."""
        params = [(n, b.ty) for b in d.params for n in b.names]
        self.type_params.setdefault(d.name, params)
        for m in decl_members(d):
            self.members.setdefault(m.name, (d, params, m.ty))


class _DeclChecker:
    def __init__(self, d: Decl, ctx: CheckContext):
        self.decl = d
        self.ctx = ctx
        self.errors: list[CheckError] = []
        self.local_sorts: set[str] = set()
        self.local_terms: dict[str, TypeExpr] = {}
        self.self_data = d.name if isinstance(d, DataDecl) else None

    def error(self, kind: str, message: str, pos: Pos | None) -> None:
        self.errors.append(CheckError(kind, message, pos or self.decl.pos))

    # -- driver -------------------------------------------------------------

    def run(self) -> list[CheckError]:
        d = self.decl
        self._check_decl_name()
        self._check_member_names()
        for b in d.params:
            self._enter_param(b)
        if isinstance(d, RecordDecl):
            params = self.local_sorts | self.local_terms.keys()
            for f in d.fields:
                if f.name in params:
                    self.error(DUPLICATE_FIELD, f"field {f.name!r} repeats a parameter name", f.pos)
                self.check_type(f.ty, {})
                self.local_terms[f.name] = f.ty
        else:
            for c in d.constructors:
                self.check_type(c.ty, {})
        return self.errors

    def _check_decl_name(self) -> None:
        if self.decl.name in self.ctx.type_params:
            self.error(
                DUPLICATE_FIELD,
                f"declaration name {self.decl.name!r} is already defined in this module",
                self.decl.pos,
            )

    def _check_member_names(self) -> None:
        seen: set[str] = set()
        for m in decl_members(self.decl):
            if m.name in seen or m.name in self.ctx.members:
                self.error(
                    DUPLICATE_FIELD,
                    f"member name {m.name!r} is already used (all field and constructor names"
                    " must be distinct across the module)",
                    m.pos,
                )
            seen.add(m.name)

    def _enter_param(self, b: Binder) -> None:
        self.check_type(b.ty, {})
        for n in b.names:
            if n in self.local_sorts or n in self.local_terms:
                self.error(DUPLICATE_FIELD, f"parameter {n!r} repeats an earlier name", b.pos)
            if isinstance(b.ty, SetKind):
                self.local_sorts.add(n)
            else:
                self.local_terms[n] = b.ty

    # -- types ----------------------------------------------------------------

    def check_type(self, ty: TypeExpr, bound: dict[str, TypeExpr]) -> None:
        # exact class tests: the node classes are never subclassed
        cls = type(ty)
        if cls is SortRef:
            self._check_ty_app(ty.name, (), ty.pos, bound)
            return
        if cls is Equation:
            lhs_sort = self.infer_sort(ty.lhs, bound)
            rhs_sort = self.infer_sort(ty.rhs, bound)
            if lhs_sort is not None and rhs_sort is not None and not _same_sort(lhs_sort, rhs_sort):
                self.error(
                    SORT_MISMATCH,
                    "equation sides have different sorts "
                    f"({print_type(lhs_sort)} vs {print_type(rhs_sort)})",
                    ty.pos,
                )
            return
        if cls is TyApp:
            self._check_ty_app(ty.head, ty.args, ty.pos, bound)
            return
        if cls is SetKind:
            return
        if cls is not Arrow and cls is not Quant:
            raise TypeError(f"not a type expression: {ty!r}")
        # a chain of arrow codomains and quantifier bodies is checked in a
        # loop; its quantifiers bind into a copy of the caller's ``bound``
        bound = dict(bound)
        while cls is Arrow or cls is Quant:
            if cls is Arrow:
                self.check_type(ty.dom, bound)
                ty = ty.cod
            else:
                for b in ty.binders:
                    self.check_type(b.ty, bound)
                    for n in b.names:
                        if n in bound or n in self.local_terms or n in self.local_sorts:
                            self.error(DUPLICATE_FIELD, f"binder {n!r} shadows another name", b.pos)
                        bound[n] = b.ty
                ty = ty.body
            cls = type(ty)
        self.check_type(ty, bound)

    def _not_a_type(self, n: str, bound: dict[str, TypeExpr], pos: Pos | None) -> None:
        """Report ``n``, which names no type, where a type is expected."""
        if n in bound or n in self.local_terms or n in self.ctx.members:
            self.error(SORT_MISMATCH, f"{n!r} is a term, not a type", pos)
        else:
            self.error(UNBOUND_NAME, f"unknown type {n!r}", pos)

    def _not_a_term(self, n: str, pos: Pos | None) -> None:
        """Report ``n``, which names no term, where a term is expected."""
        if n in self.local_sorts or n == self.self_data or n in self.ctx.type_params:
            self.error(SORT_MISMATCH, f"{n!r} is a type, not a term", pos)
        else:
            self.error(UNBOUND_NAME, f"unknown name {n!r}", pos)

    def _check_ty_app(self, n: str, args: Sequence[TypeExpr], pos: Pos | None, bound: dict[str, TypeExpr]) -> None:
        """Check ``n`` applied to ``args``; a bare name has no arguments."""
        if n in self.local_sorts:
            if args:
                self.error(ARITY_MISMATCH, f"sort {n!r} takes no arguments", pos)
            return
        if n == self.self_data:
            if not args:
                return
            params = [(x, b.ty) for b in self.decl.params for x in b.names]
        else:
            params = self.ctx.type_params.get(n)
            if params is None:
                self._not_a_type(n, bound, pos)
                return
        if len(args) != len(params):
            self.error(
                ARITY_MISMATCH,
                f"type {n!r} expects {len(params)} argument(s), got {len(args)}",
                pos,
            )
        # A Set parameter takes a type; a term parameter (for telescoped
        # records, e.g. an instance over a lifted constant) takes a name
        # declared with the parameter's type, read with the earlier
        # arguments put in.  After a sort argument that fails, the later
        # parameter types cannot be read, so their arguments are not compared.
        sorts: dict[str, TypeExpr] = {}
        syms: dict[str, str] = {}
        for a, (p, want) in zip(args, params):
            if isinstance(want, SetKind):
                errors = len(self.errors)
                self.check_type(a, bound)
                if len(self.errors) > errors:
                    return
            else:
                self._check_term_arg(n, a, map_names(want, sorts, syms), bound)
            _put_in(p, a, sorts, syms)

    def _check_term_arg(self, head: str, a: TypeExpr, want: TypeExpr, bound: dict[str, TypeExpr]) -> None:
        """``a`` stands for a term parameter of ``head`` of type ``want``:
        it must name a parameter, field or bound variable of that type.  The
        type is looked up, not inferred: a lifted operation is not applied."""
        if type(a) is SortRef:
            name = a.name
            got = bound.get(name, self.local_terms.get(name))
            if got is not None:
                if not _same_sort(got, want):
                    self.error(
                        SORT_MISMATCH,
                        f"argument {name!r} of {head!r} has type {print_type(got)},"
                        f" expected {print_type(want)}",
                        a.pos,
                    )
                return
            if name not in self.ctx.members:
                self._not_a_term(name, a.pos)
                return
        self.error(
            SORT_MISMATCH,
            f"argument of {head!r} must be a term of type {print_type(want)}, got {print_type(a)}",
            a.pos,
        )

    # -- terms -----------------------------------------------------------------

    def infer_sort(self, t: Term, bound: dict[str, TypeExpr]) -> TypeExpr | None:
        if type(t) is Var or type(t) is Sym:
            sort = bound.get(t.name)
            if sort is not None:
                return sort
        head, args = spine(t)
        if not isinstance(head, (Var, Sym)):
            self.error(SORT_MISMATCH, "malformed term", getattr(t, "pos", None))
            return None
        name = head.name
        pos = head.pos

        if name in bound:  # an applied variable: a bare one is looked up above
            self.error(ARITY_MISMATCH, f"variable {name!r} cannot be applied", pos)
            return None

        if name in self.local_terms:
            return self._apply(name, self.local_terms[name], args, bound, pos)

        member = self.ctx.members.get(name)
        if member is None:
            self._not_a_term(name, pos)
            return None
        owner, params, ty = member
        if ty is not None and type(owner) is RecordDecl:
            return self._project(name, owner.name, params, ty, args, bound, pos)
        if ty is None or params:  # a record's constructor, or one of a parameterized data type
            what = "record" if ty is None else "parameterized type"
            self.error(SORT_MISMATCH, f"constructor {name!r} of {what} {owner.name!r} cannot be used here", pos)
            return None
        return self._apply(name, ty, args, bound, pos)

    def _apply(
        self,
        name: str,
        ty: TypeExpr,
        args: list[Term],
        bound: dict[str, TypeExpr],
        pos: Pos | None,
    ) -> TypeExpr | None:
        if not args and type(ty) is not Arrow:
            return ty
        doms: list[TypeExpr] = []
        while type(ty) is Arrow:
            doms.append(ty.dom)
            ty = ty.cod
        if len(args) != len(doms):
            self.error(
                ARITY_MISMATCH,
                f"{name!r} expects {len(doms)} argument(s), got {len(args)}",
                pos,
            )
            return None
        ok = True
        for a, want in zip(args, doms):
            got = self.infer_sort(a, bound)
            if got is None:
                ok = False
            elif not _same_sort(got, want):
                self.error(
                    SORT_MISMATCH,
                    f"argument of {name!r} has sort {print_type(got)}, expected {print_type(want)}",
                    pos,
                )
                ok = False
        return ty if ok else None

    def _project(
        self, name: str, owner: str, params: list[tuple[str, TypeExpr]], field_ty: TypeExpr,
        args: list[Term], bound: dict[str, TypeExpr], pos: Pos | None,
    ) -> TypeExpr | None:
        """Type a field projection written as application: ``f inst a1 .. an``."""
        if not args:
            self.error(
                ARITY_MISMATCH,
                f"field {name!r} of record {owner!r} must be applied to an instance",
                pos,
            )
            return None
        inst_ty = self.infer_sort(args[0], bound)
        if inst_ty is None:
            return None
        if isinstance(inst_ty, TyApp) and inst_ty.head == owner:
            inst_args = inst_ty.args
        elif isinstance(inst_ty, SortRef) and inst_ty.name == owner:
            inst_args = []
        else:
            self.error(
                SORT_MISMATCH,
                f"first argument of {name!r} must be an instance of {owner!r},"
                f" got {print_type(inst_ty)}",
                pos,
            )
            return None
        sorts: dict[str, TypeExpr] = {}
        syms: dict[str, str] = {}
        for a, (p, _) in zip(inst_args, params):
            _put_in(p, a, sorts, syms)
        return self._apply(name, map_names(field_ty, sorts, syms), args[1:], bound, pos)


def check_decl(d: Decl, ctx: CheckContext) -> list[CheckError]:
    """Check one declaration against a snapshot context.  Pure: the context
    is not modified; callers thread names via :meth:`CheckContext.register`."""
    return _DeclChecker(d, ctx).run()


def check_module(decls: list[Decl]) -> list[CheckError]:
    """Check declarations in order, accumulating names (including the
    module-wide distinct-member-name rule) across the whole list."""
    ctx = CheckContext()
    errors: list[CheckError] = []
    for d in decls:
        errors.extend(check_decl(d, ctx))
        ctx.register(d)
    return errors


__all__ = [
    "ARITY_MISMATCH",
    "CheckContext",
    "CheckError",
    "DUPLICATE_FIELD",
    "SORT_MISMATCH",
    "UNBOUND_NAME",
    "check_decl",
    "check_module",
    "format_errors",
]
