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
works if every member name is globally unambiguous.
"""

from __future__ import annotations

from typing import NamedTuple

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
    arrow_components,
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
    if type(a) is SortRef and type(b) is SortRef:
        return a.name == b.name
    if type(a) is TyApp and type(b) is TyApp and all(type(x) is SortRef for x in (*a.args, *b.args)):
        return a.head == b.head and [x.name for x in a.args] == [y.name for y in b.args]
    return a == b


class _RecordInfo(NamedTuple):
    params: list[tuple[str, TypeExpr]]
    fields: dict[str, TypeExpr]
    sort_index: int | None  # of the unique Set-typed parameter, if there is exactly one


class CheckContext:
    """Module-level naming context, threaded across declarations."""

    def __init__(self) -> None:
        self.type_arity: dict[str, int] = {}
        self.records: dict[str, _RecordInfo] = {}
        self.field_owner: dict[str, str] = {}
        self.data_ctors: dict[str, tuple[str, TypeExpr]] = {}
        self.used_member_names: set[str] = set()

    def register(self, d: Decl) -> None:
        """Record the declaration's names for use by later declarations.
        Call after :func:`check_decl`; registration is best-effort even for
        declarations that had errors."""
        params = [(n, b.ty) for b in d.params for n in b.names]
        self.type_arity.setdefault(d.name, len(params))
        if isinstance(d, RecordDecl):
            sorts = [i for i, (_, ty) in enumerate(params) if isinstance(ty, SetKind)]
            info = _RecordInfo(params, {f.name: f.ty for f in d.fields}, sorts[0] if len(sorts) == 1 else None)
            self.records.setdefault(d.name, info)
            for f in d.fields:
                self.field_owner.setdefault(f.name, d.name)
                self.used_member_names.add(f.name)
            self.used_member_names.add(d.constructor_name)
        else:
            for c in d.constructors:
                self.data_ctors.setdefault(c.name, (d.name, c.ty))
                self.used_member_names.add(c.name)


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
            for f in d.fields:
                self.check_type(f.ty, {})
                self.local_terms[f.name] = f.ty
        else:
            for c in d.constructors:
                self.check_type(c.ty, {})
        return self.errors

    def _check_decl_name(self) -> None:
        if self.decl.name in self.ctx.type_arity:
            self.error(
                DUPLICATE_FIELD,
                f"declaration name {self.decl.name!r} is already defined in this module",
                self.decl.pos,
            )

    def _check_member_names(self) -> None:
        d = self.decl
        members: list[tuple[str, Pos | None]]
        if isinstance(d, RecordDecl):
            members = [(f.name, f.pos) for f in d.fields] + [(d.constructor_name, d.pos)]
        else:
            members = [(c.name, c.pos) for c in d.constructors]
        seen: set[str] = set()
        for name, pos in members:
            if name in seen or name in self.ctx.used_member_names:
                self.error(
                    DUPLICATE_FIELD,
                    f"member name {name!r} is already used (all field and constructor names"
                    " must be distinct across the module)",
                    pos,
                )
            seen.add(name)

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
        if isinstance(ty, SetKind):
            return
        if isinstance(ty, SortRef):
            self._check_sort_ref(ty, bound)
            return
        if isinstance(ty, TyApp):
            self._check_ty_app(ty, bound)
            return
        if isinstance(ty, Equation):
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
        if not isinstance(ty, (Arrow, Quant)):
            raise TypeError(f"not a type expression: {ty!r}")
        # a chain of arrow codomains and quantifier bodies is checked in a
        # loop; its quantifiers bind into a copy of the caller's ``bound``
        bound = dict(bound)
        while isinstance(ty, (Arrow, Quant)):
            if isinstance(ty, Arrow):
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
        self.check_type(ty, bound)

    def _check_sort_ref(self, ty: SortRef, bound: dict[str, TypeExpr]) -> None:
        n = ty.name
        if n in self.local_sorts or n == self.self_data:
            return
        arity = self.ctx.type_arity.get(n)
        if arity is not None:
            if arity != 0:
                self.error(ARITY_MISMATCH, f"type {n!r} expects {arity} argument(s), got 0", ty.pos)
            return
        if n in bound or n in self.local_terms or n in self.ctx.used_member_names:
            self.error(SORT_MISMATCH, f"{n!r} is a term, not a type", ty.pos)
            return
        self.error(UNBOUND_NAME, f"unknown type {n!r}", ty.pos)

    def _check_ty_app(self, ty: TyApp, bound: dict[str, TypeExpr]) -> None:
        n = ty.head
        arity = self.ctx.type_arity.get(n)
        if n == self.self_data and self.decl.params:
            arity = sum(len(b.names) for b in self.decl.params)
        if arity is None:
            if n in self.local_sorts:
                self.error(ARITY_MISMATCH, f"sort {n!r} takes no arguments", ty.pos)
            else:
                self.error(UNBOUND_NAME, f"unknown type {n!r}", ty.pos)
            return
        if len(ty.args) != arity:
            self.error(
                ARITY_MISMATCH,
                f"type {n!r} expects {arity} argument(s), got {len(ty.args)}",
                ty.pos,
            )
        for a in ty.args:
            # An argument can be a type or, for telescoped records, a term
            # parameter (e.g. an instance applied to a lifted constant).
            if isinstance(a, SortRef) and (a.name in self.local_terms or a.name in bound):
                continue
            self.check_type(a, bound)

    # -- terms -----------------------------------------------------------------

    def infer_sort(self, t: Term, bound: dict[str, TypeExpr]) -> TypeExpr | None:
        head, args = spine(t)
        if not isinstance(head, (Var, Sym)):
            self.error(SORT_MISMATCH, "malformed term", getattr(t, "pos", None))
            return None
        name = head.name
        pos = head.pos

        if name in bound:
            if args:
                self.error(ARITY_MISMATCH, f"variable {name!r} cannot be applied", pos)
                return None
            return bound[name]

        if name in self.local_terms:
            return self._apply(name, self.local_terms[name], args, bound, pos)

        owner = self.ctx.field_owner.get(name)
        if owner is not None and owner != self.decl.name:
            return self._project(name, owner, args, bound, pos)

        ctor = self.ctx.data_ctors.get(name)
        if ctor is not None:
            data_name, ty = ctor
            if self.ctx.type_arity.get(data_name, 0) != 0:
                self.error(
                    SORT_MISMATCH,
                    f"constructor {name!r} of parameterized type {data_name!r} cannot be used here",
                    pos,
                )
                return None
            return self._apply(name, ty, args, bound, pos)

        if name in self.local_sorts or name in self.ctx.type_arity:
            self.error(SORT_MISMATCH, f"{name!r} is a type, not a term", pos)
            return None
        self.error(UNBOUND_NAME, f"unknown name {name!r}", pos)
        return None

    def _apply(
        self,
        name: str,
        ty: TypeExpr,
        args: list[Term],
        bound: dict[str, TypeExpr],
        pos: Pos | None,
    ) -> TypeExpr | None:
        parts = arrow_components(ty)
        doms, cod = parts[:-1], parts[-1]
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
        return cod if ok else None

    def _project(
        self, name: str, owner: str, args: list[Term], bound: dict[str, TypeExpr], pos: Pos | None
    ) -> TypeExpr | None:
        """Type a field projection written as application: ``f inst a1 .. an``."""
        info = self.ctx.records[owner]
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
        inst_args: list[TypeExpr]
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
        sort_index = info.sort_index
        if sort_index is None or sort_index >= len(inst_args):
            self.error(
                SORT_MISMATCH,
                f"record {owner!r} has no unique carrier parameter to project through",
                pos,
            )
            return None
        carrier = inst_args[sort_index]
        field_ty = map_names(info.fields[name], {info.params[sort_index][0]: carrier})
        return self._apply(name, field_ty, args[1:], bound, pos)


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
