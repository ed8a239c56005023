"""Deterministic pretty-printer for declarations.

Output is canonical: 2-space indentation per level, ``→`` for arrows, ``==``
for equations, binders as ``(x : T)`` / ``{x : T}``, and parentheses only
where reparsing needs them.  ``parse_file(print_decl(d))`` yields a
declaration structurally equal to ``d``, and identical inputs always produce
byte-identical text.
"""

from __future__ import annotations

from .ast import (
    App,
    Arrow,
    Binder,
    Constr,
    Decl,
    Equation,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Sym,
    Term,
    TyApp,
    TypeExpr,
    Var,
    spine,
)

INDENT = "  "


def print_term(t: Term) -> str:
    head, args = spine(t)
    if not isinstance(head, (Var, Sym)):
        raise ValueError("term head must be a name")
    parts = [head.name]
    for a in args:
        parts.append(f"({print_term(a)})" if isinstance(a, App) else print_term(a))
    return " ".join(parts)


def _atom(ty: TypeExpr) -> str:
    """Render with parentheses unless the node is already atomic."""
    text = print_type(ty)
    if isinstance(ty, (SetKind, SortRef)):
        return text
    return f"({text})"


def print_binder(b: Binder) -> str:
    open_c, close_c = ("{", "}") if b.hidden else ("(", ")")
    return f"{open_c}{' '.join(b.names)} : {print_type(b.ty)}{close_c}"


def print_type(ty: TypeExpr) -> str:
    if isinstance(ty, SetKind):
        return "Set"
    if isinstance(ty, SortRef):
        return ty.name
    if isinstance(ty, TyApp):
        return " ".join([ty.head] + [_atom(a) for a in ty.args])
    if isinstance(ty, Equation):
        return f"{print_term(ty.lhs)} == {print_term(ty.rhs)}"
    if not isinstance(ty, (Arrow, Quant)):
        raise ValueError(f"not a type expression: {ty!r}")
    # a chain of arrow codomains and quantifier bodies is printed in a loop
    parts: list[str] = []
    while isinstance(ty, (Arrow, Quant)):
        if isinstance(ty, Arrow):
            dom = print_type(ty.dom)
            parts.append(f"({dom})" if isinstance(ty.dom, (Arrow, Quant)) else dom)
            ty = ty.cod
        else:
            parts.append(" ".join(print_binder(b) for b in ty.binders))
            ty = ty.body
    parts.append(print_type(ty))
    return " → ".join(parts)


def _print_constr(c: Constr, indent: str) -> str:
    return f"{indent}{c.name} : {print_type(c.ty)}"


def print_decl(d: Decl) -> str:
    """Render one declaration (no trailing newline)."""
    params = "".join(" " + print_binder(b) for b in d.params)
    if isinstance(d, RecordDecl):
        lines = [f"record {d.name}{params} : Set where"]
        lines.append(f"{INDENT}constructor {d.constructor_name}")
        if d.fields:
            lines.append(f"{INDENT}field")
            lines.extend(_print_constr(f, INDENT * 2) for f in d.fields)
        return "\n".join(lines)
    lines = [f"data {d.name}{params} : Set where"]
    lines.extend(_print_constr(c, INDENT) for c in d.constructors)
    return "\n".join(lines)


def print_module(decls: list[Decl]) -> str:
    """Render a whole module: declarations separated by blank lines,
    trailing newline, LF endings."""
    if not decls:
        return ""
    return "\n\n".join(print_decl(d) for d in decls) + "\n"


__all__ = ["print_binder", "print_decl", "print_module", "print_term", "print_type"]
