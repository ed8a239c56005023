"""Deterministic pretty-printer for declarations.

Output is canonical: 2-space indentation per level, ``→`` for arrows, ``==``
for equations, binders as ``(x : T)`` / ``{x : T}``, and parentheses only
where reparsing needs them.  ``parse_file(print_decl(d))`` yields a
declaration structurally equal to ``d``, and identical inputs always produce
byte-identical text.  Nodes are told apart by their exact class; an
application's spine and a chain of arrows and quantifiers print in a loop.
"""

from __future__ import annotations

from .ast import (
    App,
    Arrow,
    Binder,
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
)

INDENT = "  "


def print_term(t: Term) -> str:
    # the arguments are printed from the last one back along the function
    # spine, so a long spine costs no recursion
    parts: list[str] = []
    while type(t) is App:
        a = t.arg
        c = type(a)
        parts.append(a.name if c is Var or c is Sym else f"({print_term(a)})" if c is App else print_term(a))
        t = t.fn
    if type(t) is not Var and type(t) is not Sym:
        raise ValueError("term head must be a name")
    if not parts:
        return t.name
    parts.append(t.name)
    parts.reverse()
    return " ".join(parts)


def _atom(ty: TypeExpr) -> str:
    """Render with parentheses unless the node is already atomic."""
    text = print_type(ty)
    return text if type(ty) is SetKind or type(ty) is SortRef else f"({text})"


def print_binder(b: Binder) -> str:
    open_c, close_c = ("{", "}") if b.hidden else ("(", ")")
    return f"{open_c}{' '.join(b.names)} : {print_type(b.ty)}{close_c}"


def print_type(ty: TypeExpr) -> str:
    # exact class tests: the node classes are never subclassed
    cls = type(ty)
    if cls is SortRef:
        return ty.name
    if cls is TyApp:
        return " ".join([ty.head] + [a.name if type(a) is SortRef else _atom(a) for a in ty.args])
    if cls is Equation:
        return f"{print_term(ty.lhs)} == {print_term(ty.rhs)}"
    if cls is SetKind:
        return "Set"
    if cls is not Arrow and cls is not Quant:
        raise ValueError(f"not a type expression: {ty!r}")
    # a chain of arrow codomains and quantifier bodies is printed in a loop
    parts: list[str] = []
    while cls is Arrow or cls is Quant:
        if cls is Arrow:
            dom = print_type(ty.dom)
            parts.append(f"({dom})" if type(ty.dom) in (Arrow, Quant) else dom)
            ty = ty.cod
        else:
            parts.append(" ".join([print_binder(b) for b in ty.binders]))
            ty = ty.body
        cls = type(ty)
    parts.append(print_type(ty))
    return " → ".join(parts)


def print_decl(d: Decl) -> str:
    """Render one declaration (no trailing newline)."""
    params = "".join([" " + print_binder(b) for b in d.params])
    if type(d) is RecordDecl:
        text = f"record {d.name}{params} : Set where\n{INDENT}constructor {d.constructor_name}"
        if not d.fields:
            return text
        members, indent = d.fields, f"\n{INDENT * 2}"
        text += f"\n{INDENT}field"
    else:
        members, indent = d.constructors, f"\n{INDENT}"
        text = f"data {d.name}{params} : Set where"
    return text + "".join([f"{indent}{c.name} : {print_type(c.ty)}" for c in members])


def print_module(decls: list[Decl]) -> str:
    """Render a whole module: declarations separated by blank lines,
    trailing newline, LF endings."""
    if not decls:
        return ""
    return "\n\n".join(print_decl(d) for d in decls) + "\n"


__all__ = ["print_binder", "print_decl", "print_module", "print_term", "print_type"]
