from __future__ import annotations

from hypothesis import given, settings

from test_generator_properties import ALL_KINDS, module, theory_decls
from theoryforge.ast import (
    App,
    Arrow,
    Binder,
    Constr,
    Equation,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Sym,
    TyApp,
    Var,
    spine,
)
from theoryforge.generators import gen_all, prod_decl
from theoryforge.parser import parse_decl, parse_file
from theoryforge.printer import print_decl, print_module, print_term
from theoryforge.theory import embed, extract


def roundtrips(decl) -> bool:
    reparsed = parse_file(print_decl(decl))
    return reparsed == [decl]


def test_monoid_prints_canonically(monoid_decl):
    text = print_decl(monoid_decl)
    assert text == (
        "record Monoid (A : Set) : Set where\n"
        "  constructor monoid\n"
        "  field\n"
        "    e : A\n"
        "    op : A → A → A\n"
        "    lunit : {x : A} → op e x == x\n"
        "    runit : {x : A} → op x e == x\n"
        "    assoc : {x y z : A} → op x (op y z) == op (op x y) z"
    )


def test_roundtrip_on_input_and_constructions(monoid_decl, monoid):
    assert roundtrips(monoid_decl)
    for d in gen_all(monoid):
        assert roundtrips(d)
    assert roundtrips(prod_decl())


def test_roundtrip_across_library(library):
    for t in library.theories():
        assert roundtrips(embed(t)), t.name
        for d in gen_all(t):
            assert roundtrips(d), (t.name, d.name)


def test_record_with_zero_fields_prints_header_and_constructor():
    d = parse_decl("record M : Set where")
    assert print_decl(d) == "record M : Set where\n  constructor MC"
    assert roundtrips(d)


def test_empty_data_type_prints_header_only():
    d = parse_decl("data D : Set where")
    assert print_decl(d) == "data D : Set where"
    assert roundtrips(d)


def test_arrow_domain_parenthesized_only_when_needed():
    d = parse_decl("record M (A : Set) : Set where\n  field\n    f : (A → A) → A")
    assert "(A → A) → A" in print_decl(d)
    assert roundtrips(d)


def test_a_type_argument_that_is_an_application_keeps_its_parentheses():
    d = parse_decl("record M (A : Set) (t : T (P A A)) : Set where")
    assert print_decl(d) == "record M (A : Set) (t : T (P A A)) : Set where\n  constructor MC"
    assert roundtrips(d)


def test_printing_is_deterministic(monoid):
    texts = {print_module([embed(monoid)] + gen_all(monoid)) for _ in range(3)}
    assert len(texts) == 1


def test_an_empty_module_prints_as_nothing():
    assert print_module([]) == ""


def test_module_print_separates_with_blank_lines(monoid_decl):
    text = print_module([monoid_decl, prod_decl()])
    assert "\n\nrecord Prod" in text
    assert text.endswith("\n")
    assert parse_file(text) == [monoid_decl, prod_decl()]


# -- oracle: the printer that exact-class dispatch replaced ---------------------------

_REF_INDENT = "  "


def _ref_print_term(t) -> str:
    head, args = spine(t)
    if not isinstance(head, (Var, Sym)):
        raise ValueError("term head must be a name")
    parts = [head.name]
    for a in args:
        parts.append(f"({_ref_print_term(a)})" if isinstance(a, App) else _ref_print_term(a))
    return " ".join(parts)


def _ref_atom(ty) -> str:
    text = _ref_print_type(ty)
    if isinstance(ty, (SetKind, SortRef)):
        return text
    return f"({text})"


def _ref_print_binder(b: Binder) -> str:
    open_c, close_c = ("{", "}") if b.hidden else ("(", ")")
    return f"{open_c}{' '.join(b.names)} : {_ref_print_type(b.ty)}{close_c}"


def _ref_print_type(ty) -> str:
    if isinstance(ty, SetKind):
        return "Set"
    if isinstance(ty, SortRef):
        return ty.name
    if isinstance(ty, TyApp):
        return " ".join([ty.head] + [_ref_atom(a) for a in ty.args])
    if isinstance(ty, Equation):
        return f"{_ref_print_term(ty.lhs)} == {_ref_print_term(ty.rhs)}"
    if not isinstance(ty, (Arrow, Quant)):
        raise ValueError(f"not a type expression: {ty!r}")
    parts: list[str] = []
    while isinstance(ty, (Arrow, Quant)):
        if isinstance(ty, Arrow):
            dom = _ref_print_type(ty.dom)
            parts.append(f"({dom})" if isinstance(ty.dom, (Arrow, Quant)) else dom)
            ty = ty.cod
        else:
            parts.append(" ".join(_ref_print_binder(b) for b in ty.binders))
            ty = ty.body
    parts.append(_ref_print_type(ty))
    return " → ".join(parts)


def _ref_print_constr(c: Constr, indent: str) -> str:
    return f"{indent}{c.name} : {_ref_print_type(c.ty)}"


def _ref_print_decl(d) -> str:
    params = "".join(" " + _ref_print_binder(b) for b in d.params)
    if isinstance(d, RecordDecl):
        lines = [f"record {d.name}{params} : Set where"]
        lines.append(f"{_REF_INDENT}constructor {d.constructor_name}")
        if d.fields:
            lines.append(f"{_REF_INDENT}field")
            lines.extend(_ref_print_constr(f, _REF_INDENT * 2) for f in d.fields)
        return "\n".join(lines)
    lines = [f"data {d.name}{params} : Set where"]
    lines.extend(_ref_print_constr(c, _REF_INDENT) for c in d.constructors)
    return "\n".join(lines)


def _ref_print_module(decls) -> str:
    if not decls:
        return ""
    return "\n\n".join(_ref_print_decl(d) for d in decls) + "\n"


@settings(max_examples=300)
@given(theory_decls())
def test_printer_agrees_with_reference_on_drawn_declarations(decl):
    decls = module(decl, extract(decl), ALL_KINDS)
    for d in decls:
        assert print_decl(d) == _ref_print_decl(d)
    assert print_module(decls) == _ref_print_module(decls)


def test_printer_agrees_with_reference_on_every_library_module(library):
    # the 62 standard.lib modules with all seven constructions, reparsed so
    # that every declaration is printed from parsed trees as well
    from theoryforge.cli import RunConfig, generate_for_theory

    cfg = RunConfig(kinds=tuple(ALL_KINDS))
    count = 0
    for t in library.theories():
        text = generate_for_theory(t, cfg).module_text
        decls = parse_file(text)
        assert _ref_print_module(decls) == text, t.name
        assert print_module(decls) == text, t.name
        assert [print_decl(d) for d in decls] == [_ref_print_decl(d) for d in decls], t.name
        count += 1
    assert count == 62


def test_printer_agrees_with_reference_on_bad_terms():
    # a term whose head or argument is no name is refused with one message
    for t in (App(Sym("f"), SetKind()), App(SetKind(), Sym("x")), SortRef("A")):
        for printer in (print_term, _ref_print_term):
            try:
                printer(t)
            except ValueError as e:
                assert str(e) == "term head must be a name"
            else:
                raise AssertionError(f"{printer.__name__} printed {t!r}")
