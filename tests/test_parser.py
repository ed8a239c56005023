from __future__ import annotations

import hashlib

import pytest

from theoryforge.ast import (
    Arrow,
    Binder,
    DataDecl,
    Equation,
    Quant,
    RecordDecl,
    SetKind,
    SortRef,
    Sym,
    TyApp,
    Var,
    arrow_components,
)
from theoryforge.checker import check_module
from theoryforge.parser import ParseError, parse_decl, parse_file
from theoryforge.printer import print_decl


def test_monoid_record_shape(monoid_decl):
    assert monoid_decl.name == "Monoid"
    assert len(monoid_decl.params) == 1
    assert monoid_decl.params[0] == Binder(["A"], SetKind())
    assert monoid_decl.constructor_name == "monoid"
    assert [f.name for f in monoid_decl.fields] == ["e", "op", "lunit", "runit", "assoc"]


def test_empty_input_parses_to_empty_list():
    assert parse_file("") == []
    assert parse_file("-- only a comment\n") == []


def test_record_without_field_block_has_zero_fields():
    d = parse_decl("record M : Set where")
    assert isinstance(d, RecordDecl)
    assert d.fields == []
    assert d.params == []
    assert d.constructor_name == "MC"


def test_arrow_is_right_associative():
    d = parse_decl("record M (A : Set) : Set where\n  field\n    op : A → A → A")
    op = d.fields[0].ty
    assert op == Arrow(SortRef("A"), Arrow(SortRef("A"), SortRef("A")))


def test_ascii_arrow_accepted():
    d = parse_decl("record M (A : Set) : Set where\n  field\n    f : A -> A")
    assert d.fields[0].ty == Arrow(SortRef("A"), SortRef("A"))


def test_application_is_left_associative_in_terms():
    d = parse_decl(
        "record M (A : Set) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    ax : {x y : A} → op x y == op y x"
    )
    ax = d.fields[1].ty
    assert isinstance(ax, Quant)
    eq = ax.body
    assert isinstance(eq, Equation)
    from theoryforge.ast import spine

    head, args = spine(eq.lhs)
    assert head == Sym("op")
    assert args == [Var("x"), Var("y")]


def test_hidden_binder_groups_multiple_names():
    d = parse_decl(
        "record M (A : Set) : Set where\n"
        "  field\n"
        "    op : A → A → A\n"
        "    ax : {x y z : A} → op x (op y z) == op (op x y) z"
    )
    ax = d.fields[1].ty
    assert ax.binders == [Binder(["x", "y", "z"], SortRef("A"), hidden=True)]


def test_equation_can_be_arrow_domain():
    # the injectivity shape: (x y : A) → f x == f y → x == y
    d = parse_decl(
        "record M (A : Set) : Set where\n"
        "  field\n"
        "    f : A → A\n"
        "    inj : (x y : A) → f x == f y → x == y"
    )
    inj = d.fields[1].ty
    assert isinstance(inj, Quant)
    assert isinstance(inj.body, Arrow)
    assert isinstance(inj.body.dom, Equation)
    assert isinstance(inj.body.cod, Equation)


def test_type_application_parses_to_ty_app():
    d = parse_decl(
        "record H (A : Set) (M : Pair A A) : Set where\n  field\n    f : A"
    )
    assert d.params[1].ty == TyApp("Pair", [SortRef("A"), SortRef("A")])


def test_fields_need_no_layout():
    one_line = parse_decl("record M (A : Set) : Set where field e : A op : A → A → A")
    assert [f.name for f in one_line.fields] == ["e", "op"]


def test_types_may_wrap_across_lines():
    d = parse_decl(
        "record M (A : Set) : Set where\n"
        "  field\n"
        "    op : A →\n"
        "         A →\n"
        "         A\n"
        "    e : A"
    )
    assert [f.name for f in d.fields] == ["op", "e"]


def test_data_declaration():
    d = parse_decl(
        "data Lang : Set where\n  eL : Lang\n  opL : Lang → Lang → Lang"
    )
    assert isinstance(d, DataDecl)
    assert [c.name for c in d.constructors] == ["eL", "opL"]


def test_parametrized_data_declaration():
    d = parse_decl("data Open (V : Set) : Set where\n  v : V → Open")
    assert d.params == [Binder(["V"], SetKind())]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_file("record M : Set whre")
    assert exc.value.line == 1
    assert exc.value.col == 16
    assert exc.value.expected


def test_reserved_word_cannot_be_a_name():
    with pytest.raises(ParseError):
        parse_file("record record : Set where")


def test_unterminated_binder_is_an_error():
    with pytest.raises(ParseError):
        parse_file("record M (A : Set : Set where")


def test_repeated_binder_name_rejected():
    with pytest.raises(ParseError):
        parse_file("record M (A A : Set) : Set where")


def test_positions_attached_to_nodes(monoid_decl):
    assert monoid_decl.pos == (1, 1)
    assert monoid_decl.fields[0].pos is not None
    line, col = monoid_decl.fields[0].pos
    assert line == 4


def test_comments_inside_declarations():
    d = parse_decl(
        "record M (A : Set) : Set where -- header\n"
        "  field\n"
        "    e : A -- the unit\n"
    )
    assert [f.name for f in d.fields] == ["e"]


def test_dash_names_lex_correctly():
    d = parse_decl(
        "record M (A : Set) : Set where\n  field\n    pres-e : A\n    x' : A"
    )
    assert [f.name for f in d.fields] == ["pres-e", "x'"]


# -- pinned error text and positions -------------------------------------------------

_HEADER = "record M (A : Set) : Set where\n  field\n"


@pytest.mark.parametrize(
    "source, message",
    [
        (_HEADER + "    f : A -\n", "3:11: unexpected '-'"),
        (_HEADER + "    op : A - A", "3:12: unexpected '-'"),
        (_HEADER + "    f : A -", "3:11: unexpected '-'"),
        (_HEADER + "    ²x : A", "3:5: unexpected character '²'"),
        ("record M (A : Set) : Set where field op : A → $", "1:47: unexpected character '$'"),
        (_HEADER + "    f : 0A", "3:9: unexpected character '0'"),
        (_HEADER + "    f : A\xa0A", "3:10: unexpected character '\\xa0'"),
        # a trailing comment without a newline: end of input sits where it starts
        (_HEADER + "    op : A -> -- tail", "3:15: expected a type expression, got ''"),
        (_HEADER + "    op : A →\n", "4:1: expected a type expression, got ''"),
        ("data D : Set where\n  c : D D ==", "2:13: expected a type expression, got ''"),
        ("data D : Set where\n  c : (", "2:8: expected a type expression, got ''"),
        (_HEADER + "    ax : (A → A) == A", "3:13: expected a term on this side of '=='"),
        (_HEADER + "    f : {x : A} A", "3:17: expected 'ARROW', got 'A' (expected one of: ARROW)"),
        (_HEADER + "    f : A\r\n    g : A =",
         "4:11: expected 'record' or 'data', got '=' (expected one of: data, record)"),
        ("record M : Set whre", "1:16: expected 'where', got 'whre' (expected one of: where)"),
        ("record record : Set where", "1:8: expected a name, got 'record' (expected one of: NAME)"),
        ("record M (A : Set : Set where", "1:19: expected 'RPAREN', got ':' (expected one of: RPAREN)"),
        ("record M (A A : Set) : Set where", "1:13: repeated binder name 'A'"),
        ("record M (A : Set) : Set where constructor",
         "1:43: expected a name, got '' (expected one of: NAME)"),
        ("junk", "1:1: expected 'record' or 'data', got 'junk' (expected one of: data, record)"),
    ],
)
def test_parse_error_text_and_position_are_pinned(source, message):
    with pytest.raises(ParseError) as exc:
        parse_file(source)
    assert str(exc.value) == message


def test_reparsed_library_modules_are_pinned_with_positions():
    # repr includes every node's source position, so this pins the parser's
    # trees and positions over the 62 all-seven standard.lib modules
    from theoryforge.cli import RunConfig, generate_for_theory
    from theoryforge.combinators import load_library, standard_library_path
    from theoryforge.generators import GenKind

    cfg = RunConfig(kinds=tuple(GenKind))
    digest = hashlib.sha256()
    count = 0
    for t in load_library(standard_library_path()).theories():
        digest.update(repr(parse_file(generate_for_theory(t, cfg).module_text)).encode())
        count += 1
    assert count == 62
    assert digest.hexdigest() == "1797adff49ac522b81e08e3e06a2c80014f4e360e1dae3bcd431f42880d0905e"


# -- nesting depth ----------------------------------------------------------------

def _nested_parens(depth: int) -> str:
    return _HEADER + "    f : " + "(" * depth + "A" + ")" * depth + "\n"


def _nested_binders(depth: int) -> str:
    # (x : (x : ... (x : A) → A ...) → A) → A
    return _HEADER + "    f : " + "(x : " * depth + "A" + ") → A" * depth + "\n"


def test_nesting_up_to_the_limit_parses():
    assert parse_decl(_nested_parens(200)).fields[0].ty == SortRef("A")
    assert isinstance(parse_decl(_nested_binders(200)).fields[0].ty, Quant)


@pytest.mark.parametrize(
    "source, message",
    [
        (_nested_parens(201), "3:209: nesting deeper than 200 levels"),
        (_nested_binders(201), "3:1009: nesting deeper than 200 levels"),
    ],
    ids=["parens", "binders"],
)
def test_nesting_past_the_limit_is_a_parse_error(source, message):
    with pytest.raises(ParseError) as exc:
        parse_file(source)
    assert str(exc.value) == message


def test_long_arrow_chains_are_not_nesting():
    chain = " → ".join(["A"] * 901)
    d = parse_decl(_HEADER + f"    f : {chain}\n")
    assert len(arrow_components(d.fields[0].ty)) == 901
    assert check_module([d]) == []
    # compared as text: == on a 900-deep tree would itself recurse too deep
    assert print_decl(parse_decl(print_decl(d))) == print_decl(d)
