from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theoryforge.ast import (
    App,
    Arrow,
    Binder,
    Constr,
    DataDecl,
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
    arrow_components,
)
from theoryforge.checker import check_module
from theoryforge.lexer import (
    ARROW,
    COLON,
    EOF,
    EQEQ,
    KEYWORD,
    LBRACE,
    LPAREN,
    NAME,
    RBRACE,
    RPAREN,
    Token,
    tokenize,
)
from theoryforge.parser import MAX_NESTING, ParseError, Parser, parse_decl, parse_file
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


@pytest.mark.parametrize(
    "source, found", [("", 0), ("record A : Set where\nrecord B : Set where\n", 2)], ids=["none", "two"]
)
def test_parse_decl_wants_exactly_one_declaration(source, found):
    with pytest.raises(ParseError) as exc:
        parse_decl(source)
    assert str(exc.value) == f"1:1: expected exactly one declaration, found {found}"


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
        (_HEADER + "    f : Set == Set", "3:9: expected a term on this side of '=='"),
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
    text = print_decl(d)
    assert print_decl(parse_decl(text)) == text
    # == walks the tree on an explicit stack, so depth does not matter
    assert parse_decl(text) == d


def _nested_arrows(depth: int) -> str:
    # A → (A → (... (A → A) ...))
    return _HEADER + "    f : " + "A → (" * depth + "A" + ")" * depth + "\n"


def test_arrows_nested_in_parens_up_to_the_limit_parse_check_and_reprint():
    d = parse_decl(_nested_arrows(200))
    assert len(arrow_components(d.fields[0].ty)) == 201
    assert check_module([d]) == []
    text = print_decl(d)
    assert print_decl(parse_decl(text)) == text
    assert parse_decl(text) == d
    assert parse_decl(_nested_arrows(199)) != d


def test_arrows_nested_in_parens_past_the_limit_are_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_file(_nested_arrows(201))
    # at the 201st opening paren: "    f : " is 8 columns and each "A → (" 5 more
    assert str(exc.value) == f"3:{8 + 5 * 201}: nesting deeper than 200 levels"


# -- oracle: the recursive-descent parser the loop-folding one replaced ----------------


class _ReferenceParser:
    def __init__(self, tokens: list[Token]):
        # the list ends in EOF and ``pos`` never moves past it; with two more
        # EOFs, ``_peek(1)`` and ``_peek(2)`` read EOF there.  Padding in
        # place spares a copy of the list, which showed in peak memory
        tokens.extend([tokens[-1]] * 2)
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self, k: int = 0) -> Token:
        return self.tokens[self.pos + k]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def _nest(self, open_tok: Token) -> None:
        """Enter one more level of parentheses or binder group; the caller
        lowers ``depth`` again when the level is closed."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", open_tok.line, open_tok.col)
        self.depth += 1

    def _error(self, message: str, tok: Token | None = None, expected: tuple[str, ...] = ()) -> ParseError:
        tok = tok or self._peek()
        return ParseError(message, tok.line, tok.col, expected)

    def _expect(self, kind: str, value: str | None = None) -> Token:
        tok = self._peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise self._error(
                f"expected {want!r}, got {tok.value!r}" if tok.value else f"expected {want!r}, got end of input",
                tok,
                expected=(want,),
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        return self._expect(KEYWORD, word)

    def _expect_name(self) -> Token:
        tok = self._peek()
        if tok.kind != NAME:
            raise self._error(f"expected a name, got {tok.value!r}", tok, expected=(NAME,))
        return self._advance()

    # -- entry points ----------------------------------------------------------

    def parse_file(self) -> list[Decl]:
        decls: list[Decl] = []
        while self._peek().kind != EOF:
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> Decl:
        tok = self._peek()
        if tok.kind == KEYWORD and tok.value == "record":
            return self._parse_record()
        if tok.kind == KEYWORD and tok.value == "data":
            return self._parse_data()
        raise self._error(
            f"expected 'record' or 'data', got {tok.value!r}", tok, expected=("record", "data")
        )

    # -- declarations ------------------------------------------------------------

    def _parse_record(self) -> RecordDecl:
        start = self._expect_keyword("record")
        name = self._expect_name()
        params = self._parse_binders()
        self._expect(COLON)
        self._expect_keyword("Set")
        self._expect_keyword("where")

        ctor_name = name.value + "C"
        tok = self._peek()
        if tok.kind == KEYWORD and tok.value == "constructor":
            self._advance()
            ctor_name = self._expect_name().value

        fields: list[Constr] = []
        tok = self._peek()
        if tok.kind == KEYWORD and tok.value == "field":
            self._advance()
            fields = self._parse_constr_block()
        return RecordDecl(name.value, params, ctor_name, fields, pos=(start.line, start.col))

    def _parse_data(self) -> DataDecl:
        start = self._expect_keyword("data")
        name = self._expect_name()
        params = self._parse_binders()
        self._expect(COLON)
        self._expect_keyword("Set")
        self._expect_keyword("where")
        ctors = self._parse_constr_block()
        return DataDecl(name.value, params, ctors, pos=(start.line, start.col))

    def at_constr_start(self) -> bool:
        return self._peek().kind == NAME and self._peek(1).kind == COLON

    def _parse_constr_block(self) -> list[Constr]:
        constrs: list[Constr] = []
        while self.at_constr_start():
            constrs.append(self.parse_constr())
        return constrs

    def parse_constr(self) -> Constr:
        name = self._expect_name()
        self._expect(COLON)
        ty = self.parse_type(frozenset())
        return Constr(name.value, ty, pos=(name.line, name.col))

    # -- binders --------------------------------------------------------------------

    def _looks_like_binder(self) -> bool:
        """True when the upcoming tokens open a binder group:
        ``{`` always does in type position; ``(`` only if followed by
        one or more names and a colon."""
        tokens = self.tokens
        k = self.pos
        kind = tokens[k].kind
        if kind == LBRACE:
            return True
        if kind != LPAREN or tokens[k + 1].kind != NAME:
            return False
        k += 2
        while tokens[k].kind == NAME:
            k += 1
        return tokens[k].kind == COLON

    def _parse_binder_group(self) -> Binder:
        open_tok = self._advance()
        hidden = open_tok.kind == LBRACE
        close = RBRACE if hidden else RPAREN
        names = [self._expect_name()]
        while self._peek().kind == NAME:
            names.append(self._expect_name())
        seen: set[str] = set()
        for t in names:
            if t.value in seen:
                raise ParseError(f"repeated binder name {t.value!r}", t.line, t.col)
            seen.add(t.value)
        self._expect(COLON)
        self._nest(open_tok)
        ty = self.parse_type(frozenset())
        self.depth -= 1
        self._expect(close)
        return Binder([t.value for t in names], ty, hidden, pos=(open_tok.line, open_tok.col))

    def _parse_binders(self) -> list[Binder]:
        binders: list[Binder] = []
        while self._looks_like_binder():
            binders.append(self._parse_binder_group())
        return binders

    # -- type expressions --------------------------------------------------------------

    def parse_type(self, bound: frozenset[str]) -> TypeExpr:
        if self._looks_like_binder():
            start = self._peek()
            binders = [self._parse_binder_group()]
            while self._looks_like_binder():
                binders.append(self._parse_binder_group())
            self._expect(ARROW)
            inner = bound.union(n for b in binders for n in b.names)
            body = self.parse_type(inner)
            return Quant(binders, body, pos=(start.line, start.col))

        operand = self._parse_operand(bound)
        arrow = self.tokens[self.pos]
        if arrow.kind == ARROW:
            self.pos += 1
            cod = self.parse_type(bound)
            return Arrow(operand, cod, pos=(arrow.line, arrow.col))
        return operand

    def _parse_operand(self, bound: frozenset[str]) -> TypeExpr:
        lhs = self._parse_apps(bound)
        eq = self.tokens[self.pos]
        if eq.kind == EQEQ:
            self.pos += 1
            rhs = self._parse_apps(bound)
            return Equation(self._to_term(lhs, bound), self._to_term(rhs, bound), pos=(eq.line, eq.col))
        return lhs

    def _at_atom_start(self) -> bool:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == NAME:
            # a name directly followed by ':' begins the next constr
            return self.tokens[self.pos + 1].kind != COLON
        if kind == LPAREN:
            return not self._looks_like_binder()
        return kind == KEYWORD and tok.value == "Set"

    def _parse_apps(self, bound: frozenset[str]) -> TypeExpr:
        head_tok = self.tokens[self.pos]
        if not self._at_atom_start():
            raise self._error(f"expected a type expression, got {head_tok.value!r}", head_tok)
        atoms = [self._parse_atom(bound)]
        while self._at_atom_start():
            atoms.append(self._parse_atom(bound))
        if len(atoms) == 1:
            return atoms[0]
        head = atoms[0]
        if not isinstance(head, SortRef):
            raise ParseError(
                "application head must be a name", head_tok.line, head_tok.col
            )
        return TyApp(head.name, atoms[1:], pos=(head_tok.line, head_tok.col))

    def _parse_atom(self, bound: frozenset[str]) -> TypeExpr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == NAME:
            self.pos += 1
            return SortRef(tok.value, pos=(tok.line, tok.col))
        if kind == LPAREN:
            self.pos += 1
            self._nest(tok)
            inner = self.parse_type(bound)
            self.depth -= 1
            self._expect(RPAREN)
            return inner
        if kind == KEYWORD and tok.value == "Set":
            self.pos += 1
            return SetKind(pos=(tok.line, tok.col))
        raise self._error(f"expected a type expression, got {tok.value!r}", tok)

    # -- terms ---------------------------------------------------------------------------

    def _to_term(self, ty: TypeExpr, bound: frozenset[str]) -> Term:
        """Reinterpret a parsed type expression as an equation-side term."""
        if isinstance(ty, SortRef):
            node: Term = Var(ty.name, pos=ty.pos) if ty.name in bound else Sym(ty.name, pos=ty.pos)
            return node
        if isinstance(ty, TyApp):
            head: Term = Var(ty.head, pos=ty.pos) if ty.head in bound else Sym(ty.head, pos=ty.pos)
            t: Term = head
            for arg in ty.args:
                t = App(t, self._to_term(arg, bound), pos=ty.pos)
            return t
        pos = getattr(ty, "pos", None) or (0, 0)
        raise ParseError("expected a term on this side of '=='", pos[0], pos[1])


def _parse_outcome(parser_class, source: str):
    """``repr`` of the declarations, positions included, or the ParseError."""
    try:
        return repr(parser_class(tokenize(source)).parse_file())
    except ParseError as e:
        return ("ParseError", e.message, e.line, e.col, e.expected)


def assert_parses_as_reference(source: str) -> None:
    assert _parse_outcome(Parser, source) == _parse_outcome(_ReferenceParser, source)


_SOUP_WORDS = [
    "record", "data", "field", "where", "constructor", "Set", "A", "B", "x", "y",
    "(", ")", "{", "}", ":", "→", "==", ",", "\n",
]
# starts that reach the type-expression rules more often than a bare soup does
_SOUP_STARTS = ["", "record M (A : Set) : Set where field f :", "data D : Set where c :"]


@settings(max_examples=1500)
@given(st.sampled_from(_SOUP_STARTS), st.lists(st.sampled_from(_SOUP_WORDS), max_size=30))
def test_parser_agrees_with_reference_on_token_soups(start, words):
    assert_parses_as_reference(" ".join([start, *words]))


def _printed_library_decls() -> list[str]:
    from theoryforge.cli import RunConfig, generate_for_theory
    from theoryforge.combinators import load_library, standard_library_path
    from theoryforge.generators import GenKind

    cfg = RunConfig(kinds=tuple(GenKind))
    texts: list[str] = []
    for t in load_library(standard_library_path()).theories()[:12]:
        texts.extend(generate_for_theory(t, cfg).module_text.split("\n\n"))
    return texts


_PRINTED = _printed_library_decls()


@settings(max_examples=800)
@given(st.data())
def test_parser_agrees_with_reference_on_printed_declarations(data):
    words = data.draw(st.sampled_from(_PRINTED)).split(" ")
    # cut, drop, repeat or insert a few words so the error paths are reached too
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(words)))
        edit = data.draw(st.sampled_from(["cut", "drop", "repeat", "insert"]))
        if edit == "cut":
            words = words[:i]
        elif edit == "drop":
            words = words[:i] + words[i + 1:]
        elif edit == "repeat" and i < len(words):
            words = words[:i] + [words[i]] + words[i:]
        elif edit == "insert":
            words = words[:i] + [data.draw(st.sampled_from(_SOUP_WORDS))] + words[i:]
    assert_parses_as_reference(" ".join(words))


def test_parser_agrees_with_reference_on_every_printed_declaration():
    for text in _PRINTED:
        assert_parses_as_reference(text)
