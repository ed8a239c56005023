"""Recursive-descent parser for the ``.eqt`` declaration language.

Grammar (EBNF):

    file        = decl* EOF
    decl        = recordDecl | dataDecl
    recordDecl  = "record" NAME binder* ":" "Set" "where"
                  [ "constructor" NAME ] [ "field" constr* ]
    dataDecl    = "data" NAME binder* ":" "Set" "where" constr*
    constr      = NAME ":" typeExpr
    typeExpr    = binder+ "→" typeExpr          -- quantifier
                | operand [ "→" typeExpr ]      -- arrow, right-associative
    operand     = apps [ "==" apps ]            -- equation
    apps        = atom+                          -- application, left-associative
    atom        = NAME | "Set" | "(" typeExpr ")"
    binder      = "(" NAME+ ":" typeExpr ")" | "{" NAME+ ":" typeExpr "}"

Layout is free-form: a constr ends exactly where the next ``NAME ":"`` pair
(or a closing token) begins, so types may wrap across lines.  ``--`` comments
run to end of line.  Inside an equation both sides are terms; names bound by
the enclosing quantifier parse as variables and everything else as symbols.

Every node carries its source position, the token's ``(line, col)``, passed
as the last positional argument: a keyword argument costs more per node, and
building nodes is a large share of parsing.  If the record header omits the
``constructor`` clause the declaration still gets one, named after the record
with a ``C`` appended, so printing always round-trips.

The parser pads the token list it is given with two extra ``EOF`` tokens,
so lookahead is plain indexing: no lookahead the grammar needs can run past
the end; tokens are read by index.  Parentheses and binder groups may nest
at most ``MAX_NESTING`` levels deep; deeper input is a ``ParseError`` at
the opening token, before the recursion could exhaust the interpreter's
stack.  ``parse_type`` folds quantifier and arrow chains in a loop and
``_parse_apps`` collects an application's atoms inline, so a chain costs
no recursion and each level of nesting costs two frames (``parse_type`` and
``_parse_apps``, or ``parse_type`` and ``_parse_binder_group``).  Arrow
chains do not count as nesting.  An application is collected unbuilt and
built once, as a type or, after ``==``, as a term (``_as_type``,
``_as_term``); one in parentheses is built with the one around it.
"""

from __future__ import annotations

from typing import Any

from .ast import (
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
    default_constructor,
)
from .lexer import (
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
    ParseError,
    Token,
    tokenize,
)

MAX_NESTING = 200


class Parser:
    def __init__(self, tokens: list[Token]):
        """Take over ``tokens``, a list as ``tokenize`` returns it."""
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
        """Consume the current token if it has ``kind`` (and ``value``);
        ``kind`` is never ``EOF``, so this never moves past the end."""
        tok = self.tokens[self.pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise self._error(
                f"expected {want!r}, got {tok.value!r}" if tok.value else f"expected {want!r}, got end of input",
                tok,
                expected=(want,),
            )
        self.pos += 1
        return tok

    def _expect_name(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != NAME:
            raise self._error(f"expected a name, got {tok.value!r}", tok, expected=(NAME,))
        self.pos += 1
        return tok

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

    def _parse_header(self, keyword: str) -> tuple[Token, Token, list[Binder]]:
        """``keyword NAME binder* ":" "Set" "where"``: the keyword token, the
        name token and the binders."""
        start = self._expect(KEYWORD, keyword)
        name = self._expect_name()
        params = self._parse_binders()
        self._expect(COLON)
        self._expect(KEYWORD, "Set")
        self._expect(KEYWORD, "where")
        return start, name, params

    def _parse_record(self) -> RecordDecl:
        start, name, params = self._parse_header("record")
        ctor_name = default_constructor(name.value)
        tok = self._peek()
        if tok.kind == KEYWORD and tok.value == "constructor":
            self._advance()
            ctor_name = self._expect_name().value

        fields: list[Constr] = []
        tok = self._peek()
        if tok.kind == KEYWORD and tok.value == "field":
            self._advance()
            fields = self._parse_constr_block()
        return RecordDecl(name.value, params, ctor_name, fields, start[2:])

    def _parse_data(self) -> DataDecl:
        start, name, params = self._parse_header("data")
        ctors = self._parse_constr_block()
        return DataDecl(name.value, params, ctors, start[2:])

    def _parse_constr_block(self) -> list[Constr]:
        tokens = self.tokens
        constrs: list[Constr] = []
        while tokens[self.pos][0] == NAME and tokens[self.pos + 1][0] == COLON:
            name = tokens[self.pos]
            self.pos += 2
            constrs.append(Constr(name[1], self.parse_type(_UNBOUND), name[2:]))
        return constrs

    # -- binders --------------------------------------------------------------------

    def _binder_at(self, k: int) -> bool:
        """True when the tokens from index ``k`` open a binder group:
        ``{`` always does in type position; ``(`` only if followed by
        one or more names and a colon."""
        tokens = self.tokens
        kind = tokens[k][0]
        if kind == LBRACE:
            return True
        if kind != LPAREN or tokens[k + 1][0] != NAME:
            return False
        k += 2
        while tokens[k][0] == NAME:
            k += 1
        return tokens[k][0] == COLON

    def _parse_binder_group(self) -> Binder:
        """A binder group; the caller has seen it open at the current token."""
        tokens = self.tokens
        open_tok = tokens[self.pos]
        self.pos += 1
        hidden = open_tok[0] == LBRACE
        close = RBRACE if hidden else RPAREN
        names = [self._expect_name()]
        while tokens[self.pos][0] == NAME:
            names.append(tokens[self.pos])
            self.pos += 1
        seen: set[str] = set()
        for t in names:
            if t[1] in seen:
                raise ParseError(f"repeated binder name {t[1]!r}", t[2], t[3])
            seen.add(t[1])
        self._expect(COLON)
        self._nest(open_tok)
        ty = self.parse_type(_UNBOUND)
        self.depth -= 1
        self._expect(close)
        return Binder([t[1] for t in names], ty, hidden, open_tok[2:])

    def _parse_binders(self) -> list[Binder]:
        binders: list[Binder] = []
        while self._binder_at(self.pos):
            binders.append(self._parse_binder_group())
        return binders

    # -- type expressions --------------------------------------------------------------

    def parse_type(self, bound: frozenset[str], group: bool = False) -> TypeExpr:
        """Parse a typeExpr.  Quantifiers and arrows are collected in a loop
        and built right to left, so a chain of them costs no recursion.  In
        a parenthesised ``group``, an application that stands alone comes
        back unbuilt, as ``_parse_apps`` gives it."""
        tokens = self.tokens
        # (node class, binders or domain, position) of each quantifier or
        # arrow, outermost first
        links: list[tuple[type, object, tuple[int, int]]] = []
        while True:
            tok = tokens[self.pos]
            kind = tok[0]
            if (kind == LPAREN or kind == LBRACE) and self._binder_at(self.pos):
                binders = [self._parse_binder_group()]
                while self._binder_at(self.pos):
                    binders.append(self._parse_binder_group())
                self._expect(ARROW)
                bound = bound.union(n for b in binders for n in b.names)
                links.append((Quant, binders, tok[2:]))
                continue
            apps = self._parse_apps(bound)
            tok = tokens[self.pos]
            if tok[0] == EQEQ:
                self.pos += 1
                rhs = self._parse_apps(bound)
                ty = Equation(_as_term(apps, bound), _as_term(rhs, bound), tok[2:])
                tok = tokens[self.pos]
            elif group and not links and tok[0] != ARROW:
                return apps  # type: ignore[return-value]
            else:
                ty = _as_type(apps)
            if tok[0] != ARROW:
                break
            self.pos += 1
            links.append((Arrow, ty, tok[2:]))
        for node, first, pos in reversed(links):
            ty = node(first, ty, pos)
        return ty

    def _parse_apps(self, bound: frozenset[str]) -> Any:
        """``atom+``, unbuilt: its one atom, or the list of its first token
        and its atoms, the first a ``NAME`` token.  An atom is a ``NAME`` or
        ``Set`` token, an unbuilt application in parentheses, or any other
        type in parentheses."""
        tokens = self.tokens
        k = self.pos
        apps: list = [tokens[k]]
        while True:
            tok = tokens[k]
            kind = tok[0]
            if kind == NAME:
                # a name directly followed by ':' begins the next constr
                if tokens[k + 1][0] == COLON:
                    break
                apps.append(tok)
                k += 1
            elif kind == LPAREN:
                if self._binder_at(k):
                    break
                self.pos = k + 1
                self._nest(tok)
                apps.append(self.parse_type(bound, True))
                self.depth -= 1
                self._expect(RPAREN)
                k = self.pos
            elif kind == KEYWORD and tok[1] == "Set":
                apps.append(tok)
                k += 1
            else:
                break
        self.pos = k
        if len(apps) == 2:
            return apps[1]
        if len(apps) == 1:
            raise self._error(f"expected a type expression, got {apps[0][1]!r}", apps[0])
        head = apps[1]
        if type(head) is not Token or head[0] != NAME:
            raise ParseError("application head must be a name", apps[0][2], apps[0][3])
        return apps


_UNBOUND: frozenset[str] = frozenset()


def _as_type(x: Any) -> TypeExpr:
    """Build an atom or an unbuilt application as a type expression."""
    cls = type(x)
    if cls is Token:
        return SortRef(x[1], x[2:]) if x[0] == NAME else SetKind(x[2:])
    if cls is list:
        return TyApp(x[1][1], [_as_type(a) for a in x[2:]], x[0][2:])
    return x


def _as_term(x: Any, bound: frozenset[str]) -> Term:
    """Build an atom or an unbuilt application as an equation-side term:
    names in ``bound`` are variables, every other name a symbol."""
    cls = type(x)
    if cls is Token:
        if x[0] == NAME:
            return (Var if x[1] in bound else Sym)(x[1], x[2:])
        pos = x[2:]
    elif cls is list:
        pos = x[0][2:]
        name = x[1][1]
        t: Term = (Var if name in bound else Sym)(name, pos)
        for i in range(2, len(x)):
            t = App(t, _as_term(x[i], bound), pos)
        return t
    else:
        pos = x.pos
    raise ParseError("expected a term on this side of '=='", pos[0], pos[1])


def parse_file(source: str) -> list[Decl]:
    """Parse the top-level declarations of one source text, in order."""
    return Parser(tokenize(source)).parse_file()


def parse_decl(source: str) -> Decl:
    decls = parse_file(source)
    if len(decls) != 1:
        raise ParseError(f"expected exactly one declaration, found {len(decls)}", 1, 1)
    return decls[0]


__all__ = ["ParseError", "Parser", "parse_decl", "parse_file"]
