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
the end.  Parentheses and binder groups may nest at most ``MAX_NESTING``
levels deep; deeper input is a ``ParseError`` at the opening token, before
the recursion could exhaust the interpreter's stack.  ``parse_type`` folds
quantifier and arrow chains in a loop and ``_parse_apps`` parses atoms
inline, so a chain costs no recursion and each level of nesting costs two
frames (``parse_type`` and ``_parse_apps``, or ``parse_type`` and
``_parse_binder_group``).  Arrow chains do not count as nesting.
"""

from __future__ import annotations

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
        return RecordDecl(name.value, params, ctor_name, fields, start[2:])

    def _parse_data(self) -> DataDecl:
        start, name, params = self._parse_header("data")
        ctors = self._parse_constr_block()
        return DataDecl(name.value, params, ctors, start[2:])

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
        return Constr(name.value, ty, name[2:])

    # -- binders --------------------------------------------------------------------

    def _binder_at(self, k: int) -> bool:
        """True when the tokens from index ``k`` open a binder group:
        ``{`` always does in type position; ``(`` only if followed by
        one or more names and a colon."""
        tokens = self.tokens
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
        """A binder group; the caller has seen it open at the current token."""
        tokens = self.tokens
        open_tok = tokens[self.pos]
        self.pos += 1
        hidden = open_tok.kind == LBRACE
        close = RBRACE if hidden else RPAREN
        names = [self._expect_name()]
        while tokens[self.pos].kind == NAME:
            names.append(tokens[self.pos])
            self.pos += 1
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
        return Binder([t.value for t in names], ty, hidden, open_tok[2:])

    def _parse_binders(self) -> list[Binder]:
        binders: list[Binder] = []
        while self._binder_at(self.pos):
            binders.append(self._parse_binder_group())
        return binders

    # -- type expressions --------------------------------------------------------------

    def parse_type(self, bound: frozenset[str]) -> TypeExpr:
        """Parse a typeExpr.  Quantifiers and arrows are collected in a loop
        and built right to left, so a chain of them costs no recursion; a
        parenthesised type costs two frames, this one and ``_parse_apps``."""
        tokens = self.tokens
        # (node class, binders or domain, position) of each quantifier or
        # arrow, outermost first
        links: list[tuple[type, object, tuple[int, int]]] = []
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind == NAME:
                after = tokens[self.pos + 1]
                if after.kind == ARROW:
                    # the commonest operand, a lone name before an arrow
                    links.append((Arrow, SortRef(tok.value, tok[2:]), after[2:]))
                    self.pos += 2
                    continue
            elif (kind == LPAREN or kind == LBRACE) and self._binder_at(self.pos):
                binders = [self._parse_binder_group()]
                while self._binder_at(self.pos):
                    binders.append(self._parse_binder_group())
                self._expect(ARROW)
                bound = bound.union(n for b in binders for n in b.names)
                links.append((Quant, binders, tok[2:]))
                continue
            ty = self._parse_apps(bound)
            eq = tokens[self.pos]
            if eq.kind == EQEQ:
                self.pos += 1
                rhs = self._parse_apps(bound)
                ty = Equation(self._to_term(ty, bound), self._to_term(rhs, bound), eq[2:])
            arrow = tokens[self.pos]
            if arrow.kind != ARROW:
                break
            self.pos += 1
            links.append((Arrow, ty, arrow[2:]))
        for node, first, pos in reversed(links):
            ty = node(first, ty, pos)
        return ty

    def _parse_apps(self, bound: frozenset[str]) -> TypeExpr:
        """``atom+``; atoms are parsed here, a parenthesised one through
        ``parse_type``."""
        tokens = self.tokens
        k = self.pos
        head_tok = tokens[k]
        atoms: list[TypeExpr] = []
        while True:
            tok = tokens[k]
            kind = tok.kind
            if kind == NAME:
                # a name directly followed by ':' begins the next constr
                if tokens[k + 1].kind == COLON:
                    break
                atoms.append(SortRef(tok.value, tok[2:]))
                k += 1
            elif kind == LPAREN:
                if self._binder_at(k):
                    break
                self.pos = k + 1
                self._nest(tok)
                atoms.append(self.parse_type(bound))
                self.depth -= 1
                self._expect(RPAREN)
                k = self.pos
            elif kind == KEYWORD and tok.value == "Set":
                atoms.append(SetKind(tok[2:]))
                k += 1
            else:
                break
        self.pos = k
        if len(atoms) == 1:
            return atoms[0]
        if not atoms:
            raise self._error(f"expected a type expression, got {head_tok.value!r}", head_tok)
        head = atoms[0]
        if type(head) is not SortRef:
            raise ParseError("application head must be a name", head_tok.line, head_tok.col)
        return TyApp(head.name, atoms[1:], head_tok[2:])

    # -- terms ---------------------------------------------------------------------------

    def _to_term(self, ty: TypeExpr, bound: frozenset[str]) -> Term:
        """Reinterpret a parsed type expression as an equation-side term."""
        if type(ty) is SortRef:
            return (Var if ty.name in bound else Sym)(ty.name, ty.pos)
        if type(ty) is TyApp:
            pos = ty.pos
            t: Term = (Var if ty.head in bound else Sym)(ty.head, pos)
            for arg in ty.args:
                if type(arg) is SortRef:
                    t = App(t, (Var if arg.name in bound else Sym)(arg.name, arg.pos), pos)
                else:
                    t = App(t, self._to_term(arg, bound), pos)
            return t
        pos = getattr(ty, "pos", None) or (0, 0)
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
