"""Tokenizer shared by the ``.eqt`` declaration parser and the ``.lib`` parser.

Identifiers may contain ``-`` (as in ``pres-e``), so a dash continues an
identifier only when followed by another identifier character; at token start
``--`` opens a comment running to end of line and ``->`` is the ASCII arrow.
The Unicode arrow ``→`` is accepted everywhere ``->`` is.

One compiled master regex scans the source line by line; the number of the
alternative that matched picks the token kind, and the column is the match
offset in its line.  Tokens are named tuples ``(kind, value, line, col)``,
and the list always ends with one ``EOF`` token.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import RESERVED_WORDS


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# Token kinds
NAME = "NAME"
KEYWORD = "KEYWORD"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
LBRACE = "LBRACE"
RBRACE = "RBRACE"
COLON = "COLON"
ARROW = "ARROW"
EQEQ = "EQEQ"
EQ = "EQ"
COMMA = "COMMA"
EOF = "EOF"

_SINGLES = {
    "(": LPAREN,
    ")": RPAREN,
    "{": LBRACE,
    "}": RBRACE,
    ":": COLON,
    ",": COMMA,
}


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


# Alternatives in priority order; their group numbers are the _COMMENT ...
# constants below.  Spaces, tabs and carriage returns match nothing and are
# skipped; any other character matches at least the catch-all.
_TOKEN_RE = re.compile(
    r"(--.*)"                        # comment, to end of line
    r"|(->|→)"                       # arrow
    r"|(==)"
    r"|(=)"
    r"|([(){}:,])"
    r"|([^\W\d][\w']*(?:-[\w']+)*)"  # name or keyword
    r"|([^ \t\r])"                   # anything else is an error
)
_COMMENT, _ARROW, _EQEQ, _EQ, _SINGLE, _NAME = range(1, 7)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    # builds each Token without the Python-level NamedTuple constructor
    new = tuple.__new__
    line = col = 1
    for line, text in enumerate(source.split("\n"), 1):
        col = len(text) + 1
        for m in _TOKEN_RE.finditer(text):
            group = m.lastindex
            start = m.start() + 1
            if group == _NAME:
                value = m.group()
                c = value[0]
                # [^\W\d] also admits numeric non-digits such as '²'
                if not (c.isalpha() or c == "_"):
                    raise LexError(f"unexpected character {c!r}", line, start)
                kind = KEYWORD if value in RESERVED_WORDS else NAME
                append(new(Token, (kind, value, line, start)))
            elif group == _SINGLE:
                value = m.group()
                append(new(Token, (_SINGLES[value], value, line, start)))
            elif group == _ARROW:
                append(new(Token, (ARROW, "→", line, start)))
            elif group == _COMMENT:
                # the comment runs to end of line; end of input after it
                # sits where it starts
                col = start
            elif group == _EQEQ:
                append(new(Token, (EQEQ, "==", line, start)))
            elif group == _EQ:
                append(new(Token, (EQ, "=", line, start)))
            else:
                c = m.group()
                raise LexError("unexpected '-'" if c == "-" else f"unexpected character {c!r}", line, start)
    append(new(Token, (EOF, "", line, col)))
    return tokens


__all__ = [
    "ARROW",
    "COLON",
    "COMMA",
    "EOF",
    "EQ",
    "EQEQ",
    "KEYWORD",
    "LBRACE",
    "LPAREN",
    "LexError",
    "NAME",
    "RBRACE",
    "RPAREN",
    "Token",
    "tokenize",
]
