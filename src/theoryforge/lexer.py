"""Tokenizer shared by the ``.eqt`` declaration parser and the ``.lib`` parser.

Identifiers may contain ``-`` (as in ``pres-e``), so a dash continues an
identifier only when followed by another identifier character; at token start
``--`` opens a comment running to end of line and ``->`` is the ASCII arrow.
The Unicode arrow ``→`` is accepted everywhere ``->`` is.

One compiled regex splits the whole source with ``findall`` into items
that cover every character: a token with the spaces after it, a newline
with the indentation after it, a comment, or the spaces that open the
source.  A dict lookup on the item's text gives its kind; each distinct
item is classified once per source, so the loop does no regex or character
work per token.  Lines and columns are counted from the item lengths.
Tokens are named tuples ``(kind, value, line, col)``, and the list always
ends with one ``EOF`` token.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import RESERVED_WORDS


class ParseError(Exception):
    """Syntax error, from the lexer or a parser, with position and the set
    of token kinds that would have been accepted."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += f" (expected one of: {', '.join(sorted(expected))})"
        super().__init__(detail)
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected


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


# Token alternatives in priority order, each with the spaces, tabs and
# carriage returns after it; the catch-all takes any other single
# character, which is an error.
_ITEM_RE = re.compile(
    r"(?:--.*"                      # comment, to end of line
    r"|->|→|==|=|[(){}:,]"
    r"|[^\W\d][\w']*(?:-[\w']+)*"   # name or keyword
    r"|[ \t\r]+"                    # spaces that open the source
    r"|.)[ \t\r]*"
    r"|\n[ \t\r]*"                  # newline and indentation
)

_FIXED = {**_SINGLES, "->": ARROW, "→": ARROW, "==": EQEQ, "=": EQ}

# kinds of the items that are not tokens; their entries carry no value
_SPACE = "SPACE"
_NEWLINE = "NEWLINE"
_COMMENT = "COMMENT"


def _classify(item: str, line: int, col: int) -> tuple[str, str | None]:
    """``(kind, token value)`` of an item not seen before in this source."""
    if item[0] == "\n":
        return _NEWLINE, None
    text = item.rstrip(" \t\r")
    if not text:
        return _SPACE, None
    kind = _FIXED.get(text)
    if kind is not None:
        return kind, "→" if kind is ARROW else text
    c = text[0]
    if c == "-":
        if text == "-":
            raise ParseError("unexpected '-'", line, col)
        return _COMMENT, None
    # [^\W\d] also admits numeric non-digits such as '²'
    if c.isalpha() or c == "_":
        return KEYWORD if text in RESERVED_WORDS else NAME, text
    raise ParseError(f"unexpected character {c!r}", line, col)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    # builds each Token without the Python-level NamedTuple constructor
    new = tuple.__new__
    # each distinct item of this source is classified once
    seen: dict[str, tuple[str, str | None]] = {}
    known = seen.get
    line = col = 1
    for item in _ITEM_RE.findall(source):
        entry = known(item)
        if entry is None:
            entry = seen[item] = _classify(item, line, col)
        kind, value = entry
        if value is None:
            if kind is _NEWLINE:
                line += 1
                col = len(item)
            elif kind is _SPACE:
                col += len(item)
            # a comment runs to end of line; end of input after it sits
            # where it starts
            continue
        append(new(Token, (kind, value, line, col)))
        col += len(item)
    append(new(Token, (EOF, "", line, col)))
    return tokens


def is_name(text: str) -> bool:
    """Whether ``text`` reads back as one identifier: ``tokenize`` gives
    exactly one ``NAME`` token, and its value is all of ``text``.  So a
    reserved word, surrounding space, a comment and a dash that does not
    join two identifier characters (``a-``, ``x--y``) all make it false."""
    try:
        tokens = tokenize(text)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0].kind == NAME and tokens[0].value == text


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
    "NAME",
    "ParseError",
    "RBRACE",
    "RPAREN",
    "Token",
    "is_name",
    "tokenize",
]
