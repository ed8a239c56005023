from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from theoryforge import lexer, parser
from theoryforge.ast import RESERVED_WORDS
from theoryforge.combinators import standard_library_path
from theoryforge.lexer import ParseError, Token, tokenize


# -- reference: the character-at-a-time tokenizer the master regex replaced ------

_REF_SINGLES = {
    "(": lexer.LPAREN,
    ")": lexer.RPAREN,
    "{": lexer.LBRACE,
    "}": lexer.RBRACE,
    ":": lexer.COLON,
    ",": lexer.COMMA,
    "→": lexer.ARROW,
}


def _ref_name_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def _reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """``(kind, value, line, col)`` per token, or :class:`ParseError`."""
    tokens: list[tuple[str, str, int, int]] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    while i < n:
        c = source[i]

        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue

        if c == "-":
            if i + 1 < n and source[i + 1] == "-":
                while i < n and source[i] != "\n":
                    i += 1
                continue
            if i + 1 < n and source[i + 1] == ">":
                tokens.append((lexer.ARROW, "→", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("unexpected '-'", line, col)

        if c == "=":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append((lexer.EQEQ, "==", line, col))
                i += 2
                col += 2
            else:
                tokens.append((lexer.EQ, "=", line, col))
                i += 1
                col += 1
            continue

        if c in _REF_SINGLES:
            tokens.append((_REF_SINGLES[c], c, line, col))
            i += 1
            col += 1
            continue

        if c.isalpha() or c == "_":
            start = i
            start_col = col
            i += 1
            col += 1
            while i < n:
                ch = source[i]
                if _ref_name_char(ch):
                    i += 1
                    col += 1
                elif ch == "-" and i + 1 < n and _ref_name_char(source[i + 1]):
                    i += 2
                    col += 2
                else:
                    break
            text = source[start:i]
            kind = lexer.KEYWORD if text in RESERVED_WORDS else lexer.NAME
            tokens.append((kind, text, line, start_col))
            continue

        raise ParseError(f"unexpected character {c!r}", line, col)

    tokens.append((lexer.EOF, "", line, col))
    return tokens


def _tokens(source: str) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.value, t.line, t.col) for t in tokenize(source)]


def _outcome(tokenizer, source: str):
    try:
        return tokenizer(source)
    except ParseError as e:
        return ("ParseError", e.message, e.line, e.col)


def assert_same_as_reference(source: str) -> None:
    assert _outcome(_tokens, source) == _outcome(_reference_tokenize, source)


# -- the oracle property ---------------------------------------------------------------

# ``²`` and ``½`` are numeric but not alphabetic, ``é`` and ``Ω`` are letters,
# U+0301 is a combining mark (neither): they probe where the name rules of the
# regex and of str methods could part ways
_ALPHABET = list("ab_'->=:(){},→0²½éΩ") + ["\u0301", " ", "\t", "\r", "\n"]
_FRAGMENTS = ["--", "->", "==", "record", "Set", "a-b"]


@settings(max_examples=2000)
@given(st.lists(st.sampled_from(_ALPHABET + _FRAGMENTS), max_size=30).map("".join))
def test_tokenize_agrees_with_reference(source):
    assert_same_as_reference(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "\n",
        "-- only a comment",
        "a -- tail",
        "a\n  -- tail",
        "x-y-z x--y x-'y x- y",
        "a->b a-->b",
        "===",
        "²x",
        "x²",
        "½",
        "é",
        "é\u0301",
        "\u0301",
        "A\xa0B",
        "a\x0bb",
        "a\u2028b",
        "-- a\u2028b\nc",
        "0a",
        "\t\r a",
    ],
)
def test_tokenize_agrees_with_reference_on_edge_cases(source):
    assert_same_as_reference(source)


def test_tokenize_agrees_with_reference_on_bundled_sources():
    for text in (
        standard_library_path().read_text(encoding="utf-8"),
        (DATA / "monoid.eqt").read_text(encoding="utf-8"),
        (DATA / "monoid_constructions.eqt").read_text(encoding="utf-8"),
    ):
        assert_same_as_reference(text)


def test_token_shape_and_repr():
    toks = tokenize("record M -> x")
    assert [t.kind for t in toks] == [lexer.KEYWORD, lexer.NAME, lexer.ARROW, lexer.NAME, lexer.EOF]
    assert toks[2] == Token(lexer.ARROW, "→", 1, 10)
    assert repr(toks[2]) == "Token(ARROW, '→', 1:10)"
    assert repr(toks[-1]) == "Token(EOF, '', 1:14)"


def test_trailing_comment_puts_eof_at_the_comment():
    assert tokenize("a -- tail")[-1] == Token(lexer.EOF, "", 1, 3)
    assert tokenize("a -- tail\n")[-1] == Token(lexer.EOF, "", 2, 1)


def test_tokenize_raises_the_parsers_error_type():
    assert lexer.ParseError is parser.ParseError
    with pytest.raises(parser.ParseError) as exc:
        tokenize("a\n  #")
    assert (exc.value.line, exc.value.col, exc.value.message) == (2, 3, "unexpected character '#'")
