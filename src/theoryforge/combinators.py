"""Declarative theory libraries: rename / extend / combine over a base.

A ``.lib`` file holds one entry per theory, in dependency order::

    theory Carrier = base { A : Set }
    theory Pointed = extend Carrier with { e : A }
    theory AdditiveMagma = rename Magma renaming (op to plus)
    theory PointedMagma = combine Pointed Magma over Carrier

``base`` blocks declare the sort first; it becomes the record parameter
(the carrier).  Every entry but ``rename`` is read like a record's fields
after its parent's, by :func:`theory.add_members`: a ``base`` block after
its sort, an ``extend`` block after its parent, and ``combine``'s right
theory's operations that the left one lacks after the left one, with its
axioms after the left one's as already read, so no axiom is read twice.
``combine`` forms the union of two descendants of a shared ancestor:
declarations with the same name are identified only when they also
occur, with the same type, in the ``over`` theory — any other name reuse
is a :class:`ClashError`, never a silent merge.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Union

from . import lexer
from .ast import Constr, SetKind
from .lexer import tokenize
from .parser import Parser
from .theory import (
    CollisionError,
    EqTheory,
    ShapeError,
    add_members,
    rename_with,
)


class ClashError(Exception):
    """Two declarations collide in a way the combinators refuse to merge."""


class LibraryError(Exception):
    def __init__(self, entry: str, cause: Exception):
        super().__init__(f"while expanding {entry!r}: {cause}")
        self.entry = entry
        self.cause = cause


class Base(NamedTuple):
    name: str
    block: list[Constr]  # the sort first


class Extend(NamedTuple):
    name: str
    parent: str
    new_decls: list[Constr]


class Rename(NamedTuple):
    name: str
    parent: str
    mapping: dict[str, str]


class Combine(NamedTuple):
    name: str
    left: str
    right: str
    over: str


TheoryExpr = Union[Base, Extend, Rename, Combine]


class Library:
    def __init__(self) -> None:
        self.expanded: dict[str, EqTheory] = {}  # in library order

    def theories(self) -> list[EqTheory]:
        return list(self.expanded.values())


# -- expansion ---------------------------------------------------------------

def _parent(ctx: Library, name: str, wanted_by: str) -> EqTheory:
    t = ctx.expanded.get(name)
    if t is None:
        raise ClashError(f"{wanted_by!r} refers to {name!r}, which is not defined yet")
    return t


def _expand_combine(e: Combine, left: EqTheory, right: EqTheory, over: EqTheory) -> EqTheory:
    if not (left.sort == right.sort == over.sort):
        raise ClashError(
            f"cannot combine {left.name!r} and {right.name!r}: sorts differ"
        )
    if not (left.waist == right.waist == over.waist):
        raise ClashError(
            f"cannot combine {left.name!r} and {right.name!r}: waists differ"
        )
    mine = {x.name: x for x in [*left.func_types, *left.axioms]}
    shared = {x.name: x for x in [*over.func_types, *over.axioms]}
    for x in [*right.func_types, *right.axioms]:
        if x.name in mine and (mine[x.name] != x or shared.get(x.name) != x):
            raise ClashError(
                f"{x.name!r} appears on both sides but does not come from {over.name!r}"
            )
    axioms = left.axioms + [a for a in right.axioms if a.name not in mine]
    t = EqTheory(e.name, left.sort, left.func_types, axioms, left.waist)
    return add_members(t, e.name, [f for f in right.func_types if f.name not in mine])


def expand(e: TheoryExpr, ctx: Library) -> EqTheory:
    """Expand one entry against the already-expanded context."""
    if isinstance(e, Base):
        return add_members(EqTheory(e.name, e.block[0], [], [], 1), e.name, e.block[1:])
    if isinstance(e, Extend):
        return add_members(_parent(ctx, e.parent, e.name), e.name, e.new_decls)
    if isinstance(e, Rename):
        return rename_with(_parent(ctx, e.parent, e.name), e.mapping, new_name=e.name)
    if isinstance(e, Combine):
        return _expand_combine(
            e,
            _parent(ctx, e.left, e.name),
            _parent(ctx, e.right, e.name),
            _parent(ctx, e.over, e.name),
        )
    raise TypeError(f"not a theory expression: {e!r}")


def expand_library(entries: list[TheoryExpr]) -> Library:
    """Expand every entry in order; the first failure aborts the whole
    library, naming the entry and the cause."""
    lib = Library()
    for e in entries:
        if e.name in lib.expanded:
            raise LibraryError(e.name, ClashError("theory name defined twice"))
        try:
            lib.expanded[e.name] = expand(e, lib)
        except (ShapeError, ClashError, CollisionError) as cause:
            raise LibraryError(e.name, cause) from cause
    return lib


# -- .lib parsing ----------------------------------------------------------------

_COMBINATORS = ("base", "extend", "rename", "combine")


class _LibParser(Parser):
    def parse_library(self) -> list[TheoryExpr]:
        entries: list[TheoryExpr] = []
        while self._peek().kind != lexer.EOF:
            entries.append(self._parse_entry())
        return entries

    def _parse_entry(self) -> TheoryExpr:
        self._expect(lexer.NAME, "theory")
        name = self._expect_name().value
        self._expect(lexer.EQ)
        tok = self._peek()
        if tok.kind != lexer.NAME:
            raise self._error(f"expected a combinator, got {tok.value!r}", tok, _COMBINATORS)
        self._advance()
        if tok.value == "base":
            block = self._parse_block()
            if not block or not isinstance(block[0].ty, SetKind):
                raise self._error(f"base theory {name!r} must declare its sort first (e.g. 'A : Set')", tok)
            return Base(name, block)
        if tok.value == "extend":
            parent = self._expect_name().value
            self._expect(lexer.NAME, "with")
            return Extend(name, parent, self._parse_block())
        if tok.value == "rename":
            parent = self._expect_name().value
            self._expect(lexer.NAME, "renaming")
            return Rename(name, parent, self._parse_mapping())
        if tok.value == "combine":
            left = self._expect_name().value
            right = self._expect_name().value
            self._expect(lexer.NAME, "over")
            return Combine(name, left, right, self._expect_name().value)
        raise self._error(f"unknown combinator {tok.value!r}", tok, _COMBINATORS)

    def _parse_block(self) -> list[Constr]:
        self._expect(lexer.LBRACE)
        decls = self._parse_constr_block()
        self._expect(lexer.RBRACE)
        return decls

    def _parse_mapping(self) -> dict[str, str]:
        self._expect(lexer.LPAREN)
        mapping: dict[str, str] = {}
        while True:
            src = self._expect_name()
            self._expect(lexer.NAME, "to")
            dst = self._expect_name()
            if src.value in mapping:
                raise self._error(f"{src.value!r} renamed twice", src)
            mapping[src.value] = dst.value
            if self._peek().kind == lexer.COMMA:
                self._advance()
                continue
            break
        self._expect(lexer.RPAREN)
        return mapping


def parse_library(source: str) -> list[TheoryExpr]:
    return _LibParser(tokenize(source)).parse_library()


def load_library(path: Path | str) -> Library:
    text = Path(path).read_text(encoding="utf-8-sig")
    return expand_library(parse_library(text))


def standard_library_path() -> Path:
    """The bundled tiny-theories library shipped with the package."""
    return Path(__file__).with_name("data") / "standard.lib"


__all__ = [
    "Base",
    "ClashError",
    "Combine",
    "Extend",
    "Library",
    "LibraryError",
    "Rename",
    "TheoryExpr",
    "expand",
    "expand_library",
    "load_library",
    "parse_library",
    "standard_library_path",
]
