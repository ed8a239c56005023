"""Declarative theory libraries: rename / extend / combine over a base.

A ``.lib`` file holds one entry per theory, in dependency order::

    theory Carrier = base { A : Set }
    theory Pointed = extend Carrier with { e : A }
    theory AdditiveMagma = rename Magma renaming (op to plus)
    theory PointedMagma = combine Pointed Magma over Carrier

``base`` blocks declare the sort first; it becomes the record parameter
(the carrier), everything after it a field.  ``combine`` forms the union of
two descendants of a shared ancestor: declarations with the same name are
identified only when they also occur, with the same type, in the ``over``
theory — any other name reuse is a :class:`ClashError`, never a silent
merge.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Union

from . import lexer
from .ast import Binder, Constr, RecordDecl, SetKind, default_constructor
from .lexer import tokenize
from .parser import Parser
from .theory import (
    CollisionError,
    EqTheory,
    ShapeError,
    extract,
    rename_with,
    split_entries,
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
    decl: RecordDecl


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


def _expand_extend(e: Extend, parent: EqTheory) -> EqTheory:
    """The block is read like a record's fields after the parent's."""
    names = set(parent.declared_names())
    for c in e.new_decls:
        if isinstance(c.ty, SetKind):
            raise ShapeError(f"{c.name!r}: the sort may not be re-declared by extend")
        if c.name in names:
            raise ClashError(f"{c.name!r} already exists in {parent.name!r}")
        names.add(c.name)
    funcs, axioms = split_entries(e.new_decls, parent.sort.name, parent.arities)
    return EqTheory(e.name, parent.sort, parent.func_types + funcs, parent.axioms + axioms, parent.waist)


def _expand_combine(e: Combine, left: EqTheory, right: EqTheory, over: EqTheory) -> EqTheory:
    if not (left.sort == right.sort == over.sort):
        raise ClashError(
            f"cannot combine {left.name!r} and {right.name!r}: sorts differ"
        )
    if not (left.waist == right.waist == over.waist):
        raise ClashError(
            f"cannot combine {left.name!r} and {right.name!r}: waists differ"
        )
    left_names = set(left.declared_names())
    merged = []
    for mine, theirs, shared in (
        (left.func_types, right.func_types, over.func_types),
        (left.axioms, right.axioms, over.axioms),
    ):
        mine_by_name = {x.name: x for x in mine}
        shared_by_name = {x.name: x for x in shared}
        kept = list(mine)
        for x in theirs:
            if x.name not in left_names:
                kept.append(x)
            elif mine_by_name.get(x.name) != x or shared_by_name.get(x.name) != x:
                raise ClashError(
                    f"{x.name!r} appears on both sides but does not come from {over.name!r}"
                )
        merged.append(kept)
    funcs, axioms = merged
    result = EqTheory(e.name, left.sort, funcs, axioms, left.waist)
    names = result.declared_names()
    if len(set(names)) != len(names):
        raise ClashError(f"{e.name!r}: combined names are not distinct")
    return result


def expand(e: TheoryExpr, ctx: Library) -> EqTheory:
    """Expand one entry against the already-expanded context."""
    if isinstance(e, Base):
        return extract(e.decl)
    if isinstance(e, Extend):
        return _expand_extend(e, _parent(ctx, e.parent, e.name))
    if isinstance(e, Rename):
        parent = _parent(ctx, e.parent, e.name)
        values = list(e.mapping.values())
        if len(set(values)) != len(values):
            raise CollisionError(f"{e.name!r}: renaming is not injective")
        return rename_with(parent, e.mapping, new_name=e.name)
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
            return Base(name, self._assemble_base(name, self._parse_block(), tok))
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

    def _assemble_base(self, name: str, decls: list[Constr], tok: lexer.Token) -> RecordDecl:
        if not decls or not isinstance(decls[0].ty, SetKind):
            raise self._error(f"base theory {name!r} must declare its sort first (e.g. 'A : Set')", tok)
        sort = decls[0]
        params = [Binder([sort.name], sort.ty, pos=sort.pos)]
        return RecordDecl(name, params, default_constructor(name), decls[1:], pos=(tok.line, tok.col))


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
