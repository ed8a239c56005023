"""Every small record and every small library, not a sample: a
bounded-exhaustive sweep of ``check`` against ``gen`` and ``lib``.

A fixed small grammar spans every record up to three fields: four
parameter lists, then 0–3 fields, each named from a pool of three and
typed from a fixed list of eight.  Each record is parsed and checked; one
that checks clean is read by ``extract`` and put through the per-theory
unit with all seven constructions, in memory and without writing.  Every
record falls in one class, and the pinned table of class counts measures
how far ``check`` and ``gen`` agree: each ``gen`` row is a record that
``check`` accepts and ``gen`` refuses (exit 3).  An input that raises
fails the sweep, and so does a clean module that does not reparse to the
declarations it was printed from.  Method: Runciman, Naylor & Lindblad,
"SmallCheck and Lazy SmallCheck" (Haskell Symposium 2008).

The libraries are built from 24 entries, the names ``e``, ``f`` and ``x``
(``x`` also names a variable the field types bind) times the same eight
types: a ``base`` with 0–2 entries, alone or followed by an ``extend``
with one entry or a ``rename`` of one name, and a ``base`` with 0–1
entries followed by two one-entry ``extend``s and their ``combine``.
Each library is expanded; a refusal is its class, and each distinct
expanded theory is generated with all seven constructions and its module
checked.  An input that raises fails the sweep, and so does a module that
fails its own check.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter
from pathlib import Path

from theoryforge.checker import check_module
from theoryforge.cli import RunConfig, _check_output_module, generate_for_theory
from theoryforge.combinators import LibraryError, TheoryExpr, expand_library, parse_library
from theoryforge.generators import GenError, GenKind, NameSupply, gen_all, prod_decl
from theoryforge.parser import parse_file
from theoryforge.printer import print_decl
from theoryforge.theory import EqTheory, ShapeError, embed, extract

PARAMS = ["", " (A : Set)", " (A : Set) (e : A)", " (A B : Set)"]
NAMES = ["A", "e", "f"]
TYPES = [
    "Set",
    "A",
    "A → A",
    "A → A → A",
    "A → A → Set",
    "e == e",
    "(x : A) → f x == x",
    "(x y : A) → f x y == f y x",
]
FIELDS = [f"    {name} : {ty}\n" for name in NAMES for ty in TYPES]
MAX_FIELDS = 3

CHECK_REJECTS = "check rejects"
GENERATES = "generates and checks clean"
MODULE_FAILS = "generated module fails its own check"


def records():
    for params in PARAMS:
        head = f"record R{params} : Set where\n"
        yield head
        for n in range(1, MAX_FIELDS + 1):
            for fields in itertools.product(FIELDS, repeat=n):
                yield head + "  field\n" + "".join(fields)


def refuses(command: str, message: str) -> str:
    """The class of a refusal: the command and its message with names left out."""
    return f"{command}: " + re.sub(r"'[^']*'", "'…'", re.sub(r"sorts \([^)]*\)", "sorts (…)", message))


def classify(source: str, cfg: RunConfig) -> str:
    (decl,) = decls = parse_file(source)
    if check_module(decls):
        return CHECK_REJECTS
    try:
        t = extract(decl)
        out = generate_for_theory(t, cfg, decl)
    except (ShapeError, GenError) as e:
        return refuses("gen", str(e))
    if _check_output_module(out, Path("out")):
        return MODULE_FAILS
    # the module reads back as what was generated, with every construction
    names = NameSupply.for_module(decl)
    assert parse_file(out.module_text) == [decl, prod_decl(names), *gen_all(t, cfg.kinds, cfg.suffixes, names)], source
    return GENERATES


# Each gen row is a disagreement between check and gen (ROADMAP item 3);
# the ROADMAP item named on a row is the one that moves it.
EXPECTED = {
    CHECK_REJECTS: 57_535,
    GENERATES: 33,
    # item 16: many-sorted theories
    "gen: multiple sorts (…); theories are single-sorted": 106,
    # item 14: relation symbols
    "gen: '…' is neither an operation over the sort nor an equation": 18,
    # item 3: a documented skip of the hom family
    "gen: R: homomorphisms need the carrier as a record parameter (waist >= 1)": 3,
    # item 3: a documented skip, or check refusing an equation between sorts
    "gen: axiom '…', left side: '…' is a type, not a term": 4,
    # item 3: a documented skip, or check refusing a record without a sort
    "gen: no sort declaration (a field of type Set)": 1,
}


def test_every_record_up_to_three_fields_falls_in_a_pinned_class():
    cfg = RunConfig(kinds=tuple(GenKind))
    table = Counter(classify(source, cfg) for source in records())
    assert sum(table.values()) == len(PARAMS) * sum(len(FIELDS) ** n for n in range(MAX_FIELDS + 1)) == 57_700
    assert dict(table) == EXPECTED


LIB_NAMES = ["e", "f", "x"]
ENTRIES = [f"  {name} : {ty}\n" for name in LIB_NAMES for ty in TYPES]
EXPANDS = "expands"


def libraries():
    """Each library as the text of its theories, in order."""
    for n in range(3):
        for block in itertools.product(ENTRIES, repeat=n):
            base = "theory C = base {\n  A : Set\n" + "".join(block) + "}\n"
            yield (base,)
            for entry in ENTRIES:
                yield base, f"theory D = extend C with {{\n{entry}}}\n"
            for name in LIB_NAMES:
                yield base, f"theory D = rename C renaming ({name} to g)\n"
    for n in range(2):
        for block in itertools.product(ENTRIES, repeat=n):
            base = "theory C = base {\n  A : Set\n" + "".join(block) + "}\n"
            for left, right in itertools.product(ENTRIES, repeat=2):
                yield (
                    base,
                    f"theory L = extend C with {{\n{left}}}\n",
                    f"theory R = extend C with {{\n{right}}}\n",
                    "theory M = combine L R over C\n",
                )


@functools.cache
def parse_entry(text: str) -> TheoryExpr:
    """One theory of a library; a theory is read once for all the
    libraries it is in, as it would be inside each of them."""
    (entry,) = parse_library(text)
    return entry


# A changed count is a declared change (ROADMAP items 3 and 15).
EXPECTED_LIBRARIES = {
    EXPANDS: 748,
    "lib: while expanding '…': axiom '…', left side: unknown symbol '…'": 9_892,
    "lib: while expanding '…': duplicate declaration name '…'": 7_035,
    "lib: while expanding '…': multiple sorts (…); theories are single-sorted": 6_747,
    "lib: while expanding '…': '…' is neither an operation over the sort nor an equation": 4_230,
    "lib: while expanding '…': axiom '…': variable '…' shadows another name": 1_154,
    "lib: while expanding '…': '…' appears on both sides but does not come from '…'": 231,
    "lib: while expanding '…': axiom '…', left side: '…' expects 1 arguments, got 0": 186,
    "lib: while expanding '…': axiom '…', left side: '…' expects 2 arguments, got 0": 186,
    "lib: while expanding '…': axiom '…', left side: '…' expects 1 arguments, got 2": 186,
    "lib: while expanding '…': axiom '…', left side: '…' expects 2 arguments, got 1": 186,
    "lib: while expanding '…': axiom '…', left side: '…' expects 0 arguments, got 1": 180,
    "lib: while expanding '…': axiom '…', left side: '…' expects 0 arguments, got 2": 180,
    "lib: while expanding '…': renaming of undeclared names: x": 31,
    "lib: while expanding '…': renaming of undeclared names: e": 29,
    "lib: while expanding '…': renaming of undeclared names: f": 27,
}


def test_every_library_up_to_three_entries_falls_in_a_pinned_class():
    table: Counter[str] = Counter()
    theories: dict[str, EqTheory] = {}  # one of each, by its record's text
    for library in libraries():
        try:
            expanded = expand_library([parse_entry(text) for text in library])
        except LibraryError as e:
            table[refuses("lib", str(e))] += 1
            continue
        table[EXPANDS] += 1
        for t in expanded.theories():
            theories.setdefault(print_decl(embed(t)), t)
    bases, small_bases = (sum(len(ENTRIES) ** n for n in range(k + 1)) for k in (2, 1))
    assert sum(table.values()) == bases * (1 + len(ENTRIES) + len(LIB_NAMES)) + small_bases * len(ENTRIES) ** 2 == 31_228
    assert dict(table) == EXPECTED_LIBRARIES
    # every theory a library gives generates, and its module checks clean
    cfg = RunConfig(kinds=tuple(GenKind))
    assert len(theories) == 763
    failing = {text: _check_output_module(generate_for_theory(t, cfg), Path("out")) for text, t in theories.items()}
    assert {text: lines for text, lines in failing.items() if lines} == {}
