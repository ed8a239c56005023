"""Every small record, not a sample: a bounded-exhaustive sweep of
``check`` against ``gen``.

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
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from pathlib import Path

from theoryforge.checker import check_module
from theoryforge.cli import RunConfig, _check_output_module, generate_for_theory
from theoryforge.generators import GenError, GenKind, NameSupply, gen_all, prod_decl
from theoryforge.parser import parse_file
from theoryforge.theory import ShapeError, extract

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


def gen_refuses(message: str) -> str:
    """The class of a ``gen`` refusal: its message with names left out."""
    return "gen: " + re.sub(r"'[^']*'", "'…'", re.sub(r"sorts \([^)]*\)", "sorts (…)", message))


def classify(source: str, cfg: RunConfig) -> str:
    (decl,) = decls = parse_file(source)
    if check_module(decls):
        return CHECK_REJECTS
    try:
        t = extract(decl)
        out = generate_for_theory(t, cfg, decl)
    except (ShapeError, GenError) as e:
        return gen_refuses(str(e))
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
