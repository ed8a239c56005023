from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import settings

import theoryforge
from theoryforge.ast import Decl, RecordDecl
from theoryforge.combinators import Library, load_library, standard_library_path
from theoryforge.parser import parse_file
from theoryforge.theory import EqTheory, extract

DATA = Path(__file__).parent / "data"

# property tests draw the same examples on every run and carry no time limit
settings.register_profile("theoryforge", derandomize=True, deadline=None)
settings.load_profile("theoryforge")


def pytest_report_header() -> str:
    return f"theoryforge: {theoryforge.__file__}"


# libraries where an operation takes the name of a variable that an axiom
# binds: the axiom comes first, through extend or combine, or last
SHADOWING_LIBRARIES = {
    "extend": """
theory Carrier = base { A : Set }
theory Magma = extend Carrier with { op : A → A → A }
theory Comm = extend Magma with { comm : (x y : A) → op x y == op y x }
theory CommX = extend Comm with { x : A }
""",
    "combine": """
theory Carrier = base { A : Set }
theory Magma = extend Carrier with { op : A → A → A }
theory Comm = extend Magma with { comm : (x y : A) → op x y == op y x }
theory PX = extend Magma with { x : A }
theory CommX = combine Comm PX over Magma
""",
    "combine-flipped": """
theory Carrier = base { A : Set }
theory Magma = extend Carrier with { op : A → A → A }
theory Comm = extend Magma with { comm : (x y : A) → op x y == op y x }
theory PX = extend Magma with { x : A }
theory CommX = combine PX Comm over Magma
""",
}

# libraries where an axiom binds a variable named like an earlier axiom:
# both axioms in one extend, or the earlier one on combine's left side;
# the refused entry is the last
EARLIER_AXIOM_LIBRARIES = {
    "extend": """
theory C = base { A : Set  f : A → A }
theory D = extend C with { x : (y : A) → f y == y  e : (x : A) → f x == x }
""",
    "combine": """
theory C = base { A : Set  f : A → A }
theory L = extend C with { x : (y : A) → f y == y }
theory R = extend C with { e : (x : A) → f x == x }
theory M = combine L R over C
""",
}


def read_data(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def monoid_source() -> str:
    return read_data("monoid.eqt")


@pytest.fixture(scope="session")
def monoid_decl(monoid_source: str) -> RecordDecl:
    (decl,) = parse_file(monoid_source)
    assert isinstance(decl, RecordDecl)
    return decl


@pytest.fixture(scope="session")
def monoid(monoid_decl: RecordDecl) -> EqTheory:
    return extract(monoid_decl)


@pytest.fixture(scope="session")
def golden_constructions() -> dict[str, Decl]:
    """Golden Monoid constructions, parsed from free-form text."""
    decls = parse_file(read_data("monoid_constructions.eqt"))
    return {d.name: d for d in decls}


@pytest.fixture(scope="session")
def library() -> Library:
    return load_library(standard_library_path())


def same_decl_ignoring_constructor(a: Decl, b: Decl) -> bool:
    """Structural equality that disregards record constructor names (they
    are machine-chosen and not part of the golden shape)."""
    if isinstance(a, RecordDecl) and isinstance(b, RecordDecl):
        return RecordDecl(a.name, a.params, "_", a.fields) == RecordDecl(b.name, b.params, "_", b.fields)
    return a == b


def tree_hash(root: Path) -> str:
    """Order-independent digest of a directory tree's bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
