"""theoryforge: derived constructions from equational theory presentations.

Parse single-sorted equational theories written as dependent-record-style
declarations, and mechanically generate their signature, product algebra,
term languages, and homomorphism family; expand tiny-theories libraries
built with rename / extend / combine; evaluate and normalize terms against
models through oriented axioms.
"""

from .ast import DataDecl, Decl, RecordDecl
from .checker import CheckError, check_decl, check_module
from .combinators import (
    Library,
    expand,
    expand_library,
    load_library,
    parse_library,
    standard_library_path,
)
from .generators import GenKind, NameSupply, gen_all
from .parser import ParseError, parse_file
from .printer import print_decl, print_module
from .theory import Axiom, EqTheory, RenameScheme, ShapeError, embed, extract, rename

__version__ = "0.1.0"

# served on first use (PEP 562): no command-line path runs the engine, so
# importing the package for the CLI does not load it
_ENGINE_NAMES = frozenset(
    {"Model", "OpenTerm", "RewriteRule", "TOp", "TVar", "eval_term", "normalize", "orient"}
)


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Axiom",
    "CheckError",
    "DataDecl",
    "Decl",
    "EqTheory",
    "GenKind",
    "Library",
    "Model",
    "NameSupply",
    "OpenTerm",
    "ParseError",
    "RecordDecl",
    "RenameScheme",
    "RewriteRule",
    "ShapeError",
    "TOp",
    "TVar",
    "check_decl",
    "check_module",
    "embed",
    "eval_term",
    "expand",
    "expand_library",
    "extract",
    "gen_all",
    "load_library",
    "normalize",
    "orient",
    "parse_file",
    "parse_library",
    "print_decl",
    "print_module",
    "rename",
    "standard_library_path",
]
