"""theoryforge: derived constructions from equational theory presentations.

Parse single-sorted equational theories written as dependent-record-style
declarations, and mechanically generate their signature, product algebra,
term languages, and homomorphism family; expand tiny-theories libraries
built with rename / extend / combine; evaluate and normalize terms against
models through oriented axioms.

Importing the package loads none of its modules.  Each public name is
served on first use (PEP 562) from the module that ``_MODULE_OF`` names,
so a caller loads only what it uses: ``from theoryforge import
combinators, engine`` loads neither the generators, the printer nor the
checker.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "ast": ("DataDecl", "Decl", "RecordDecl"),
        "checker": ("CheckError", "check_decl", "check_module"),
        "combinators": (
            "Library",
            "expand",
            "expand_library",
            "load_library",
            "parse_library",
            "standard_library_path",
        ),
        "engine": ("Model", "OpenTerm", "RewriteRule", "TOp", "TVar", "eval_term", "normalize", "orient"),
        "generators": ("GenKind", "NameSupply", "gen_all"),
        "parser": ("ParseError", "parse_file"),
        "printer": ("print_decl", "print_module"),
        "theory": ("Axiom", "EqTheory", "RenameScheme", "ShapeError", "embed", "extract", "rename"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
