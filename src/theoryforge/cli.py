"""Command-line front end.

Subcommands:

* ``check FILE...``      parse and check declaration files
* ``gen FILE``           generate constructions for every theory in a file
* ``lib FILE``           expand a ``.lib`` library and generate for all of it

Exit codes: 0 success, 1 parse failure, 2 check failure, 3 generation or
expansion failure.  Output is a pure function of the inputs and the run
configuration.  Theories are generated one after another; ``--jobs`` is
accepted for compatibility and has no effect.

Generated layout, per theory: ``<out>/<Theory>/<Theory><Kind>.gen.eqt`` for
each construction plus ``<out>/<Theory>/module.gen.eqt`` holding the input
theory, the ``Prod`` helper when the product is selected, and the
constructions, in catalog order.  Each ``module.gen.eqt`` is reparsed and
checked as one module before the run reports success.

Defaults may also come from a ``theoryforge.cfg`` file in the working
directory (line-oriented ``key = value``: ``constructions``, ``out``,
``jobs``, ``orient-assoc``, ``suffix.<kind>``; any other key is an error);
command-line flags win.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .ast import Decl, RecordDecl, is_valid_name
from .checker import check_module, format_errors
from .combinators import LibraryError, load_library
from .generators import (
    DEFAULT_KINDS,
    DEFAULT_SUFFIXES,
    GenError,
    GenKind,
    gen_all,
    kind_from_flag,
    prod_decl,
)
from .parser import ParseError, parse_file
from .printer import print_decl, print_module
from .theory import EqTheory, ShapeError, embed, extract

CONFIG_FILE = "theoryforge.cfg"
CONFIG_KEYS = frozenset({"constructions", "out", "jobs", "orient-assoc"})

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CHECK = 2
EXIT_GEN = 3


@dataclass
class RunConfig:
    kinds: tuple[GenKind, ...] = DEFAULT_KINDS
    suffixes: dict[GenKind, str] = dc_field(default_factory=lambda: dict(DEFAULT_SUFFIXES))
    out_dir: Path = Path("generated")
    force_orient_assoc: bool = False

    def validate(self) -> None:
        values = list(self.suffixes.values())
        if len(set(values)) != len(values):
            raise ValueError("construction suffixes must be pairwise distinct")
        for value in values:
            if not value or not is_valid_name(f"x{value}"):
                raise ValueError(f"suffix {value!r} would not form valid names")


def _read_config_file(directory: Path) -> dict[str, str]:
    path = directory / CONFIG_FILE
    if not path.is_file():
        return {}
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed line {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS and not key.startswith("suffix."):
            raise ValueError(f"{path}: unknown key {key!r}")
        if key == "jobs":
            try:
                int(value)
            except ValueError:
                raise ValueError(f"{path}: jobs must be an integer, got {value!r}") from None
        values[key] = value
    return values


def _parse_kind_list(text: str) -> tuple[GenKind, ...]:
    flags = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(kind_from_flag(f) for f in flags)


def build_config(args: argparse.Namespace, cwd: Path | None = None) -> RunConfig:
    cfg_values = _read_config_file(cwd or Path.cwd())
    cfg = RunConfig()

    constructions = (
        args.constructions if args.constructions is not None else cfg_values.get("constructions")
    )
    if constructions is not None:
        cfg.kinds = _parse_kind_list(constructions)
    out = args.out if args.out is not None else cfg_values.get("out")
    if out is not None:
        cfg.out_dir = Path(out)
    # --jobs is accepted for compatibility and only validated
    jobs = args.jobs if args.jobs is not None else cfg_values.get("jobs")
    if jobs is not None and int(jobs) < 1:
        raise ValueError("--jobs must be at least 1")
    orient = cfg_values.get("orient-assoc")
    if orient is not None:
        cfg.force_orient_assoc = orient.lower() in ("1", "true", "yes", "on")
    if args.orient_assoc:
        cfg.force_orient_assoc = True

    for key, value in cfg_values.items():
        if key.startswith("suffix."):
            cfg.suffixes[kind_from_flag(key[len("suffix."):])] = value
    for item in args.suffix or []:
        if "=" not in item:
            raise ValueError(f"--suffix expects KIND=STR, got {item!r}")
        flag, _, value = item.partition("=")
        cfg.suffixes[kind_from_flag(flag.strip())] = value.strip()

    cfg.validate()
    return cfg


# -- generation pipeline -------------------------------------------------------

@dataclass
class TheoryOutput:
    name: str
    files: dict[str, str]
    module_text: str

    @property
    def definition_count(self) -> int:
        # the input theory plus one definition per construction
        return 1 + len(self.files)


def generate_for_theory(
    t: EqTheory,
    cfg: RunConfig,
    source_decl: Decl | None = None,
    skip_log: list[str] | None = None,
) -> TheoryOutput:
    """Produce the per-theory output files.  Pure; does not touch disk."""
    constructions = gen_all(t, cfg.kinds, cfg.suffixes, skip_log=skip_log)
    files = {f"{d.name}.gen.eqt": print_decl(d) + "\n" for d in constructions}
    module: list[Decl] = [source_decl if source_decl is not None else embed(t)]
    if GenKind.PRODUCT in cfg.kinds:
        module.append(prod_decl())
    module.extend(constructions)
    return TheoryOutput(t.name, files, print_module(module))


def _write_output(out: TheoryOutput, out_dir: Path) -> None:
    if not out.files:
        return
    directory = out_dir / out.name
    directory.mkdir(parents=True, exist_ok=True)
    for filename, text in sorted(out.files.items()):
        (directory / filename).write_text(text, encoding="utf-8", newline="\n")
    (directory / "module.gen.eqt").write_text(out.module_text, encoding="utf-8", newline="\n")


def _check_output_module(out: TheoryOutput, out_dir: Path) -> list[str]:
    """Reparse the written module text and check it; exercises the print →
    parse round trip on every run."""
    filename = str(out_dir / out.name / "module.gen.eqt")
    try:
        decls = parse_file(out.module_text)
    except ParseError as e:
        return [f"{filename}:{e.line}:{e.col}: ParseError: {e.message}"]
    errors = check_module(decls)
    return [e.format(filename) for e in errors]


def _generate_batch(
    theories: list[tuple[EqTheory, Decl | None]],
    cfg: RunConfig,
    skip_log: list[str] | None = None,
) -> tuple[list[TheoryOutput], int]:
    """Generate, write, and check a list of theories.  Returns the outputs
    and a process exit code."""
    outputs = [generate_for_theory(t, cfg, decl, skip_log=skip_log) for t, decl in theories]

    try:
        for out in outputs:
            _write_output(out, cfg.out_dir)
    except OSError as e:
        raise GenError(f"cannot write to {cfg.out_dir}: {e}") from e

    check_lines: list[str] = []
    for out in outputs:
        if out.files:
            check_lines.extend(_check_output_module(out, cfg.out_dir))
    if check_lines:
        print("\n".join(check_lines))
        return outputs, EXIT_CHECK
    return outputs, EXIT_OK


# -- subcommands -------------------------------------------------------------------

def cmd_check(paths: list[Path]) -> int:
    worst = EXIT_OK
    for path in paths:
        try:
            decls = parse_file(path.read_text(encoding="utf-8"))
        except (OSError, ParseError) as e:
            if isinstance(e, ParseError):
                print(f"{path}:{e.line}:{e.col}: ParseError: {e.message}", file=sys.stderr)
            else:
                print(f"{path}: {e}", file=sys.stderr)
            worst = EXIT_PARSE
            continue
        errors = check_module(decls)
        if errors:
            print(format_errors(errors, str(path)))
            if worst != EXIT_PARSE:
                worst = EXIT_CHECK
    return worst


def cmd_gen(path: Path, cfg: RunConfig) -> int:
    try:
        decls = parse_file(path.read_text(encoding="utf-8"))
    except OSError as e:
        print(f"{path}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as e:
        print(f"{path}:{e.line}:{e.col}: ParseError: {e.message}", file=sys.stderr)
        return EXIT_PARSE
    errors = check_module(decls)
    if errors:
        print(format_errors(errors, str(path)))
        return EXIT_CHECK

    theories: list[tuple[EqTheory, Decl | None]] = []
    for d in decls:
        if not isinstance(d, RecordDecl):
            print(f"{path}: {d.name} is not a record, nothing to generate", file=sys.stderr)
            return EXIT_GEN
        try:
            theories.append((extract(d), d))
        except ShapeError as e:
            print(f"{path}: {d.name}: {e}", file=sys.stderr)
            return EXIT_GEN
    try:
        _, code = _generate_batch(theories, cfg)
    except GenError as e:
        print(f"{path}: {e}", file=sys.stderr)
        return EXIT_GEN
    return code


def cmd_lib(path: Path, cfg: RunConfig) -> int:
    try:
        library = load_library(path)
    except OSError as e:
        print(f"{path}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as e:
        print(f"{path}:{e.line}:{e.col}: ParseError: {e.message}", file=sys.stderr)
        return EXIT_PARSE
    except LibraryError as e:
        print(f"{path}: {e}", file=sys.stderr)
        return EXIT_GEN

    theories: list[tuple[EqTheory, Decl | None]] = [(t, None) for t in library.theories()]
    skip_log: list[str] = []
    try:
        outputs, code = _generate_batch(theories, cfg, skip_log=skip_log)
    except GenError as e:
        print(f"{path}: {e}", file=sys.stderr)
        return EXIT_GEN
    for line in skip_log:
        print(line, file=sys.stderr)
    if code != EXIT_OK:
        return code
    definitions = sum(out.definition_count for out in outputs)
    lines = sum(out.module_text.count("\n") for out in outputs)
    print(f"theories={len(outputs)} definitions={definitions} lines={lines}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------

def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--constructions",
        help="comma-separated constructions: sig,prod,termlang,open-termlang,hom,mono,endo",
    )
    sub.add_argument("--out", help="output directory (default: generated)")
    sub.add_argument(
        "--suffix",
        action="append",
        metavar="KIND=STR",
        help="override a renaming suffix, e.g. --suffix sig=Sg",
    )
    sub.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
    sub.add_argument(
        "--orient-assoc",
        action="store_true",
        help="orient associativity axioms left-to-right in the rewrite engine",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="theoryforge",
        description="Generate derived constructions from equational theory presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and check declaration files")
    p_check.add_argument("files", nargs="+", type=Path)

    p_gen = sub.add_parser("gen", help="generate constructions for the theories in a file")
    p_gen.add_argument("file", type=Path)
    _add_gen_flags(p_gen)

    p_lib = sub.add_parser("lib", help="expand a .lib library and generate for every theory")
    p_lib.add_argument("file", type=Path)
    _add_gen_flags(p_lib)

    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args.files)

    try:
        cfg = build_config(args)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_GEN
    if args.command == "gen":
        return cmd_gen(args.file, cfg)
    return cmd_lib(args.file, cfg)


if __name__ == "__main__":
    sys.exit(main())
