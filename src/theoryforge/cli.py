"""Command-line front end.

Subcommands:

* ``check FILE...``      parse and check declaration files
* ``gen FILE``           generate constructions for every theory in a file
* ``lib FILE``           expand a ``.lib`` library and generate for all of it

Exit codes: 0 success, 1 parse failure, 2 check failure, 3 generation or
expansion failure or a refused command line or configuration (a command
line that argparse refuses prints its usage and the reason on stderr;
``--help`` exits 0).  An input that cannot be read, is not UTF-8, does
not parse or does not expand is reported on one stderr line
(:func:`_load`).  Output is a pure function of the inputs and the run
configuration.

Each theory goes through one unit of work: read a ``gen`` declaration as
a theory, generate, print, reparse and check the module text, then write
its files, which happens only when the module checks clean.  The theories
are dealt out in a stride over N processes, one per CPU this process may
run on unless ``--jobs N`` says otherwise, and never more than there are
theories: this process runs theories 0, N, 2N, ... and N-1 forked
processes run the rest, each writing its own theories' files and sending
back a small record per theory.  A declaration that is not a theory, and
a theory whose generation or write fails, gets a record that carries the
message, and every other theory is still generated and written.  Records
are merged in theory order and the first failure in that order is the one
reported, so standard output, standard error, the exit code and the
output tree are the same for any N.  Without ``fork``, or when this
process already runs more than one thread (a fork copies only the calling
thread), the same unit runs in a plain loop.

Generated layout, per theory: ``<out>/<Theory>/<Theory><Kind>.gen.eqt`` for
each construction plus ``<out>/<Theory>/module.gen.eqt`` holding the input
theory, the ``Prod`` helper when the product is selected, and the
constructions, in catalog order.  Each ``module.gen.eqt`` is reparsed and
checked as one module before any of the theory's files are written.

Defaults may also come from a ``theoryforge.cfg`` file in the working
directory, one ``key = value`` per line: ``constructions``, ``out``,
``jobs`` and ``suffix.<kind>`` take exactly what their flags take,
``orient-assoc`` takes ``1/true/yes/on`` or ``0/false/no/off``, and any
other key or a repeated key is an error.  :func:`_read_setting` reads
every setting of the file, even one a flag overrides, and then each flag,
so flags win; an error in the file names the file.  Only the constructions
in ``generators.DEFAULT_SUFFIXES`` take a suffix, ``x<suffix>`` must read
back as one name (``lexer.is_name``), and suffixes must be pairwise
distinct.  ``orient-assoc`` and ``--orient-assoc`` are accepted and stored
in ``RunConfig.force_orient_assoc``, which no command reads yet: they
change no output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn

from .ast import Decl, RecordDecl
from .checker import check_module, format_errors
from .combinators import LibraryError, load_library
from .generators import (
    DEFAULT_KINDS,
    DEFAULT_SUFFIXES,
    GenError,
    GenKind,
    NameSupply,
    gen_all,
    kind_from_flag,
    prod_decl,
)
from .lexer import is_name
from .parser import ParseError, parse_file
from .printer import print_decl, print_module
from .theory import EqTheory, ShapeError, embed, extract

CONFIG_FILE = "theoryforge.cfg"
CONFIG_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CHECK = 2
EXIT_GEN = 3


class RunConfig:
    def __init__(
        self,
        kinds: tuple[GenKind, ...] = DEFAULT_KINDS,
        suffixes: dict[GenKind, str] | None = None,
        out_dir: Path = Path("generated"),
        jobs: int | None = None,
        force_orient_assoc: bool = False,
    ):
        self.kinds = kinds
        self.suffixes = dict(DEFAULT_SUFFIXES) if suffixes is None else suffixes
        self.out_dir = out_dir
        self.jobs = jobs
        self.force_orient_assoc = force_orient_assoc


def _read_config_file(path: Path) -> dict[str, str]:
    """The ``key = value`` lines of ``path``, if it exists: only their
    syntax is read here, their settings by :func:`_read_setting`."""
    if not path.is_file():
        return {}
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed line {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ValueError(f"{path}: duplicate key {key!r}")
        values[key] = value
    return values


def _read_setting(cfg: RunConfig, key: str, text: str, name: str) -> None:
    """Set the configuration key ``key`` of ``cfg`` from ``text``, whether
    a line of the configuration file or a flag gives it; an error calls the
    setting ``name`` (``jobs`` in the file, ``--jobs`` as a flag)."""
    if key == "constructions":
        cfg.kinds = tuple(kind_from_flag(part.strip()) for part in text.split(",") if part.strip())
    elif key == "out":
        cfg.out_dir = Path(text)
    elif key == "jobs":
        try:
            cfg.jobs = int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
        if cfg.jobs < 1:
            raise ValueError(f"{name} must be at least 1")
    elif key == "orient-assoc":
        if text.lower() not in CONFIG_BOOLEANS:
            raise ValueError(f"{name} must be true or false, got {text!r}")
        cfg.force_orient_assoc = CONFIG_BOOLEANS[text.lower()]
    elif key.startswith("suffix."):
        kind = kind_from_flag(key[len("suffix."):])
        if kind not in DEFAULT_SUFFIXES:
            takers = ", ".join(k.value for k in DEFAULT_SUFFIXES)
            raise ValueError(f"construction {kind.value!r} takes no suffix (only {takers} do)")
        if not text or not is_name(f"x{text}"):
            raise ValueError(f"suffix {text!r} would not form valid names")
        cfg.suffixes[kind] = text
    else:
        raise ValueError(f"unknown key {key!r}")


def build_config(args: argparse.Namespace, cwd: Path | None = None) -> RunConfig:
    """The defaults, then each setting of the ``theoryforge.cfg`` in
    ``cwd``, then each flag given, all read by :func:`_read_setting`."""
    path = (cwd or Path.cwd()) / CONFIG_FILE
    cfg = RunConfig()
    for key, text in _read_config_file(path).items():
        try:
            _read_setting(cfg, key, text, key)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None

    flags = {"constructions": args.constructions, "out": args.out, "jobs": args.jobs}
    if args.orient_assoc:
        flags["orient-assoc"] = "true"
    for key, value in flags.items():
        if value is not None:
            _read_setting(cfg, key, str(value), f"--{key}")
    for item in args.suffix or []:
        flag, equals, value = item.partition("=")
        if not equals:
            raise ValueError(f"--suffix expects KIND=STR, got {item!r}")
        _read_setting(cfg, f"suffix.{flag.strip()}", value.strip(), "--suffix")

    values = list(cfg.suffixes.values())
    if len(set(values)) != len(values):
        raise ValueError("construction suffixes must be pairwise distinct")
    return cfg


# -- generation pipeline -------------------------------------------------------

class TheoryOutput(NamedTuple):
    name: str
    files: dict[str, str]
    module_text: str


class TheoryRecord(NamedTuple):
    """What a run keeps of one theory: its counts and check lines, or the
    message of the failure that stopped it."""

    definitions: int
    lines: int
    check_lines: list[str]
    error: str | None = None


RunShare = Callable[[int, int], list[TheoryRecord]]


def generate_for_theory(t: EqTheory, cfg: RunConfig, source_decl: Decl | None = None) -> TheoryOutput:
    """Produce the per-theory output files.  Pure; does not touch disk.
    Every name the module's ``Prod`` helper and constructions add is drawn
    from one supply seeded with the source declaration as written."""
    head: list[Decl] = [source_decl if source_decl is not None else embed(t)]
    names = NameSupply.for_module(head[0])
    if GenKind.PRODUCT in cfg.kinds:
        head.append(prod_decl(names))
    constructions = gen_all(t, cfg.kinds, cfg.suffixes, names)
    printed = [print_decl(d) + "\n" for d in constructions]
    files = {f"{d.name}.gen.eqt": text for d, text in zip(constructions, printed)}
    # the text print_module gives for head + constructions, with each
    # construction printed once for its own file and for the module
    module_text = print_module(head) + "".join("\n" + text for text in printed)
    return TheoryOutput(t.name, files, module_text)


def _write_output(out: TheoryOutput, out_dir: Path) -> None:
    """Write the theory's files as UTF-8 (their line endings are LF
    already), each in one system call unless the kernel takes less.  If a
    write fails, every file this call opened is removed before the error
    propagates, so a theory leaves all of its files or none."""
    directory = os.path.join(out_dir, out.name)
    os.makedirs(directory, exist_ok=True)
    opened: list[str] = []
    try:
        for filename, text in [*sorted(out.files.items()), ("module.gen.eqt", out.module_text)]:
            path = os.path.join(directory, filename)
            data = text.encode("utf-8")
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            opened.append(path)
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
    except OSError:
        for path in opened:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _parse_error_line(path: Path | str, e: ParseError) -> str:
    return f"{path}:{e.line}:{e.col}: ParseError: {e.message}"


def _check_output_module(out: TheoryOutput, out_dir: Path) -> list[str]:
    """Reparse the module text and check it; exercises the print → parse
    round trip on every run."""
    filename = str(out_dir / out.name / "module.gen.eqt")
    try:
        decls = parse_file(out.module_text)
    except ParseError as e:
        return [_parse_error_line(filename, e)]
    errors = check_module(decls)
    return [e.format(filename) for e in errors]


def _run_theory(item: EqTheory | Decl, cfg: RunConfig) -> TheoryRecord:
    """The per-theory unit, the one place that decides what becomes of a
    theory: read ``item``, a theory ``lib`` expanded or a ``gen``
    declaration, as a theory, then generate, print, reparse and check, and
    write the files only if the module checks clean.  A declaration that is
    not a theory, a :class:`GenError` or a failed write, which leaves none
    of the theory's files, ends the unit with the record of its message."""
    try:
        if isinstance(item, EqTheory):
            out = generate_for_theory(item, cfg)
        elif isinstance(item, RecordDecl):
            out = generate_for_theory(extract(item), cfg, item)
        else:
            return TheoryRecord(0, 0, [], f"{item.name} is not a record, nothing to generate")
    except ShapeError as e:
        return TheoryRecord(0, 0, [], f"{item.name}: {e}")
    except GenError as e:
        return TheoryRecord(0, 0, [], str(e))
    check_lines = _check_output_module(out, cfg.out_dir) if out.files else []
    if out.files and not check_lines:
        try:
            _write_output(out, cfg.out_dir)
        except OSError as e:
            return TheoryRecord(0, 0, [], f"cannot write to {cfg.out_dir}: {e}")
    # the input theory plus one definition per construction
    return TheoryRecord(1 + len(out.files), out.module_text.count("\n"), check_lines)


def _share_worker(writer: int, run_share: RunShare, k: int, n: int) -> NoReturn:
    """The whole life of a forked worker: run share ``k`` of ``n``, write
    it pickled to ``writer``, and leave through ``os._exit``, so it never
    returns into the caller's stack.  A worker that fails prints its
    traceback and exits 1 without writing."""
    import pickle

    code = 1
    try:
        data = pickle.dumps(run_share(k, n))
        with open(writer, "wb") as pipe:
            pipe.write(data)
        code = 0
    except BaseException as e:
        sys.excepthook(type(e), e, e.__traceback__)
        sys.stderr.flush()
    finally:
        os._exit(code)


def _run_shares(run_share: RunShare, n: int) -> list[list[TheoryRecord]]:
    """Run share ``k`` of ``n`` for every ``k``: share 0 in this process,
    the others in forked processes, which inherit the theories instead of
    receiving them pickled and send their results back down a pipe."""
    if n == 1:
        return [run_share(0, 1)]
    import pickle

    # whatever is still buffered would otherwise be written once per process
    sys.stdout.flush()
    sys.stderr.flush()
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for k in range(1, n):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                _share_worker(writer, run_share, k, n)
            os.close(writer)
            workers.append((pid, reader))
        shares = [run_share(0, n)]
        sent = []
        for _, reader in workers:
            with open(reader, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    except BaseException:
        import signal

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, reader in workers:
            os.close(reader)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code, data in zip(codes, sent):
        if code != 0 or not data:
            raise RuntimeError(f"a worker process exited with code {code} before reporting")
    return shares + [pickle.loads(data) for data in sent]


def _thread_count() -> int:
    """The threads of this process: the kernel's count where ``/proc``
    lists them, else the ones the ``threading`` module knows of."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def _process_count(jobs: int | None, theories: int) -> int:
    """How many processes generate a batch: ``jobs``, or by default one
    per usable CPU, capped by the number of theories.  Only this process
    where there is no ``fork``, or where it already runs other threads: a
    forked child has only the calling thread, so a lock that another
    thread held at the fork stays held in the child forever."""
    if not hasattr(os, "fork") or _thread_count() > 1:
        return 1
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            jobs = os.cpu_count() or 1
    return max(1, min(jobs, theories))


def _generate_batch(
    path: Path, theories: list[EqTheory] | list[Decl], cfg: RunConfig
) -> tuple[list[TheoryRecord], int]:
    """Generate, check, and write a list of theories read from ``path`` on
    up to :func:`_process_count` processes.  Returns one record per theory,
    in theory order, and a process exit code.  If a record carries an
    error, the first such in theory order is printed on one stderr line
    and the code is ``EXIT_GEN``; otherwise check lines give
    ``EXIT_CHECK``."""
    n = _process_count(cfg.jobs, len(theories))
    shares = _run_shares(lambda k, step: [_run_theory(item, cfg) for item in theories[k::step]], n)
    records = [shares[i % n][i // n] for i in range(len(theories))]
    error = next((record.error for record in records if record.error is not None), None)
    if error is not None:
        print(f"{path}: {error}", file=sys.stderr)
        return records, EXIT_GEN

    check_lines = [line for record in records for line in record.check_lines]
    if check_lines:
        print("\n".join(check_lines))
        return records, EXIT_CHECK
    return records, EXIT_OK


# -- subcommands -------------------------------------------------------------------

def _read_decls(path: Path) -> list[Decl]:
    return parse_file(path.read_text(encoding="utf-8-sig"))


def _load(load: Callable[[Path], Any], path: Path) -> tuple[Any, int]:
    """``load(path)`` and ``EXIT_OK``; or, for an input that cannot be
    read, is not UTF-8, does not parse or does not expand, ``None`` and
    its exit code, after one line on stderr that says why."""
    try:
        return load(path), EXIT_OK
    except (OSError, UnicodeDecodeError, ParseError, LibraryError) as e:
        print(_parse_error_line(path, e) if isinstance(e, ParseError) else f"{path}: {e}", file=sys.stderr)
        return None, EXIT_GEN if isinstance(e, LibraryError) else EXIT_PARSE


def cmd_check(paths: list[Path]) -> int:
    worst = EXIT_OK
    for path in paths:
        decls, code = _load(_read_decls, path)
        if decls is None:
            worst = code
            continue
        errors = check_module(decls)
        if errors:
            print(format_errors(errors, str(path)))
            if worst != EXIT_PARSE:
                worst = EXIT_CHECK
    return worst


def cmd_gen(path: Path, cfg: RunConfig) -> int:
    decls, code = _load(_read_decls, path)
    if decls is None:
        return code
    errors = check_module(decls)
    if errors:
        print(format_errors(errors, str(path)))
        return EXIT_CHECK
    return _generate_batch(path, decls, cfg)[1]


def cmd_lib(path: Path, cfg: RunConfig) -> int:
    library, code = _load(load_library, path)
    if library is None:
        return code

    records, code = _generate_batch(path, library.theories(), cfg)
    if code != EXIT_OK:
        return code
    definitions = sum(record.definitions for record in records)
    lines = sum(record.lines for record in records)
    print(f"theories={len(records)} definitions={definitions} lines={lines}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that refuses a command line with exit code 3, as
    a refused configuration is; its subcommand parsers are of this class
    too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_GEN, f"{self.prog}: error: {message}\n")


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--constructions",
        help="comma-separated constructions: " + ",".join(k.value for k in GenKind),
    )
    sub.add_argument("--out", help="output directory (default: generated)")
    *first, last = (k.value for k in DEFAULT_SUFFIXES)
    sub.add_argument(
        "--suffix",
        action="append",
        metavar="KIND=STR",
        help=f"override the renaming suffix of {', '.join(first)} or {last}, e.g. --suffix {first[0]}=Sg",
    )
    sub.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="generate on N processes (default: one per usable CPU); the output is the same for any N",
    )
    sub.add_argument(
        "--orient-assoc",
        action="store_true",
        help="accepted and stored for the rewrite engine, which no command runs yet: changes no output",
    )


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
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
