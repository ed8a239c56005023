"""The theoryforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: the program is imported from the checkout's
``src``, and scratch files go to ``.bench_work/`` at its root.  Every
workload is a closed loop with one client, so an operation starts only
after the previous one ended; ``README.md`` in this directory says why each
workload exists and what it should show.

* ``lib-standard``: one ``theoryforge lib`` subprocess on the bundled
  ``standard.lib`` with all seven constructions and default ``--jobs``.
* ``lib-scaled``: the same at ``--jobs 2`` on ten seeded renamed copies of
  ``standard.lib``.
* ``engine-normalize``: one pass of ``normalize`` then ``eval_term`` over
  a seeded term set for Monoid, Group, Ring and Lattice, once under the
  plain rules and once with ``force_orient_assoc=True``.

Every output is checked (``README.md`` lists the checks); a wrong one
counts as failed.  With ``--trace 0`` the last line of standard output is
one JSON object with the end-to-end metrics, with ``--trace 1`` one with
the per-layer metrics of a separate in-process traced run.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fcntl import ioctl
from pathlib import Path
from typing import Callable

import scaledlib
from spans import MissingName, Probe, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STANDARD_LIB = SRC / "theoryforge" / "data" / "standard.lib"
WORK = ROOT / ".bench_work"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

ALL_KINDS = "sig,prod,termlang,open-termlang,hom,mono,endo"
KIND_COUNT = len(ALL_KINDS.split(","))
SCALED_COPIES = 10
SETUP_REPEATS = 21
RANDOM_SYMBOLS = 6000  # nodes of random terms per engine theory, besides the left combs
EXTRA_ENVS = 2  # environments each normal form is checked in, besides the timed one
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "lexer.busy_s": "s",
    "lexer.tokens": "count",
    "parser.self_s": "s",
    "parser.decls": "count",
    "generators.busy_s": "s",
    "generators.decls": "count",
    "generators.skips": "count",
    "printer.busy_s": "s",
    "printer.bytes": "bytes",
    "theory.embed_s": "s",
    "checker.busy_s": "s",
    "checker.decls": "count",
    "checker.errors": "count",
    "combinators.parse_s": "s",
    "combinators.expand_s": "s",
    "combinators.theories": "count",
    "cli.self_s": "s",
    "cli.files": "count",
    "engine.orient_s": "s",
    "engine.rules": "count",
    "engine.normalize_plain_s": "s",
    "engine.normalize_assoc_s": "s",
    "engine.eval_s": "s",
    "engine.symbols_in": "count",
    "engine.symbols_out": "count",
    "engine.not_normal": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def closed_loop(seconds: float, op: Callable[[int], None], minimum: int = 1) -> None:
    """Call ``op(0), op(1), ...`` back to back until ``seconds`` have passed
    and at least ``minimum`` calls have finished."""
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        op(i)
        i += 1


FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_subdirectories(path: Path) -> None:
    """Ask the file system to place each new subdirectory of ``path`` in a
    fresh block group (``chattr +T``), where the file system supports it.

    The benchmark deletes thousands of output files a second.  ext4
    without a journal will not reuse an inode deleted in the last minutes
    and checks them one by one while allocating, so files created next to
    a tree just deleted cost over ten times more than on a quiet disk.
    With the flag, and a fresh random name for every output directory, each
    operation writes where nothing was deleted recently, as a user's would."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        flags = array("l", [0])
        ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        flags[0] |= FS_TOPDIR_FL
        ioctl(fd, FS_IOC_SETFLAGS, flags, True)
    except OSError:
        pass
    finally:
        os.close(fd)


def fresh_out(workdir: Path) -> Path:
    """A new output directory name, never used before in any run."""
    return workdir / f"out-{secrets.token_hex(8)}"


class SetupSampler:
    """Set-up time measured in fresh interpreters running ``startup.py``.

    One discarded run first leaves the bytecode cache warm.  The
    ``SETUP_REPEATS`` timed runs are spread over the measured loop, between
    operations, so their median sees the same stretch of machine time as
    the operations do."""

    def __init__(self, what: str, cwd: Path, seconds: float):
        self.what, self.cwd, self.seconds = what, cwd, seconds
        self.samples: list[float] = []
        self._run()
        self.start = time.perf_counter()

    def _run(self) -> float:
        r = subprocess.run(
            [sys.executable, str(HERE / "startup.py"), self.what],
            cwd=self.cwd, env=ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if r.returncode != 0:
            raise BenchError(f"set-up probe {self.what!r} failed:\n{r.stderr}")
        return float(r.stdout.split()[-1])

    def keep_up(self) -> None:
        """Take the samples that are due by now."""
        elapsed = time.perf_counter() - self.start
        due = min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * elapsed / self.seconds))
        while len(self.samples) < due:
            self.samples.append(self._run())

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._run())
        return statistics.median(self.samples)


def quantile_line(samples: list[float]) -> str:
    """Median and the highest of p75/p90/p99 with at least ten samples above it."""
    text = f"median {statistics.median(samples):.4f} s of {len(samples)}"
    for q in (99, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[q - 1]
            return f"{text}, p{q} {cut:.4f} s"
    return text


# -- tracing probes ---------------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def make_probes() -> list:
    from refmodels import size
    from theoryforge import cli, combinators, engine, parser

    tokens = lambda a, k, r: {"lexer.tokens": len(r)}  # noqa: E731
    printed = lambda a, k, r: {"printer.bytes": len(r.encode("utf-8"))}  # noqa: E731
    return [
        Probe(cli, "load_library", "cli.load_library"),
        Probe(combinators, "parse_library", "combinators.parse_library"),
        Probe(combinators, "expand_library", "combinators.expand_library",
              lambda a, k, r: {"combinators.theories": len(r.expanded)}),
        Probe(combinators, "tokenize", "combinators.tokenize", tokens),
        Probe(parser, "tokenize", "parser.tokenize", tokens),
        Probe(cli, "parse_file", "cli.parse_file", lambda a, k, r: {"parser.decls": len(r)}),
        Probe(cli, "gen_all", "cli.gen_all", lambda a, k, r: {
            "generators.decls": len(r),
            "generators.skips": len(set(_arg(a, k, 1, "kinds"))) - len(r),
        }),
        Probe(cli, "print_decl", "cli.print_decl", printed),
        Probe(cli, "print_module", "cli.print_module", printed),
        Probe(cli, "embed", "cli.embed"),
        Probe(cli, "check_module", "cli.check_module", lambda a, k, r: {
            "checker.decls": len(_arg(a, k, 0, "decls")),
            "checker.errors": len(r),
        }),
        Probe(engine, "rules_for_theory", "engine.rules_for_theory",
              lambda a, k, r: {"engine.rules": len(r)}),
        Probe(engine, "normalize", "engine.normalize", lambda a, k, r: {
            "engine.symbols_in": size(_arg(a, k, 0, "t")),
            "engine.symbols_out": size(r),
        }),
        Probe(engine, "eval_term", "engine.eval_term"),
    ]


LIB_SPANS = {
    "cli.main", "cli.load_library", "combinators.parse_library", "combinators.expand_library",
    "combinators.tokenize", "parser.tokenize", "cli.parse_file", "cli.gen_all",
    "cli.print_decl", "cli.print_module", "cli.embed", "cli.check_module",
}
ENGINE_SETUP_SPANS = {
    "startup", "combinators.parse_library", "combinators.expand_library",
    "combinators.tokenize", "engine.rules_for_theory",
}
ENGINE_PASS_SPANS = {"pass", "plain", "assoc", "engine.normalize", "engine.eval_term"}


def require_spans(tracer, expected: set[str], where: str) -> None:
    missing = expected - tracer.names()
    if missing:
        raise BenchError(
            f"traced {where} recorded no span for {sorted(missing)}: "
            "the program no longer calls them where the benchmark wraps them"
        )


def layer_values(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation; layers it never entered
    read 0.  The engine workload adds the per-mode normalize times."""
    c = tracer.counts
    return {
        "lexer.busy_s": tracer.busy("parser.tokenize", "combinators.tokenize"),
        "lexer.tokens": c["lexer.tokens"],
        "parser.self_s": tracer.self_time("cli.parse_file"),
        "parser.decls": c["parser.decls"],
        "generators.busy_s": tracer.busy("cli.gen_all"),
        "generators.decls": c["generators.decls"],
        "generators.skips": c["generators.skips"],
        "printer.busy_s": tracer.busy("cli.print_decl", "cli.print_module"),
        "printer.bytes": c["printer.bytes"],
        "theory.embed_s": tracer.busy("cli.embed"),
        "checker.busy_s": tracer.busy("cli.check_module"),
        "checker.decls": c["checker.decls"],
        "checker.errors": c["checker.errors"],
        "combinators.parse_s": tracer.self_time("combinators.parse_library"),
        "combinators.expand_s": tracer.busy("combinators.expand_library"),
        "combinators.theories": c["combinators.theories"],
        "cli.self_s": tracer.self_time("cli.main"),
        "engine.orient_s": tracer.busy("engine.rules_for_theory"),
        "engine.rules": c["engine.rules"],
        "engine.eval_s": tracer.busy("engine.eval_term"),
        "engine.symbols_in": c["engine.symbols_in"],
        "engine.symbols_out": c["engine.symbols_out"],
    }


def write_spans(tracers: list, name: str) -> Path:
    path = WORK / "spans" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [
        [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent} for s in tr.spans]
        for tr in tracers
    ]
    path.write_text(json.dumps(spans), encoding="utf-8")
    return path


def summarize_layers(setup: dict[str, float], per_op: list[dict[str, float]],
                     traced: list[float], untraced: list[float]) -> dict[str, float]:
    """Set-up values plus the median over traced operations, for every
    per-layer metric."""
    out = {}
    for key, unit in PER_LAYER.items():
        values = [op.get(key, 0) for op in per_op]
        middle = statistics.median(values) if unit == "s" else statistics.median_low(values)
        out[key] = setup.get(key, 0) + middle
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


# -- lib workloads ------------------------------------------------------------------------

@dataclass
class ChildRun:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(cmd: list[str], cwd: Path) -> ChildRun:
    """Run one subprocess; its wall time and its own peak RSS."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        proc.returncode, wall, usage.ru_maxrss / 1024,
        out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
    )


class LibWorkload:
    """``theoryforge lib`` over ``copies`` tagged copies of standard.lib
    (0: the bundled file itself)."""

    def __init__(self, copies: int, jobs: int | None):
        self.copies = copies
        self.jobs = jobs

    def argv(self, out: Path) -> list[str]:
        jobs = ["--jobs", str(self.jobs)] if self.jobs else []
        return ["lib", str(self.lib), "--constructions", ALL_KINDS, "--out", str(out), *jobs]

    def prepare(self, workdir: Path, seed: int, traced: bool) -> None:
        self.workdir = workdir
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        ref = run_child([sys.executable, "-m", "theoryforge", "lib", str(STANDARD_LIB),
                         "--constructions", ALL_KINDS, "--out", "reference"], workdir)
        self.reference = scaledlib.read_tree(workdir / "reference")
        self.reference_ok = (
            ref.code == 0
            and scaledlib.tree_digest(self.reference) == golden["lib-standard"]["tree_sha256"]
        )
        source = STANDARD_LIB.read_text(encoding="utf-8")
        if self.copies:
            self.lib, self.tags = scaledlib.write_scaled_library(source, seed, self.copies, workdir)
        else:
            self.lib, self.tags = STANDARD_LIB, []
        self.theories = len(scaledlib.theory_names(self.lib.read_text(encoding="utf-8")))

    def check(self, out: Path, code: int, stdout: str) -> bool:
        """Exit 0, a summary line counted from the input and the output
        tree, and an output tree equal to the golden-checked reference (per
        copy, once the copy's tag is removed)."""
        tree = scaledlib.read_tree(out)
        lines = sum(data.count(b"\n") for rel, data in tree.items() if rel.endswith("/module.gen.eqt"))
        n = self.theories
        summary = f"theories={n} definitions={n * (1 + KIND_COUNT)} lines={lines}"
        if code != 0 or stdout.strip().splitlines()[-1:] != [summary] or not self.reference_ok:
            return False
        if not self.tags:
            return tree == self.reference
        copies = scaledlib.untag_copies(tree, self.tags)
        return not copies.pop("") and all(copy == self.reference for copy in copies.values())

    def measure(self, seconds: float, tally: Tally) -> dict:
        setup = SetupSampler("cli", self.workdir, seconds)
        walls, rss = [], []

        def op(i: int) -> None:
            setup.keep_up()
            out = fresh_out(self.workdir)
            run = run_child([sys.executable, "-m", "theoryforge", *self.argv(out)], self.workdir)
            walls.append(run.wall)
            rss.append(run.rss_mb)
            ok = self.check(out, run.code, run.stdout)
            if not ok and not tally.failed:
                print(f"first failed run: exit {run.code}\n{run.stdout}{run.stderr}", file=sys.stderr)
            tally.record(ok)
            shutil.rmtree(out, ignore_errors=True)

        os.sync()
        closed_loop(seconds, op)
        setup_s = setup.median()
        print(f"setup_s      {setup_s:.4f} s (median of {SETUP_REPEATS} interpreters importing theoryforge.cli)")
        print(f"wall_s       {quantile_line(walls)} (one CLI subprocess)")
        print(f"peak_rss_mb  {statistics.median(rss):.1f} MB (median over CLI subprocesses)")
        return {"setup_s": setup_s, "wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss)}

    def trace(self, seconds: float, tally: Tally, name: str) -> dict:
        from theoryforge import cli

        probes = make_probes()
        walls: dict[bool, list[float]] = {False: [], True: []}
        per_op, tracers = [], []

        def op(i: int) -> None:
            traced = i % 2 == 1
            out = fresh_out(self.workdir)
            tracer = Tracer(probes)
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                if traced:
                    with tracer, tracer.span("cli.main"):
                        code = cli.main(self.argv(out))
                else:
                    code = cli.main(self.argv(out))
                walls[traced].append(time.perf_counter() - start)
            tally.record(self.check(out, code, stdout.getvalue()))
            if traced:
                require_spans(tracer, LIB_SPANS, "CLI run")
                values = layer_values(tracer)
                values["cli.files"] = sum(1 for p in out.rglob("*") if p.is_file())
                per_op.append(values)
                tracers[:] = [tracer]
            shutil.rmtree(out, ignore_errors=True)

        closed_loop(seconds, op, minimum=2)
        path = write_spans(tracers, name)
        print(f"traced {len(per_op)} of {len(per_op) + len(walls[False])} in-process CLI runs; spans in {path}")
        return summarize_layers({}, per_op, walls[True], walls[False])


# -- engine workload ---------------------------------------------------------------------

MODES = ("plain", "assoc")


class EngineWorkload:
    """``normalize`` then ``eval_term`` for every term of a seeded set,
    once under the plain rules and once with ``force_orient_assoc``."""

    def prepare(self, workdir: Path, seed: int, traced: bool) -> None:
        """Set up (traced when asked), then build and check the models and
        draw the term set from ``seed``.  Items are (mode, term, rules, fuel,
        model, environments, reference model); the first environment is
        the one ``eval_term`` is timed in."""
        import refmodels
        import startup
        from theoryforge import engine

        self.workdir = workdir
        self.setup_tracer = Tracer(make_probes()) if traced else None
        if self.setup_tracer is None:
            setup = startup.engine_setup()
        else:
            with self.setup_tracer, self.setup_tracer.span("startup"):
                setup = startup.engine_setup()
            require_spans(self.setup_tracer, ENGINE_SETUP_SPANS, "engine set-up")
        rng = random.Random(seed)
        terms = []
        for name, (theory, plain, forced) in setup.items():
            ref = refmodels.MODELS[name]()
            refmodels.check_model(theory, ref, rng)
            model = engine.Model.for_theory(theory, ref.interp)
            for term in refmodels.term_set(rng, theory.arities, ref, RANDOM_SYMBOLS):
                envs = [tuple(ref.sample(rng) for _ in range(refmodels.NUM_VARS))
                        for _ in range(1 + EXTRA_ENVS)]
                terms.append((term, {"plain": plain, "assoc": forced}, model, envs, ref))
        self.items = [
            (mode, term, rules[mode], engine.default_fuel(term), model, envs, ref)
            for mode in MODES
            for term, rules, model, envs, ref in terms
        ]
        self.expected: list[tuple | None] | None = None

    def one_pass(self, tracer: Tracer | None = None) -> tuple[list[float], list[tuple]]:
        """Wall time of each item and the results of one pass over them.
        With a tracer, each mode's items run inside a span named after it."""
        from theoryforge import engine

        times, results = [], []
        clock = time.perf_counter
        for mode in MODES:
            with tracer.span(mode) if tracer else nullcontext():
                for item_mode, term, rules, fuel, model, envs, _ in self.items:
                    if item_mode != mode:
                        continue
                    start = clock()
                    nf = engine.normalize(term, rules, fuel)
                    value = engine.eval_term(nf, model, envs[0])
                    times.append(clock() - start)
                    results.append((nf, value))
        return times, results

    def check(self, results: list[tuple], tally: Tally) -> None:
        """Record one outcome per item.

        The first pass is checked in full: each result is normal, the
        benchmark's own evaluator gives it the input's value in every
        environment, and ``eval_term`` agrees with that evaluator.  Later
        passes must repeat the first pass's checked results exactly."""
        from refmodels import ref_eval
        from theoryforge.engine import is_normal

        if self.expected is None:
            self.expected = []
            for (_, term, rules, _, _, envs, ref), (nf, value) in zip(self.items, results):
                ok = (
                    is_normal(nf, rules)
                    and value == ref_eval(term, ref, envs[0])
                    and all(ref_eval(nf, ref, env) == ref_eval(term, ref, env) for env in envs)
                )
                self.expected.append((nf, value) if ok else None)
        for want, got in zip(self.expected, results):
            tally.record(want is not None and want == got)

    def measure(self, seconds: float, tally: Tally) -> dict:
        """``wall_s`` is one pass's time taken item by item: the sum over
        items of each item's median time across the passes, so a burst of
        outside load that hits some items of some passes falls out."""
        setup = SetupSampler("engine", self.workdir, seconds)
        per_item: list[list[float]] = [[] for _ in self.items]
        passes = []

        def op(i: int) -> None:
            setup.keep_up()
            times, results = self.one_pass()
            for samples, t in zip(per_item, times):
                samples.append(t)
            passes.append(sum(times))
            self.check(results, tally)

        closed_loop(seconds, op)
        setup_s = setup.median()
        medians = [statistics.median(samples) for samples in per_item]
        wall = sum(medians)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"setup_s      {setup_s:.4f} s (median of {SETUP_REPEATS} interpreters: "
              "import, load standard.lib, orient rules)")
        print(f"wall_s       {wall:.4f} s per pass over {len(self.items)} items, "
              f"sum of per-item medians over {len(passes)} passes")
        print(f"             whole passes: {quantile_line(passes)}")
        for mode in MODES:
            mode_times = [m for m, item in zip(medians, self.items) if item[0] == mode]
            share = sum(mode_times)
            print(f"{mode}_terms_per_s {len(mode_times) / share:.1f} terms/s ({share:.4f} s per pass)")
        print(f"peak_rss_mb  {rss:.1f} MB (benchmark process)")
        return {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": rss}

    def trace(self, seconds: float, tally: Tally, name: str) -> dict:
        from theoryforge.engine import is_normal

        probes = make_probes()
        walls: dict[bool, list[float]] = {False: [], True: []}
        per_op, tracers = [], []

        def op(i: int) -> None:
            traced = i % 2 == 1
            tracer = Tracer(probes)
            if traced:
                with tracer, tracer.span("pass"):
                    times, results = self.one_pass(tracer)
            else:
                times, results = self.one_pass()
            walls[traced].append(sum(times))
            self.check(results, tally)
            if traced:
                require_spans(tracer, ENGINE_PASS_SPANS, "engine pass")
                values = layer_values(tracer)
                for mode in MODES:
                    values[f"engine.normalize_{mode}_s"] = tracer.busy_within("engine.normalize", mode)
                values["engine.not_normal"] = sum(
                    not is_normal(nf, item[2]) for item, (nf, _) in zip(self.items, results)
                )
                per_op.append(values)
                tracers[:] = [tracer]

        closed_loop(seconds, op, minimum=2)
        path = write_spans([self.setup_tracer, *tracers], name)
        print(f"traced {len(per_op)} of {len(per_op) + len(walls[False])} passes; spans in {path}")
        return summarize_layers(layer_values(self.setup_tracer), per_op, walls[True], walls[False])


WORKLOADS: dict[str, Callable[[], LibWorkload | EngineWorkload]] = {
    "lib-standard": lambda: LibWorkload(copies=0, jobs=None),
    "lib-scaled": lambda: LibWorkload(copies=SCALED_COPIES, jobs=2),
    "engine-normalize": EngineWorkload,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "theoryforge" / "cli.py").is_file():
        print(f"no theoryforge sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    name = f"{args.workload}-s{args.seed}"
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    spread_subdirectories(workdir)
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    try:
        os.chdir(workdir)  # no theoryforge.cfg of the checkout reaches the program
        workload.prepare(workdir, args.seed, bool(args.trace))
        if args.trace:
            values, units = workload.trace(args.seconds, tally, name), PER_LAYER
        else:
            values, units = workload.measure(args.seconds, tally), END_TO_END
    except (BenchError, MissingName) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 3
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fail_ratio   {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
