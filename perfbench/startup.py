"""The set-up each workload pays before its first timed operation.

Run as ``python3 perfbench/startup.py {cli|engine}`` in a fresh
interpreter, with ``src`` on ``PYTHONPATH``: it performs that set-up once
and prints its duration in seconds.  ``run.py`` reports the median over
several such interpreters as ``setup_s``.

* ``cli``: ``import theoryforge.cli``, the fixed cost of every CLI run.
* ``engine``: import the engine and the library loader, load the bundled
  ``standard.lib`` and orient the rules of the engine workload's theories,
  both without and with ``force_orient_assoc``.
"""

from __future__ import annotations

import sys
import time

ENGINE_THEORIES = ("Monoid", "Group", "Ring", "Lattice")


def engine_setup() -> dict[str, tuple]:
    """Theory name -> (theory, plain rules, rules with forced
    associativity), for ``ENGINE_THEORIES``."""
    from theoryforge import combinators, engine

    library = combinators.load_library(combinators.standard_library_path())
    out = {}
    for name in ENGINE_THEORIES:
        theory = library.expanded[name]
        out[name] = (
            theory,
            engine.rules_for_theory(theory),
            engine.rules_for_theory(theory, force_orient_assoc=True),
        )
    return out


def main(what: str) -> float:
    start = time.perf_counter()
    if what == "cli":
        import theoryforge.cli  # noqa: F401
    elif what == "engine":
        engine_setup()
    else:
        raise SystemExit(f"unknown set-up {what!r}; expected cli or engine")
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1] if len(sys.argv) > 1 else "")))
