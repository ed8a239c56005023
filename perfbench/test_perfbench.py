"""Tests for the benchmark's own pieces: the scaled-library generator, the
reference evaluator and models, the tracer, and the metric tables."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refmodels  # noqa: E402
import run  # noqa: E402
import scaledlib  # noqa: E402
import startup  # noqa: E402
from spans import MissingName, Probe, Tracer  # noqa: E402
from theoryforge import cli, combinators, engine  # noqa: E402

SOURCE = run.STANDARD_LIB.read_text(encoding="utf-8")


def test_scaled_library_loads_with_k_times_the_theories(tmp_path):
    path, tags = scaledlib.write_scaled_library(SOURCE, 5, run.SCALED_COPIES, tmp_path)
    library = combinators.load_library(path)
    assert len(library.theories()) == 62 * run.SCALED_COPIES
    assert len(tags) == len(set(tags)) == run.SCALED_COPIES


def test_tags_are_seeded_fixed_width_and_absent_from_the_source():
    tags = scaledlib.draw_tags(7, 10, SOURCE)
    assert tags == scaledlib.draw_tags(7, 10, SOURCE)
    assert tags != scaledlib.draw_tags(8, 10, SOURCE)
    assert {len(t) for t in tags} == {scaledlib.TAG_WIDTH}
    assert not any(t in SOURCE for t in tags)


def test_removing_a_tag_maps_a_copy_back_onto_the_standard_names():
    standard = scaledlib.theory_names(SOURCE)
    for tag in scaledlib.draw_tags(3, 4, SOURCE):
        copy = scaledlib.tag_copy(SOURCE, tag)
        assert scaledlib.theory_names(copy) == [name + tag for name in standard]
        assert copy.replace(tag, "") == SOURCE


def test_untag_copies_flags_stray_and_renamed_files():
    tags = ["_c01", "_c02"]
    tree = {
        "Monoid_c01/Monoid_c01Sig.gen.eqt": b"record Monoid_c01Sig",
        "Monoid_c02/Monoid_c02Sig.gen.eqt": b"record Monoid_c02Sig",
        "Monoid/MonoidSig.gen.eqt": b"record MonoidSig",
    }
    copies = scaledlib.untag_copies(tree, tags)
    assert copies["_c01"] == copies["_c02"] == {"Monoid/MonoidSig.gen.eqt": b"record MonoidSig"}
    assert list(copies[""]) == ["Monoid/MonoidSig.gen.eqt"]


@pytest.fixture(scope="module")
def engine_theories():
    return startup.engine_setup()


def test_models_satisfy_their_axioms_and_a_broken_one_is_caught(engine_theories):
    rng = random.Random(0)
    for name, (theory, _, _) in engine_theories.items():
        refmodels.check_model(theory, refmodels.MODELS[name](), rng)
    monoid = engine_theories["Monoid"][0]
    good = refmodels.MODELS["Monoid"]()
    broken = refmodels.RefModel({**good.interp, "op": lambda x, y: x + y + "a"}, good.sample, good.assoc_ops)
    with pytest.raises(ValueError):
        refmodels.check_model(monoid, broken, rng)


def test_reference_evaluator_agrees_with_eval_term(engine_theories):
    rng = random.Random(1)
    for name, (theory, _, _) in engine_theories.items():
        ref = refmodels.MODELS[name]()
        model = engine.Model.for_theory(theory, ref.interp)
        for term in refmodels.term_set(rng, theory.arities, ref, 400):
            env = tuple(ref.sample(rng) for _ in range(refmodels.NUM_VARS))
            assert refmodels.ref_eval(term, ref, env) == engine.eval_term(term, model, env)


def test_term_set_is_seeded_and_bounded(engine_theories):
    theory = engine_theories["Ring"][0]
    ref = refmodels.MODELS["Ring"]()
    first = refmodels.term_set(random.Random(4), theory.arities, ref, 500)
    assert first == refmodels.term_set(random.Random(4), theory.arities, ref, 500)
    combs = len(ref.assoc_ops) * len(refmodels.COMB_LEAVES)
    random_part, comb_part = first[:-combs], first[-combs:]
    assert 500 <= sum(map(refmodels.size, random_part)) < 500 + 2 ** refmodels.MAX_DEPTH
    assert [refmodels.size(t) for t in comb_part] == [2 * n - 1 for n in refmodels.COMB_LEAVES] * 2


def test_traced_lib_run_reports_every_layer_and_restores_the_originals(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    originals = {p.name: getattr(p.module, p.attr) for p in run.make_probes()}
    workload = run.WORKLOADS["lib-standard"]()
    workload.prepare(tmp_path, seed=1, traced=True)
    tally = run.Tally()
    values = workload.trace(0, tally, "test-lib-standard")
    assert tally.attempted >= 2 and tally.failed == 0
    assert set(values) == set(run.PER_LAYER)
    assert values["cli.files"] == 496 and values["checker.errors"] == 0
    assert values["lexer.busy_s"] > 0 and values["cli.self_s"] > 0
    for probe in run.make_probes():
        assert getattr(probe.module, probe.attr) is originals[probe.name]


def test_output_directories_are_fresh_and_spreading_is_best_effort(tmp_path):
    names = {run.fresh_out(tmp_path) for _ in range(100)}
    assert len(names) == 100 and all(p.parent == tmp_path and not p.exists() for p in names)
    run.spread_subdirectories(tmp_path)  # sets the flag where the file system has it
    run.spread_subdirectories(tmp_path / "missing")  # and never raises


def test_a_missing_name_fails_loudly_and_restores_what_was_wrapped():
    original = cli.gen_all
    probes = [Probe(cli, "gen_all", "cli.gen_all"), Probe(cli, "no_such_function", "cli.none")]
    with pytest.raises(MissingName):
        with Tracer(probes):
            pass
    assert cli.gen_all is original


def test_a_layer_that_records_no_span_fails_loudly():
    tracer = Tracer([])
    with tracer, tracer.span("cli.main"):
        pass
    with pytest.raises(run.BenchError):
        run.require_spans(tracer, run.LIB_SPANS, "CLI run")


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer([])
    with tracer, tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    expected = (outer.end - outer.start) - (inner.end - inner.start)
    assert tracer.self_time("outer") == pytest.approx(expected)


def test_benchmark_json_names_what_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
