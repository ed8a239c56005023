"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import shutil
import time

from conftest import DATA, same_decl_ignoring_constructor, tree_hash
from theoryforge.ast import Equation, Quant, SortRef, arrow_components
from theoryforge.checker import check_module
from theoryforge.cli import main
from theoryforge.combinators import standard_library_path
from theoryforge.engine import (
    Model,
    TOp,
    TVar,
    default_fuel,
    eval_term,
    is_normal,
    normalize,
    rules_for_theory,
)
from theoryforge.generators import (
    gen_all,
    gen_hom,
    gen_monomorphism,
    gen_product,
    gen_signature,
    gen_termlang,
    prod_decl,
)
from theoryforge.parser import parse_file
from theoryforge.printer import print_decl
from theoryforge.theory import embed


def report(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_golden_monoid_constructions(tmp_path, monkeypatch, golden_constructions):
    """Feeding the Monoid record through gen with default kinds yields the
    four golden constructions, structurally, in under a second."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(DATA / "monoid.eqt", tmp_path / "monoid.eqt")

    start = time.perf_counter()
    assert main(["gen", "monoid.eqt", "--out", "out"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"gen took {elapsed:.3f}s"

    for name in ("MonoidSig", "MonoidProd", "MonoidLang", "MonoidHom"):
        text = (tmp_path / "out" / "Monoid" / f"{name}.gen.eqt").read_text(encoding="utf-8")
        (got,) = parse_file(text)
        expected = golden_constructions[name]
        assert same_decl_ignoring_constructor(got, expected), name
    report(1, "golden Monoid constructions, < 1 s")


def test_criterion_2_library_scale_down(tmp_path, monkeypatch, capsys):
    """The bundled library expands and generates with zero checker errors
    and exactly theories x (1 + kinds) reported definitions, in under 10 s."""
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = main(["lib", str(standard_library_path()), "--out", "libout"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    assert elapsed < 10.0, f"lib took {elapsed:.3f}s"
    assert "skipped" not in captured.err

    summary = captured.out.strip().splitlines()[-1]
    parts = dict(item.split("=") for item in summary.split())
    theories = int(parts["theories"])
    kinds = 4  # default: sig, prod, termlang, hom
    assert theories >= 50
    assert int(parts["definitions"]) == theories * (1 + kinds)
    report(2, f"{theories} theories -> {parts['definitions']} definitions, < 10 s")


def test_criterion_3_generation_soundness(library):
    """Structural soundness of every construction, for every theory."""
    for t in library.theories():
        n_funcs = len(t.func_types)
        sig = gen_signature(t)
        assert len(sig.func_types) == n_funcs and sig.axioms == []

        prod = gen_product(t)
        assert len(prod.func_types) == n_funcs and len(prod.axioms) == len(t.axioms)
        for f in prod.func_types:
            assert not _has_bare_sort(f.ty, prod.sort.name), (t.name, f.name)
        for ax in prod.axioms:
            for b in ax.binders:
                assert not _has_bare_sort(b.ty, prod.sort.name), (t.name, ax.name)

        lang = gen_termlang(t)
        assert len(lang.constructors) == n_funcs
        for f, c in zip(t.func_types, lang.constructors):
            assert len(arrow_components(c.ty)) == len(arrow_components(f.ty))

        hom = gen_hom(t)
        assert len(hom.fields) == 1 + n_funcs
        for f, field in zip(t.func_types, hom.fields[1:]):
            arity = len(arrow_components(f.ty)) - 1
            if arity == 0:
                assert isinstance(field.ty, Equation)
            else:
                assert isinstance(field.ty, Quant)
                assert sum(len(b.names) for b in field.ty.binders) == arity
                assert all(b.ty == SortRef("A1") for b in field.ty.binders)

        mono = gen_monomorphism(t)
        assert len(mono.fields) == len(hom.fields) + 1
    report(3, f"soundness properties over {len(library.expanded)} theories")


def _has_bare_sort(ty, sort: str) -> bool:
    """True if the sort occurs anywhere except directly under Prod."""
    from theoryforge.ast import Arrow, TyApp

    if isinstance(ty, SortRef):
        return ty.name == sort
    if isinstance(ty, TyApp):
        if ty.head == "Prod":
            return any(
                not isinstance(a, SortRef) and _has_bare_sort(a, sort) for a in ty.args
            )
        return any(_has_bare_sort(a, sort) for a in ty.args)
    if isinstance(ty, Arrow):
        return _has_bare_sort(ty.dom, sort) or _has_bare_sort(ty.cod, sort)
    return False


def _random_term(rng: random.Random, depth: int, num_vars: int) -> TOp | TVar:
    if depth <= 1 or rng.random() < 0.25:
        if num_vars and rng.random() < 0.7:
            return TVar(rng.randrange(num_vars))
        return TOp("e")
    return TOp("op", (_random_term(rng, depth - 1, num_vars), _random_term(rng, depth - 1, num_vars)))


def _right_nested(t) -> bool:
    if isinstance(t, TVar) or not t.args:
        return True
    left, right = t.args
    if isinstance(left, TOp) and left.sym == "op":
        return False
    return _right_nested(left) and _right_nested(right)


def test_criterion_4_meaning_preservation(monoid, tmp_path):
    """1000 random open terms of depth <= 6: normalization preserves the
    integer-monoid meaning, with and without the forced associativity
    orientation; forced orientation right-nests every normal form."""
    import argparse

    from theoryforge.cli import build_config

    ns = argparse.Namespace(constructions=None, out=None, suffix=None, jobs=None, orient_assoc=True)
    assert build_config(ns, cwd=tmp_path).force_orient_assoc  # the CLI flag drives this switch

    model = Model.for_theory(monoid, {"e": lambda: 0, "op": lambda a, b: a + b})
    plain = rules_for_theory(monoid, force_orient_assoc=False)
    forced = rules_for_theory(monoid, force_orient_assoc=True)
    rng = random.Random(20240 + 1)
    num_vars = 3

    checked = 0
    for _ in range(1000):
        t = _random_term(rng, 6, num_vars)
        env = [rng.randrange(-50, 50) for _ in range(num_vars)]
        expected = eval_term(t, model, env)

        n1 = normalize(t, plain, default_fuel(t))
        assert eval_term(n1, model, env) == expected
        assert is_normal(n1, plain)

        n2 = normalize(t, forced, default_fuel(t))
        assert eval_term(n2, model, env) == expected
        assert is_normal(n2, forced)
        assert _right_nested(n2)
        checked += 1
    assert checked == 1000
    report(4, "meaning preservation on 1000 random terms, both orientations")


def test_criterion_5_roundtrip_and_determinism(tmp_path, monkeypatch, library, monoid_decl):
    """parse(print(.)) is the identity on all inputs and outputs; reruns and
    parallel runs are byte-identical."""
    # round-trip every bundled input and every generated declaration
    for decl in [monoid_decl, prod_decl()]:
        assert parse_file(print_decl(decl)) == [decl]
    for t in library.theories():
        embedded = embed(t)
        assert parse_file(print_decl(embedded)) == [embedded], t.name
        for d in gen_all(t):
            assert parse_file(print_decl(d)) == [d], (t.name, d.name)

    monkeypatch.chdir(tmp_path)
    shutil.copy(DATA / "monoid.eqt", tmp_path / "monoid.eqt")
    assert main(["gen", "monoid.eqt", "--out", "g1"]) == 0
    assert main(["gen", "monoid.eqt", "--out", "g2"]) == 0
    assert tree_hash(tmp_path / "g1") == tree_hash(tmp_path / "g2")

    lib_path = str(standard_library_path())
    assert main(["lib", lib_path, "--out", "l1", "--jobs", "1"]) == 0
    assert main(["lib", lib_path, "--out", "l2", "--jobs", "8"]) == 0
    assert main(["lib", lib_path, "--out", "l3", "--jobs", "8"]) == 0
    h1, h2, h3 = (tree_hash(tmp_path / d) for d in ("l1", "l2", "l3"))
    assert h1 == h2 == h3
    report(5, "round-trip identity and byte-identical reruns (jobs=8)")


def test_criterion_6_checker_calibration(tmp_path, monkeypatch, capsys, monoid_decl, monoid):
    """Each negative fixture produces exactly its designated error kind and
    exit code 2; the golden blocks check clean."""
    monkeypatch.chdir(tmp_path)
    fixtures = {
        "bad_duplicate_field.eqt": "DuplicateField",
        "bad_unbound_name.eqt": "UnboundName",
        "bad_arity_mismatch.eqt": "ArityMismatch",
    }
    for name, kind in fixtures.items():
        shutil.copy(DATA / name, tmp_path / name)
        assert main(["check", name]) == 2, name
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1, (name, out)
        assert f": {kind}: " in out[0], (name, out)

    shutil.copy(DATA / "monoid.eqt", tmp_path / "monoid.eqt")
    assert main(["check", "monoid.eqt"]) == 0
    assert check_module([monoid_decl, prod_decl()] + gen_all(monoid)) == []
    report(6, "checker calibration: three negative fixtures + clean goldens")
