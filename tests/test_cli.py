from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import theoryforge
from conftest import DATA, tree_hash
from theoryforge.cli import main
from theoryforge.combinators import standard_library_path
from theoryforge.parser import parse_file


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def copy_fixture(name: str, dest: Path) -> Path:
    target = dest / name
    shutil.copy(DATA / name, target)
    return target


# -- check ------------------------------------------------------------------

def test_check_clean_file_exits_zero(workdir, capsys):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_check_empty_file_is_vacuously_ok(workdir):
    empty = workdir / "empty.eqt"
    empty.write_text("", encoding="utf-8")
    assert main(["check", str(empty)]) == 0


def test_check_duplicate_field_exits_two_with_one_line(workdir, capsys):
    path = copy_fixture("bad_duplicate_field.eqt", workdir)
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert "DuplicateField" in out[0]
    assert out[0].startswith(str(path))


def test_check_parse_error_exits_one(workdir, capsys):
    bad = workdir / "bad.eqt"
    bad.write_text("record M : Set\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_deep_nesting_is_a_parse_error_not_a_crash(workdir, capsys):
    deep = workdir / "deep.eqt"
    depth = 1500
    deep.write_text(
        "record M (A : Set) : Set where\n  field\n    f : " + "(" * depth + "A" + ")" * depth + "\n",
        encoding="utf-8",
    )
    assert main(["check", str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{deep}:3:209: ParseError: nesting deeper than 200 levels"]


def test_missing_input_file_is_reported(workdir, capsys):
    assert main(["gen", "nope.eqt"]) == 1
    assert main(["lib", "nope.lib"]) == 1
    assert "nope" in capsys.readouterr().err


# -- gen -------------------------------------------------------------------------

def test_gen_writes_expected_tree(workdir):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out"]) == 0
    files = sorted(p.name for p in (workdir / "out" / "Monoid").iterdir())
    assert files == [
        "MonoidHom.gen.eqt",
        "MonoidLang.gen.eqt",
        "MonoidProd.gen.eqt",
        "MonoidSig.gen.eqt",
        "module.gen.eqt",
    ]
    module = (workdir / "out" / "Monoid" / "module.gen.eqt").read_text(encoding="utf-8")
    names = [d.name for d in parse_file(module)]
    assert names == ["Monoid", "Prod", "MonoidSig", "MonoidProd", "MonoidLang", "MonoidHom"]


def test_gen_with_no_kinds_writes_nothing(workdir):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out", "--constructions", ""]) == 0
    assert not (workdir / "out").exists()


def test_gen_is_byte_identical_across_reruns(workdir):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out"]) == 0
    first = tree_hash(workdir / "out")
    assert main(["gen", str(path), "--out", "out"]) == 0
    assert tree_hash(workdir / "out") == first


def test_gen_rejects_non_theory_input(workdir, capsys):
    bad = workdir / "data.eqt"
    bad.write_text("data D : Set where\n", encoding="utf-8")
    assert main(["gen", str(bad), "--out", "out"]) == 3
    assert "not a record" in capsys.readouterr().err


def test_gen_propagates_check_failure(workdir):
    path = copy_fixture("bad_unbound_name.eqt", workdir)
    assert main(["gen", str(path), "--out", "out"]) == 2


def test_gen_suffix_override(workdir):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out", "--suffix", "sig=Sg"]) == 0
    sig = (workdir / "out" / "Monoid" / "MonoidSig.gen.eqt").read_text(encoding="utf-8")
    assert "eSg : ASg" in sig


def test_gen_rejects_colliding_suffixes(workdir, capsys):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out", "--suffix", "sig=P"]) == 3
    assert "distinct" in capsys.readouterr().err


def test_gen_rejects_malformed_suffix(workdir, capsys):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out", "--suffix", "sig=a b"]) == 3
    assert "valid names" in capsys.readouterr().err


def test_gen_constructions_selection(workdir):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out", "--constructions", "mono,endo"]) == 0
    files = sorted(p.name for p in (workdir / "out" / "Monoid").iterdir())
    assert files == ["MonoidEnd.gen.eqt", "MonoidMono.gen.eqt", "module.gen.eqt"]


# -- lib -------------------------------------------------------------------------------

def test_lib_summary_line(workdir, capsys):
    assert main(["lib", str(standard_library_path()), "--out", "libout"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    summary = out[-1]
    parts = dict(item.split("=") for item in summary.split())
    assert set(parts) == {"theories", "definitions", "lines"}
    theories = int(parts["theories"])
    assert theories >= 50
    assert int(parts["definitions"]) == theories * 5
    assert int(parts["lines"]) > 0


def test_lib_single_theory_counts(workdir, capsys):
    lib = workdir / "one.lib"
    lib.write_text("theory Carrier = base { A : Set }\n", encoding="utf-8")
    assert main(["lib", str(lib), "--out", "libout"]) == 0
    assert "theories=1 definitions=5" in capsys.readouterr().out


def test_lib_full_catalog_checks_clean(workdir, capsys):
    kinds = "sig,prod,termlang,open-termlang,hom,mono,endo"
    assert main(["lib", str(standard_library_path()), "--out", "full", "--constructions", kinds]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    parts = dict(item.split("=") for item in summary.split())
    assert int(parts["definitions"]) == int(parts["theories"]) * 8


def test_lib_full_catalog_output_bytes_are_pinned(workdir):
    kinds = "sig,prod,termlang,open-termlang,hom,mono,endo"
    assert main(["lib", str(standard_library_path()), "--out", "full", "--constructions", kinds]) == 0
    assert tree_hash(workdir / "full") == (
        "6c740ad5b1f1bcd0fc60238dc63685454050aab3d5f312f089d29a6e1a75abce"
    )


def test_lib_jobs_do_not_change_bytes(workdir):
    assert main(["lib", str(standard_library_path()), "--out", "a", "--jobs", "1"]) == 0
    assert main(["lib", str(standard_library_path()), "--out", "b", "--jobs", "8"]) == 0
    assert tree_hash(workdir / "a") == tree_hash(workdir / "b")


def test_lib_rejects_jobs_below_one(workdir, capsys):
    assert main(["lib", str(standard_library_path()), "--out", "a", "--jobs", "0"]) == 3
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (workdir / "a").exists()


def test_lib_expansion_failure_names_entry(workdir, capsys):
    lib = workdir / "bad.lib"
    lib.write_text(
        "theory Carrier = base { A : Set }\n"
        "theory Bad = extend Missing with { e : A }\n",
        encoding="utf-8",
    )
    assert main(["lib", str(lib), "--out", "libout"]) == 3
    err = capsys.readouterr().err
    assert "Bad" in err and "Missing" in err


def test_lib_accepts_orient_assoc_flag(workdir):
    lib = workdir / "one.lib"
    lib.write_text("theory Carrier = base { A : Set }\n", encoding="utf-8")
    assert main(["lib", str(lib), "--out", "libout", "--orient-assoc"]) == 0


# -- config file -----------------------------------------------------------------------

def test_config_file_supplies_defaults(workdir, capsys):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text(
        "constructions = sig\nout = cfgout\n", encoding="utf-8"
    )
    assert main(["gen", "monoid.eqt"]) == 0
    files = sorted(p.name for p in (workdir / "cfgout" / "Monoid").iterdir())
    assert files == ["MonoidSig.gen.eqt", "module.gen.eqt"]


def test_flags_override_config_file(workdir):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text("out = cfgout\n", encoding="utf-8")
    assert main(["gen", "monoid.eqt", "--out", "flagout"]) == 0
    assert not (workdir / "cfgout").exists()
    assert (workdir / "flagout" / "Monoid").is_dir()


def test_config_file_rejects_unknown_key(workdir, capsys):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text("construction = sig\n", encoding="utf-8")
    assert main(["gen", "monoid.eqt"]) == 3
    assert "theoryforge.cfg: unknown key 'construction'" in capsys.readouterr().err
    assert not (workdir / "generated").exists()


def test_config_file_jobs_must_be_an_integer(workdir, capsys):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text("jobs = two\n", encoding="utf-8")
    assert main(["gen", "monoid.eqt"]) == 3
    assert "theoryforge.cfg: jobs must be an integer, got 'two'" in capsys.readouterr().err
    assert not (workdir / "generated").exists()


def test_config_file_rejects_misspelt_orient_assoc(workdir, capsys):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text("orient-assoc = ture\n", encoding="utf-8")
    assert main(["gen", "monoid.eqt"]) == 3
    assert "theoryforge.cfg: orient-assoc must be true or false, got 'ture'" in capsys.readouterr().err
    assert not (workdir / "generated").exists()


def test_config_file_rejects_duplicate_key(workdir, capsys):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text("out = a\nout = b\n", encoding="utf-8")
    assert main(["gen", "monoid.eqt"]) == 3
    assert "theoryforge.cfg: duplicate key 'out'" in capsys.readouterr().err
    assert not (workdir / "a").exists() and not (workdir / "b").exists()


# -- process-level entry -----------------------------------------------------------------

def test_module_entry_point_runs(tmp_path):
    target = tmp_path / "monoid.eqt"
    shutil.copy(DATA / "monoid.eqt", target)
    # run from the directory holding the package, so the child finds the
    # same theoryforge as this process whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "theoryforge", "check", str(target)],
        capture_output=True,
        text=True,
        cwd=Path(theoryforge.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_the_engine_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, theoryforge.cli; print('theoryforge.engine' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=Path(theoryforge.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_engine_names_are_served_by_the_package():
    from theoryforge import TOp, normalize
    from theoryforge import engine

    assert normalize is engine.normalize and TOp is engine.TOp
    assert all(hasattr(theoryforge, name) for name in theoryforge.__all__)
    with pytest.raises(AttributeError):
        theoryforge.no_such_name


# -- names the benchmark wraps -------------------------------------------------------

def test_wrapped_names_are_looked_up_at_call_time(workdir, monkeypatch):
    # the benchmark's traced run replaces these module attributes from outside;
    # a caller that bound one of them locally would bypass the replacement
    from theoryforge import cli, combinators, parser

    called: set[str] = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    wrapped = [(parser, "tokenize"), (combinators, "tokenize"), (cli, "parse_file"), (cli, "check_module")]
    for module, attr in wrapped:
        monkeypatch.setattr(module, attr, counting(f"{module.__name__}.{attr}", getattr(module, attr)))
    lib = workdir / "small.lib"
    lib.write_text(
        "theory Carrier = base { A : Set }\n"
        "theory Magma = extend Carrier with { op : A → A → A }\n",
        encoding="utf-8",
    )
    assert main(["lib", str(lib), "--out", "out"]) == 0
    assert called == {f"{module.__name__}.{attr}" for module, attr in wrapped}
