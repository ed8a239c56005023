from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import theoryforge
from conftest import DATA, EARLIER_AXIOM_LIBRARIES, SHADOWING_LIBRARIES, tree_hash
from theoryforge.ast import Arrow, Constr, DataDecl, SortRef
from theoryforge.cli import _process_count, build_config, cmd_gen, main
from theoryforge.combinators import standard_library_path
from theoryforge.generators import GenKind
from theoryforge.parser import parse_file


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def copy_fixture(name: str, dest: Path) -> Path:
    target = dest / name
    shutil.copy(DATA / name, target)
    return target


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


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


def test_check_projection_of_a_record_whose_name_repeats_exits_two(workdir, capsys):
    path = workdir / "m.eqt"
    path.write_text(
        "record R (A : Set) : Set where\n  field\n    f : A\n\n"
        "record R (A : Set) : Set where\n  field\n    g : A\n\n"
        "record S (A : Set) (r : R A) : Set where\n  field\n    w : g r == g r\n",
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert [line.split(": ")[1] for line in out.splitlines()] == ["DuplicateField", "DuplicateField"]
    assert err == ""


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


LONG = 1000
assert LONG >= sys.getrecursionlimit()
ALL_KINDS = "sig,prod,termlang,open-termlang,hom,mono,endo"

# entries whose types are chains longer than the recursion limit, and a
# curried quantifier chain; a chain's links are not nesting, so none of
# them counts toward the parser's 200-level limit
CHAINS = {
    "arrows": "    f : " + " → ".join(["A"] * (LONG + 1)) + "\n",
    "quantifiers": "    op : A → A → A\n    ax : "
    + " → ".join(f"(x{i} : A)" for i in range(LONG))
    + " → op x0 x1 == op x1 x0\n",
    "curried": "    op : A → A → A\n    comm : (x : A) → (y : A) → op x y == op y x\n",
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_long_and_curried_chains_check_and_generate(workdir, capsys, name):
    source = workdir / "chain.eqt"
    source.write_text("record M (A : Set) : Set where\n  field\n" + CHAINS[name], encoding="utf-8")
    assert main(["check", str(source)]) == 0
    assert main(["gen", str(source), "--constructions", ALL_KINDS, "--out", "out"]) == 0
    module = workdir / "out" / "M" / "module.gen.eqt"
    assert main(["check", str(module)]) == 0
    # the source, the Prod helper and the seven constructions
    assert len(parse_file(module.read_text(encoding="utf-8"))) == 9
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


def test_long_and_curried_chains_in_a_library(workdir, capsys):
    lines = ["theory Carrier = base { A : Set }"]
    for i, name in enumerate(sorted(CHAINS)):
        lines.append(f"theory T{i} = extend Carrier with {{\n{CHAINS[name]}}}")
    source = workdir / "chains.lib"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["lib", str(source), "--constructions", ALL_KINDS, "--out", "out"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith("theories=4 definitions=32 ")


def test_missing_input_file_is_reported(workdir, capsys):
    assert main(["gen", "nope.eqt"]) == 1
    assert main(["lib", "nope.lib"]) == 1
    assert "nope" in capsys.readouterr().err


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"


@pytest.mark.parametrize("command", ["check", "gen", "lib"])
def test_input_that_is_not_utf8_gives_one_line(workdir, capsys, command):
    bad = workdir / ("bad.lib" if command == "lib" else "bad.eqt")
    bad.write_bytes(b"record M\xff : Set where\n")
    assert main([command, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{bad}: {NOT_UTF8}"]


def test_config_file_that_is_not_utf8_gives_one_line(workdir, capsys):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_bytes(b"out = ou\xff\n")
    assert main(["gen", "monoid.eqt"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{workdir / 'theoryforge.cfg'}: {NOT_UTF8}"]
    assert not (workdir / "generated").exists()


# a leading byte-order mark is skipped by every reader; each file is the
# same input without one
BOM_INPUTS = {
    "check": ("m.eqt", "record M (A : Set) : Set where\n  field\n    e : A\n"),
    "gen": ("m.eqt", "record M (A : Set) : Set where\n  field\n    e : A\n"),
    "lib": ("m.lib", "theory M = base { A : Set  e : A }\n"),
}


@pytest.mark.parametrize("command", sorted(BOM_INPUTS))
def test_input_that_starts_with_a_byte_order_mark_is_read(workdir, capsys, command):
    name, text = BOM_INPUTS[command]
    outputs = []
    for i, bom in enumerate(("", "\ufeff")):
        source = workdir / name
        source.write_text(bom + text, encoding="utf-8")
        flags = [] if command == "check" else ["--out", f"out{i}"]
        assert main([command, str(source), *flags]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[1].err == ""
    if command != "check":
        assert tree_hash(workdir / "out0") == tree_hash(workdir / "out1")


def test_config_file_that_starts_with_a_byte_order_mark_is_read(workdir, capsys):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text("\ufeffout = bomout\n", encoding="utf-8")
    assert main(["gen", "monoid.eqt"]) == 0
    assert capsys.readouterr().err == ""
    assert (workdir / "bomout" / "Monoid" / "module.gen.eqt").is_file()


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


def test_written_files_are_utf8_with_lf_and_replace_longer_files(workdir):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out"]) == 0
    first = tree_hash(workdir / "out")
    files = sorted(p for p in (workdir / "out").rglob("*") if p.is_file())
    assert "→".encode("utf-8") in (workdir / "out" / "Monoid" / "module.gen.eqt").read_bytes()
    for p in files:
        data = p.read_bytes()
        data.decode("utf-8")
        assert b"\r" not in data and data.endswith(b"\n")
        # a longer file left from an earlier run must not keep its tail
        p.write_bytes(data * 3)
    assert main(["gen", str(path), "--out", "out"]) == 0
    assert tree_hash(workdir / "out") == first


def test_gen_rejects_non_theory_input(workdir, capsys):
    bad = workdir / "data.eqt"
    bad.write_text("data D : Set where\n", encoding="utf-8")
    assert main(["gen", str(bad), "--out", "out"]) == 3
    assert "not a record" in capsys.readouterr().err


def test_gen_shape_error_names_the_theory_once(workdir, capsys):
    path = workdir / "twosorts.eqt"
    path.write_text("record M (A : Set) : Set where\n  field\n    B : Set\n", encoding="utf-8")
    assert main(["gen", str(path), "--out", "out"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{path}: M: multiple sorts (A, B); theories are single-sorted"]
    assert not (workdir / "out").exists()


def test_gen_refuses_an_axiom_among_the_parameters(workdir, capsys):
    # the constructions read the parameters as the sort and operations
    path = workdir / "axparam.eqt"
    path.write_text(
        "record M (A : Set) (lu : (x : A) → x == x) : Set where\n  field\n    e : A\n", encoding="utf-8"
    )
    assert main(["check", str(path)]) == 0
    assert main(["gen", str(path), "--constructions", "sig,prod,hom", "--out", "out"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{path}: M: axiom 'lu' is a record parameter; parameters must be the sort and operations"
    ]
    assert not (workdir / "out").exists()


def test_gen_unknown_construction_is_named(workdir, capsys):
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out", "--constructions", "sig,bogus"]) == 3
    assert capsys.readouterr().err.splitlines() == ["unknown construction 'bogus'"]


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


@pytest.mark.parametrize("suffix", ["a b", "", "-", "--x"])
def test_gen_rejects_malformed_suffix(workdir, capsys, suffix):
    # "x-" and "x--x" would not read back as one name: the lexer splits them
    path = copy_fixture("monoid.eqt", workdir)
    assert main(["gen", str(path), "--out", "out", "--suffix", f"sig={suffix}"]) == 3
    assert capsys.readouterr().err == f"suffix {suffix!r} would not form valid names\n"
    assert not (workdir / "out").exists()


TAKES_NO_SUFFIX = "takes no suffix (only sig, prod, termlang, open-termlang do)"


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--suffix", "hom=Q"], None, f"construction 'hom' {TAKES_NO_SUFFIX}"),
        ([], "suffix.mono = Q\n", f"{{cfg}}: construction 'mono' {TAKES_NO_SUFFIX}"),
        (["--suffix", "endo=S"], None, f"construction 'endo' {TAKES_NO_SUFFIX}"),
    ],
    ids=["hom-flag", "mono-in-the-config-file", "endo-flag"],
)
def test_gen_refuses_a_suffix_for_a_construction_that_takes_none(workdir, capsys, flags, config, message):
    path = copy_fixture("monoid.eqt", workdir)
    if config is not None:
        (workdir / "theoryforge.cfg").write_text(config, encoding="utf-8")
    assert main(["gen", str(path), "--out", "out", *flags]) == 3
    assert capsys.readouterr().err == message.format(cfg=workdir / "theoryforge.cfg") + "\n"
    assert not (workdir / "out").exists()


def test_a_suffix_that_spells_a_reserved_word_gives_a_primed_name(workdir, capsys):
    # Se with the sig suffix t would be Set, a reserved word
    source = workdir / "m.eqt"
    source.write_text("record M (Se : Set) : Set where\n  field\n    op : Se → Se → Se\n", encoding="utf-8")
    assert main(["gen", str(source), "--out", "out", "--suffix", "sig=t"]) == 0
    sig = (workdir / "out" / "M" / "MSig.gen.eqt").read_text(encoding="utf-8")
    assert "record MSig (Set' : Set) : Set where" in sig
    assert "opt : Set' → Set' → Set'" in sig
    assert main(["check", str(workdir / "out" / "M" / "module.gen.eqt")]) == 0
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


@given(st.text(alphabet="aZ9_'-² (→", max_size=4))
@example("Sg")
@example("-x")
@example("'")
def test_every_accepted_sig_suffix_generates(tmp_path_factory, suffix):
    # a suffix the configuration accepts never trips check-before-write
    workdir = tmp_path_factory.mktemp("suffix")
    args = argparse.Namespace(
        constructions=None, out=str(workdir / "out"), suffix=[f"sig={suffix}"], jobs=None, orient_assoc=False
    )
    try:
        cfg = build_config(args, cwd=workdir)
    except ValueError:
        return
    assert cmd_gen(DATA / "monoid.eqt", cfg) == 0
    assert (workdir / "out" / "Monoid" / "MonoidSig.gen.eqt").is_file()


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


def _exit_code(argv: list[str]) -> int:
    """The code ``theoryforge`` exits with: what ``main`` returns, or the
    code of the ``SystemExit`` that argparse raises."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


# command lines refused before any input is read, exit 3: argparse's usage
# text and message (the last line begins with the message), or the one
# line of ``build_config``
REFUSED = {
    "jobs not an integer": (
        ["gen", "monoid.eqt", "--jobs", "abc"],
        True,
        "theoryforge gen: error: argument --jobs: invalid int value: 'abc'",
    ),
    "unknown subcommand": (["frob"], True, "theoryforge: error: argument command: invalid choice: 'frob'"),
    "check without a file": (["check"], True, "theoryforge check: error: the following arguments are required: files"),
    "no subcommand": ([], True, "theoryforge: error: the following arguments are required: command"),
    "unknown flag": (["lib", "x.lib", "--frob"], True, "theoryforge: error: unrecognized arguments: --frob"),
    "jobs below one": (["gen", "monoid.eqt", "--jobs", "0"], False, "--jobs must be at least 1"),
    "unknown construction": (["gen", "monoid.eqt", "--constructions", "bogus"], False, "unknown construction 'bogus'"),
    "suffix without an equals sign": (
        ["gen", "monoid.eqt", "--suffix", "sigS"], False, "--suffix expects KIND=STR, got 'sigS'"
    ),
}


@pytest.mark.parametrize("argv, usage, message", REFUSED.values(), ids=list(REFUSED))
def test_a_refused_command_line_exits_three(workdir, capsys, argv, usage, message):
    copy_fixture("monoid.eqt", workdir)
    assert _exit_code(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    if usage:
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: theoryforge")
        assert lines[-1].startswith(message) and len(lines) >= 2
    else:
        assert captured.err == message + "\n"
    assert not (workdir / "generated").exists()


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]], ids=["theoryforge", "gen"])
def test_help_exits_zero(workdir, capsys, argv):
    assert _exit_code(argv) == 0
    assert capsys.readouterr().out.startswith("usage: theoryforge")


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


def test_lib_shape_error_names_the_theory_once(workdir, capsys):
    lib = workdir / "two.lib"
    lib.write_text("theory T = base { A : Set  B : Set }\n", encoding="utf-8")
    assert main(["lib", str(lib), "--out", "libout"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{lib}: while expanding 'T': multiple sorts (A, B); theories are single-sorted"
    ]


@pytest.mark.parametrize("name", sorted(SHADOWING_LIBRARIES))
def test_lib_refuses_an_operation_named_like_an_axiom_variable(workdir, capsys, name):
    lib = workdir / "shadow.lib"
    lib.write_text(SHADOWING_LIBRARIES[name], encoding="utf-8")
    assert main(["lib", str(lib), "--out", "libout"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{lib}: while expanding 'CommX': axiom 'comm': variable 'x' shadows another name"
    ]
    assert not (workdir / "libout").exists()


@pytest.mark.parametrize("name, entry", [("extend", "D"), ("combine", "M")])
def test_lib_refuses_a_variable_named_like_an_earlier_axiom(workdir, capsys, name, entry):
    lib = workdir / "ax.lib"
    lib.write_text(EARLIER_AXIOM_LIBRARIES[name], encoding="utf-8")
    for jobs in ([], ["--jobs", "1"]):
        assert main(["lib", str(lib), "--out", "libout", *jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{lib}: while expanding '{entry}': axiom 'e': variable 'x' shadows another name"
        ]
        assert not (workdir / "libout").exists()


@pytest.mark.parametrize(
    "renaming, message",
    [
        ("e to g, f to g", "renaming produces duplicate names"),
        ("e to g, x to g", "renaming of undeclared names: x"),
        ("e to f", "renaming produces duplicate names"),
    ],
    ids=["two-to-one", "undeclared", "onto-a-declared-name"],
)
def test_lib_refuses_a_renaming_that_is_not_injective_once(workdir, capsys, renaming, message):
    lib = workdir / "rename.lib"
    lib.write_text(
        f"theory C = base {{ A : Set  e : A  f : A → A }}\ntheory Q = rename C renaming ({renaming})\n",
        encoding="utf-8",
    )
    for jobs in ([], ["--jobs", "1"]):
        assert main(["lib", str(lib), "--out", "libout", *jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"{lib}: while expanding 'Q': {message}"]
        assert not (workdir / "libout").exists()


def test_check_refuses_a_variable_named_like_a_later_operation(workdir, capsys):
    source = workdir / "m.eqt"
    source.write_text(
        "record M (A : Set) : Set where\n  field\n    op : A → A → A\n"
        "    comm : (x y : A) → op x y == op y x\n    x : A\n",
        encoding="utf-8",
    )
    assert main(["check", str(source)]) == 2
    out = capsys.readouterr().out
    assert out == f"{source}:4:12: DuplicateField: binder 'x' shadows another name\n"
    assert main(["gen", str(source), "--out", "out"]) == 2
    assert capsys.readouterr().out == out
    assert not (workdir / "out").exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("gen", "record R : Set where\n  field\n    e : Set\n    A : e == e\n",
         "R: axiom 'A', left side: 'e' is a type, not a term"),
        ("lib", "theory C = base { A : Set }\ntheory S = extend C with { ax : A == A }\n",
         "while expanding 'S': axiom 'ax', left side: 'A' is a type, not a term"),
        ("lib", "theory C = base { A : Set }\ntheory S = extend C with { op : A → A → A  ax : (x : A) → op A x == x }\n",
         "while expanding 'S': axiom 'ax', left side: 'A' is a type, not a term"),
    ],
    ids=["record", "library", "library-argument"],
)
def test_an_equation_between_sorts_names_its_fault(workdir, capsys, command, text, message):
    path = workdir / f"sorts.{'eqt' if command == 'gen' else 'lib'}"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path), "--out", "out"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{path}: {message}"]
    assert not (workdir / "out").exists()


def test_lib_accepts_orient_assoc_flag(workdir):
    lib = workdir / "one.lib"
    lib.write_text("theory Carrier = base { A : Set }\n", encoding="utf-8")
    assert main(["lib", str(lib), "--out", "libout", "--orient-assoc"]) == 0


def test_lib_output_and_summary_are_the_same_on_any_number_of_processes(workdir, capsys):
    # 62 theories split 31/31 over two processes and 21/21/20 over three;
    # the default is one process per usable CPU
    kinds = "sig,prod,termlang,open-termlang,hom,mono,endo"
    runs = {}
    for jobs in ("1", "2", "3", "default"):
        out = f"out{jobs}"
        argv = ["lib", str(standard_library_path()), "--constructions", kinds, "--out", out]
        assert main(argv if jobs == "default" else [*argv, "--jobs", jobs]) == 0
        runs[jobs] = (tree_hash(workdir / out), capsys.readouterr())
        assert no_child_left()
    assert runs["1"] == runs["2"] == runs["3"] == runs["default"]
    assert runs["1"][0] == "6c740ad5b1f1bcd0fc60238dc63685454050aab3d5f312f089d29a6e1a75abce"
    assert runs["1"][1].out == "theories=62 definitions=496 lines=3907\n"


def _plain(name: str) -> str:
    return f"record {name} (A : Set) : Set where\n  field\n    op{name} : A → A → A\n"


@pytest.fixture()
def rejected(monkeypatch):
    """Make ``cli.gen_all`` add, for every theory but Monoid, a construction
    its module fails to check: a data type over an undeclared type.  Forked
    workers inherit the patch."""
    from theoryforge import cli

    gen_all = cli.gen_all

    def with_rejected(t, *args, **kwargs):
        decls = gen_all(t, *args, **kwargs)
        if t.name != "Monoid":
            decls.append(DataDecl(t.name + "Bad", [], [Constr("bad", Arrow(SortRef("No"), SortRef("No")))]))
        return decls

    monkeypatch.setattr(cli, "gen_all", with_rejected)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_gen_writes_no_file_of_a_theory_whose_module_fails_its_check(workdir, capsys, rejected, jobs):
    # at --jobs 2, Mo is the second theory and runs in a forked process
    source = workdir / "mo.eqt"
    monoid = (DATA / "monoid.eqt").read_text(encoding="utf-8")
    source.write_text(monoid + "\n" + _plain("Mo"), encoding="utf-8")
    assert main(["gen", str(source), "--constructions", "hom,endo", "--out", "out", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "out/Mo/module.gen.eqt:19:9: UnboundName: unknown type 'No'",
        "out/Mo/module.gen.eqt:19:14: UnboundName: unknown type 'No'",
    ]
    assert captured.err == ""
    assert not (workdir / "out" / "Mo").exists()
    assert sorted(p.name for p in (workdir / "out" / "Monoid").iterdir()) == [
        "MonoidEnd.gen.eqt", "MonoidHom.gen.eqt", "module.gen.eqt",
    ]


@pytest.fixture()
def unparsable(monkeypatch):
    """Make ``cli.print_decl`` append `` )`` to Mo's printed hom, so Mo's
    module does not reparse.  Forked workers inherit the patch."""
    from theoryforge import cli

    print_decl = cli.print_decl

    def with_unparsable(d):
        text = print_decl(d)
        return text + " )" if d.name == "MoHom" else text

    monkeypatch.setattr(cli, "print_decl", with_unparsable)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_gen_writes_no_file_of_a_theory_whose_module_does_not_reparse(workdir, capsys, unparsable, jobs):
    # at --jobs 2, Mo is the second theory and runs in a forked process
    source = workdir / "mo.eqt"
    monoid = (DATA / "monoid.eqt").read_text(encoding="utf-8")
    source.write_text(monoid + "\n" + _plain("Mo"), encoding="utf-8")
    assert main(["gen", str(source), "--constructions", "hom,endo", "--out", "out", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "out/Mo/module.gen.eqt:10:90: ParseError: expected 'record' or 'data', got ')'",
    ]
    assert captured.err == ""
    assert sorted(p.name for p in (workdir / "out").iterdir()) == ["Monoid"]
    assert sorted(p.name for p in (workdir / "out" / "Monoid").iterdir()) == [
        "MonoidEnd.gen.eqt", "MonoidHom.gen.eqt", "module.gen.eqt",
    ]


def test_gen_check_failures_print_the_same_on_any_number_of_processes(workdir, capsys, rejected):
    monoid = (DATA / "monoid.eqt").read_text(encoding="utf-8")
    source = workdir / "caps.eqt"
    records = [_plain("Mo"), _plain("Qu"), monoid, _plain("Ri")]
    source.write_text("\n".join(records), encoding="utf-8")
    runs = []
    for jobs in ("1", "2", "3"):
        assert main(["gen", str(source), "--constructions", "hom,endo", "--out", "out", "--jobs", jobs]) == 2
        assert sorted(p.name for p in (workdir / "out").iterdir()) == ["Monoid"]
        runs.append((tree_hash(workdir / "out"), capsys.readouterr()))
        shutil.rmtree(workdir / "out")
    assert runs[0] == runs[1] == runs[2]
    out = runs[0][1].out.splitlines()
    assert [line.split("/")[1] for line in out] == ["Mo"] * 2 + ["Qu"] * 2 + ["Ri"] * 2


def test_gen_failure_names_the_first_failing_theory_on_any_number_of_processes(workdir, capsys):
    # "write": regular files stand where A1's and A2's output directories
    # go, so both fail to write; at --jobs 2 A2 (index 2) fails in this
    # process and A1 (index 1) in the forked one, and A1 is reported.
    # "generation": W's sort is a field, so its hom cannot be generated.
    # "shape": W has two sorts, so it is not a theory.
    # "not-a-record": D is a data type.
    # In every row, every other theory is written, on any number of processes.
    monoid = (DATA / "monoid.eqt").read_text(encoding="utf-8")
    waist_zero = "record W : Set where\n  field\n    A : Set\n"
    two_sorts = "record W (A : Set) : Set where\n  field\n    B : Set\n"
    rows = {
        "write": (_plain("A1"), ["A1", "A2"], ["A3", "Monoid"], None),
        "generation": (
            waist_zero, [], ["A2", "A3", "Monoid"],
            "W: homomorphisms need the carrier as a record parameter (waist >= 1)",
        ),
        "shape": (two_sorts, [], ["A2", "A3", "Monoid"], "W: multiple sorts (A, B); theories are single-sorted"),
        "not-a-record": ("data D : Set where\n", [], ["A2", "A3", "Monoid"], "D is not a record, nothing to generate"),
    }
    out = workdir / "out"
    for row, (second, blocked, written, message) in rows.items():
        source = workdir / f"{row}.eqt"
        source.write_text("\n".join([monoid, second, _plain("A2"), _plain("A3")]), encoding="utf-8")
        runs = []
        for jobs in ("1", "2", "3", "default"):
            out.mkdir()
            for name in blocked:
                (out / name).write_text("", encoding="utf-8")
            argv = ["gen", str(source), "--out", "out"]
            code = main(argv if jobs == "default" else [*argv, "--jobs", jobs])
            runs.append((code, capsys.readouterr(), tree_hash(out)))
            assert sorted(p.name for p in out.iterdir() if p.is_dir()) == written
            assert all((out / name / "module.gen.eqt").is_file() for name in written)
            assert no_child_left()
            shutil.rmtree(out)
        assert all(run == runs[0] for run in runs), row
        code, captured, _ = runs[0]
        assert code == 3 and captured.out == ""
        if message is None:
            assert captured.err.startswith(f"{source}: cannot write to out: ")
            assert "'out/A1'" in captured.err and "A2" not in captured.err
            assert captured.err.count("\n") == 1
        else:
            assert captured.err == f"{source}: {message}\n", row


def test_gen_reports_the_first_failure_in_input_order_whatever_its_kind(workdir, capsys):
    # W fails in generation and W2 is not a theory; W comes first in the
    # file, so W is reported, on whichever process each of them ran
    source = workdir / "order.eqt"
    source.write_text(
        "record W : Set where\n  field\n    A : Set\n\nrecord W2 (A : Set) : Set where\n  field\n    B : Set\n",
        encoding="utf-8",
    )
    for jobs in ("1", "2", "3", "default"):
        argv = ["gen", str(source), "--out", "out"]
        assert main(argv if jobs == "default" else [*argv, "--jobs", jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{source}: W: homomorphisms need the carrier as a record parameter (waist >= 1)\n"
        assert not (workdir / "out").exists()
        assert no_child_left()



def test_a_write_that_fails_part_way_leaves_none_of_the_theorys_files(workdir, capsys):
    # the files are written in name order: A1End ... A1Prod go out before
    # A1Sig, where a directory stands, and module.gen.eqt would come last
    source = workdir / "a1.eqt"
    source.write_text(_plain("A1"), encoding="utf-8")
    (workdir / "out" / "A1" / "A1Sig.gen.eqt").mkdir(parents=True)
    argv = ["gen", str(source), "--constructions", ",".join(k.value for k in GenKind), "--out", "out"]
    assert main([*argv, "--jobs", "1"]) == 3
    assert capsys.readouterr().err.startswith(f"{source}: cannot write to out: ")
    assert [p.name for p in (workdir / "out" / "A1").iterdir()] == ["A1Sig.gen.eqt"]
    assert (workdir / "out" / "A1" / "A1Sig.gen.eqt").is_dir()

# each record passes check, and at the parent of the fresh-name supply each
# one failed under gen with all seven constructions
CLASHES = {
    "instance-name": "record Mo (A : Set) : Set where\n  field\n    Mo1 : A → A → A\n",
    "fst": "record M (A : Set) : Set where\n  field\n    fst : A → A → A\n",
    "suffixed-field": "record M (A : Set) : Set where\n  field\n    e : A\n    eS : A\n",
    "hom": "record M (A : Set) : Set where\n  field\n    hom : A → A → A\n",
    "v": "record M (A : Set) : Set where\n  field\n    v : A → A\n",
    "injective": "record M (A : Set) : Set where\n  field\n    injective : A → A\n",
    "Prod": "record Prod (A : Set) : Set where\n  field\n    op : A → A → A\n",
    "bound-variable": (
        "record M (A : Set) : Set where\n  field\n    op : A → A → A\n"
        "    comm : {opS y : A} → op opS y == op y opS\n"
    ),
    "bound-variable-in-product": (
        "record M (A : Set) : Set where\n  field\n    op : A → A → A\n"
        "    comm : {opP y : A} → op opP y == op y opP\n"
    ),
    "axiom-names": (
        "record M (A : Set) : Set where\n  field\n    e : A\n    op : A → A → A\n"
        "    lunit : {x : A} → op e x == x\n    lunit_e : {x : A} → op x x == x\n"
    ),
    "constructor": "record M (A : Set) : Set where\n  constructor hom\n  field\n    op : A → A → A\n",
}


@pytest.mark.parametrize("name", sorted(CLASHES))
def test_gen_gives_clean_modules_where_generated_names_would_clash(workdir, capsys, name):
    # the clash record comes second, so at --jobs 2 it runs in a forked process
    source = workdir / "clash.eqt"
    source.write_text("record Carrier (B : Set) : Set where\n\n" + CLASHES[name], encoding="utf-8")
    kinds = "sig,prod,termlang,open-termlang,hom,mono,endo"
    trees = []
    for jobs in ("1", "2"):
        out = workdir / f"out{jobs}"
        assert main(["gen", str(source), "--constructions", kinds, "--out", str(out), "--jobs", jobs]) == 0
        modules = sorted(out.glob("*/module.gen.eqt"))
        assert len(modules) == 2
        assert main(["check", *map(str, modules)]) == 0
        trees.append(tree_hash(out))
    assert trees[0] == trees[1]
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


# in each library, the last theory has a member named like its default
# constructor, <Name>C, which the embedded record then spells <Name>C'
CONSTRUCTOR_CLASHES = {
    "extend": ("theory Carrier = base { A : Set }\ntheory M = extend Carrier with { MC : A }\n", "M"),
    "base": ("theory M = base { A : Set  MC : A }\n", "M"),
    "rename": (
        "theory Carrier = base { A : Set }\ntheory Magma = extend Carrier with { op : A → A → A }\n"
        "theory Q = rename Magma renaming (op to QC)\n",
        "Q",
    ),
}


@pytest.mark.parametrize("source, name", CONSTRUCTOR_CLASHES.values(), ids=list(CONSTRUCTOR_CLASHES))
def test_lib_primes_a_default_constructor_that_a_member_takes(workdir, capsys, source, name):
    lib = workdir / "clash.lib"
    lib.write_text(source, encoding="utf-8")
    assert main(["lib", str(lib), "--constructions", ALL_KINDS, "--out", "out"]) == 0
    module = workdir / "out" / name / "module.gen.eqt"
    assert f"\n  constructor {name}C'\n" in module.read_text(encoding="utf-8")
    assert main(["check", str(module)]) == 0
    assert capsys.readouterr().err == ""


def test_a_record_whose_member_takes_the_default_constructor_name_fails_check(workdir, capsys):
    # the parser keeps the plain default: only an embedded theory is primed
    source = workdir / "m.eqt"
    source.write_text("record M (A : Set) : Set where\n  field\n    MC : A\n", encoding="utf-8")
    assert main(["check", str(source)]) == 2
    assert "DuplicateField: member name 'MC' is already used" in capsys.readouterr().out


@pytest.mark.parametrize("params, field", [("(A : Set)", "A"), ("(A : Set) (e : A)", "e")], ids=["sort", "term"])
def test_a_field_that_repeats_a_parameter_name_fails_check_and_gen(workdir, capsys, params, field):
    # gen would otherwise find the name declared twice in the theory
    source = workdir / "r.eqt"
    source.write_text(f"record R {params} : Set where\n  field\n    {field} : A\n", encoding="utf-8")
    assert main(["check", str(source)]) == 2
    out = capsys.readouterr().out
    assert out == f"{source}:3:5: DuplicateField: field {field!r} repeats a parameter name\n"
    assert main(["gen", str(source), "--out", "out"]) == 2
    assert capsys.readouterr().out == out
    assert not (workdir / "out").exists()


def test_out_on_a_regular_file_fails_the_same_on_any_number_of_processes(workdir, capsys):
    (workdir / "taken").write_text("", encoding="utf-8")
    errors = []
    for jobs in ("1", "2"):
        assert main(["lib", str(standard_library_path()), "--out", "taken", "--jobs", jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
        assert no_child_left()
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{standard_library_path()}: cannot write to taken: ")
    assert errors[0].count("\n") == 1


def test_a_worker_that_dies_is_an_error_and_leaves_no_child_behind(workdir, monkeypatch):
    from theoryforge import cli

    main_pid = os.getpid()
    run_theory = cli._run_theory

    def dying(*args):
        if os.getpid() != main_pid:
            os._exit(7)
        return run_theory(*args)

    monkeypatch.setattr(cli, "_run_theory", dying)
    with pytest.raises(RuntimeError, match="exited with code 7"):
        main(["lib", str(standard_library_path()), "--out", "out", "--jobs", "3"])
    assert no_child_left()


def test_a_worker_that_raises_is_an_error_and_leaves_no_child_behind(workdir, monkeypatch, capfd):
    from theoryforge import cli

    main_pid = os.getpid()
    run_theory = cli._run_theory

    def raising(*args):
        if os.getpid() != main_pid:
            raise ValueError("unexpected in a worker")
        return run_theory(*args)

    monkeypatch.setattr(cli, "_run_theory", raising)
    with pytest.raises(RuntimeError, match="exited with code 1 before reporting"):
        main(["lib", str(standard_library_path()), "--out", "out", "--jobs", "3"])
    assert no_child_left()
    # each of the two workers prints its own traceback
    assert capfd.readouterr().err.count("ValueError: unexpected in a worker") == 2


# -- default number of processes -----------------------------------------------------------

def test_the_default_run_equals_a_run_on_one_process_when_a_module_fails_its_check(workdir, capsys, rejected):
    source = workdir / "mo.eqt"
    monoid = (DATA / "monoid.eqt").read_text(encoding="utf-8")
    source.write_text(monoid + "\n" + _plain("Mo"), encoding="utf-8")
    runs = []
    for jobs in ([], ["--jobs", "1"]):
        code = main(["gen", str(source), "--constructions", "hom,endo", "--out", "out", *jobs])
        runs.append((code, tree_hash(workdir / "out"), capsys.readouterr()))
        shutil.rmtree(workdir / "out")
    assert runs[0] == runs[1]
    assert runs[0][0] == 2 and runs[0][2].out.count("UnboundName") == 2


def test_the_default_is_one_process_per_usable_cpu_up_to_the_number_of_theories(workdir, monkeypatch):
    from theoryforge import cli

    counts = []

    def in_this_process(run_share, n):
        counts.append(n)
        return [run_share(k, n) for k in range(n)]

    # 64 CPUs, without forking 64 processes: the shares run one after another here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(cli, "_run_shares", in_this_process)
    assert main(["lib", str(standard_library_path()), "--out", "lib"]) == 0
    source = workdir / "two.eqt"
    source.write_text((DATA / "monoid.eqt").read_text(encoding="utf-8") + "\n" + _plain("Mo"), encoding="utf-8")
    assert main(["gen", str(source), "--out", "gen"]) == 0
    assert main(["gen", str(source), "--out", "gen1", "--jobs", "1"]) == 0
    assert counts == [62, 2, 1]
    assert tree_hash(workdir / "gen") == tree_hash(workdir / "gen1")


def test_the_default_falls_back_to_the_cpu_count_then_to_one(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _process_count(None, 62) == 5
    assert _process_count(None, 3) == 3
    assert _process_count(8, 62) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _process_count(None, 62) == 1


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["default", "jobs-2"])
def test_a_process_that_runs_another_thread_does_not_fork(workdir, monkeypatch, capsys, jobs):
    def refuse():
        raise AssertionError("forked while another thread runs")

    monkeypatch.setattr(os, "fork", refuse)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(["lib", str(standard_library_path()), "--out", "out", *jobs]) == 0
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert capsys.readouterr().out.startswith("theories=62 ")


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


def test_config_file_and_the_same_flags_write_the_same_tree(workdir, monkeypatch, capsys):
    lib = str(standard_library_path())
    by_cfg, by_flags = workdir / "by-cfg", workdir / "by-flags"
    by_cfg.mkdir()
    by_flags.mkdir()
    (by_cfg / "theoryforge.cfg").write_text(
        f"constructions = sig,prod,hom\nsuffix.sig = Sg\njobs = 1\nout = {workdir / 'cfg-tree'}\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(by_cfg)
    assert main(["lib", lib]) == 0
    cfg_run = capsys.readouterr()
    monkeypatch.chdir(by_flags)
    argv = ["lib", lib, "--constructions", "sig,prod,hom", "--suffix", "sig=Sg", "--jobs", "1"]
    assert main([*argv, "--out", str(workdir / "flag-tree")]) == 0
    assert capsys.readouterr() == cfg_run
    assert "ASg : Set" in (workdir / "cfg-tree" / "Monoid" / "MonoidSig.gen.eqt").read_text(encoding="utf-8")
    assert tree_hash(workdir / "cfg-tree") == tree_hash(workdir / "flag-tree")


# a theoryforge.cfg that gen refuses, the flags given with it, and the one
# stderr line, which names the file: every value in the file is read, even
# one a flag overrides, and the line syntax before any value
CONFIG_REFUSED = {
    "unknown-key": ("construction = sig\n", [], "unknown key 'construction'"),
    "jobs-not-an-integer": ("jobs = two\n", [], "jobs must be an integer, got 'two'"),
    "jobs-below-one": ("jobs = 0\n", [], "jobs must be at least 1"),
    "misspelt-orient-assoc": ("orient-assoc = ture\n", [], "orient-assoc must be true or false, got 'ture'"),
    "line-without-equals": ("nonsense\n", [], "malformed line 'nonsense'"),
    "duplicate-key": ("out = a\nout = b\n", [], "duplicate key 'out'"),
    "syntax-before-values": ("construction = sig\nout = a\nout = b\n", [], "duplicate key 'out'"),
    "unknown-construction": ("constructions = sig,bogus\n", [], "unknown construction 'bogus'"),
    "suffix-of-an-unknown-construction": ("suffix.bogus = X\n", [], "unknown construction 'bogus'"),
    "malformed-suffix": ("suffix.sig = -\n", [], "suffix '-' would not form valid names"),
    "overridden-constructions": ("constructions = bogus\n", ["--constructions", "sig"], "unknown construction 'bogus'"),
    "overridden-jobs": ("jobs = 0\n", ["--jobs", "2"], "jobs must be at least 1"),
}


@pytest.mark.parametrize("config, flags, message", CONFIG_REFUSED.values(), ids=list(CONFIG_REFUSED))
def test_config_file_refuses_a_bad_setting(workdir, capsys, config, flags, message):
    copy_fixture("monoid.eqt", workdir)
    (workdir / "theoryforge.cfg").write_text(config, encoding="utf-8")
    assert main(["gen", "monoid.eqt", *flags]) == 3
    assert capsys.readouterr() == ("", f"{workdir / 'theoryforge.cfg'}: {message}\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["monoid.eqt", "theoryforge.cfg"]


def test_config_file_supplies_jobs_and_the_flag_wins(workdir):
    (workdir / "theoryforge.cfg").write_text("jobs = 3\n", encoding="utf-8")
    ns = argparse.Namespace(constructions=None, out=None, suffix=None, jobs=None, orient_assoc=False)
    assert build_config(ns, cwd=workdir).jobs == 3
    ns.jobs = 2
    assert build_config(ns, cwd=workdir).jobs == 2
    (workdir / "theoryforge.cfg").unlink()
    ns.jobs = None
    assert build_config(ns, cwd=workdir).jobs is None
    assert _process_count(None, 62) == min(len(os.sched_getaffinity(0)), 62)


def test_config_file_skips_comments_and_blank_lines_and_reads_orient_assoc(workdir):
    (workdir / "theoryforge.cfg").write_text("# defaults\n\n   \n  # indented\norient-assoc = yes\n", encoding="utf-8")
    ns = argparse.Namespace(constructions=None, out=None, suffix=None, jobs=None, orient_assoc=False)
    cfg = build_config(ns, cwd=workdir)
    assert cfg.force_orient_assoc is True
    assert (cfg.jobs, cfg.out_dir) == (None, Path("generated"))


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


def test_a_refused_command_line_exits_three_from_the_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "theoryforge", "frob"],
        capture_output=True,
        text=True,
        cwd=Path(theoryforge.__file__).parents[1],
    )
    assert proc.returncode == 3
    assert proc.stdout == "" and proc.stderr.startswith("usage: theoryforge")


def _heavy_modules_around_a_run(lib: Path, out: Path, jobs: str) -> list[str]:
    script = (
        "import sys, theoryforge.cli\n"
        "heavy = ('multiprocessing', 'concurrent.futures')\n"
        "print([m for m in heavy if m in sys.modules])\n"
        f"code = theoryforge.cli.main(['lib', {str(lib)!r}, '--out', {str(out)!r}, '--jobs', {jobs!r}])\n"
        "print(code, [m for m in heavy if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=Path(theoryforge.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_and_a_serial_run_leave_the_process_machinery_unloaded(tmp_path):
    lib = tmp_path / "one.lib"
    lib.write_text("theory Carrier = base { A : Set }\n", encoding="utf-8")
    lines = _heavy_modules_around_a_run(lib, tmp_path / "out", "1")
    assert lines == ["[]", "theories=1 definitions=5 lines=21", "0 []"]


def test_a_parallel_run_leaves_the_process_machinery_unloaded(tmp_path):
    lib = tmp_path / "two.lib"
    lib.write_text(
        "theory Carrier = base { A : Set }\ntheory Magma = extend Carrier with { op : A → A → A }\n",
        encoding="utf-8",
    )
    lines = _heavy_modules_around_a_run(lib, tmp_path / "out", "2")
    assert lines[0] == "[]" and lines[-1] == "0 []"


# each entry point, with modules it must not load: the engine, dataclasses
# and inspect cost a CLI run import time and are never run by it, nor is
# multiprocessing or importlib.resources; only a parallel run loads pickle,
# when it forks; an engine user runs none of the generators, printer, checker
# or CLI.  The child runs without ``site``, whose ``.pth`` files may import
# modules of their own
IMPORT_FOOTPRINTS = {
    "cli": (
        "import theoryforge.cli",
        ["dataclasses", "importlib.resources", "inspect", "multiprocessing", "pickle", "theoryforge.engine"],
    ),
    "engine": (
        "from theoryforge import combinators, engine",
        [
            "dataclasses",
            "inspect",
            "theoryforge.checker",
            "theoryforge.cli",
            "theoryforge.generators",
            "theoryforge.printer",
        ],
    ),
}


@pytest.mark.parametrize("statement, unloaded", IMPORT_FOOTPRINTS.values(), ids=list(IMPORT_FOOTPRINTS))
def test_an_entry_point_loads_only_what_it_runs(statement, unloaded):
    script = f"import sys\n{statement}\nprint(sorted(set({unloaded!r}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        cwd=Path(theoryforge.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_engine_names_are_served_by_the_package():
    from theoryforge import TOp, normalize
    from theoryforge import engine

    assert normalize is engine.normalize and TOp is engine.TOp
    assert all(hasattr(theoryforge, name) for name in theoryforge.__all__)
    assert set(theoryforge.__all__) <= set(dir(theoryforge))
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


def test_lib_run_calls_every_name_the_traced_benchmark_requires(workdir, monkeypatch):
    # the traced lib run of the benchmark (LIB_SPANS in perfbench/run.py)
    # fails unless each of these wrapped names records a span
    from theoryforge import cli, combinators

    called: set[str] = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    wrapped = [
        (cli, "load_library"),
        (combinators, "parse_library"),
        (combinators, "expand_library"),
        (cli, "gen_all"),
        (cli, "print_decl"),
        (cli, "print_module"),
        (cli, "embed"),
    ]
    for module, attr in wrapped:
        monkeypatch.setattr(module, attr, counting(f"{module.__name__}.{attr}", getattr(module, attr)))
    lib = workdir / "small.lib"
    lib.write_text("theory Carrier = base { A : Set }\n", encoding="utf-8")
    assert main(["lib", str(lib), "--out", "out"]) == 0
    assert called == {f"{module.__name__}.{attr}" for module, attr in wrapped}
