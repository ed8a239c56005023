"""Random records through the command line, nested up to the parser's
200-level limit and one level past it, and near misses of what generation
supports: a record within the limit checks, generates all seven
constructions and gives modules that check; one level deeper is one
``ParseError`` at the opening token; a near miss gives one line per
fault and never a traceback."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from theoryforge.cli import main

# the parser's limit, pinned here rather than read from the parser
MAX_NESTING = 200
ALL_KINDS = "sig,prod,termlang,open-termlang,hom,mono,endo"


def _wrap(text: str, depth: int) -> str:
    return "(" * depth + text + ")" * depth


def _first_too_deep(text: str) -> tuple[int, int] | None:
    """Line and column, from 1, of the first bracket that opens a level
    past ``MAX_NESTING``: each parenthesis and each binder group is one
    level, and the records below spell no bracket in a comment."""
    depth = 0
    for line_no, line in enumerate(text.split("\n"), 1):
        for col, c in enumerate(line, 1):
            if c in "({":
                depth += 1
                if depth > MAX_NESTING:
                    return line_no, col
            elif c in ")}":
                depth -= 1
    return None


# one nest of ``depth`` levels, by the position it nests in; ``op`` is binary
DEEP = {
    "type parentheses": lambda d: f"    deep : {_wrap('A', d)}\n",
    "arrow codomains": lambda d: "    deep : " + "A → (" * d + "A" + ")" * d + "\n",
    "operands": lambda d: "    deep : (x : A) → " + "op x (" * d + "x" + ")" * d + " == x\n",
    "operand parentheses": lambda d: f"    deep : (x : A) → op {_wrap('x', d)} x == x\n",
    "quantifier bodies": lambda d: "    deep : "
    + "".join(f"(q{i} : A) → (" for i in range(d))
    + "op q0 q0 == q0"
    + ")" * d
    + "\n",
    "binder types": lambda d: f"    deep : (x : {_wrap('A', d - 1)}) → op x x == x\n",
    # in the record header, as the sort parameter's kind
    "sort parameter": lambda d: _wrap("Set", d - 1),
}


@st.composite
def _records(draw, kind: str, depth: int) -> str:
    """A record over the sort parameter ``A`` that checks and generates:
    constants and operations of drawn arities, some in long arrow chains,
    axioms over binder groups laid out in one quantifier, curried or
    nested in parentheses, a long quantifier chain, parentheses of up to
    two levels in every type and operand position, and the nest of
    ``kind`` ``depth`` levels deep."""
    small = st.integers(0, 2)

    def arrow() -> str:
        return f" {draw(st.sampled_from(['→', '->']))} "

    def op_type(arity: int, nested: bool) -> str:
        # ``nested`` puts every codomain that is an arrow in parentheses
        parts = [_wrap("A", draw(small)) for _ in range(arity + 1)]
        text = parts[-1]
        for i, part in enumerate(reversed(parts[:-1])):
            text = part + arrow() + (f"({text})" if nested and i else text)
        return text

    arities = {"op": 2}
    for i in range(draw(st.integers(0, 3))):
        arities[f"o{i}"] = draw(st.integers(0, 3))
    fields = [f"    {name} : {op_type(n, draw(st.booleans()))}\n" for name, n in arities.items()]
    fields.append(f"    long : {op_type(draw(st.integers(0, 250)), False)}\n")

    def term(height: int, names: list[str]) -> str:
        leaves = names + [o for o, n in arities.items() if n == 0]
        nodes = [o for o, n in arities.items() if n > 0] if height else []
        head = draw(st.sampled_from(leaves + nodes))
        text = head
        for _ in range(arities.get(head, 0) if head in nodes else 0):
            arg = term(height - 1, names)
            text += " " + (f"({arg})" if " " in arg and not arg.startswith("(") else arg)
        return _wrap(text, draw(st.integers(0, 1)))

    for i in range(draw(st.integers(0, 3))):
        names = ["x", "y", "z"][: draw(st.integers(1, 3))]
        groups, rest = [], names
        while rest:
            k = draw(st.integers(1, len(rest)))
            opening, closing = draw(st.sampled_from(["()", "{}"]))
            groups.append(f"{opening}{' '.join(rest[:k])} : {_wrap('A', draw(small))}{closing}")
            rest = rest[k:]
        body = _wrap(f"{term(3, names)} == {term(3, names)}", draw(small))
        layout = draw(st.sampled_from(["one", "curried", "nested"]))
        if layout == "one":
            text = " ".join(groups) + arrow() + body
        elif layout == "curried":
            text = arrow().join(groups + [body])
        else:
            text = body
            for g in reversed(groups):
                text = g + arrow() + (f"({text})" if text is not body else text)
        fields.append(f"    ax{i} : {text}\n")
    chain = draw(st.integers(1, 250))
    fields.append(
        "    chain : " + "".join(f"(c{i} : A){arrow()}" for i in range(chain)) + f"op c0 c{chain - 1} == c0\n"
    )

    sort_kind = "Set"
    if kind == "sort parameter":
        sort_kind = DEEP[kind](depth)
    else:
        # anywhere after ``op``, which the axioms among the nests apply
        fields.insert(draw(st.integers(1, len(fields))), DEEP[kind](depth))
    return f"record M (A : {sort_kind}) : Set where\n  field\n" + "".join(fields)


def _run(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and the lines printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().splitlines() + err.getvalue().splitlines()


def _check_and_generate(text: str, workdir: Path) -> None:
    """``text`` checks, generates all seven constructions, and its module
    reparses and checks."""
    source = workdir / "record.eqt"
    source.write_text(text, encoding="utf-8")
    assert _run(["check", str(source)]) == (0, [])
    assert _run(["gen", str(source), "--constructions", ALL_KINDS, "--out", str(workdir / "out")]) == (0, [])
    modules = sorted((workdir / "out").rglob("module.gen.eqt"))
    assert [m.parent.name for m in modules] == ["M"]
    assert _run(["check", str(modules[0])]) == (0, [])


@settings(max_examples=12)
@given(st.sampled_from(sorted(DEEP)).flatmap(lambda k: st.integers(1, MAX_NESTING).flatmap(lambda d: _records(k, d))))
def test_records_nested_within_the_limit_check_and_generate(tmp_path_factory, text):
    assert _first_too_deep(text) is None
    _check_and_generate(text, tmp_path_factory.mktemp("deep"))


@pytest.mark.parametrize("kind", sorted(DEEP))
@settings(max_examples=2)
@given(data=st.data())
def test_records_nested_to_the_limit_check_and_generate(tmp_path_factory, kind, data):
    text = data.draw(_records(kind, MAX_NESTING))
    assert _first_too_deep(text) is None
    assert _first_too_deep(text.replace(DEEP[kind](MAX_NESTING), DEEP[kind](MAX_NESTING + 1))) is not None
    _check_and_generate(text, tmp_path_factory.mktemp("limit"))


@pytest.mark.parametrize("kind", sorted(DEEP))
@settings(max_examples=5)
@given(data=st.data())
def test_one_level_past_the_limit_is_a_parse_error_at_the_opening_token(tmp_path_factory, kind, data):
    text = data.draw(_records(kind, MAX_NESTING + 1))
    line, col = _first_too_deep(text)
    source = tmp_path_factory.mktemp("past") / "record.eqt"
    source.write_text(text, encoding="utf-8")
    expected = [f"{source}:{line}:{col}: ParseError: nesting deeper than {MAX_NESTING} levels"]
    assert _run(["check", str(source)]) == (1, expected)
    assert _run(["gen", str(source), "--constructions", ALL_KINDS, "--out", str(source.parent / "out")]) == (
        1,
        expected,
    )
    assert not (source.parent / "out").exists()


# one step outside what generation supports, added to a record that generates
NEAR_MISSES = {
    "a second Set field": lambda text: text + "    B : Set\n",
    "a higher-order field": lambda text: text + "    h : (A → A) → A\n",
    "a data declaration": lambda text: text + "data D : Set where\n  c : D\n",
    "too few arguments": lambda text: text + "    bad : (x : A) → op x == x\n",
    "too many arguments": lambda text: text + "    bad : (x : A) → op x x x == x\n",
}


@pytest.mark.parametrize("miss", sorted(NEAR_MISSES))
@settings(max_examples=3)
@given(data=st.data())
def test_a_near_miss_gives_one_line_per_fault_and_no_traceback(tmp_path_factory, miss, data):
    kind = data.draw(st.sampled_from(sorted(DEEP)))
    text = NEAR_MISSES[miss](data.draw(_records(kind, data.draw(st.integers(1, MAX_NESTING)))))
    source = tmp_path_factory.mktemp("miss") / "record.eqt"
    source.write_text(text, encoding="utf-8")
    lines = []
    out = str(source.parent / "out")
    for argv in (["check", str(source)], ["gen", str(source), "--constructions", ALL_KINDS, "--out", out]):
        code, printed = _run(argv)
        assert 0 <= code <= 3
        assert not any("Traceback" in line for line in printed)
        # the one fault: one line naming the file, or none from a command it does not stop
        assert len(printed) == (code != 0)
        assert all(line.startswith(f"{source}:") for line in printed)
        lines += printed
    # whichever command stops on the fault names it
    assert lines
