from __future__ import annotations

import pytest

from conftest import read_data
from theoryforge.checker import (
    ARITY_MISMATCH,
    DUPLICATE_FIELD,
    SORT_MISMATCH,
    UNBOUND_NAME,
    check_module,
    format_errors,
)
from theoryforge.generators import gen_all, prod_decl
from theoryforge.parser import parse_file


def kinds_of(errors):
    return [e.kind for e in errors]


def test_golden_blocks_check_clean(monoid_decl, monoid):
    module = [monoid_decl, prod_decl()] + gen_all(monoid)
    assert check_module(module) == []


def test_duplicate_field_within_record():
    errors = check_module(parse_file(read_data("bad_duplicate_field.eqt")))
    assert kinds_of(errors) == [DUPLICATE_FIELD]


def test_unbound_name():
    errors = check_module(parse_file(read_data("bad_unbound_name.eqt")))
    assert kinds_of(errors) == [UNBOUND_NAME]


def test_arity_mismatch_in_axiom():
    errors = check_module(parse_file(read_data("bad_arity_mismatch.eqt")))
    assert kinds_of(errors) == [ARITY_MISMATCH]


def test_two_copies_of_a_record_clash_across_decls(monoid_source):
    errors = check_module(parse_file(monoid_source + "\n" + monoid_source))
    assert DUPLICATE_FIELD in kinds_of(errors)
    # one error for the duplicated declaration name, one per member
    assert all(k == DUPLICATE_FIELD for k in kinds_of(errors))


def test_sort_mismatch_across_carriers(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (A2 : Set) (Mo1 : Monoid A1) : Set where
  constructor badC
  field
    f : A1 → A2
    w : (x : A1) → f x == x
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [SORT_MISMATCH]


@pytest.mark.parametrize(
    "field", ["g : Monoid A1 → A1\n    w : g Mo2 == g Mo1", "w : Mo1 == Mo2"], ids=["argument", "equation"]
)
def test_sort_mismatch_between_instances_over_different_carriers(monoid_source, field):
    # an argument sort and the two sides of an equation, each ``Monoid A1``
    # against ``Monoid A2``: same head, different argument
    source = monoid_source + f"""
record Bad (A1 : Set) (A2 : Set) (Mo1 : Monoid A1) (Mo2 : Monoid A2) : Set where
  constructor badC
  field
    {field}
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [SORT_MISMATCH]
    assert "Monoid A1" in errors[0].message and "Monoid A2" in errors[0].message


def test_projection_arity_checked(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (Mo1 : Monoid A1) : Set where
  constructor badC
  field
    w : (x : A1) → op Mo1 x == x
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [ARITY_MISMATCH]


def test_instance_type_must_match_owner(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (Mo1 : Monoid A1) : Set where
  constructor badC
  field
    w : (x : A1) → e x == x
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [SORT_MISMATCH]


def test_binder_shadowing_is_reported(monoid_source):
    source = """
record M (A : Set) : Set where
  constructor mC
  field
    e : A
    w : {e : A} → e == e
"""
    errors = check_module(parse_file(source))
    assert DUPLICATE_FIELD in kinds_of(errors)


def test_type_arity_enforced(monoid_source):
    source = monoid_source + """
record Bad (A1 : Set) (Mo1 : Monoid) : Set where
  constructor badC
  field
    f : A1
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [ARITY_MISMATCH]


def test_error_lines_have_stable_format():
    errors = check_module(parse_file(read_data("bad_unbound_name.eqt")))
    report = format_errors(errors, "m.eqt")
    assert report == "m.eqt:4:9: UnboundName: unknown type 'B'"


def test_all_errors_collected_not_just_first():
    source = """
record M (A : Set) : Set where
  constructor mC
  field
    e : B
    f : C
"""
    errors = check_module(parse_file(source))
    assert kinds_of(errors) == [UNBOUND_NAME, UNBOUND_NAME]


def test_error_detection_order_insensitive():
    fields = ["bad1 : B", "bad2 : C", "good : A"]
    base = "record M (A : Set) : Set where\n  constructor mC\n  field\n"
    import itertools

    reports = set()
    for perm in itertools.permutations(fields):
        source = base + "".join(f"    {f}\n" for f in perm)
        errors = check_module(parse_file(source))
        reports.add(frozenset((e.kind, e.message) for e in errors))
    assert len(reports) == 1


def test_checker_is_pure_given_snapshot(monoid_decl):
    from theoryforge.checker import CheckContext, check_decl

    ctx = CheckContext()
    before = (dict(ctx.type_arity), set(ctx.used_member_names))
    check_decl(monoid_decl, ctx)
    assert (dict(ctx.type_arity), set(ctx.used_member_names)) == before
