"""The verdict rule: a row passes iff every condition it declares holds.

Each row of a report lists its decisions, one per declared condition: the
key, the relation, the bound (a `TOLERANCES` name or a literal), the resolved
limit and the outcome.  These tests recompute every decision of the
session's `pchgrav verify` run on `{}` from the row's values, and check that
the rule refuses conditions it cannot evaluate.
"""

import functools
import operator

import pytest

from pchgrav.config import TOLERANCES, validate_config
from pchgrav.suites import _Suite

COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt,
           "==": operator.eq, "!=": operator.ne}


def _value(row: dict, key: str):
    if key == "runtime_s":
        return row["runtime_s"]
    return functools.reduce(operator.getitem, key.split("/"), row["values"])


def test_every_decision_recomputes_from_the_values(default_verify):
    for row in default_verify[1]["rows"]:
        for d in row["decisions"]:
            assert d["limit"] == (TOLERANCES[d["bound"]] if isinstance(d["bound"], str)
                                  else d["bound"]), (row["id"], d)
            assert COMPARE[d["relation"]](_value(row, d["key"]), d["limit"]) == d["passed"], \
                (row["id"], d)
        assert row["passed"] == all(d["passed"] for d in row["decisions"]), row["id"]


def test_only_the_dimension_inventory_has_no_decision(default_verify):
    undecided = {row["id"] for row in default_verify[1]["rows"] if not row["decisions"]}
    assert undecided == {"constraints/dimension-inventory"}


def test_every_tolerance_bounds_a_decision(default_verify):
    used = {d["bound"] for row in default_verify[1]["rows"] for d in row["decisions"]
            if isinstance(d["bound"], str)}
    assert set(TOLERANCES) - used == set()


def test_the_failing_decision_names_its_bound(default_verify):
    row = next(r for r in default_verify[1]["rows"]
               if r["id"] == "reduction/kernel-intersection-(1,0,0)")
    assert [(d["key"], d["relation"], d["limit"], d["passed"]) for d in row["decisions"]] == \
        [("measured", "==", 4, False)]


def test_an_overridden_tolerance_is_the_limit():
    s = _Suite("algebra", validate_config({"tolerances": {"star_cyclic": 0.5}}))
    s.check("row", "plumbing", {"x": 0.25, "y": {"z": 1.0}},
            ("x", "<=", "star_cyclic"), ("y/z", ">", "star_cyclic"), ("runtime_s", "<", 60.0))
    row = s.rows[0]
    assert [d["limit"] for d in row.decisions] == [0.5, 0.5, 60.0]
    assert row.passed and all(d["passed"] for d in row.decisions)


@pytest.mark.parametrize("condition, error", [
    (("missing", "<=", 1.0), KeyError),
    (("x/deeper", "<=", 1.0), KeyError),
    (("y/missing", "<=", 1.0), KeyError),
    (("x", "=<", 1.0), ValueError),
    (("x", "<=", "no_such_tolerance"), KeyError),
], ids=["missing-key", "path-below-a-number", "missing-nested-key", "unknown-relation",
        "unknown-tolerance"])
def test_an_unevaluable_condition_raises(condition, error):
    s = _Suite("algebra", validate_config({}))
    with pytest.raises(error):
        s.check("row", "plumbing", {"x": 0.0, "y": {"z": 1.0}}, condition)
    assert s.rows == []
