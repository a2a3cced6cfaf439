"""The counting rule of tests/work_budget.py."""

import random
import sys
from fractions import Fraction

import pytest

from solvlie import gaussian, linalg, sections, strata
from work_budget import Work


def test_a_function_imported_by_name_is_counted_where_it_is_called():
    # sections calls _reduced through its own binding
    # (from .gaussian import _reduced), which a patch of gaussian alone
    # does not reach
    with Work() as work:
        work.calls(gaussian, "_reduced")
        sections._rational_circle_point(random.Random(1))
    assert work["_reduced"] == 1


def test_calls_under_a_predicate_and_inside_another_call():
    rows = [[1, 1, 0], [0, 1, 1]]
    with Work() as work:
        work.calls(linalg, "rref", when=lambda rows: len(rows) > 1)
        work.calls(linalg, "extend_rref", inside="rref")
        linalg.extend_rref({}, rows[0])   # outside rref
        linalg.rref(rows[:1])             # fails the predicate
        assert linalg.rank(rows) == 2     # rank calls rref by name
    assert work["rref"] == 1
    assert work["extend_rref"] == 3


def _bindings():
    return {(key, name): vars(mod).get(name)
            for key, mod in list(sys.modules.items())
            if key.partition(".")[0] == "solvlie"
            for name in ("_reduced", "rref", "_skew_reduce", "_replay")}


def test_every_binding_is_restored_when_a_counted_call_raises():
    before, new = _bindings(), Fraction.__dict__["__new__"]
    with pytest.raises(TypeError):
        with Work() as work:
            work.calls(gaussian, "_reduced")
            work.calls(linalg, "rref")
            work.bits(strata, "_replay", lambda ys: ())
            work.fractions()
            work.pivots()
            gaussian._reduced(1, 0, None)
    assert work["_reduced"] == 1
    assert _bindings() == before
    assert sections._reduced is gaussian._reduced
    assert Fraction.__dict__["__new__"] is new
