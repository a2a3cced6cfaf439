"""Tests of the benchmark itself (not of solvlie).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run.
"""

import random

import pytest

import run
from speed import REFERENCE_S, Reference, kernel
from specgen import ADMISSIBLE, CENTER, ROUND, UNIMODULAR, generate, make_spec
from workloads import (CorpusReport, GeneratedVerdicts, check_landing,
                       check_membership, check_verdict, expected_exit_code)

run.import_solvlie()

from solvlie import (require_noncommutative, spec_from_dict,  # noqa: E402
                     validate_spec)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_specs_are_valid(seed):
    for doc, _ in generate(seed):
        spec = spec_from_dict(doc)
        assert validate_spec(spec).ok, doc["name"]
        require_noncommutative(spec)


def test_default_seed_has_every_verdict_class_and_shape():
    verdicts = {want for _, want in generate(0)}
    assert verdicts == {ADMISSIBLE, CENTER, UNIMODULAR}
    assert {shape for shape, *_ in ROUND} == {"two-step", "filiform"}


def test_generator_verdict_matches_its_target():
    rng = random.Random(3)
    for shape, size, r, verdict in ROUND:
        _, want = make_spec(rng, shape, size, r, verdict, "t")
        assert want == verdict


def test_digest_checker_flags_an_altered_report():
    workload = CorpusReport(0)
    workload.load()
    entry = next(e for e in workload.entries if expected_exit_code(e) == 3)
    assert workload.check_report(entry, 3, "", None) is None
    assert "digest" in workload.check_report(entry, 3, "{}\n", None)
    assert "exit code" in workload.check_report(entry, 0, "", None)


def test_membership_checker_flags_a_flipped_answer():
    assert check_membership(True, True) is None
    assert check_membership(False, False) is None
    assert check_membership(True, False) is not None
    assert check_membership(False, True) is not None
    assert check_landing([1.0, 2.0], [1.0, 2.0]) is None
    assert check_landing([1.0, 2.001], [1.0, 2.0]) is not None


def test_verdict_checker_flags_a_wrong_verdict():
    workload = GeneratedVerdicts(0)
    workload.load()
    doc, want = workload.cases[0]
    got = workload.round()[0].run(None)
    assert check_verdict(got, want) is None
    wrong = next(v for v in (ADMISSIBLE, CENTER, UNIMODULAR) if v != want)
    assert check_verdict(got, wrong) is not None


class _TwoSpecs(GeneratedVerdicts):
    """The two smallest generated-verdicts specs, to keep the test short."""

    def load(self):
        super().load()
        self.cases = self.cases[:2]


def test_traced_counts_repeat_at_the_same_seed():
    def counts():
        loop, metrics = run.traced(_TwoSpecs(5), 5, Reference())
        assert loop.failed == 0
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first, second = counts(), counts()
    assert first == second
    assert first["strata.generic_layer.calls"] == 2
    assert first["gaussian.constructed"] > 0


def test_reference_scales_by_the_kernel_speed_around_a_span():
    reference = Reference()
    reference.when = [float(t) for t in range(10)]
    reference.took = [REFERENCE_S] * 5 + [REFERENCE_S * 2] * 5
    # a span inside the fast half, one inside the slow half, one across
    assert reference.scaled((1.0, 2.0, 1.0)) == pytest.approx(1.0)
    assert reference.scaled((7.0, 8.0, 1.0)) == pytest.approx(0.5)
    assert reference.scaled((0.0, 9.0, 1.0)) == pytest.approx(0.75)
    assert kernel() == kernel()
