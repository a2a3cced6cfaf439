"""`solvlie corpus run` pinned end to end, and the rows of
``corpus.evaluate_check`` that no expectation of the bundled corpus reaches.

``corpus_run_golden.txt`` is the stdout of ``solvlie corpus run``: one row
per expectation of the 13 corpus files, then the summary line. Seeds 42
and 7 print the same text, since every check is exact or a verdict that
does not depend on the sampled points.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corpus_entry
from solvlie.algebra import SpecFormatError
from solvlie.corpus import (CorpusEntry, Expectation, evaluate_check,
                            run_entry)
from solvlie.workbench import PipelineError, Workbench

GOLDEN = Path(__file__).with_name("corpus_run_golden.txt")


@pytest.mark.parametrize("seed", ["42", "7"])
def test_corpus_run_prints_the_golden_rows(seed):
    proc = subprocess.run([sys.executable, "-m", "solvlie.cli", "corpus",
                           "run", "--seed", seed],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.read_text(encoding="utf-8")
    assert proc.stdout.endswith("all 115 expectations matched\n")


def _row(entry_id, check, value):
    """The row of one made-up expectation on a bundled entry, evaluated
    as `run_entry` does (a Workbench, or the parse error of the file)."""
    entry = corpus_entry(entry_id)
    wb, parse_error = None, None
    try:
        wb = Workbench(entry.spec())
    except SpecFormatError as exc:
        parse_error = exc
    return evaluate_check(entry, Expectation(check, value, "DERIVED"), wb,
                          parse_error)


def test_unknown_check_name_is_a_failing_row():
    row = _row("heisenberg-2param", "no_such_check", 1)
    assert (row.computed, row.ok) == ("unknown check", False)
    assert (row.entry_id, row.check, row.tag, row.expected) == (
        "heisenberg-2param", "no_such_check", "DERIVED", 1)


def test_value_check_on_an_invalid_spec_reads_validation_failed():
    # the spec parses but fails Jacobi: only the validation checks run
    row = _row("three-dilations-verbatim", "verdict", "ADMISSIBLE")
    assert (row.computed, row.ok) == ("validation failed", False)
    assert _row("three-dilations-verbatim", "validation_ok", False).ok


def test_parse_error_rows():
    row = _row("five-dilations-verbatim", "parse_error_contains", "A6")
    assert (row.computed, row.ok) == ("unknown basis label 'A6'", True)
    row = _row("five-dilations-verbatim", "parse_error_contains", "Jacobi")
    assert (row.computed, row.ok) == ("unknown basis label 'A6'", False)
    row = _row("heisenberg-2param", "parse_error_contains", "A6")
    assert (row.computed, row.ok) == ("no parse error", False)
    # any other check on an unparsable file is the parse error, first
    for check in ("verdict", "validation_ok", "no_such_check"):
        row = _row("five-dilations-verbatim", check, "ADMISSIBLE")
        assert (row.computed, row.ok) == (
            "parse error: unknown basis label 'A6'", False)


def test_a_getter_that_raises_is_an_error_row(monkeypatch):
    def boom(self):
        raise PipelineError("no verdict today")
    monkeypatch.setattr(Workbench, "verdict", boom)
    rows = {r.check: r for r in run_entry(corpus_entry("heisenberg-2param"))}
    row = rows["verdict"]
    assert (row.computed, row.ok) == (
        "error: PipelineError: no verdict today", False)
    assert row.expected == "NOT_ADMISSIBLE_CENTER_MEETS_H"
    # the other expectations of the entry still run and match
    assert all(r.ok for check, r in rows.items() if check != "verdict")


# heisenberg-2param: n = Z, Y, X; h = A, B. X sits one place before h, so
# read as an h coordinate it was B; Z, at the start of n, was out of range.
@pytest.mark.parametrize("label", ["X", "Z"])
def test_k_contains_refuses_a_label_of_n(label):
    with pytest.raises(ValueError, match=f"'{label}' is not a coordinate "
                                         f"of h"):
        _row("heisenberg-2param", "k_contains", {label: "1"})
    base = corpus_entry("heisenberg-2param")
    entry = CorpusEntry(base.entry_id, base.doc, None,
                        [Expectation("k_contains", {label: "1"}, "DERIVED"),
                         Expectation("k_contains", {"B": "1"}, "DERIVED")])
    refused, member = run_entry(entry)
    assert (refused.computed, refused.ok) == (
        f"error: ValueError: '{label}' is not a coordinate of h", False)
    # an h label still reads as before: B spans the little group
    assert (member.computed, member.ok) == ("member", True)


def test_center_contains_reads_every_label_of_g():
    # z(g) of heisenberg-2param is spanned by B; a vector of g takes a label
    # of n or of h, so nothing is refused
    assert _row("heisenberg-2param", "center_contains", {"B": "1"}).ok
    for label in ("X", "Z"):
        row = _row("heisenberg-2param", "center_contains", {label: "1"})
        assert (row.computed, row.ok) == ("not a member", False)
