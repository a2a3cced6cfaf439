import dataclasses
import json
import os
import subprocess
import sys

import pytest

from conftest import corpus_file_text
from gen_specs import heisenberg_power_doc
from solvlie.adapted import ConstructionFailedError
from solvlie.admissibility import IsotropyError
from solvlie.corpus import corpus_entries
from solvlie.sections import UnsupportedLayerError
from solvlie.strata import UnsupportedCaseError


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "solvlie.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    for e in corpus_entries():
        (d / f"{e.entry_id}.json").write_text(corpus_file_text(e.entry_id),
                                              encoding="utf-8")
    return d


def test_validate_pass(corpus_dir):
    proc = run_cli("validate", str(corpus_dir / "heisenberg-2param.json"))
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_validate_jacobi_failure_exit_2(corpus_dir):
    proc = run_cli("validate", str(corpus_dir / "three-dilations-verbatim.json"))
    assert proc.returncode == 2
    assert "JACOBI_FAIL" in proc.stdout
    for lab in ("A1", "X", "Y"):
        assert lab in proc.stdout


def test_validate_commutative_n_exit_2(tmp_path):
    doc = {"name": "flat", "n_basis": ["X", "Y"], "h_basis": ["A"],
           "brackets": [{"x": "A", "y": "X", "value": [{"c": "1", "b": "X"}]},
                        {"x": "A", "y": "Y", "value": [{"c": "1", "b": "Y"}]}]}
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("validate", str(p))
    assert proc.returncode == 2
    assert "N_COMMUTATIVE" in proc.stderr


def test_validate_parse_error_exit_3(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ definitely: not json", encoding="utf-8")
    proc = run_cli("validate", str(p))
    assert proc.returncode == 3
    assert "line" in proc.stderr


def test_validate_unknown_label_exit_3(corpus_dir):
    proc = run_cli("validate", str(corpus_dir / "five-dilations-verbatim.json"))
    assert proc.returncode == 3
    assert "A6" in proc.stderr


@pytest.fixture(scope="module")
def bad_hint_path(tmp_path_factory):
    """heisenberg-2param with the hint (X, Y, Z): the span of X is not an
    ideal, since [X, Y] = Z, so condition 1 fails at j = 1."""
    doc = json.loads(corpus_file_text("heisenberg-2param"))
    doc["adaptable_hint"] = [{"label": f"W{k}", "value": [{"c": "1", "b": lab}]}
                             for k, lab in enumerate("XYZ", start=1)]
    p = tmp_path_factory.mktemp("hint") / "bad-hint.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


@pytest.mark.parametrize("command", ["validate", "analyze", "admissible"])
def test_invalid_hint_exit_2(bad_hint_path, command):
    proc = run_cli(command, str(bad_hint_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    out = proc.stdout + proc.stderr
    assert "condition 1 fails: span of the first 1 vectors is not an ideal" in out
    assert "all checks passed" not in out


def test_analyze_report_content(corpus_dir):
    proc = run_cli("analyze", str(corpus_dir / "heisenberg-2param.json"),
                   "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "solvlie-report/1"
    assert doc["nu"] == [1]
    assert doc["admissibility"]["verdict"] == "NOT_ADMISSIBLE_CENTER_MEETS_H"
    assert doc["g_layer"]["e"] == [1, 2, 3, 5]
    assert doc["citations"]


def test_analyze_double_heisenberg_layer(corpus_dir):
    proc = run_cli("analyze", str(corpus_dir / "double-heisenberg.json"),
                   "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["n_layer"]["e"] == [3, 4, 5, 6]
    printable = doc["sections"]["lambda"].get("printable", "")
    assert "Y1" in printable and "X1" in printable


def test_analyze_deterministic_bytes(corpus_dir):
    args = ("analyze", str(corpus_dir / "anisotropic-heisenberg.json"),
            "--format", "json", "--seed", "7")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_analyze_invalid_exit_2(corpus_dir):
    proc = run_cli("analyze", str(corpus_dir / "three-dilations-verbatim.json"))
    assert proc.returncode == 2


def test_admissible_exit_codes(corpus_dir):
    assert run_cli("admissible",
                   str(corpus_dir / "spiral-heisenberg.json")).returncode == 0
    assert run_cli("admissible",
                   str(corpus_dir / "free-two-step.json")).returncode == 0
    assert run_cli("admissible",
                   str(corpus_dir / "heisenberg-2param.json")).returncode == 1
    assert run_cli("admissible",
                   str(corpus_dir / "three-dilations-verbatim.json")).returncode == 2


def test_admissible_multiplicity_note(corpus_dir):
    proc = run_cli("admissible", str(corpus_dir / "anisotropic-heisenberg.json"))
    assert proc.returncode == 0
    assert "ADMISSIBLE" in proc.stdout
    assert "multiplicity 2" in proc.stdout


def test_corpus_list_has_at_least_ten_entries():
    proc = run_cli("corpus", "list")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) >= 10


def test_corpus_run_single_verbatim_entry():
    proc = run_cli("corpus", "run", "three-dilations-verbatim")
    assert proc.returncode == 0
    assert "JACOBI" in proc.stdout or "ok" in proc.stdout


def test_corpus_run_unknown_id():
    proc = run_cli("corpus", "run", "no-such-entry")
    assert proc.returncode == 2
    assert proc.stderr == "unknown corpus ids: ['no-such-entry']\n"
    assert proc.stdout == ""


def test_corpus_run_mismatch_exits_1(monkeypatch, capsys):
    # an expectation the computation does not meet: its row reads FAIL, the
    # entry is named on stderr, and the exit code is 1
    from solvlie import cli, corpus
    entries = corpus.corpus_entries

    def wrong_verdict():
        out = entries()
        for e in out:
            e.expected = [dataclasses.replace(x, value="ADMISSIBLE")
                          if x.check == "verdict" else x for x in e.expected]
        return out
    monkeypatch.setattr(corpus, "corpus_entries", wrong_verdict)
    assert cli.main(["corpus", "run", "heisenberg-2param"]) == 1
    out = capsys.readouterr()
    assert "FAIL heisenberg-2param" in out.out
    assert "all" not in out.out.splitlines()[-1]
    assert out.err == "MISMATCHED ENTRIES: ['heisenberg-2param']\n"


def test_corpus_list_with_ids_is_a_usage_error():
    proc = run_cli("corpus", "list", "heisenberg-2param")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: solvlie corpus")
    assert proc.stderr.endswith(
        "error: corpus list takes no IDs, got heisenberg-2param\n")
    assert "Traceback" not in proc.stderr


def test_corpus_list_with_a_seed_is_a_usage_error():
    proc = run_cli("corpus", "list", "--seed", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: solvlie corpus")
    assert proc.stderr.endswith("error: corpus list takes no --seed\n")
    assert "Traceback" not in proc.stderr


def run_cli_into_closed_pipe(*args):
    """The CLI run with its stdout the write end of a pipe whose read end
    was closed before the child started: its first write to stdout fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "solvlie.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=600)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("args", [("admissible", "spiral-heisenberg.json"),
                                  ("corpus", "run")])
def test_closed_stdout_exits_141_without_a_traceback(corpus_dir, args):
    if args[0] == "admissible":
        args = (args[0], str(corpus_dir / args[1]))
    proc = run_cli_into_closed_pipe(*args)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.parametrize("trials", ["0", "-3", "64"])
def test_analyze_has_no_trials_option(corpus_dir, trials):
    # the sample size is strata.TRIALS; no count is accepted, not even 64
    proc = run_cli("analyze", str(corpus_dir / "spiral-heisenberg.json"),
                   "--trials", trials)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert f"unrecognized arguments: --trials {trials}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_corpus_run_trials_below_one_is_a_usage_error(trials):
    # corpus run takes no --trials at all, so any count is refused
    proc = run_cli("corpus", "run", "--trials", trials)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "--trials" in proc.stderr
    assert "MISMATCHED" not in proc.stderr


def test_corpus_run_has_no_trials_option():
    # the corpus checks are exact, and every command draws strata.TRIALS
    # points per generic layer; no command takes --trials
    proc = run_cli("corpus", "run", "--trials", "5")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "unrecognized arguments: --trials 5" in proc.stderr
    assert "MISMATCHED" not in proc.stderr


def _raise(exc):
    def stub(*args, **kwargs):
        raise exc
    return stub


PIPELINE_STUBS = pytest.mark.parametrize("target, exc", [
    ("solvlie.sections.section_vectors",
     UnsupportedCaseError("pair 1 falls in no supported case")),
    ("solvlie.workbench.build_adaptable_basis",
     ConstructionFailedError("CONSTRUCTION_FAILED: no adapted basis")),
    ("solvlie.workbench.generic_layer", UnsupportedLayerError("no sampler")),
    ("solvlie.admissibility.polarization_data",
     IsotropyError("jump reduction output is not isotropic")),
])


@PIPELINE_STUBS
@pytest.mark.parametrize("command, code", [("analyze", 4)])
def test_pipeline_failures_map_to_exit_codes(monkeypatch, capsys, corpus_dir,
                                             target, exc, command, code):
    # a failure inside the pipeline leaves by its documented exit code, not
    # as a traceback; analyze builds section vectors on spiral-heisenberg
    # through the membership oracles (SectionOracle.contains)
    from solvlie import cli
    monkeypatch.setattr(target, _raise(exc))
    assert cli.main([command, str(corpus_dir / "spiral-heisenberg.json")]) == code
    out = capsys.readouterr()
    assert f"{type(exc).__name__}: {exc}" in out.out + out.err


@PIPELINE_STUBS
def test_admissible_keeps_the_decision_on_pipeline_failures(
        monkeypatch, capsys, corpus_dir, target, exc):
    # the theorem decides anisotropic-heisenberg from its structure
    # constants; a failure of the layer data behind its multiplicity note
    # (the basis, the n* layer, the Sigma-circ sample and its polarization)
    # keeps the verdict line and its exit code, and is named on stderr, not
    # as a traceback
    from solvlie import cli
    monkeypatch.setattr(target, _raise(exc))
    path = corpus_dir / "anisotropic-heisenberg.json"
    assert cli.main(["admissible", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == "ADMISSIBLE\n"
    assert out.err == f"{type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("m", [12, 16])
def test_admissible_prints_the_decision_where_sampling_fails(capsys, tmp_path, m):
    # H_3^m: tr ad A = 4m and A moves the center, so the theorem says
    # ADMISSIBLE; the n* layer sampled at the default seed splits 32/64, and
    # only the multiplicity note is lost
    from solvlie import cli
    path = tmp_path / f"heisenberg-power-{m}.json"
    path.write_text(json.dumps(heisenberg_power_doc(m)), encoding="utf-8")
    assert cli.main(["admissible", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == "ADMISSIBLE\n"
    assert out.err.startswith("InconsistentSamplingError: ")


def test_parser_is_built_once_and_still_reports_usage(capsys, corpus_dir):
    # one parser per process: a usage error after a successful in-process
    # run still exits 2 with the usage text
    from solvlie import cli
    path = str(corpus_dir / "heisenberg-2param.json")
    assert cli.main(["validate", path]) == 0
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        cli.main(["analyze", path, "--trials", "0"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--trials" in err
    assert cli.main(["validate", path]) == 0


def _heisenberg_doc():
    return json.loads(corpus_file_text("heisenberg-2param"))


def _malformed(edit):
    doc = _heisenberg_doc()
    edit(doc)
    return doc


# spec documents of the wrong shape, each of which once escaped the parser
# as a TypeError (or, for a string n_basis, was read as one label per
# character, and for a name or hint label, was read as it stood)
MALFORMED_SPECS = {
    "n_basis-a-number": {"n_basis": 5},
    "h_basis-null": _malformed(lambda d: d.update(h_basis=None)),
    "bracket-value-a-number":
        _malformed(lambda d: d["brackets"][0].update(value=3)),
    "hint-value-a-number": _malformed(lambda d: d.update(
        adaptable_hint=[{"label": "Z1", "value": 7}])),
    "n_basis-label-a-list":
        _malformed(lambda d: d.update(n_basis=[["Z"], "Y", "X"])),
    "bracket-x-a-list": _malformed(lambda d: d["brackets"][0].update(x=["X"])),
    "bracket-b-a-list":
        _malformed(lambda d: d["brackets"][0]["value"][0].update(b=["Z"])),
    "n_basis-a-string": _malformed(lambda d: d.update(n_basis="ZYX")),
    "name-a-list": _malformed(lambda d: d.update(name=[1])),
    "hint-label-a-number": _malformed(lambda d: d.update(
        adaptable_hint=[{"label": 5, "value": [{"c": "1", "b": "Z"}]}])),
    # a zero denominator in a hint coefficient once escaped as a
    # ZeroDivisionError traceback (exit 1)
    "hint-coefficient-over-zero": _malformed(lambda d: d.update(
        adaptable_hint=[{"label": "Z1", "value": [{"c": "1/0", "b": "Z"}]}])),
    "hint-imaginary-part-over-zero": _malformed(lambda d: d.update(
        adaptable_hint=[{"label": "Z1",
                         "value": [{"c": "1/2+1/0 i", "b": "Z"}]}])),
    # one case for each other SpecFormatError the parser raises
    "document-a-list": ["Z", "Y", "X"],
    "n_basis-missing": _malformed(lambda d: d.pop("n_basis")),
    "labels-not-unique": _malformed(lambda d: d.update(h_basis=["A", "A"])),
    "bracket-without-y": _malformed(lambda d: d["brackets"][0].pop("y")),
    "bracket-unknown-label": _malformed(lambda d: d["brackets"][0].update(x="W")),
    "bracket-value-outside-n":
        _malformed(lambda d: d["brackets"][0]["value"][0].update(b="A")),
    "term-without-c": _malformed(lambda d: d["brackets"][0]["value"][0].pop("c")),
    "bad-rational":
        _malformed(lambda d: d["brackets"][0]["value"][0].update(c="one")),
    "duplicate-bracket":
        _malformed(lambda d: d["brackets"].append(dict(d["brackets"][0]))),
    "hint-without-label": _malformed(lambda d: d.update(
        adaptable_hint=[{"value": [{"c": "1", "b": "Z"}]}])),
    "hint-unknown-label": _malformed(lambda d: d.update(
        adaptable_hint=[{"label": "W1", "value": [{"c": "1", "b": "W"}]}])),
    "hint-bad-gaussian-rational": _malformed(lambda d: d.update(
        adaptable_hint=[{"label": "Z1", "value": [{"c": "one i", "b": "Z"}]}])),
}

# validate and analyze exit 3 on an unreadable or unparsable file,
# admissible 2
LOAD_FAILURE_CODES = [("validate", 3), ("analyze", 3), ("admissible", 2)]


@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
@pytest.mark.parametrize("command, code", LOAD_FAILURE_CODES)
def test_malformed_spec_exit_codes(capsys, tmp_path, name, command, code):
    from solvlie import cli
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_SPECS[name]), encoding="utf-8")
    assert cli.main([command, str(path)]) == code
    out = capsys.readouterr()
    assert f"parse error in {path}" in out.err
    assert "Traceback" not in out.err
    assert "all checks passed" not in out.out


@pytest.mark.parametrize("name", ["", "absent.json"])  # a directory, no file
@pytest.mark.parametrize("command, code", LOAD_FAILURE_CODES)
def test_unreadable_file_exit_codes(capsys, tmp_path, name, command, code):
    from solvlie import cli
    path = tmp_path / name
    assert cli.main([command, str(path)]) == code
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", LOAD_FAILURE_CODES)
def test_non_utf8_file_is_a_parse_error(capsys, tmp_path, command, code):
    from solvlie import cli
    path = tmp_path / "latin1.json"
    path.write_bytes(corpus_file_text("heisenberg-2param")
                     .replace('"heisenberg-2param"', '"Heisenberg é"')
                     .encode("latin-1"))
    assert cli.main([command, str(path)]) == code
    err = capsys.readouterr().err
    assert f"parse error in {path}" in err and "not UTF-8" in err

