"""Byte-identity gate for the report document.

`solvlie analyze --format json --seed 42` on every corpus file must hash to
the SHA-256 recorded for it in perfbench/digests.json, and the same command
at `--seed 7` to the one in tests/digests_seed7.json, so a change that is
meant to leave the reports alone (a refactor, a speed-up) shows here the
moment it alters one byte under either sampling seed. The default text
output of `solvlie analyze FILE` on heisenberg-2param and spiral-heisenberg
must equal tests/analyze_text_golden.txt. Regenerate these only when a
report is meant to change: `python3 perfbench/make_digests.py` for seed 42
and `PYTHONPATH=src python3 tests/test_golden_reports.py` for seed 7 and
the text.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvlie
from solvlie import cli, corpus

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
SEED7_DIGESTS = Path(__file__).resolve().parent / "digests_seed7.json"
TEXT_GOLDEN = Path(__file__).resolve().parent / "analyze_text_golden.txt"
CORPUS_DIR = Path(corpus.__file__).resolve().parent / "corpus"
ENTRY_IDS = sorted(p.stem for p in CORPUS_DIR.glob("*.json"))
TEXT_IDS = ("heisenberg-2param", "spiral-heisenberg")


def _report_digest(entry_id, seed):
    argv = ["analyze", str(CORPUS_DIR / f"{entry_id}.json"),
            "--format", "json", "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _analyze_text() -> str:
    """`solvlie analyze FILE`, with no --format, on each of TEXT_IDS, each
    output under a line naming its file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for entry_id in TEXT_IDS:
            print(f"$ solvlie analyze {entry_id}.json")
            path = CORPUS_DIR / f"{entry_id}.json"
            assert cli.main(["analyze", str(path)]) == 0
    return out.getvalue()


def test_analyze_text_matches_golden():
    assert _analyze_text() == TEXT_GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_analyze_report_matches_digest(entry_id):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[entry_id]
    assert _report_digest(entry_id, 42) == want


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_analyze_report_matches_seed_7_digest(entry_id):
    want = json.loads(SEED7_DIGESTS.read_text(encoding="utf-8"))[entry_id]
    assert _report_digest(entry_id, 7) == want


_WITHOUT_NUMPY = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import solvlie
from solvlie import cli
from solvlie.corpus import corpus_entries
corpus_entry = {e.entry_id: e for e in corpus_entries()}.__getitem__
digests = {}
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["analyze", path, "--format", "json", "--seed", "42"])
    digests[path] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
assert solvlie.Workbench(corpus_entry("heisenberg-2param").spec()).disintegration() == 1
print(json.dumps(digests))
"""


def test_reports_without_numpy():
    # the package has no runtime dependency: the weights, every report and
    # the exact disintegration constant work with numpy unimportable
    paths = [str(CORPUS_DIR / f"{e}.json") for e in ENTRY_IDS]
    src = str(Path(solvlie.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *paths],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert {Path(p).stem: h for p, h in got.items()} == \
        {e: want[e] for e in ENTRY_IDS}


def test_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, solvlie; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ,
             "PYTHONPATH": str(Path(solvlie.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


if __name__ == "__main__":
    table = {e: _report_digest(e, 7) for e in ENTRY_IDS}
    SEED7_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    TEXT_GOLDEN.write_text(_analyze_text(), encoding="utf-8")
