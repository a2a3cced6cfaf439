"""Byte-identity gate for the report document.

`solvlie analyze --format json --seed 42` on every corpus file must hash to
the SHA-256 recorded for it in perfbench/digests.json, so a change that is
meant to leave the reports alone (a refactor, a speed-up) shows here the
moment it alters one byte. Regenerate the digests only when a report is
meant to change: `python3 perfbench/make_digests.py`.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from solvlie import cli, corpus

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
CORPUS_DIR = Path(corpus.__file__).resolve().parent / "corpus"
ENTRY_IDS = sorted(p.stem for p in CORPUS_DIR.glob("*.json"))


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_analyze_report_matches_digest(entry_id):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[entry_id]
    argv = ["analyze", str(CORPUS_DIR / f"{entry_id}.json"),
            "--format", "json", "--seed", "42"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(argv)
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == want
