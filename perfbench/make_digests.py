"""Regenerate digests.json: the SHA-256 of every corpus-report document.

    python3 perfbench/make_digests.py

Runs `analyze --format json` on each corpus file at the analyze seed
corpus-report uses. Rerun only when the report is meant to change.
"""

import json
import sys

from run import import_solvlie
from workloads import DIGESTS, CorpusReport, report_digest


def main() -> int:
    import_solvlie()
    if not DIGESTS.exists():
        DIGESTS.write_text("{}\n", encoding="utf-8")
    workload = CorpusReport(0)
    workload.load()
    workload.build()
    table = {}
    for op in workload.round():
        code, text = op.run(op.prepare())
        table[op.label] = report_digest(text)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
