"""Line census: the lines of src/solvlie that no tier-1 test runs.

    python tests/line_census.py [PYTEST_ARGS ...]

Runs the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
and any arguments given, from the root of the checkout) with a
``sitecustomize`` first on PYTHONPATH. In every Python process of the run,
the CLI subprocesses of the tests included, it installs a ``sys.settrace``
hook that records each line of ``src/solvlie`` that runs, and writes the
lines out when the process exits. The census then prints, per module, the
executable lines outside docstrings that no process reached, and the total,
and exits with the suite's exit code.

Executable lines are the line numbers of the instructions of a module's
code objects, as ``compile`` makes them; docstrings are left out, as in
the "src code lines" count of CI. A process started with a PYTHONPATH of
its own (the numpy-free checks) does not load the hook, so its lines are
not counted. Standard library only. Tracing makes the suite about five
times slower, so the census is no tier-1 step, and the wall-time gates of
``tests/test_acceptance.py`` may fail under it; their lines still count.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "solvlie"

# installed in every process of the run; it records (file, line) for the
# files under LINE_CENSUS_PACKAGE and dumps them to LINE_CENSUS_OUT at exit
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_package = os.environ.get("LINE_CENSUS_PACKAGE")
_out = os.environ.get("LINE_CENSUS_OUT")
if _package and _out:
    _prefix = os.path.join(_package, "")
    _seen = {}
    _files = {}

    def _file_lines(filename):
        lines = _files.get(filename)
        if lines is None:
            path = os.path.abspath(filename)
            lines = _seen.setdefault(path, set()) if path.startswith(_prefix) else False
            _files[filename] = lines
        return lines

    def _trace(frame, event, arg):
        lines = _file_lines(frame.f_code.co_filename)
        if lines is False:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def _dump():
        sys.settrace(None)
        path = os.path.join(_out, f"lines-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({f: sorted(s) for f, s in _seen.items()}, fh)

    atexit.register(_dump)
    threading.settrace(_trace)
    sys.settrace(_trace)
'''


def executable_lines(path: Path) -> set:
    """The executable lines of a module outside its docstrings."""
    text = path.read_text(encoding="utf-8")
    docs = {n for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for n in range(node.lineno, node.end_lineno + 1)}
    lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines - docs


def spans(lines) -> str:
    """Sorted line numbers as runs: 3, 7-9, 12."""
    out = []
    for _, run in groupby(enumerate(sorted(lines)), lambda t: t[1] - t[0]):
        run = [n for _, n in run]
        out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]))
    return ", ".join(out)


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        env = dict(os.environ, LINE_CENSUS_PACKAGE=str(PACKAGE),
                   LINE_CENSUS_OUT=out,
                   PYTHONPATH=os.pathsep.join(
                       [hook, str(ROOT / "src")]
                       + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        code = subprocess.call([sys.executable, "-m", "pytest", "-q",
                                "--continue-on-collection-errors", *argv],
                               cwd=ROOT, env=env)
        reached = {}
        for dump in Path(out).glob("lines-*.json"):
            for filename, lines in json.loads(dump.read_text(encoding="utf-8")).items():
                reached.setdefault(filename, set()).update(lines)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        left = lines - reached.get(str(path), set())
        total += len(lines)
        missed += len(left)
        if left:
            print(f"{path.name}: {len(left)} unreached: {spans(left)}")
    print(f"unreached: {missed} of {total} executable lines")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
