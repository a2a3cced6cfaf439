"""Command line front end.

    solvlie validate  SPEC.json
    solvlie analyze   SPEC.json [--seed N] [--format json|text]
    solvlie admissible SPEC.json
    solvlie corpus    list | run [ID ...] [--seed N]

Exit codes: validate 0 pass / 2 hypothesis violation or invalid hint /
3 unreadable file or parse error (a malformed spec or non-UTF-8 text
included); analyze adds 4 for sampling or pipeline failures (a failed
basis construction, a layer outside the supported section cases or a
polarization that fails its isotropy checks included); admissible prints
the theorem's decision, read off the structure constants, and exits 0
admissible, 1 not admissible, 2 invalid input (a hypothesis violation, an
unreadable or malformed file and an invalid hint included); a sampling or
pipeline failure of its multiplicity note keeps the verdict line and its
exit code, and is named on stderr; corpus run 0 all expectations matched,
1 mismatched entries, 2 an unknown ID. Every command exits 141 (128 +
SIGPIPE, the shell's code) when its stdout is closed before its output is
written, as in a pipe into head, and prints no more.
--seed is an option of analyze and corpus run; each generic layer is
located from 64 points drawn from it. A malformed command line (corpus
list with IDs or --seed included) prints the usage and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import corpus as corpus_mod
from . import admissibility as adm
from .adapted import (ConstructionFailedError, HintInvalidError,
                      build_adaptable_basis)
from .algebra import (HypothesisViolation, SpecFormatError, load_spec,
                      require_noncommutative, validate_spec)
from .sections import NormalizationFailedError, UnsupportedLayerError
from .strata import InconsistentSamplingError, UnsupportedCaseError
from .workbench import PipelineError, Workbench

# sampling and pipeline failures past validation: analyze exits 4 on them;
# admissible prints its verdict and names them on stderr
PIPELINE_FAILURES = (ConstructionFailedError, InconsistentSamplingError,
                     adm.IsotropyError, NormalizationFailedError,
                     UnsupportedCaseError, UnsupportedLayerError, PipelineError)


def _load(path):
    """(spec, None), or (None, (3, message)) when the file cannot be read
    (a missing file or a directory) or does not parse (not UTF-8 included)."""
    try:
        return load_spec(path), None
    except OSError as exc:
        return None, (3, f"cannot read {path}: {exc}")
    except SpecFormatError as exc:
        loc = ""
        if exc.line is not None:
            loc = f" (line {exc.line}, column {exc.column})"
        return None, (3, f"parse error in {path}{loc}: {exc}")


def cmd_validate(args) -> int:
    spec, err = _load(args.path)
    if err:
        print(err[1], file=sys.stderr)
        return err[0]
    report = validate_spec(spec)
    for c in report.checks:
        status = "pass" if c.ok else f"FAIL {c.code}"
        extra = f" {c.detail}" if (not c.ok and c.detail) else ""
        print(f"{c.name:20s} {status}{extra}")
    if not report.ok:
        return 2
    try:
        require_noncommutative(spec)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    if spec.adaptable_hint is not None:
        try:
            build_adaptable_basis(spec, hint=spec.adaptable_hint)
        except HintInvalidError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    print("all checks passed")
    return 0


def _format_text(doc: dict) -> str:
    lines = [f"spec: {doc['name']}   (seed={doc['seed']}, trials={doc['trials']})"]
    lines.append(f"jump sets: n* {doc['n_layer']['e']}, g* {doc['g_layer']['e']}"
                 f" (paired with {doc['g_layer']['j']})")
    lines.append(f"off-jump coordinates: {doc['nu']}")
    stab = doc["stabilizer"]
    lines.append(f"little group: dim {stab['k_dim']}, basis {stab['k_basis']}")
    for kind in ("lambda", "lambda_nu", "sigma_circ", "sigma"):
        sec = doc["sections"][kind]
        printable = sec.get("printable", "(no closed form; pointwise test)")
        lines.append(f"section {kind}: {printable}")
    center = doc["center"]
    lines.append(f"center: dim {center['dim_z_g']}, meets dilations in "
                 f"dim {center['dim_z_cap_h']}")
    admis = doc["admissibility"]
    lines.append(f"unimodular: {admis['unimodular']}  traces {admis['trace_table']}")
    lines.append(f"multiplicity: {admis['multiplicity']} (domain dim "
                 f"{admis['dim_x']})")
    lines.append(f"VERDICT: {admis['verdict']}")
    lines.append(f"  reason: {admis['reason']}")
    if "divergence_note" in admis:
        lines.append(f"  note: {admis['divergence_note']}")
    return "\n".join(lines)


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"the report holds no non-finite float, got {x!r}")
    return float.__repr__(x)


_quote = json.encoder.encode_basestring_ascii
# the writer of each scalar type of a report, by exact type
_SCALARS = {str: _quote, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _format_json(doc) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)``, written
    in one pass: CPython takes its C encoder only without ``indent``, so
    that call runs json's pure-Python encoder.

    Keys are sorted, each dict or list item sits on its own line two
    spaces deeper, ``{}`` and ``[]`` stand for empty containers, strings
    go through json's own ``encode_basestring_ascii`` and numbers through
    ``int.__repr__``/``float.__repr__``. Anything a report never holds (a
    non-str key, a non-finite float, another type) raises instead of
    taking json's branch for it."""
    write = _SCALARS.get(type(doc))
    return write(doc) if write is not None else _json_container(doc, "\n")


def _json_container(value, newline: str) -> str:
    """A dict, list or tuple whose closing bracket follows ``newline``;
    each scalar item is written in line, without a recursive call."""
    kind = type(value)
    inner = newline + "  "
    parts = []
    if kind is dict:
        if not value:
            return "{}"
        for key in sorted(value):
            item = value[key]
            write = _SCALARS.get(type(item))
            parts.append(_quote(key) + ": " + (
                write(item) if write is not None else _json_container(item, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        for item in value:
            write = _SCALARS.get(type(item))
            parts.append(write(item) if write is not None
                         else _json_container(item, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    raise TypeError(f"the report holds no {kind.__name__}: {value!r}")


def cmd_analyze(args) -> int:
    spec, err = _load(args.path)
    if err:
        print(err[1], file=sys.stderr)
        return err[0]
    wb = Workbench(spec, seed=args.seed)
    try:
        doc = wb.report()
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except HintInvalidError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except PIPELINE_FAILURES as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        print(_format_json(doc))
    else:
        print(_format_text(doc))
    return 0


def cmd_admissible(args) -> int:
    spec, err = _load(args.path)
    if err:
        print(err[1], file=sys.stderr)
        return 2
    wb = Workbench(spec)
    try:
        code = wb.decision
    except HypothesisViolation as exc:
        print(f"INVALID: {exc}")
        return 2
    failure = None
    try:
        mult = wb.multiplicity
    except HintInvalidError as exc:
        print(f"INVALID: {type(exc).__name__}: {exc}")
        return 2
    except PIPELINE_FAILURES as exc:
        # the theorem has decided; only the multiplicity note is lost
        mult, failure = None, exc
    note = ""
    if mult not in (None, adm.INFINITE):
        note = f"  (multiplicity {mult})"
    print(f"{code}{note}")
    if failure is not None:
        print(f"{type(failure).__name__}: {failure}", file=sys.stderr)
    return 0 if code == adm.VERDICT_ADMISSIBLE else 1


def cmd_corpus(args) -> int:
    if args.action == "list" and args.ids:
        args.usage_error(f"corpus list takes no IDs, got {' '.join(args.ids)}")
    if args.action == "list" and args.seed is not None:
        args.usage_error("corpus list takes no --seed")
    if args.action == "list":
        for e in corpus_mod.corpus_entries():
            tags = sorted({x.tag for x in e.expected})
            note = "  [errata documented]" if e.errata_note else ""
            print(f"{e.entry_id:32s} checks={len(e.expected):2d} "
                  f"tags={','.join(tags)}{note}")
        return 0
    try:
        rows = corpus_mod.run_corpus(args.ids or None,
                                     seed=42 if args.seed is None else args.seed)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(exc.args[0], file=sys.stderr)
        return 2
    bad_entries = []
    for row in rows:
        print(row.line())
        if not row.ok:
            bad_entries.append(row.entry_id)
    if bad_entries:
        print(f"MISMATCHED ENTRIES: {sorted(set(bad_entries))}", file=sys.stderr)
        return 1
    print(f"all {len(rows)} expectations matched")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged."""
    ap = argparse.ArgumentParser(prog="solvlie", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the standing hypotheses")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="full orbital and admissibility report")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("admissible", help="one-line verdict")
    p.add_argument("path")
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("corpus", help="bundled examples with expectations")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("ids", nargs="*")
    # IDs and --seed (42 when not given) belong to run only; on list they
    # are a usage error, reported by the corpus parser
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_corpus, usage_error=p.error)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit writes nothing (the SIGPIPE recipe of the signal docs), and
        # exit 128 + SIGPIPE, as a shell reports a process SIGPIPE killed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
