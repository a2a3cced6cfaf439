"""Bundled example algebras with expected values and provenance tags.

Each corpus file is a regular spec file plus an ``expected`` list; entries
tagged PUBLISHED reproduce circulated values of the worked example, DERIVED
values were recomputed independently (hand expansion or a brute-force
oracle), TRIVIAL ones are structural. ``*-verbatim`` entries keep a
known-inconsistent bracket table on purpose, with the defect documented in
``errata_note``; the tool never repairs an input silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional

from .algebra import SpecFormatError, spec_from_dict
from .functionals import Functional
from .gaussian import GaussianRational
from .workbench import Workbench
from . import admissibility as adm


@dataclass
class Expectation:
    check: str
    value: object
    tag: str
    note: Optional[str] = None


@dataclass
class CorpusEntry:
    entry_id: str
    doc: dict
    errata_note: Optional[str]
    expected: List[Expectation]

    def spec(self):
        return spec_from_dict(self.doc)


@dataclass
class CheckRow:
    entry_id: str
    check: str
    tag: str
    expected: object
    computed: object
    ok: bool
    note: Optional[str] = None

    def line(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return (f"{mark} {self.entry_id:32s} {self.check:28s} [{self.tag}] "
                f"expected={self.expected!r} computed={self.computed!r}")


def corpus_entries() -> List[CorpusEntry]:
    out = []
    root = resources.files("solvlie").joinpath("corpus")
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".json"):
            continue
        doc = json.loads(item.read_text(encoding="utf-8"))
        expected = [Expectation(e["check"], e.get("value"), e.get("tag", "DERIVED"),
                                e.get("note")) for e in doc.get("expected", [])]
        out.append(CorpusEntry(entry_id=item.name[:-5], doc=doc,
                               errata_note=doc.get("errata_note"),
                               expected=expected))
    return out


# ---------------------------------------------------------------------------
# evaluation of the expectation checks
# ---------------------------------------------------------------------------

def _coords(spec, coords: Dict[str, str], offset: int = 0) -> List[Fraction]:
    """The vector of g with the given coordinates by label, or of h when
    offset is n_dim. Raises ValueError for a label of n in h."""
    vals = [Fraction(0)] * (spec.dim - offset)
    for lab, v in coords.items():
        if spec.index(lab) < offset:
            raise ValueError(f"{lab!r} is not a coordinate of h")
        vals[spec.index(lab) - offset] = Fraction(v)
    return vals


def _point(wb: Workbench, coords: Dict[str, str]) -> Functional:
    return Functional(wb.canonical_basis, _coords(wb.spec, coords), exact=True)


# value checks of a valid spec: the computed value, compared with == to the
# expected one
_VALUES = {
    "verdict": lambda wb: wb.verdict().verdict,
    "nu": lambda wb: list(wb.stabilizer.nu),
    "e_circ": lambda wb: list(wb.n_layer.e_set),
    "g_e_set": lambda wb: list(wb.g_layer.e_set),
    "g_j_seq": lambda wb: list(wb.g_layer.j_seq),
    "g_stable": lambda wb: list(wb.g_layer.stable_set),
    "g_phi": lambda wb: list(wb.g_layer.phi),
    "k_dim": lambda wb: wb.stabilizer.k_dim,
    "dim_z_cap_h": lambda wb: wb.center.dim_z_cap_h,
    "dim_z_g": lambda wb: wb.center.z_g.dim,
    "unimodular": lambda wb: wb.unimodular[0],
    "multiplicity": lambda wb: ("infinite" if wb.multiplicity == adm.INFINITE
                                else wb.multiplicity),
    "lambda_printable": lambda wb: wb.oracle_lambda.printable_form is not None,
    "sigma_circ_modulus_indices": lambda wb: [
        c.index for c in wb.oracle_sigma_circ.constraints
        if c.kind == "MODULUS_ONE"],
}

# "<kind>_contains" / "<kind>_rejects": the listed points are all members
# of the section oracle of that kind / all are not
_MEMBERSHIP = {f"{kind}_{verb}": (kind, want)
               for kind in ("lambda", "lambda_nu", "sigma_circ", "sigma")
               for verb, want in (("contains", True), ("rejects", False))}


def evaluate_check(entry: CorpusEntry, exp: Expectation,
                   wb: Optional[Workbench],
                   parse_error: Optional[SpecFormatError]) -> CheckRow:
    check, value = exp.check, exp.value

    def row(computed, ok):
        return CheckRow(entry.entry_id, check, exp.tag, value, computed, ok,
                        exp.note)

    if check == "parse_error_contains":
        if parse_error is None:
            return row("no parse error", False)
        return row(str(parse_error), value in str(parse_error))
    if parse_error is not None:
        return row(f"parse error: {parse_error}", False)

    if check == "validation_ok":
        return row(wb.validation.ok, wb.validation.ok == value)
    if check == "jacobi_witness_in":
        fails = [c for c in wb.validation.failures() if c.code == "JACOBI_FAIL"]
        witness = set(fails[0].witness) if fails and fails[0].witness else None
        ok = witness in [set(w) for w in value]
        return row(sorted(witness) if witness else None, ok)

    # everything below needs a valid spec
    if not wb.validation.ok:
        return row("validation failed", False)

    if check in _VALUES:
        computed = _VALUES[check](wb)
        return row(computed, computed == value)
    if check == "g_case_contains":
        cs = wb.g_layer.case_sets
        computed = {f"K{k}": list(v) for k, v in cs.items() if v}
        ok = all(set(v) <= set(cs.get(int(name[1:]), ()))
                 for name, v in value.items())
        return row(computed, ok)
    if check in ("k_contains", "center_contains"):
        # the little group k is a subspace of h, the center z(g) one of g
        in_h = check == "k_contains"
        space = wb.stabilizer.k_subalg if in_h else wb.center.z_g
        vec = _coords(wb.spec, value, wb.spec.n_dim if in_h else 0)
        ok = space.contains_vector([GaussianRational(x) for x in vec])
        return row("member" if ok else "not a member", ok)
    if check in _MEMBERSHIP:
        kind, want = _MEMBERSHIP[check]
        oracle = getattr(wb, f"oracle_{kind}")
        results = [oracle.contains(_point(wb, pt)) for pt in value]
        return row(results, all(r == want for r in results))

    return row("unknown check", False)


def run_entry(entry: CorpusEntry, seed: int = 42) -> List[CheckRow]:
    wb = None
    parse_error = None
    try:
        spec = entry.spec()
        wb = Workbench(spec, seed=seed)
    except SpecFormatError as exc:
        parse_error = exc
    rows = []
    for exp in entry.expected:
        try:
            rows.append(evaluate_check(entry, exp, wb, parse_error))
        except Exception as exc:  # noqa: BLE001 - surfaced as a failing row
            rows.append(CheckRow(entry.entry_id, exp.check, exp.tag, exp.value,
                                 f"error: {type(exc).__name__}: {exc}", False,
                                 exp.note))
    return rows


def run_corpus(entry_ids: Optional[List[str]] = None,
               seed: int = 42) -> List[CheckRow]:
    entries = corpus_entries()
    if entry_ids:
        wanted = set(entry_ids)
        unknown = wanted - {e.entry_id for e in entries}
        if unknown:
            raise KeyError(f"unknown corpus ids: {sorted(unknown)}")
        entries = [e for e in entries if e.entry_id in wanted]
    rows: List[CheckRow] = []
    for e in entries:
        rows.extend(run_entry(e, seed=seed))
    return rows
