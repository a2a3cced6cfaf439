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

def _point(wb: Workbench, coords: Dict[str, str]) -> Functional:
    spec = wb.spec
    vals = [Fraction(0)] * spec.dim
    for lab, v in coords.items():
        vals[spec.index(lab)] = Fraction(v)
    return Functional(wb.canonical_basis, vals, exact=True)


def _combo_vector(spec, coords: Dict[str, str], h_only: bool = False):
    dim = spec.h_dim if h_only else spec.dim
    offset = spec.n_dim if h_only else 0
    out = [GaussianRational(0)] * dim
    for lab, v in coords.items():
        out[spec.index(lab) - offset] = GaussianRational(Fraction(v))
    return out


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

    if check == "verdict":
        computed = wb.verdict().verdict
        return row(computed, computed == value)
    if check == "nu":
        computed = list(wb.stabilizer.nu)
        return row(computed, computed == value)
    if check == "e_circ":
        computed = list(wb.n_layer.e_set)
        return row(computed, computed == value)
    if check == "g_e_set":
        computed = list(wb.g_layer.e_set)
        return row(computed, computed == value)
    if check == "g_j_seq":
        computed = list(wb.g_layer.j_seq)
        return row(computed, computed == value)
    if check == "g_stable":
        computed = list(wb.g_layer.stable_set)
        return row(computed, computed == value)
    if check == "g_phi":
        computed = list(wb.g_layer.phi)
        return row(computed, computed == value)
    if check == "g_case_contains":
        cs = wb.g_layer.case_sets
        computed = {f"K{k}": list(v) for k, v in cs.items() if v}
        ok = all(set(v) <= set(cs.get(int(name[1:]), ()))
                 for name, v in value.items())
        return row(computed, ok)
    if check == "k_dim":
        computed = wb.stabilizer.k_dim
        return row(computed, computed == value)
    if check == "k_contains":
        vec = _combo_vector(wb.spec, value, h_only=True)
        ok = wb.stabilizer.k_subalg.contains_vector(vec)
        return row("member" if ok else "not a member", ok)
    if check == "dim_z_cap_h":
        computed = wb.center.dim_z_cap_h
        return row(computed, computed == value)
    if check == "dim_z_g":
        computed = wb.center.z_g.dim
        return row(computed, computed == value)
    if check == "center_contains":
        vec = _combo_vector(wb.spec, value)
        ok = wb.center.z_g.contains_vector(vec)
        return row("member" if ok else "not a member", ok)
    if check == "unimodular":
        computed = wb.unimodular[0]
        return row(computed, computed == value)
    if check == "multiplicity":
        m = wb.multiplicity
        computed = "infinite" if m == adm.INFINITE else m
        return row(computed, computed == value)
    if check == "lambda_printable":
        computed = wb.oracle_lambda.printable_form is not None
        return row(computed, computed == value)
    if check == "sigma_circ_modulus_indices":
        computed = [c.index for c in wb.oracle_sigma_circ.constraints
                    if c.kind == "MODULUS_ONE"]
        return row(computed, computed == value)

    membership = {
        "lambda_contains": (wb.oracle_lambda, True),
        "lambda_rejects": (wb.oracle_lambda, False),
        "lambda_nu_contains": (wb.oracle_lambda_nu, True),
        "lambda_nu_rejects": (wb.oracle_lambda_nu, False),
        "sigma_circ_contains": (wb.oracle_sigma_circ, True),
        "sigma_circ_rejects": (wb.oracle_sigma_circ, False),
        "sigma_contains": (wb.oracle_sigma, True),
        "sigma_rejects": (wb.oracle_sigma, False),
    }
    if check in membership:
        oracle, want = membership[check]
        results = [oracle.contains(_point(wb, pt)) for pt in value]
        ok = all(r == want for r in results)
        return row(results, ok)

    return CheckRow(entry.entry_id, check, exp.tag, value,
                    "unknown check", False, exp.note)


def run_entry(entry: CorpusEntry, seed: int = 42,
              trials: int = 24) -> List[CheckRow]:
    wb = None
    parse_error = None
    try:
        spec = entry.spec()
        wb = Workbench(spec, seed=seed, trials=trials)
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


def run_corpus(entry_ids: Optional[List[str]] = None, seed: int = 42,
               trials: int = 24) -> List[CheckRow]:
    entries = corpus_entries()
    if entry_ids:
        wanted = set(entry_ids)
        unknown = wanted - {e.entry_id for e in entries}
        if unknown:
            raise KeyError(f"unknown corpus ids: {sorted(unknown)}")
        entries = [e for e in entries if e.entry_id in wanted]
    rows: List[CheckRow] = []
    for e in entries:
        rows.extend(run_entry(e, seed=seed, trials=trials))
    return rows
