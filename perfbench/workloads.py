"""The three workloads: seeded inputs, one round of operations, and checks.

A workload is set up in two steps. ``load()`` reads or generates the inputs
and is cheap enough to repeat; ``build()`` does the remaining set-up work a
user pays before the first query (only membership-stream has any). After
that, ``round()`` returns the operations of one round. The composition of a
round is fixed; the seed changes only the values inside it, so rounds of
different seeds cost about the same.

Every operation is checked after it returns, outside its timed region.
``check`` returns None when the output is right and a reason otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from specgen import generate
from tracing import BUILD_STAGES

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# corpus-report runs `analyze` at this sampling seed (the CLI default) for
# every benchmark seed: the seed moves the cost of a document's layer
# sampling by up to a third, which would swamp run-to-run comparisons. The
# benchmark seed orders the documents. digests.json holds one SHA-256 per
# corpus file at this seed.
ANALYZE_SEED = 42


@dataclass
class Op:
    label: str
    prepare: Callable[[], object]          # untimed; its result goes to run
    run: Callable[[object], object]        # the timed call into solvlie
    check: Callable[[object], Optional[str]]


def _none():
    return None


def _no_stage(name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# corpus-report
# ---------------------------------------------------------------------------

def expected_exit_code(entry) -> int:
    checks = {e.check: e.value for e in entry.expected}
    if "parse_error_contains" in checks:
        return 3
    if checks.get("validation_ok") is False:
        return 2
    return 0


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CorpusReport:
    """`solvlie analyze --format json` in process on every corpus file."""

    name = "corpus-report"

    def __init__(self, seed: int):
        self.seed = seed
        self.digests: Dict[str, str] = {}
        self.workbenches: list = []

    def load(self):
        import solvlie.cli as cli
        from solvlie import corpus
        self.corpus = corpus
        self.cli = cli
        self.entries = corpus.corpus_entries()
        root = Path(corpus.__file__).resolve().parent / "corpus"
        self.paths = {e.entry_id: str(root / f"{e.entry_id}.json")
                      for e in self.entries}
        self.digests = json.loads(DIGESTS.read_text(encoding="utf-8"))

    def build(self, stage=_no_stage):
        # keep the Workbench that `analyze` made, so the corpus expectations
        # are checked on the very state the report came from
        seen = self.workbenches

        class RecordingWorkbench(self.cli.Workbench):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self)

        self.cli.Workbench = RecordingWorkbench

    def round(self) -> List[Op]:
        order = list(self.entries)
        random.Random(self.seed).shuffle(order)
        return [self._op(e) for e in order]

    def _op(self, entry) -> Op:
        argv = ["analyze", self.paths[entry.entry_id], "--format", "json",
                "--seed", str(ANALYZE_SEED)]

        def prepare():
            self.workbenches.clear()

        def run(_):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, text = result
            wb = self.workbenches[-1] if self.workbenches else None
            return self.check_report(entry, code, text, wb)

        return Op(entry.entry_id, prepare, run, check)

    def check_report(self, entry, code: int, text: str, wb) -> Optional[str]:
        want = expected_exit_code(entry)
        if code != want:
            return f"exit code {code}, expected {want}"
        if report_digest(text) != self.digests.get(entry.entry_id):
            return "report digest changed"
        parse_error = None
        if code == 3:
            try:
                entry.spec()
            except self.corpus.SpecFormatError as exc:
                parse_error = exc
        for exp in entry.expected:
            row = self.corpus.evaluate_check(entry, exp, wb, parse_error)
            if not row.ok:
                return f"expectation {exp.check}: computed {row.computed!r}"
        return None


# ---------------------------------------------------------------------------
# generated-verdicts
# ---------------------------------------------------------------------------

class GeneratedVerdicts:
    """`Workbench(spec).verdict()` on fresh generated specs."""

    name = "generated-verdicts"

    def __init__(self, seed: int):
        self.seed = seed

    def load(self):
        from solvlie import Workbench, spec_from_dict, validate_spec
        self.Workbench, self.spec_from_dict = Workbench, spec_from_dict
        self.cases = generate(self.seed)
        for doc, _ in self.cases:
            report = validate_spec(spec_from_dict(doc))
            if not report.ok:
                raise ValueError(f"generated spec {doc['name']} is invalid: "
                                 f"{report.codes()}")

    def build(self, stage=_no_stage):
        pass

    def round(self) -> List[Op]:
        return [self._op(doc, want) for doc, want in self.cases]

    def _op(self, doc: dict, want: str) -> Op:
        def run(_):
            return self.Workbench(self.spec_from_dict(doc)).verdict().verdict

        return Op(doc["name"], _none, run, lambda got: check_verdict(got, want))


def check_verdict(got: str, want: str) -> Optional[str]:
    return None if got == want else f"verdict {got}, expected {want}"


# ---------------------------------------------------------------------------
# membership-stream
# ---------------------------------------------------------------------------

# tolerance on the landing point of a projection, relative to its size
PROJECT_TOL = 1e-6


def check_membership(got: bool, want: bool) -> Optional[str]:
    return None if got is want else f"contains returned {got}, expected {want}"


def check_landing(landed, start) -> Optional[str]:
    scale = 1.0 + max(abs(float(x)) for x in start)
    err = max(abs(float(a) - float(b)) for a, b in zip(landed, start))
    if err > PROJECT_TOL * scale:
        return f"projection landed {err:.3g} away from the start point"
    return None


class MembershipStream:
    """Exact membership queries and float projections on built oracles.

    Per valid corpus entry, a round holds POINTS points of each sampler and
    six queries per point index: two points that must be accepted, two
    perturbed points that must be rejected, and two projections that must
    land back on their start point.
    """

    name = "membership-stream"
    POINTS = 4

    def __init__(self, seed: int):
        self.seed = seed

    def load(self):
        import solvlie
        from solvlie import corpus
        self.sl, self.corpus = solvlie, corpus
        self.entries = [e for e in corpus.corpus_entries()
                        if expected_exit_code(e) == 0]

    def build(self, stage=_no_stage):
        """Workbench, layers and the four oracles per entry, then the points."""
        self.queries = []
        rng = random.Random(self.seed)
        for entry in self.entries:
            wb = self.sl.Workbench(entry.spec())
            for name, touch in BUILD_STAGES:
                with stage(f"workbench.{name}"):
                    touch(wb)
            self.queries += self._queries(entry, wb, rng)

    def _queries(self, entry, wb, rng) -> list:
        """(label, oracle or Workbench, values, expected answer or None)."""
        sl = self.sl
        eid = entry.entry_id
        if any(c.kind in ("CASE2_COMBO", "CASE3_COMBO")
               for c in wb.oracle_lambda.constraints):
            return self._listed_queries(entry, wb, rng)
        basis = wb.canonical_basis
        out = []
        for i in range(self.POINTS):
            nu = sl.sample_lambda_nu(wb.oracle_lambda_nu, rng)
            sc = sl.sample_sigma_circ(wb.oracle_sigma_circ, rng)
            lam = wb.oracle_lambda_nu if i % 2 else wb.oracle_lambda
            sig = wb.oracle_sigma_circ if i % 2 else wb.oracle_sigma
            out += [(f"{eid}/accept-lambda", lam, nu.values, True),
                    (f"{eid}/accept-sigma", sig, sc.values, True),
                    (f"{eid}/reject-jump", lam,
                     self._perturb(basis, nu, rng, wb.n_layer.e_set, "jump"), False)]
            if sig.phi:
                out.append((f"{eid}/reject-modulus", sig,
                            self._perturb(basis, sc, rng, sig.phi, "modulus"), False))
            else:
                out.append((f"{eid}/reject-jump", sig,
                            self._perturb(basis, sc, rng, wb.n_layer.e_set, "jump"),
                            False))
            out += [self._projection(eid, wb, sc, rng) for _ in range(2)]
        return out

    def _listed_queries(self, entry, wb, rng) -> list:
        # layers with combination equations have no sampler; use the
        # membership points of the corpus expectations instead
        eid = entry.entry_id
        listed = {e.check: e.value for e in entry.expected}
        accept = self.corpus._point(wb, listed["sigma_circ_contains"][0])
        rejects = [self.corpus._point(wb, p) for p in listed["sigma_circ_rejects"]]
        out = []
        for i in range(self.POINTS):
            out += [(f"{eid}/accept-lambda", wb.oracle_lambda_nu, accept.values, True),
                    (f"{eid}/accept-sigma", wb.oracle_sigma_circ, accept.values, True)]
            out += [(f"{eid}/reject-listed", wb.oracle_sigma_circ,
                     rejects[(2 * i + k) % len(rejects)].values, False)
                    for k in range(2)]
            out += [self._projection(eid, wb, accept, rng) for _ in range(2)]
        return out

    def _perturb(self, basis, f, rng, indices, how: str):
        """Exact values of f with one jump coordinate set to a nonzero value,
        or one phi coordinate scaled to modulus 2."""
        G = self.sl.GaussianRational
        z = list(f.zvalues())
        j = rng.choice(sorted(indices))
        s = basis.sigma[j]
        if how == "modulus":
            new = z[j - 1] * 2
        elif s == j:
            new = G(rng.choice((-1, 1)) * rng.randint(1, 9))
        else:
            new = G(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.choice((-1, 1)) * rng.randint(1, 9))
        z[j - 1] = new
        z[s - 1] = new.conjugate() if s != j else new
        return self.sl.Functional.from_adapted(basis, z).values

    def _projection(self, eid, wb, point, rng):
        spec = wb.spec
        a = [0.0] * spec.n_dim + [rng.uniform(-1.0, 1.0) for _ in range(spec.h_dim)]
        moved = self.sl.exp_h_coadjoint(spec, a, point, mode="float")
        return (f"{eid}/project", wb, (moved.values, point.values), None)

    def round(self) -> List[Op]:
        order = list(self.queries)
        random.Random(self.seed + 1).shuffle(order)
        return [self._op(q) for q in order]

    def _op(self, query) -> Op:
        label, target, values, want = query
        Functional = self.sl.Functional
        if want is None:
            wb = target
            moved, start = values
            return Op(label,
                      lambda: Functional(wb.canonical_basis, moved, exact=False),
                      lambda f: wb.project(f)[1].values,
                      lambda landed: check_landing(landed, start))
        # a fresh Functional per query, so no cached pairing matrix carries over
        return Op(label,
                  lambda: Functional(target.basis, values, exact=True),
                  target.contains,
                  lambda got: check_membership(got, want))


WORKLOADS = {w.name: w for w in (CorpusReport, GeneratedVerdicts, MembershipStream)}
