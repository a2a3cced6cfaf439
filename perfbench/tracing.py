"""Spans and counts around the calls into each solvlie module.

The wrappers are installed from here, not inside solvlie: a module
function is re-bound in every ``solvlie.*`` module that imported it by
name, and methods are replaced on their classes. Each wrapped call opens a
frame on one stack (the benchmark is single-threaded); when it closes, its
duration is added to the caller's child time, so a layer's self time is its
duration minus the part its wrapped callees cover. Spans of the coarse
layers are kept in memory with (id, name, start, end, parent, op) and
written out when the run ends; the hot kernels (``Functional.pair``,
``rref``) keep only their totals, and ``GaussianRational.__init__`` and
``Subspace.intersect`` only a count.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

SAMPLERS = ("sections.sample_lambda_nu", "sections.sample_sigma_circ")

# Workbench stages as (name, touch): each touch computes one lazy property
# inside its own span. A list holds, in dependency order, only the
# properties its operation uses; the rest of the call is the last stage.
_TOUCH = {
    "validation": lambda wb: wb.validation,
    "basis": lambda wb: wb.basis,
    "n_layer": lambda wb: wb.n_layer,
    "stabilizer": lambda wb: wb.stabilizer,
    "canonical_basis": lambda wb: wb.canonical_basis,
    "g_layer": lambda wb: wb.g_layer,
    "oracles": lambda wb: (wb.oracle_lambda, wb.oracle_lambda_nu,
                           wb.oracle_sigma_circ, wb.oracle_sigma),
    "center": lambda wb: wb.center,
    "polarization": lambda wb: wb.polarization,
    "verdict": lambda wb: wb.verdict(),
}
STAGES = tuple(_TOUCH) + ("report",)


def _stages(*names):
    return tuple((name, _TOUCH[name]) for name in names)


# what Workbench.report reads, and then what Workbench.verdict reads (two
# of the oracles); membership-stream's set-up builds everything up to the
# four oracles
REPORT_STAGES = _stages("validation", "basis", "n_layer", "stabilizer",
                        "canonical_basis", "g_layer", "oracles", "center",
                        "polarization", "verdict")
VERDICT_STAGES = _stages("validation", "basis", "n_layer", "stabilizer",
                         "canonical_basis") + (
    ("oracles", lambda wb: (wb.oracle_lambda_nu, wb.oracle_sigma_circ)),) + \
    _stages("center", "polarization")
BUILD_STAGES = _stages("validation", "basis", "n_layer", "stabilizer",
                       "canonical_basis", "oracles")


def _exact_of_first(args, kwargs) -> str:
    l = args[0] if args else kwargs["l"]
    return "exact" if l.exact else "float"


def _exact_of_tol(args, kwargs) -> str:
    tol = args[1] if len(args) > 1 else kwargs.get("tol")
    return "exact" if tol is None else "float"


class Tracer:
    def __init__(self):
        # frames: [name, start, child time, span id, parent id, recorded]
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.stats: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.agreement_sum = 0.0         # over generic_layer results
        self.active = False
        self.op_label: Optional[str] = None
        self._undo: List[Callable] = []

    # -- frames -----------------------------------------------------------

    def _open(self, name: str, record: bool) -> list:
        stack = self.stack
        parent = stack[-1][3] if stack else None
        sid = len(self.spans) if record else parent
        if record:
            self.spans.append(None)      # filled in when the span closes
        frame = [name, perf_counter(), 0.0, sid, parent, record]
        stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        st = self.stats[frame[0]]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[5]:
            self.spans[frame[3]] = (frame[3], frame[0], frame[1], end,
                                    frame[4], self.op_label)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)

    def parent_name(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    # -- wrappers -----------------------------------------------------------

    def _traced(self, fn, name: str, split=None, record=True,
                on_call=None, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = f"{name}.{split(args, kwargs)}" if split else name
            if on_call:
                on_call(tracer, label, args, kwargs)
            frame = tracer._open(label, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_return:
                on_return(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str, on_call=None, on_return=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            if on_call:
                on_call(tracer, name, args, kwargs)
            result = fn(*args, **kwargs)
            if on_return:
                on_return(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def function(self, module: str, attr: str, counted=False, **kw):
        """Re-bind solvlie.<module>.<attr> wherever it was imported by name."""
        mod = importlib.import_module(f"solvlie.{module}")
        orig = getattr(mod, attr)
        name = f"{module}.{attr}"
        wrapper = self._counted(orig, name, **kw) if counted \
            else self._traced(orig, name, **kw)
        for mname, m in list(sys.modules.items()):
            if mname != "solvlie" and not mname.startswith("solvlie."):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
                    self._undo.append(lambda m=m, k=key: setattr(m, k, orig))

    def method(self, cls, attr: str, name: str, counted=False, **kw):
        orig = cls.__dict__[attr]
        wrapper = self._counted(orig, name, **kw) if counted \
            else self._traced(orig, name, **kw)
        setattr(cls, attr, wrapper)
        self._undo.append(lambda: setattr(cls, attr, orig))

    def stage_hook(self, cls, attr: str, stages, last: str):
        """Time the Workbench stages of cls.attr, then the rest of the call."""
        orig = cls.__dict__[attr]
        tracer = self

        def wrapper(wb, *args, **kwargs):
            if not tracer.active:
                return orig(wb, *args, **kwargs)
            for stage, touch in stages:
                with tracer.span(f"workbench.{stage}"):
                    touch(wb)
            with tracer.span(f"workbench.{last}"):
                return orig(wb, *args, **kwargs)

        setattr(cls, attr, wrapper)
        self._undo.append(lambda: setattr(cls, attr, orig))

    def uninstall(self):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- the solvlie layers ----------------------------------------------------

    def install(self, workload: str):
        from solvlie.functionals import Functional
        from solvlie.gaussian import GaussianRational
        from solvlie.linalg import Subspace
        from solvlie.sections import SectionOracle
        from solvlie.workbench import Workbench

        self.function("cli", "main")
        self.function("corpus", "corpus_entries")
        self.function("algebra", "validate_spec")
        self.function("algebra", "weight_decomposition")
        self.function("adapted", "build_adaptable_basis")
        self.function("strata", "generic_layer", on_return=_agreement)
        self.function("strata", "layer_descriptor", counted=True,
                      on_call=_layer_attempt, on_return=_layer_useful)
        self.function("strata", "jump_data", split=_exact_of_first)
        self.function("strata", "section_vectors", split=_exact_of_first)
        self.function("strata", "pfaffian")
        self.function("linalg", "rref", split=_exact_of_tol, record=False,
                      on_call=_rref_entries)
        self.function("functionals", "exp_h_coadjoint")
        self.function("sections", "stabilizer_data")
        self.function("sections", "h_project")
        self.function("sections", "sample_lambda_nu", on_return=_sampled)
        self.function("sections", "sample_sigma_circ", on_return=_sampled)
        self.function("admissibility", "polarization_data")
        self.function("admissibility", "center_data")
        self.function("admissibility", "unimodularity")
        self.method(Functional, "pair", "functionals.pair",
                    split=lambda a, k: "exact" if a[0].exact else "float",
                    record=False)
        self.method(SectionOracle, "contains", "sections.contains",
                    on_call=_sampler_attempt, on_return=_accepted)
        self.method(Subspace, "intersect", "linalg.Subspace.intersect",
                    counted=True)
        self.method(GaussianRational, "__init__", "gaussian.constructed",
                    counted=True)
        if workload == "corpus-report":
            self.stage_hook(Workbench, "report", REPORT_STAGES, "report")
        elif workload == "generated-verdicts":
            self.stage_hook(Workbench, "verdict", VERDICT_STAGES, "verdict")

    # -- results -------------------------------------------------------------

    def metrics(self, ops_per_s: float) -> Dict[str, float]:
        st, c = self.stats, self.counts

        def calls(name):
            return st[name][0] if name in st else 0

        def total(name):
            return st[name][1] if name in st else 0.0

        def self_s(name):
            return st[name][2] if name in st else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m: Dict[str, float] = {}
        for stage in STAGES:
            m[f"workbench.{stage}.total_s"] = total(f"workbench.{stage}")
        gl = "strata.generic_layer"
        m[f"{gl}.calls"] = calls(gl)
        m[f"{gl}.total_s"] = total(gl)
        m[f"{gl}.useful_ratio"] = ratio(c["layer.useful"], c["layer.attempts"])
        m[f"{gl}.agreement"] = ratio(self.agreement_sum, calls(gl))
        for fn in ("strata.jump_data", "strata.section_vectors",
                   "functionals.pair"):
            for mode in ("exact", "float"):
                m[f"{fn}.{mode}.calls"] = calls(f"{fn}.{mode}")
                m[f"{fn}.{mode}.self_s"] = self_s(f"{fn}.{mode}")
        for fn in ("strata.pfaffian", "functionals.exp_h_coadjoint",
                   "sections.h_project"):
            m[f"{fn}.calls"] = calls(fn)
            m[f"{fn}.self_s"] = self_s(fn)
        m["linalg.rref.exact.calls"] = calls("linalg.rref.exact")
        m["linalg.rref.exact.self_s"] = self_s("linalg.rref.exact")
        m["linalg.rref.exact.entries"] = c["rref.exact.entries"]
        m["linalg.rref.float.calls"] = calls("linalg.rref.float")
        m["linalg.rref.float.self_s"] = self_s("linalg.rref.float")
        m["linalg.Subspace.intersect.calls"] = c["linalg.Subspace.intersect"]
        m["gaussian.constructed"] = c["gaussian.constructed"]
        m["sections.contains.calls"] = calls("sections.contains")
        m["sections.contains.self_s"] = self_s("sections.contains")
        m["sections.contains.accept_ratio"] = ratio(c["contains.accepted"],
                                                    calls("sections.contains"))
        m["sections.sampler.accept_ratio"] = ratio(c["sampler.returned"],
                                                   c["sampler.attempts"])
        for fn in ("sections.stabilizer_data", "algebra.validate_spec",
                   "algebra.weight_decomposition",
                   "adapted.build_adaptable_basis",
                   "admissibility.polarization_data",
                   "admissibility.center_data", "admissibility.unimodularity",
                   "corpus.corpus_entries"):
            m[f"{fn}.total_s"] = total(fn)
        m["cli.main.self_s"] = self_s("cli.main")
        m["tracing.ops_per_s"] = ops_per_s
        return m

    def op_stages(self) -> Dict[str, Dict[str, float]]:
        """Stage totals per operation label."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            _, name, start, end, _, op = span
            if op is not None and name.startswith("workbench."):
                out[op][name[len("workbench."):]] += end - start
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


def unit_of(metric: str) -> str:
    if metric.endswith("ops_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "agreement")):
        return "ratio"
    return "count"


# -- count hooks ---------------------------------------------------------------

def _agreement(tracer, args, desc):
    tracer.agreement_sum += desc.consistency


def _layer_attempt(tracer, name, args, kwargs):
    if tracer.parent_name() == "strata.generic_layer":
        tracer.counts["layer.attempts"] += 1


def _layer_useful(tracer, args, result):
    if tracer.parent_name() == "strata.generic_layer":
        tracer.counts["layer.useful"] += 1


def _rref_entries(tracer, label, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    if label.endswith(".exact") and rows:
        tracer.counts["rref.exact.entries"] += len(rows) * len(rows[0])


def _sampled(tracer, args, result):
    tracer.counts["sampler.returned"] += 1


def _sampler_attempt(tracer, label, args, kwargs):
    if tracer.parent_name() in SAMPLERS:
        tracer.counts["sampler.attempts"] += 1


def _accepted(tracer, args, result):
    if result:
        tracer.counts["contains.accepted"] += 1
