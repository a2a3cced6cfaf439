"""solvlie benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload corpus-report --seed 3 --seconds 10 --trace 0

The loop issues the next operation only when the previous one returned.
It runs whole rounds of the workload (a round's composition is fixed, so
every run measures the same mix) and stops at the round boundary nearest
to --seconds, after at least one round. One corpus-report round takes about
45 s and one generated-verdicts round about 30 s on a 2-core Xeon VM, so
those workloads measure one round at --seconds 10.

Every timing is reported at a fixed reference machine speed: all through
the run an interval timer times a fixed pure-Python kernel, and each timing
is scaled by the kernel's speed around it (see speed.py). The
human-readable lines also print the raw wall-clock figures.

--trace 0 prints the end-to-end metrics; --trace 1 runs exactly one round
with wrappers around the solvlie layers and prints the per-layer metrics
(see perfbench/README.md for what each one should move). The spans go to
.perfbench/ in the checkout. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import MIN_SAMPLES, Reference

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
LOAD_REPEATS = 3
IMPORT_REPEATS = 5


def import_solvlie() -> None:
    """Import solvlie from this checkout's source tree."""
    if not (SRC / "solvlie" / "__init__.py").is_file():
        raise SystemExit(f"error: no solvlie sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import solvlie
    if Path(solvlie.__file__).resolve().parent != SRC / "solvlie":
        raise SystemExit(f"error: imported solvlie from {solvlie.__file__}, "
                         f"not from {SRC}")


def reimport_solvlie(reference) -> list:
    """Spans of IMPORT_REPEATS fresh imports of every solvlie module, after
    the first import has loaded numpy (a fixed third-party cost) and
    compiled the sources."""
    spans = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules
                     if m == "solvlie" or m.startswith("solvlie.")]:
            del sys.modules[name]
        mark = reference.mark()
        importlib.import_module("solvlie")
        spans.append(reference.since(mark))
    return spans


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond
    it. Below 20 samples that percentile is under the median, so the
    maximum is reported instead, as percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Loop:
    """Closed-loop execution of whole rounds with per-operation checks."""

    def __init__(self, workload, reference, tracer=None):
        self.workload = workload
        self.reference = reference
        self.tracer = tracer
        self.spans = []             # (start, end, seconds) per operation
        self.wrong = 0
        self.errors = 0
        self.reported = set()
        self.rounds = []            # (first operation, operations) per round

    def run(self, seconds: float, rounds: int = 0):
        """Run `rounds` rounds, or else whole rounds until the round boundary
        nearest to `seconds`; returns the number of rounds."""
        start = perf_counter()
        while True:
            before = len(self.spans)
            for op in self.workload.round():
                self._one(op)
            self.rounds.append((before, len(self.spans) - before))
            done = len(self.rounds)
            elapsed = perf_counter() - start
            if done == rounds or (not rounds and
                                  elapsed + elapsed / done / 2 >= seconds):
                return done

    def _one(self, op):
        tracer = self.tracer
        arg = op.prepare()
        if tracer:
            tracer.op_label = op.label
            tracer.active = True
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        error = result = None
        mark = self.reference.mark()
        try:
            with span:
                result = op.run(arg)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            error = exc
        finally:
            self.spans.append(self.reference.since(mark))
            if tracer:
                tracer.active = False
        if error is not None:
            self.errors += 1
            self._report(op.label, "error", "".join(
                traceback.format_exception_only(type(error), error)).strip())
            return
        reason = op.check(result)
        if reason:
            self.wrong += 1
            self._report(op.label, "wrong", reason)

    def _report(self, label, kind, reason):
        if (label, kind) not in self.reported:
            self.reported.add((label, kind))
            print(f"{kind}: {self.workload.name} {label}: {reason}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.spans)

    def latencies(self, scaled: bool) -> list:
        """Seconds per operation, at the reference speed or raw."""
        if scaled:
            return [self.reference.scaled(s) for s in self.spans]
        return [seconds for _, _, seconds in self.spans]

    @property
    def failed(self) -> int:
        return self.wrong + self.errors

    def ops_per_s(self, scaled: bool) -> float:
        """Median over rounds, so a short burst of machine speed or load
        moves it less than a plain ratio over the run."""
        lat = self.latencies(scaled)
        return statistics.median(n / sum(lat[first:first + n])
                                 for first, n in self.rounds)


def untraced(workload, seconds: float, reference):
    """The end-to-end metrics; `reference` is running."""
    imports = reimport_solvlie(reference)
    loads = []
    for _ in range(LOAD_REPEATS):
        mark = reference.mark()
        workload.load()
        loads.append(reference.since(mark))
    mark = reference.mark()
    workload.build()
    build = reference.since(mark)

    loop = Loop(workload, reference)
    rounds = loop.run(seconds)
    reference.sample(MIN_SAMPLES)   # so the last operations have samples after
    reference.stop()

    def setup_s(scale):
        return (statistics.median(map(scale, imports)) +
                statistics.median(map(scale, loads)) + scale(build))

    def round_tail(lat):
        """Median over rounds of each round's tail: every round has the same
        operations, so its tail is the same percentile however many rounds
        the run has time for."""
        return statistics.median(tail(lat[first:first + n])[0]
                                 for first, n in loop.rounds)

    lat_ms = [x * 1000.0 for x in loop.latencies(scaled=True)]
    raw_ms = [x * 1000.0 for x in loop.latencies(scaled=False)]
    per_round = loop.rounds[0][1]
    tail_pct = tail(lat_ms[:per_round])[1]
    print(f"# {workload.name}: {rounds} round(s), {loop.attempted} operations; "
          f"tail = p{tail_pct:.2f} of each round's {per_round} samples, "
          f"median over rounds")
    metrics = {
        "setup_s": (setup_s(reference.scaled), "s"),
        "ops_per_s": (loop.ops_per_s(scaled=True), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (round_tail(lat_ms), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
    }
    raw = {
        "setup_s": setup_s(lambda span: span[2]),
        "ops_per_s": loop.ops_per_s(scaled=False),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_tail_ms": round_tail(raw_ms),
    }
    failed_ratio = loop.failed / loop.attempted
    print(f"# {'metric':16s} {'at ref speed':>12s}  {'raw':>12s}; "
          f"reference kernel median {statistics.median(reference.took) * 1e3:.3f} ms "
          f"over {len(reference.took)} samples")
    for name, (value, unit) in metrics.items():
        shown = f"{raw[name]:12.4f}" if name in raw else " " * 12
        print(f"{name:18s} {value:12.4f}  {shown} {unit}")
    # failed_ratio is 0 on a healthy workload, so it is printed here and
    # reaches the result line only as its "failed"/"attempted" fields
    print(f"{'failed_ratio':18s} {failed_ratio:12.4f}  {'':12s} ratio")
    return loop, metrics


def traced(workload, seed: int, reference):
    from tracing import Tracer, unit_of

    tracer = Tracer()
    tracer.install(workload.name)
    try:
        tracer.active = True
        with tracer.span("setup"):
            workload.load()
            workload.build(stage=tracer.span)
        tracer.active = False
        loop = Loop(workload, reference, tracer)
        loop.run(0, rounds=1)
    finally:
        tracer.active = False
        tracer.uninstall()

    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(out)
    print(f"# {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    for label, stages in sorted(tracer.op_stages().items()):
        if stages:
            top = max(stages, key=stages.get)
            print(f"# {label}: largest stage {top} {stages[top]:.3f} s; " +
                  ", ".join(f"{k} {v:.3f}" for k, v in stages.items()))
    metrics = {}
    # the interval timer is off in a traced run, so that no span holds
    # kernel time; tracing.ops_per_s is raw wall-clock
    for name, value in tracer.metrics(loop.ops_per_s(scaled=False)).items():
        unit = unit_of(name)
        metrics[name] = (value, unit)
        print(f"{name:44s} {value:14.6f} {unit}")
    return loop, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    reference = Reference()
    reference.sample(MIN_SAMPLES)   # also warms the interpreter up
    import_solvlie()
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        loop, metrics = traced(workload, args.seed, reference)
    else:
        reference.start()
        try:
            loop, metrics = untraced(workload, args.seconds, reference)
        finally:
            reference.stop()
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
