#!/usr/bin/env python3
"""nilforms benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload product_tables --seed 1 --seconds 30 --trace 0

Run from the repository root.  Operations run one after another in this
process (no threads, no pool); each starts when the previous one has
finished and been checked.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs one untraced pass, one traced pass and one
scalar-counting round and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is a summary
with the tail percentile, failure ratio, repeated-input share and the
raw wall-clock figures.

Every time is reported at reference speed: a wall-clock time t becomes
t * REFERENCE_S / r, where r is the mean time of the reference kernel,
run just before, every SAMPLE_EVERY_S during (from a timer signal, its
own time taken out of t) and just after the measured call, each time with
the garbage collector off.  On a shared
machine whose speed drifts by tens of percent within a minute, this
keeps the figures of one program comparable between runs; the raw times
are on the summary line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
#: a run stops early, at a round boundary, once its operations took this
#: many times --seconds at reference speed.  The nominal run takes about
#: 0.5 to 0.65 times --seconds, so only a program more than twice as slow
#: stops early, and the machine's speed does not change how many operations
#: a run measures.
OVERRUN = 1.4
#: time of one reference_kernel() call on an uncontended core of the
#: baseline machine, and the number of calls on each side of a measurement
REFERENCE_S = 0.0025
REFERENCE_CALLS = 3
SAMPLE_EVERY_S = 0.25

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def reference_kernel() -> None:
    """Fixed exact arithmetic outside nilforms, like the inner loop of a
    sparse elimination: Fraction products and sums kept in a dict."""
    acc = {}
    for i in range(1, 400):
        s = Fraction(i % 13 + 1, i % 17 + 2) * Fraction(i % 5 + 1, 3) - Fraction(1, i % 7 + 1)
        k = i % 61
        v = acc.get(k)
        acc[k] = s if v is None else v + s


def reference_sample() -> float:
    """Time of one reference_kernel() call.  The collector is off while it
    runs, so a collection that scans nilforms' live heap cannot land in
    it; the kernel frees all it allocates, so it leaves no collector debt."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_samples() -> list:
    return [reference_sample() for _ in range(REFERENCE_CALLS)]


class Measured:
    """Times one call and samples the reference kernel before, during and
    after it; ``scaled`` is the call's time at reference speed."""

    def __init__(self):
        self.samples = reference_samples()
        self.spent = 0.0  # time the in-call samples took

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_sample())
        self.spent += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.raw = t1 - self._t0 - self.spent
        self.samples += reference_samples()
        # the mean, not the median: over a long call the machine moves
        # between fast and slow spells, and the call's time mixes them
        self.reference = statistics.fmean(self.samples)
        self.scaled = self.raw * REFERENCE_S / self.reference
        return False


def _purge_modules() -> None:
    for name in list(sys.modules):
        if name in ("nilforms", "workloads", "tracing") or name.startswith("nilforms."):
            del sys.modules[name]


def setup(name: str, seed: int):
    """Import nilforms and build the workload SETUP_REPS times; median time."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    times, raw = [], []
    for _ in range(SETUP_REPS):
        _purge_modules()
        gc.collect()
        with Measured() as m:
            workloads = importlib.import_module("workloads")
            wl = workloads.make(name, seed, json.loads(GOLDENS.read_text()))
        raw.append(m.raw)
        times.append(m.scaled)
    return workloads, wl, statistics.median(times), statistics.median(raw)


class Stats:
    """Durations (at reference speed) and failures of the operations of one phase."""

    def __init__(self):
        self.durations = []
        self.raw = []  # wall-clock seconds
        self.refs = []  # reference time beside each operation
        self.labels = []
        self.failed = 0
        self.repeats = 0
        self.outcomes = {"plain": 0, "corrected": 0, "obstructed": 0}

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.durations)


def run_ops(ops, stats: Stats, seen: set, probe=None, outcome_of=None) -> None:
    """Run, time and check each operation; ``probe`` (a Tracer or a
    ScalarCounter) is told where each operation starts and ends."""
    for op in ops:
        if op.key in seen:
            stats.repeats += 1
        seen.add(op.key)
        gc.collect()  # no collector debt carried over from the last check
        error = None
        with Measured() as m:
            if probe is not None:
                probe.begin_op(len(stats.durations), op.label)
            try:
                result = op.run()
            except Exception:
                error = traceback.format_exc()
            if probe is not None:
                probe.end_op()
        stats.durations.append(m.scaled)
        stats.raw.append(m.raw)
        stats.refs.append(m.reference)
        stats.labels.append(op.label)
        if error is None:
            try:
                op.check(result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            stats.failed += 1
            print(f"operation {op.label} failed:\n{error}", file=sys.stderr)
        elif outcome_of is not None and op.label.startswith("solve_"):
            stats.outcomes[outcome_of(result)] += 1


def take_rounds(wl, count: int, stats: Stats, limit_s: float):
    gen = wl.rounds()
    for _ in range(count):
        if sum(stats.durations) > limit_s:
            return
        yield from next(gen)


def tail(durations):
    """Highest percentile with at least ten samples above it; the maximum
    (percentile 100, none above) when there are ten samples or fewer."""
    xs = sorted(durations)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(wl, seconds: int, setup_s: float, raw_setup_s: float):
    rounds = max(1, round(seconds / wl.round_s))
    stats = Stats()
    run_ops(take_rounds(wl, rounds, stats, OVERRUN * seconds), stats, set())
    tail_s, pct, above = tail(stats.durations)
    metrics = {
        "ops_per_s": stats.ops_per_s(),
        "op_p50_s": statistics.median(stats.durations),
        "op_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = {
        "rounds": stats.attempted // wl.round_size,
        "op_tail_percentile": pct,
        "op_tail_samples_above": above,
        "raw_ops_per_s": stats.attempted / sum(stats.raw),
        "raw_op_p50_s": statistics.median(stats.raw),
        "raw_op_tail_s": tail(stats.raw)[0],
        "raw_setup_s": raw_setup_s,
        "reference_median_s": statistics.median(stats.refs),
        "timed_s": sum(stats.raw),
        "p50_by_label_s": {
            label: statistics.median(d for d, l in zip(stats.durations, stats.labels) if l == label)
            for label in sorted(set(stats.labels))
        },
    }
    return stats, metrics, summary


def layers(workloads, wl, name: str, seed: int):
    tracing = importlib.import_module("tracing")
    seen = set()
    gen = wl.rounds()

    def one_pass():
        return [op for _ in range(wl.pass_rounds) for op in next(gen)]

    untraced = Stats()
    run_ops(one_pass(), untraced, seen)

    tracer = tracing.Tracer()
    traced = Stats()
    ops = one_pass()
    tracer.install(extra_modules=[workloads])
    try:
        run_ops(ops, traced, seen, probe=tracer, outcome_of=workloads.outcome_of)
    finally:
        tracer.uninstall()

    counter = tracing.ScalarCounter()
    counted = Stats()
    ops = next(gen)
    counter.install()
    try:
        run_ops(ops, counted, seen, probe=counter)
    finally:
        counter.uninstall()

    metrics = tracing.layer_metrics(tracer)
    metrics.update(counter.metrics())
    metrics.update({f"extension.{k}": v for k, v in traced.outcomes.items()})
    metrics["trace.overhead_ratio"] = untraced.ops_per_s() / traced.ops_per_s()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(span_file)
    by_self = tracing.largest_self(tracer)
    summary = {
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "largest_self_s": dict(by_self[:6]),
        "self_total_s": sum(v for _, v in by_self),
    }
    stats = Stats()
    for part in (untraced, traced, counted):
        stats.durations += part.durations
        stats.failed += part.failed
        stats.repeats += part.repeats
    return stats, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("product_tables", "fiber_sweep", "extension_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nilforms" / "__init__.py").is_file():
        print(f"error: no nilforms sources under {SRC}", file=sys.stderr)
        return 2

    workloads, wl, setup_s, raw_setup_s = setup(args.workload, args.seed)
    if args.trace:
        stats, metrics, summary = layers(workloads, wl, args.workload, args.seed)
        units = {}
    else:
        stats, metrics, summary = end_to_end(wl, args.seconds, setup_s, raw_setup_s)
        units = END_TO_END_UNITS
    summary.update({
        "workload": args.workload,
        "seed": args.seed,
        "samples": stats.attempted,
        "failed_ops_ratio": stats.failed / stats.attempted,
        "repeated_input_share": stats.repeats / stats.attempted,
    })
    print("summary " + json.dumps(summary))
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or layer_unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("max_dim"):
        return "rows"
    if name.endswith("_ops_computed"):
        return "ops"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
