"""Seeded benchmark of the divatlas package, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload enc-scan --seed 1 --seconds 15 --trace 0

One process and one caller in a closed loop: each op starts when the
previous one has returned, with no threads.  Set-up (importing the
package from ``src/`` and generating the seeded inputs, input files
included) is repeated ``SETUP_REPEATS`` times and its median reported.
One untimed warm-up op runs before timing.  The timed phase repeats
the seeded op list in whole rounds until ``--seconds`` have passed and
at least ``MIN_ROUNDS`` rounds have run, so the op mix is the same in
every run.  Before each round, outside the timed region, the package is
imported afresh and the ops are bound to it (``workloads.bind``), so a
result the package keeps from one call to the next (a cache) serves
repeats within a round but dies with it, as it dies with the process
of a command-line query.  Every answer is checked.

On the shared 2-core x86-64 machine where the baseline was measured,
the same Python code runs up to 2.5x slower for seconds or minutes at
a time, because other tenants share it.  Two things keep the figures
steady under that:

* Speed scaling.  Every ``PROBE_EVERY_S`` the loop times a fixed
  reference computation (``reference``, pure-Python Fraction, int and
  dict work like the package's).  Each op latency is multiplied by
  ``REF_SECONDS`` over the mean of the probes taken just before and
  after it, so times read as on a machine where the reference takes
  ``REF_SECONDS`` (the baseline machine when idle).  A change to the
  package moves the op latencies and not the probes, so it shows in
  full.  Set-up times are scaled the same way.  The unscaled figures
  are printed too.
* Medians over rounds.  Each op's latency is the median of its scaled
  latencies over the rounds, which drops samples a slow spell hit once
  three or more rounds run.  Two rounds suffice at the least: across
  seeds the figures vary with the inputs more than with the timing, so
  a round holds many distinct inputs rather than the run many rounds.
  ``ops_per_s`` is ops per round over the sum of these per-op latencies.
  ``op_p50_ms`` and ``op_p90_ms`` are Harrell-Davis estimates of their
  quantiles (``quantile``): every round holds over 100 ops, and the
  estimate does not jump across gaps between op sizes as a single
  order statistic does.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds for ``--seconds``, at least one of each, so
both see the same spells of the machine, and reports the per-layer
metrics of the traced rounds, each span scaled like its op's latency,
plus the tracing overhead.  Every metric is printed with its unit; the
last line of standard output is one JSON object.  The exit code is 1
when any op fails its check and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "tensors", "linalg", "subspaces", "atlas", "brill_noether")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
PROBE_EVERY_S = 0.1
REF_SECONDS = 1.25e-3  # reference() on the idle baseline machine

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Package:
    """The freshly imported package modules, looked up by name at call time."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "divatlas" or m.startswith("divatlas.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"divatlas.{name}"))
        where = os.path.abspath(self.cli.__file__)
        if not where.startswith(os.path.join(SRC, "divatlas") + os.sep):
            raise ImportError(f"divatlas loaded from {where}, not from {SRC}")


def reference() -> Fraction:
    """Fixed pure-Python work whose duration tracks the machine's speed."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 300):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
        seen[i, i % 7] = total.numerator % 1000
    return total


def probe() -> float:
    """Duration of ``reference``: the median of three timings, as the
    machine's speed changes within a few milliseconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def setup(workload: str, seed: int, repeats: int):
    """Import, generate inputs and bind the ops ``repeats`` times; return
    the last recipes and first op with the median scaled set-up time and
    the median unscaled one."""
    scaled, raw = [], []
    for _ in range(repeats):
        recipes = ops = None  # let the last repeat's inputs go before the next are made
        before = probe()
        t0 = perf_counter()
        pkg = Package()
        recipes = workloads.WORKLOADS[workload](seed, os.path.join(WORK, workload))
        ops = workloads.bind(pkg, recipes)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * 2 * REF_SECONDS / (before + probe()))
    return recipes, ops[0], statistics.median(scaled), statistics.median(raw)


class Phase:
    def __init__(self):
        self.rounds = []  # one list of scaled op latencies (seconds) per round
        self.scales = []  # the factor applied between each pair of probes
        self.op_scales = []  # the factor applied to each op, in run order
        self.raw_total = 0.0  # unscaled sum of all op latencies
        self.failed = 0

    def extend(self, other: "Phase") -> None:
        """Append the rounds of a phase run after this one."""
        self.rounds += other.rounds
        self.scales += other.scales
        self.op_scales += other.op_scales
        self.raw_total += other.raw_total
        self.failed += other.failed

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    def op_latencies(self) -> list:
        """Each op's median latency over the rounds."""
        return [statistics.median(samples) for samples in zip(*self.rounds)]

    def ops_per_s(self) -> float:
        lat = self.op_latencies()
        return len(lat) / sum(lat)


def execute(op) -> tuple:
    """Run one op; return (latency in seconds, answer correct)."""
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception:
        latency = perf_counter() - t0
        print(f"op {op.label} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return latency, False
    latency = perf_counter() - t0
    try:
        ok = op.check(result)
    except (LookupError, TypeError, ValueError, AttributeError):
        ok = False  # output of the wrong shape is a wrong answer
    if not ok:
        print(f"op {op.label} returned a wrong answer: {result!r:.200}", file=sys.stderr)
        return latency, False
    return latency, True


def run_phase(recipes: list, seconds: float, min_rounds: int, trace=None) -> Phase:
    """Closed loop over whole rounds of the ops that ``recipes`` make, each
    round on a fresh package, with speed probes between ops."""
    phase = Phase()
    pending = []  # (round list, index) of latencies not yet scaled

    def rescale(before, after):
        scale = 2 * REF_SECONDS / (before + after)
        for latencies, i in pending:
            phase.raw_total += latencies[i]
            latencies[i] *= scale
        phase.op_scales += [scale] * len(pending)
        pending.clear()
        phase.scales.append(scale)

    before = None
    deadline = perf_counter() + seconds
    while True:
        ops = pkg = None  # let the last round's package go before the next is built
        pkg = Package()
        ops = workloads.bind(pkg, recipes)
        if trace is not None:
            trace.install(pkg)
        gc.collect()
        if before is None:
            before = probe()
            next_probe = perf_counter() + PROBE_EVERY_S
        latencies = []
        phase.rounds.append(latencies)
        try:
            for op in ops:
                if trace is not None:
                    trace.op_index += 1
                latency, ok = execute(op)
                pending.append((latencies, len(latencies)))
                latencies.append(latency)
                phase.failed += not ok
                if perf_counter() >= next_probe:
                    after = probe()
                    rescale(before, after)
                    before = after
                    if trace is not None:
                        trace.calibrate()
                    next_probe = perf_counter() + PROBE_EVERY_S
        finally:
            if trace is not None:
                trace.uninstall()
        if perf_counter() >= deadline and len(phase.rounds) >= min_rounds:
            rescale(before, probe())
            return phase


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) density at their rank
    midpoints, a midpoint rule for the exact Beta-CDF weights."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_w = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n) for i in range(n)]
    top = max(log_w)
    w = [math.exp(x - top) for x in log_w]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def end_to_end(phase: Phase, setup_s: float) -> dict:
    lat = phase.op_latencies()
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_p90_ms": quantile(lat, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "divatlas", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        recipes, first_op, setup_s, setup_raw_s = setup(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    except ImportError as exc:
        print(f"perfbench: cannot import divatlas: {exc}", file=sys.stderr)
        return 2

    _, warm_ok = execute(first_op)
    attempted, failed = 1, int(not warm_ok)
    lines = [f"workload {args.workload}, seed {args.seed}, {len(recipes)} ops per round"]
    if args.trace:
        plain, traced, trace = Phase(), Phase(), tracer.Tracer()
        deadline = perf_counter() + args.seconds
        while True:
            plain.extend(run_phase(recipes, 0, 1))
            traced.extend(run_phase(recipes, 0, 1, trace))
            if perf_counter() >= deadline:
                break
        os.makedirs(WORK, exist_ok=True)
        trace.write(os.path.join(WORK, f"spans-{args.workload}.tsv.gz"))
        metrics = trace.metrics(traced.attempted, traced.op_scales)
        metrics["trace.overhead_frac"] = 1 - traced.ops_per_s() / plain.ops_per_s()
        units = tracer.per_layer_units()
        phases = (plain, traced)
        lines.append(
            f"untraced {len(plain.rounds)} rounds, traced {len(traced.rounds)} rounds, "
            f"{len(trace.name)} spans; linalg.rank.entries is computed from matrix shapes"
        )
    else:
        timed = run_phase(recipes, args.seconds, MIN_ROUNDS)
        metrics = end_to_end(timed, setup_s)
        units = E2E_UNITS
        phases = (timed,)
        lines.append(
            f"{len(timed.rounds)} rounds; quantiles over {len(recipes)} per-op latencies "
            f"({len(recipes) - int(0.9 * len(recipes))} beyond p90); set-up is the median of {SETUP_REPEATS}"
        )
        lines.append(
            f"unscaled: {timed.attempted / timed.raw_total!r} ops/s over all samples, set-up {setup_raw_s!r} s; "
            f"speed scale median {statistics.median(timed.scales)!r}, "
            f"range {min(timed.scales)!r}..{max(timed.scales)!r}"
        )
    for phase in phases:
        attempted += phase.attempted
        failed += phase.failed
    lines.append(f"fail_frac {failed / attempted!r} fraction ({failed} of {attempted} ops)")
    lines.extend(f"{name} {metrics[name]!r} {unit}" for name, unit in units.items())
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
