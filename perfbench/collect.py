"""Run the benchmark over several seeds and summarize each metric.

Run from the repository root, one benchmark process at a time:

    python3 perfbench/collect.py --workloads enc-scan,membership --seeds 1-10 --trace 0 --out summary.json

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Runs of one
workload alternate with the others, seed by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    names = args.workloads.split(",")
    values = {w: {} for w in names}
    units = {}
    for seed in parse_seeds(args.seeds):
        for w in names:
            result = run_once(w, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{w} seed {seed}: {result['failed']} failed ops")
            for metric, entry in result["metrics"].items():
                values[w].setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{w} seed {seed} done", file=sys.stderr)
    summary = {
        w: {m: dict(summarize(v), unit=units[m], values=v) for m, v in metrics.items()}
        for w, metrics in values.items()
    }
    for w, metrics in summary.items():
        for m, s in metrics.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{w:15s} {m:50s} median {s['median']:.6g} {s['unit']:10s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
