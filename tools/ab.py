"""Time one perfbench workload on two divatlas source trees in one process.

usage: python tools/ab.py A_DIR B_DIR --workload NAME [--seed N] [--rounds R]

A_DIR and B_DIR are ``src/divatlas`` directories, for instance the one
of this checkout and that of an exported parent commit.  Both are loaded
side by side under the distinct package names ``ab_a`` and ``ab_b``,
through ``importlib.util.spec_from_file_location`` (the package imports
its own modules only relatively).  The seeded ops come from
``perfbench/workloads.py``, which is imported as it is.  Each round
loads both trees afresh, its modules dropped from ``sys.modules`` first,
and binds the ops to the new modules, as perfbench imports the package
afresh before each round: a module-level cache
(``tensors._EXPONENT_VECTORS``, ``cli._build_parser``) serves repeats
within a round and dies with it.  As in perfbench, the garbage of the
last round is collected before the next one starts, outside the timing:
otherwise a full collection now and then falls inside one op, which
then outweighs hundreds of others in the summed time.  The ops of a
round run in chunks of CHUNK = 16; for each chunk a coin picks which
tree runs it first, and then the other runs the same chunk, so both see
the same spells of a shared machine.

Every answer is checked.  For each tree the tool prints ``ops_per_s``
(ops over the summed op latencies) and the p50 and p90 op latencies,
by perfbench's ``quantile``, then the median over chunks of the ratio
of A's chunk time to B's, with a 95% percentile bootstrap interval of
that median (BOOTSTRAP resamples of the chunk ratios, drawn with
replacement from a generator seeded by ``--seed``), and last the ratio
of the summed ops_per_s of B to A, marked "no interval": one slow op or
slow spell moves that sum, so only the chunk ratio's interval says
whether B differs.  A value above 1 means B is faster.  The last line
is one JSON object.  It is no gate: a speed claim still needs
perfbench's paired runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import random
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from run import MODULES, quantile  # noqa: E402

CHUNK = 16
BOOTSTRAP = 2000


class Tree:
    """The modules of one source tree, loaded afresh under the package
    name ``name``: any earlier load under that name is dropped first."""

    def __init__(self, name: str, path: str):
        init = os.path.join(path, "__init__.py")
        if not os.path.isfile(init):
            raise SystemExit(f"ab: no package at {path}")
        for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[loaded]
        spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[path])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        for module in MODULES:
            setattr(self, module, importlib.import_module(f"{name}.{module}"))


def run(trees: list, recipes: list, rounds: int, rng: random.Random) -> tuple:
    """For trees given as (package name, src/divatlas directory) pairs: per
    tree, the op latencies; the per-chunk time ratios A / B; failures.
    Both trees are loaded afresh at the start of every round, and the
    garbage collected, outside the timing."""
    latencies = [[] for _ in trees]
    ratios = []
    failed = 0
    for _ in range(rounds):
        ops = [workloads.bind(Tree(name, path), recipes) for name, path in trees]
        gc.collect()
        for start in range(0, len(recipes), CHUNK):
            order = [0, 1]
            rng.shuffle(order)
            spent = [0.0, 0.0]
            for side in order:
                for op in ops[side][start : start + CHUNK]:
                    t0 = perf_counter()
                    result = op.call()
                    latency = perf_counter() - t0
                    failed += not op.check(result)
                    latencies[side].append(latency)
                    spent[side] += latency
            ratios.append(spent[0] / spent[1])
    return latencies, ratios, failed


def bootstrap_interval(ratios: list, rng: random.Random) -> tuple:
    """The 2.5% and 97.5% order statistics of the medians of BOOTSTRAP
    resamples of ratios, each as long as ratios and drawn with replacement."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP))
    return medians[round(0.025 * (BOOTSTRAP - 1))], medians[round(0.975 * (BOOTSTRAP - 1))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the first src/divatlas directory")
    parser.add_argument("b", help="the second src/divatlas directory")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")

    trees = [("ab_a", os.path.abspath(args.a)), ("ab_b", os.path.abspath(args.b))]
    with tempfile.TemporaryDirectory() as workdir:
        recipes = workloads.WORKLOADS[args.workload](args.seed, workdir)
        latencies, ratios, failed = run(trees, recipes, args.rounds, random.Random(args.seed))
    sides = {}
    for name, lat in zip("ab", latencies):
        sides[name] = {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": quantile(lat, 0.5) * 1e3,
            "op_p90_ms": quantile(lat, 0.9) * 1e3,
        }
        print(f"{name}: " + ", ".join(f"{key} {value:.6g}" for key, value in sides[name].items()))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_side": len(latencies[0]),
        "failed": failed,
        "sides": sides,
        "ops_per_s_ratio_b_over_a": sides["b"]["ops_per_s"] / sides["a"]["ops_per_s"],
        "median_chunk_ratio_a_over_b": statistics.median(ratios),
        "median_chunk_ratio_ci95": bootstrap_interval(ratios, random.Random(f"ab-bootstrap:{args.seed}")),
    }
    lo, hi = result["median_chunk_ratio_ci95"]
    print(
        f"{len(latencies[0])} ops per side in {len(ratios)} chunks, {failed} failed; "
        f"median chunk time a/b {result['median_chunk_ratio_a_over_b']:.4f} (95% bootstrap {lo:.4f}-{hi:.4f}); "
        f"summed ops_per_s b/a {result['ops_per_s_ratio_b_over_a']:.4f} (no interval)"
    )
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
