"""The schema of the committed BENCH_*.json speed records.

Every record outside LEGACY backs a speed claim with paired perfbench
runs, and its summary is recomputed here from those runs, so a figure
cannot drift from the runs it summarizes:

- ``what`` (how the figures were made, naming perfbench/run.py, the
  tool behind the runs) and ``machine``;
- ``claim``: the claimed workload and metric, the pairs the change won
  out of the pairs run, the median gain against the parent's IQR, and
  whether the claim was met (at least nine tenths of the pairs won and
  a median gain above the parent's IQR);
- ``runs``: for each workload of BENCHMARK.json, one perfbench result
  per side and seed, with the side that ran first;
- ``summary``: for each workload and end-to-end metric, each side's
  median, q1 and q3 (statistics.quantiles, n=4), the pairs and the
  pairs the change won;
- the tool behind every other figure: each further top-level section is
  either named in quotes in ``what`` or carries a ``tool`` of its own
  (every entry, for a list).

LEGACY names the records made before this schema, which have no claim.
"""

import json
import math
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SIDES = ("parent", "change")
CORE = {"what", "machine", "claim", "runs", "summary"}

LEGACY = {
    "BENCH_atlas_checked_once.json",
    "BENCH_atlas_one_pass.json",
    "BENCH_atlas_rows.json",
    "BENCH_cli_parser_once.json",
    "BENCH_eliminate_kernel.json",
    "BENCH_enc_whole_list_parse.json",
    "BENCH_membership_one_face.json",
    "BENCH_one_dimension_formula.json",
    "BENCH_subspace_annihilator.json",
    "BENCH_tangent_chart.json",
}


def _records() -> dict:
    return {path.name: json.loads(path.read_text()) for path in sorted(ROOT.glob("BENCH_*.json"))}


def _close(a, b) -> bool:
    # the committed figures are rounded to six decimal places
    return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)


def test_legacy_names_exactly_the_records_without_a_claim():
    records = _records()
    assert LEGACY <= set(records)
    assert {name for name, record in records.items() if "claim" not in record} == LEGACY


@pytest.mark.parametrize("name", sorted(set(_records()) - LEGACY))
def test_bench_record_follows_the_schema(name):
    record = _records()[name]
    assert isinstance(record["what"], str) and "perfbench/run.py" in record["what"]
    assert isinstance(record["machine"], str) and record["machine"]
    assert set(record["runs"]) == set(record["summary"]) == set(WORKLOADS)

    for workload in WORKLOADS:
        runs = record["runs"][workload]
        seeds = {side: sorted(run["seed"] for run in runs if run["side"] == side) for side in SIDES}
        assert seeds["parent"] == seeds["change"] and len(set(seeds["parent"])) == len(seeds["parent"]), workload
        assert all(isinstance(run["first"], bool) for run in runs), workload
        for metric, better in BETTER.items():
            summary = record["summary"][workload][metric]
            values = {side: {run["seed"]: run[metric] for run in runs if run["side"] == side} for side in SIDES}
            for side in SIDES:
                xs = list(values[side].values())
                q1, _, q3 = statistics.quantiles(xs, n=4)
                got = summary[side]
                assert _close(got["median"], statistics.median(xs)), (workload, metric, side)
                assert _close(got["q1"], q1) and _close(got["q3"], q3), (workload, metric, side)
            won = sum(
                (c > p) if better == "higher" else (c < p)
                for p, c in ((values["parent"][s], values["change"][s]) for s in values["parent"])
            )
            assert summary["pairs"] == len(runs) // 2, (workload, metric)
            assert summary["change_better_pairs"] == won, (workload, metric)

    claim = record["claim"]
    summary = record["summary"][claim["workload"]][claim["metric"]]
    assert claim["pairs"] == summary["pairs"] and claim["pairs_won"] == summary["change_better_pairs"]
    parent, change = summary["parent"], summary["change"]
    assert _close(claim["median_gain"], abs(change["median"] - parent["median"]))
    assert _close(claim["parent_iqr"], parent["q3"] - parent["q1"])
    met = 10 * claim["pairs_won"] >= 9 * claim["pairs"] and claim["median_gain"] > claim["parent_iqr"]
    assert claim["met"] is met

    for key in set(record) - CORE:
        section = record[key]
        entries = section if isinstance(section, list) else [section]
        tooled = all(isinstance(entry, dict) and "tool" in entry for entry in entries)
        assert f"'{key}'" in record["what"] or tooled, (name, key)
