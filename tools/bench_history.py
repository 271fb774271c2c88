"""Print the speed trajectory recorded in the committed BENCH_*.json files.

Each BENCH file holds paired perfbench/run.py runs of a parent and a
change tree.  For every workload and end-to-end metric of BENCHMARK.json
this prints, in commit order (the commit that added each file, from
git log; a file not yet committed comes last), the parent and change
medians with the parent's IQR (statistics.quantiles, n=4), computed from
each file's runs as it stands.  The seed baseline of
perfbench/baseline.json heads each table and the latest change median
closes it; a file git does not know shows "-" for its commit.

A step is the move from one file's change median to the next file's
parent median on the same workload.  No change lands between the two,
so a step larger than that parent's IQR is drift that no single change
owns; such steps are marked with '*'.  A side with one run has no IQR,
and its step is not marked.

Two early files predate the ``runs`` key and hold ``rounds`` of runs
instead; legacy_runs reads them, taking for each workload the last round
that measured it (the round that ran the committed tree).  No file is
edited.

usage: python tools/bench_history.py [REPO_ROOT]   (default: this repository)
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def legacy_runs(record: dict) -> dict:
    """{workload: [run]} of a file that stores ``rounds`` of runs: for each
    workload, the runs of the last round that measured it."""
    runs = {}
    for number in sorted(record["rounds"], key=int):
        runs.update(record["rounds"][number])
    return runs


def runs_of(record: dict) -> dict:
    return record["runs"] if "runs" in record else legacy_runs(record)


def spread(values: list) -> dict:
    """Median, q1 and q3 of the values; q1 and q3 are None for one value."""
    q1 = q3 = None
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def iqr(stats: dict):
    return None if stats["q1"] is None else stats["q3"] - stats["q1"]


def commit_order(root: pathlib.Path, names: list) -> list:
    """[(name, short hash or None)] in the order of the commits that added
    the files; files git does not know come last, by name (all of them,
    outside a git checkout)."""

    def git(*args) -> list:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return out.stdout.split() if out.returncode == 0 else []

    position = {commit: i for i, commit in enumerate(git("rev-list", "--reverse", "--topo-order", "HEAD"))}
    added = {}
    for name in names:
        commits = git("log", "--diff-filter=A", "--format=%H", "--", name)
        added[name] = commits[-1] if commits else None
    last = len(position)
    ordered = sorted(names, key=lambda name: (position.get(added[name], last), name))
    return [(name, added[name] and added[name][:7]) for name in ordered]


def history(root: pathlib.Path) -> dict:
    """{workload: {metric: {"better", "baseline", "rows"}}}, each row a dict
    with the file, its commit, both sides' spread, the previous file's
    change median (None on the first row) and whether the step from it
    is marked."""
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    baseline = json.loads((root / "perfbench" / "baseline.json").read_text())["end_to_end"]
    names = sorted(path.name for path in root.glob("BENCH_*.json"))
    records = {name: runs_of(json.loads((root / name).read_text())) for name in names}
    order = commit_order(root, names)
    out = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        out[workload] = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = baseline[workload][name]
            rows, previous = [], None
            for file, commit in order:
                runs = [run for run in records[file].get(workload, ()) if name in run]
                if not runs:
                    continue
                sides = {side: spread([run[name] for run in runs if run["side"] == side]) for side in SIDES}
                width = iqr(sides["parent"])
                marked = None not in (previous, width) and abs(sides["parent"]["median"] - previous) > width
                rows.append({"file": file, "commit": commit, **sides, "previous": previous, "marked": marked})
                previous = sides["change"]["median"]
            out[workload][name] = {
                "better": metric["better"],
                "baseline": {key: base[key] for key in ("median", "q1", "q3")},
                "rows": rows,
            }
    return out


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.4g}"


def main(argv: list) -> int:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parent.parent
    for workload, metrics in history(root).items():
        for metric, table in metrics.items():
            rows, base = table["rows"], table["baseline"]
            print(f"{workload} {metric} ({table['better']} is better)")
            print(f"  {'seed baseline':<34}{'':>8}  {_fmt(base['median']):>10} (IQR {_fmt(base['q3'] - base['q1'])})")
            for row in rows:
                parent, change = row["parent"], row["change"]
                step = "" if row["previous"] is None else f"  step {parent['median'] / row['previous'] - 1:+.1%}"
                print(
                    f"  {row['file']:<34}{row['commit'] or '-':>8}  {_fmt(parent['median']):>10} (IQR {_fmt(iqr(parent))})"
                    f" -> {_fmt(change['median']):>10}{step}{' *' if row['marked'] else ''}"
                )
            if rows:
                latest = rows[-1]["change"]["median"]
                print(f"  seed baseline -> latest change: {_fmt(base['median'])} -> {_fmt(latest)} (x{latest / base['median']:.3g})")
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
