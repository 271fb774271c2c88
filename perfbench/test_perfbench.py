"""Tests of the benchmark itself: seeded inputs, ground truth, checks and tracing.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

INPUTS = {
    "enc-scan": (workloads.enc_inputs, lambda x: x[0]),
    "tangent-oracle": (workloads.tangent_inputs, lambda x: x[0]),
    "membership": (workloads.membership_inputs, lambda x: x[:2]),
    "atlas-sweep": (workloads.atlas_inputs, lambda x: x[:4]),
}


@pytest.fixture
def pkg():
    return run.Package()


def _bench_run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_same_seed_gives_identical_inputs(workload):
    make, _ = INPUTS[workload]
    assert make(7) == make(7)


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_other_seed_gives_same_cells_and_op_count(workload, pkg, tmp_path):
    make, cell = INPUTS[workload]
    a, b = make(1), make(2)
    assert a != b
    assert [cell(x) for x in a] == [cell(x) for x in b]
    ops_a = workloads.bind(pkg, workloads.WORKLOADS[workload](1, str(tmp_path / "a")))
    ops_b = workloads.bind(pkg, workloads.WORKLOADS[workload](2, str(tmp_path / "b")))
    assert len(ops_a) == len(ops_b) == len(a) > 100  # over ten per-op samples beyond p90
    assert sorted(op.label for op in ops_a) == sorted(op.label for op in ops_b)


def test_enc_ground_truth_matches_gauss_rank(pkg):
    t, la = pkg.tensors, pkg.linalg
    for (kind, k, n, _, s, _), obj, _ in workloads.enc_inputs(3):
        if n > 10:
            continue
        m = t.contraction_matrix(t.tensor_from_json(obj))
        assert la.gauss_rank(m) == workloads.enc_expected(kind, k, n, s)


def test_membership_ground_truth_matches_gauss_rank(pkg):
    t, la = pkg.tensors, pkg.linalg
    for (kind, k, n, s, _), role, coeffs, vectors, expected in workloads.membership_inputs(3):
        if n > (9 if kind == workloads.SKEW else 7):
            continue
        tensor = (t.SkewTensor if kind == workloads.SKEW else t.SymTensor)(n, k, coeffs)
        contraction = t.contraction_matrix(tensor)
        assert la.gauss_rank(contraction) == (s * k if kind == workloads.SKEW else s)
        # t lies in the k-th power of W exactly when W holds its enclosing space
        stacked = la.RationalMatrix.from_columns(list(vectors) + contraction.columns())
        assert (la.gauss_rank(stacked) == len(vectors)) is expected, (kind, k, n, role)


def test_checks_reject_wrong_answers(pkg, tmp_path):
    report = pkg.atlas.atlas_report(37, 36, 2, "skew")
    assert workloads.check_atlas_report(report, 37, 36, 2, "skew", False)
    silent = dict(report, notes=[])
    assert not report["counts"]["agrees"]
    assert not workloads.check_atlas_report(silent, 37, 36, 2, "skew", False)
    reordered = dict(report, components=report["components"][::-1])
    assert not workloads.check_atlas_report(reordered, 37, 36, 2, "skew", False)
    assert not workloads.check_atlas_report(report, 37, 36, 2, "skew", True)

    ops = workloads.bind(pkg, workloads.prepare_enc_scan(1, str(tmp_path)))
    op = next(op for op in ops if op.label == "skew k=3 n=8 low")
    code, text = op.call()
    assert op.check((code, text))
    wrong = json.loads(text)
    wrong["enc"] += 1
    assert not op.check((code, json.dumps(wrong)))
    garbled = workloads.Op("garbled", lambda: (0, "not json"), op.check)
    assert run.execute(garbled)[1] is False


def _function_bindings():
    return {
        (mod.__name__, attr): val
        for mod in tracer._package_modules()
        for attr, val in vars(mod).items()
        if callable(val)
    }


def test_tracer_rebinds_every_import_and_restores(pkg):
    before = _function_bindings()
    trace = tracer.Tracer()
    trace.install(pkg)
    try:
        for module in ("linalg", "tensors", "subspaces"):
            assert getattr(pkg, module).rank.__wrapped__ is before[("divatlas.linalg", "rank")]
        assert pkg.atlas.w_dim.__wrapped__ is before[("divatlas.brill_noether", "w_dim")]
    finally:
        trace.uninstall()
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _wrapped_bindings():
    wrapper_code = tracer.Tracer()._wrap(len, 0).__code__
    return [key for key, val in _function_bindings().items() if getattr(val, "__code__", None) is wrapper_code]


def test_untraced_phase_sees_unwrapped_functions(monkeypatch):
    probe = workloads.Op("probe", _wrapped_bindings, lambda found: found == [])
    phase = run.run_phase([lambda pkg: probe], 0, 3)
    assert phase.failed == 0 and phase.attempted == 3

    def refuse(self, pkg):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "membership", "--seed", "1", "--seconds", "0"]) == 0


def test_traced_phase_installs_on_each_round_and_restores():
    seen = []

    def record():
        seen.append(_wrapped_bindings())
        return True

    probe = workloads.Op("probe", record, lambda ok: ok)
    phase = run.run_phase([lambda pkg: probe], 0, 2, tracer.Tracer())
    assert phase.failed == 0 and len(seen) == 2
    assert all(("divatlas.tensors", "rank") in found for found in seen)
    assert _wrapped_bindings() == []


def test_call_overhead_corrects_self_times(pkg):
    trace = tracer.Tracer()
    trace.install(pkg)
    try:
        pkg.atlas.atlas_report(37, 36, 2, "skew")
    finally:
        trace.uninstall()
    assert len(trace._overheads) == 1
    _, outside, inside = trace._overheads[0]
    assert 0 < outside < 1e-4 and 0 < inside < 1e-4
    corrected = trace.corrected_self_times()
    top = trace.parent.index(-1)
    children = sum(p == top for p in trace.parent)
    assert children > 0
    assert corrected[top] == pytest.approx(trace.self_time[top] - inside - children * outside)


def test_missing_traced_name_reports_zero(pkg, tmp_path, monkeypatch):
    monkeypatch.delattr(pkg.linalg, "int_det")
    targets = tracer.TARGETS + (("linalg", "no_such_function"),)
    trace = tracer.Tracer(targets=targets)
    ops = workloads.bind(pkg, workloads.prepare_membership(1, str(tmp_path)))
    ops = [op for op in ops if op.label.startswith("skew k=3")]
    trace.install(pkg)
    try:
        results = [run.execute(op)[1] for op in ops]
    finally:
        trace.uninstall()
    assert all(results)
    metrics = trace.metrics(len(ops))
    for label in ("linalg.int_det", "linalg.no_such_function"):
        assert metrics[f"{label}.calls"] == 0
        assert metrics[f"{label}.self_s"] == 0
    assert metrics["tensors.is_in_power_of.calls"] == 1


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.per_layer_units()


def _zero_calls(metrics, prefix):
    return all(v["value"] == 0 for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls"))


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_traced_run_reports_predicted_zeros(workload):
    proc = _bench_run("--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(tracer.per_layer_units())
    assert _zero_calls(metrics, "tensors.contraction_matrix") is (workload != "enc-scan")
    assert _zero_calls(metrics, "subspaces.sub_dim_tangent") is (workload != "tangent-oracle")
    assert _zero_calls(metrics, "linalg.") is (workload == "atlas-sweep")
    if workload == "atlas-sweep":
        assert metrics["atlas.components.calls"]["value"] == 3
    elif workload == "membership":
        assert metrics["tensors.is_in_power_of.calls"]["value"] == 1
        assert 0 < metrics["tensors.is_in_power_of.true_frac"]["value"] < 1
    elif workload == "tangent-oracle":
        assert metrics["subspaces.sub_dim_tangent.calls"]["value"] >= 1
        assert metrics["subspaces.sub_dim_tangent.rank_calls_per_eval"]["value"] >= 2
    else:
        assert metrics["cli.main.calls"]["value"] == 1
        assert metrics["tensors.contraction_matrix.calls"]["value"] >= 1


def test_benchmark_refuses_to_run_without_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench_run("--workload", "atlas-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
