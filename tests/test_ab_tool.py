import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_a_against_itself_on_membership(capsys):
    # the package against a second load of itself: every answer checks,
    # both sides run every op of the round, and neither side is far ahead
    tree = str(ROOT / "src" / "divatlas")
    assert ab.main([tree, tree, "--workload", "membership", "--seed", "5", "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4
    result = json.loads(out[-1])
    assert result["failed"] == 0 and result["ops_per_side"] == 270
    assert set(result["sides"]) == {"a", "b"}
    assert 0.5 < result["ops_per_s_ratio_b_over_a"] < 2
    assert 0.5 < result["median_chunk_ratio_a_over_b"] < 2
    lo, hi = result["median_chunk_ratio_ci95"]
    assert lo <= result["median_chunk_ratio_a_over_b"] <= hi
    assert ab.Tree("ab_a", tree).tensors.__name__ == "ab_a.tensors"
    # the result has no per-label split, and the summed ops_per_s ratio
    # is printed after the chunk ratio's interval, marked as having none
    assert set(result) == {
        "workload",
        "seed",
        "ops_per_side",
        "failed",
        "sides",
        "ops_per_s_ratio_b_over_a",
        "median_chunk_ratio_a_over_b",
        "median_chunk_ratio_ci95",
    }
    assert result["ops_per_s_ratio_b_over_a"] == result["sides"]["b"]["ops_per_s"] / result["sides"]["a"]["ops_per_s"]
    summary = out[-2]
    assert summary.index("95% bootstrap") < summary.index("summed ops_per_s b/a")
    assert summary.endswith(f"summed ops_per_s b/a {result['ops_per_s_ratio_b_over_a']:.4f} (no interval)")


def test_bootstrap_interval_is_seeded_and_holds_the_median():
    ratios = [0.9, 1.0, 1.1, 1.05, 0.97, 1.2, 0.99]
    lo, hi = ab.bootstrap_interval(ratios, ab.random.Random(3))
    assert min(ratios) <= lo <= 1.0 <= hi <= max(ratios)
    assert ab.bootstrap_interval(ratios, ab.random.Random(3)) == (lo, hi)
    assert ab.bootstrap_interval([1.5] * 4, ab.random.Random(3)) == (1.5, 1.5)


def test_each_round_loads_the_trees_afresh(monkeypatch):
    # a module-level cache filled in round 1 is empty in round 2, as in
    # perfbench, which imports the package afresh before each round and
    # collects the garbage before timing it
    tree = str(ROOT / "src" / "divatlas")
    seen = []
    collected = []
    monkeypatch.setattr(ab.gc, "collect", lambda: collected.append(len(seen)))

    def recipe(pkg):
        def call():
            cache = pkg.tensors._EXPONENT_VECTORS
            seen.append((pkg.tensors.__name__, pkg.tensors, (3, 2) in cache))
            return len(pkg.tensors.exponent_vectors(3, 2))

        return ab.workloads.Op("exponent vectors", call, lambda result: result == 6)

    latencies, ratios, failed = ab.run([("ab_a", tree), ("ab_b", tree)], [recipe], 2, ab.random.Random(0))
    assert failed == 0 and len(ratios) == 2 and [len(lat) for lat in latencies] == [2, 2]
    # one collection per round, before its first op
    assert collected == [0, 2]
    assert sorted(name for name, _, _ in seen) == ["ab_a.tensors"] * 2 + ["ab_b.tensors"] * 2
    assert not any(cached for _, _, cached in seen)
    # four distinct module objects, held by seen: each side, each round
    assert len({id(module) for _, module, _ in seen}) == 4
