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
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["failed"] == 0 and result["ops_per_side"] == 270
    assert set(result["sides"]) == {"a", "b"}
    assert 0.5 < result["ops_per_s_ratio_b_over_a"] < 2
    assert 0.5 < result["median_chunk_ratio_a_over_b"] < 2
    lo, hi = result["median_chunk_ratio_ci95"]
    assert lo <= result["median_chunk_ratio_a_over_b"] <= hi
    assert ab.Tree("ab_a", tree).tensors.__name__ == "ab_a.tensors"
    # the per-label split covers exactly the workload's op labels, and its
    # sums are each side's whole op time
    with ab.tempfile.TemporaryDirectory() as workdir:
        recipes = ab.workloads.WORKLOADS["membership"](5, workdir)
        labels = {op.label for op in ab.workloads.bind(ab.Tree("ab_a", tree), recipes)}
    assert set(result["labels"]) == labels
    for side in "ab":
        total = sum(split[f"{side}_s"] for split in result["labels"].values())
        assert abs(total * result["sides"][side]["ops_per_s"] / 270 - 1) < 1e-9
    assert all(split["b_over_a"] == split["b_s"] / split["a_s"] for split in result["labels"].values())
    # with one round, each label's interval is its one ratio
    assert all(split["ci95"] == [split["b_over_a"]] * 2 for split in result["labels"].values())


def test_bootstrap_interval_is_seeded_and_holds_the_median():
    ratios = [0.9, 1.0, 1.1, 1.05, 0.97, 1.2, 0.99]
    lo, hi = ab.bootstrap_interval(ratios, ab.random.Random(3))
    assert min(ratios) <= lo <= 1.0 <= hi <= max(ratios)
    assert ab.bootstrap_interval(ratios, ab.random.Random(3)) == (lo, hi)
    assert ab.bootstrap_interval([1.5] * 4, ab.random.Random(3)) == (1.5, 1.5)


def test_each_round_loads_the_trees_afresh():
    # a module-level cache filled in round 1 is empty in round 2, as in
    # perfbench, which imports the package afresh before each round
    tree = str(ROOT / "src" / "divatlas")
    seen = []

    def recipe(pkg):
        def call():
            cache = pkg.tensors._EXPONENT_VECTORS
            seen.append((pkg.tensors.__name__, pkg.tensors, (3, 2) in cache))
            return len(pkg.tensors.exponent_vectors(3, 2))

        return ab.workloads.Op("exponent vectors", call, lambda result: result == 6)

    latencies, ratios, failed, labels = ab.run([("ab_a", tree), ("ab_b", tree)], [recipe], 2, ab.random.Random(0))
    assert failed == 0 and len(ratios) == 2 and [len(lat) for lat in latencies] == [2, 2]
    assert labels == ["exponent vectors"]
    assert sorted(name for name, _, _ in seen) == ["ab_a.tensors"] * 2 + ["ab_b.tensors"] * 2
    assert not any(cached for _, _, cached in seen)
    # four distinct module objects, held by seen: each side, each round
    assert len({id(module) for _, module, _ in seen}) == 4


def test_label_split_sums_each_label_over_rounds():
    # two rounds of three ops, one label repeated within the round
    labels = ["x", "y", "x"]
    latencies = [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]
    split = ab.label_split(latencies, labels, 7)
    assert {label: {key: v for key, v in s.items() if key != "ci95"} for label, s in split.items()} == {
        "x": {"a_s": 14.0, "b_s": 8.0, "b_over_a": 8 / 14},
        "y": {"a_s": 7.0, "b_s": 4.0, "b_over_a": 4 / 7},
    }
    # each label's interval is of its per-round ratios: x reads 4/4, then
    # 4/10; y reads 2/2, then 2/5
    rounds = {"x": [1.0, 0.4], "y": [1.0, 0.4]}
    for label, ratios in rounds.items():
        lo, hi = split[label]["ci95"]
        assert lo <= ab.statistics.median(ratios) <= hi
        assert (lo, hi) == ab.bootstrap_interval(ratios, ab.random.Random(f"ab-bootstrap:7:{label}"))
    # seeded: the same seed gives the same intervals
    assert ab.label_split(latencies, labels, 7) == split


def test_label_interval_is_seeded_and_holds_the_median():
    # five rounds of one label: the interval holds the median of the
    # per-round ratios, and one round's ratio is a point interval
    labels = ["x"]
    a = [1.0, 2.0, 1.5, 1.2, 0.8]
    b = [1.1, 1.8, 1.5, 1.5, 0.9]
    lo, hi = ab.label_split([a, b], labels, 3)["x"]["ci95"]
    assert lo <= ab.statistics.median(y / x for x, y in zip(a, b)) <= hi
    assert ab.label_split([a, b], labels, 3)["x"]["ci95"] == (lo, hi)
    assert ab.label_split([[2.0], [3.0]], labels, 3)["x"]["ci95"] == (1.5, 1.5)
