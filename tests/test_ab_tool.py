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


def test_bootstrap_interval_is_seeded_and_holds_the_median():
    ratios = [0.9, 1.0, 1.1, 1.05, 0.97, 1.2, 0.99]
    lo, hi = ab.bootstrap_interval(ratios, ab.random.Random(3))
    assert min(ratios) <= lo <= 1.0 <= hi <= max(ratios)
    assert ab.bootstrap_interval(ratios, ab.random.Random(3)) == (lo, hi)
    assert ab.bootstrap_interval([1.5] * 4, ab.random.Random(3)) == (1.5, 1.5)
