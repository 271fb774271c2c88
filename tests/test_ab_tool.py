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
    assert ab.Tree("ab_a", tree).tensors.__name__ == "ab_a.tensors"
