import json
import math
import pathlib
import subprocess
import sys

import pytest

from divatlas.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_components_genus_37_table(capsys):
    rc, out, _ = run_cli(capsys, "components", "--genus", "37", "--degree", "36", "--k", "2")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip().startswith(("1", "3", "5"))]
    assert len(lines) == 3
    assert "33" in lines[0] and "26" in lines[1] and "15" in lines[2]
    assert "enumerated 3" in out


def test_components_genus_4_canonical(capsys):
    rc, out, _ = run_cli(
        capsys, "components", "--genus", "4", "--degree", "6", "--k", "2", "--canonical"
    )
    assert rc == 0
    assert "enumerated 2" in out
    assert "total dim 4" in out  # the intersection, a 4-dimensional Grassmannian
    assert "canonical analysis" in out


def test_components_genus_3_irreducible(capsys):
    rc, out, _ = run_cli(capsys, "components", "--genus", "3", "--degree", "4", "--k", "2")
    assert rc == 0
    assert "enumerated 1" in out
    assert "intersections:" not in out


def test_components_json_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys,
        "components", "--genus", "37", "--degree", "36", "--k", "3", "--format", "json",
    )
    assert rc == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert [c["total_dim"] for c in report["components"]] == [28, 21, 20]
    assert report["params"]["class"] == "n"


def test_components_invalid_range_exits_2(capsys):
    rc, _, err = run_cli(capsys, "components", "--genus", "1", "--degree", "4", "--k", "2")
    assert rc == 2
    assert "genus" in err


def test_usage_error_exits_1(capsys):
    rc, _, err = run_cli(capsys, "components", "--genus", "37")
    assert rc == 1
    rc, _, err = run_cli(capsys, "bogus-command")
    assert rc == 1


def test_enc_symplectic_file(tmp_path, capsys):
    path = tmp_path / "symplectic.json"
    path.write_text(
        json.dumps(
            {
                "n": 4,
                "k": 2,
                "kind": "skew",
                "terms": [
                    {"index": [0, 1], "coeff": "1"},
                    {"index": [2, 3], "coeff": "1"},
                ],
            }
        )
    )
    rc, out, _ = run_cli(capsys, "enc", str(path))
    assert rc == 0
    assert "enc: 4" in out


def test_enc_cube_file(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(
        json.dumps(
            {"n": 2, "k": 3, "kind": "sym", "terms": [{"index": [3, 0], "coeff": "1"}]}
        )
    )
    rc, out, _ = run_cli(capsys, "enc", str(path))
    assert rc == 0
    assert "enc: 1" in out


def test_enc_sub_membership(tmp_path, capsys):
    path = tmp_path / "decomposable.json"
    path.write_text(
        json.dumps(
            {"n": 5, "k": 2, "kind": "skew", "terms": [{"index": [1, 3], "coeff": "2/3"}]}
        )
    )
    rc, out, _ = run_cli(capsys, "enc", str(path), "--sub", "2")
    assert rc == 0
    assert "member of Sub_2: true" in out


def test_enc_json_format(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(
        json.dumps(
            {"n": 4, "k": 2, "kind": "skew", "terms": [{"index": [0, 1], "coeff": "1"}]}
        )
    )
    rc, out, _ = run_cli(capsys, "enc", str(path), "--format", "json", "--sub", "3")
    assert rc == 0
    result = json.loads(out)
    assert result["enc"] == 2
    assert result["sub"] == {"e": 3, "member": True}


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["skew-k3-n7", "sym-k3-n5"])
def test_enc_output_matches_committed_file(capsys, name):
    # the expected files pin the whole JSON output, basis included; the
    # skew tensor has Fraction coefficients and enc 6 < n, the sym one enc = n
    rc, out, _ = run_cli(capsys, "enc", str(DATA / f"{name}.json"), "--sub", "6", "--format", "json")
    assert rc == 0
    assert out == (DATA / f"{name}.enc.json").read_text()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("g37-d36-k2-n", ["--genus", "37", "--degree", "36", "--k", "2"]),
        ("g37-d36-k3-n", ["--genus", "37", "--degree", "36", "--k", "3"]),
        ("g4-d3-k2-n-canonical", ["--genus", "4", "--degree", "3", "--k", "2", "--canonical"]),
        ("g8-d14-k3-t", ["--genus", "8", "--degree", "14", "--k", "3", "--class", "t"]),
        (
            "g8-d9-k2-t-compat",
            ["--genus", "8", "--degree", "9", "--k", "2", "--class", "t", "--compat-paper-sym", "--compat-paper-secdim"],
        ),
    ],
)
def test_components_output_matches_committed_file(capsys, name, argv):
    # the genus-4 atlas has a two-point top stratum (multiplicity 2); in the
    # genus-8 compat atlas both switches change the output, the top stratum
    # has 14 points, and all four notes fire
    rc, out, _ = run_cli(capsys, "components", *argv, "--format", "json")
    assert rc == 0
    assert out == (DATA / f"{name}.components.json").read_text()


def test_components_genus_cap_exits_2_before_computing(capsys, monkeypatch):
    import divatlas.cli as cli

    monkeypatch.setattr(cli, "atlas_report", lambda *a, **kw: pytest.fail("atlas computed"))
    rc, out, err = run_cli(capsys, "components", "--genus", "2501", "--degree", "2500", "--k", "2")
    assert rc == 2
    assert out == ""
    assert "2500" in err and "genus 2501" in err


def test_components_at_the_genus_cap_prints(capsys):
    # rho = 0 on a 50 x 50 rectangle: a point count of about 3,700 digits
    rc, out, _ = run_cli(capsys, "components", "--genus", "2500", "--degree", "2499", "--k", "2")
    assert rc == 0
    assert "W^49_2499" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--genus", "2", "--degree", "10001", "--k", "2"], "--degree 10001 is above the components limit of 10000"),
        (["--genus", "3", "--degree", "1" + "0" * 1000, "--k", "5"], "0 is above the components limit of 10000"),
        (["--genus", "2", "--degree", "5", "--k", "2001"], "--k 2001 is above the components limit of 2000"),
        (["--genus", "3", "--degree", "10000", "--k", "10000", "--class", "t"], "--k 10000 is above"),
    ],
)
def test_components_degree_and_k_caps_exit_2_before_computing(capsys, monkeypatch, argv, message):
    import divatlas.cli as cli

    monkeypatch.setattr(cli, "atlas_report", lambda *a, **kw: pytest.fail("atlas computed"))
    rc, out, err = run_cli(capsys, "components", *argv)
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv,top_fiber",
    [
        # the largest fiber allowed, 2,346 digits: r = d - g on the nonspecial degree
        (["--genus", "2", "--degree", "10000", "--k", "2000", "--class", "t"], math.comb(11998, 2000) - 1),
        (["--genus", "2", "--degree", "10000", "--k", "2000", "--class", "n"], math.comb(9999, 2000) - 1),
        # the canonical degree at the genus cap: a one-point top stratum
        (
            ["--genus", "2500", "--degree", "4998", "--k", "2000", "--class", "t", "--canonical"],
            math.comb(4499, 2000) - 1,
        ),
    ],
)
def test_components_at_the_degree_and_k_caps_prints(capsys, argv, top_fiber):
    rc, out, _ = run_cli(capsys, "components", *argv, "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["components"][-1]["fiber_dim"] == top_fiber
    assert report["components"][-1]["multiplicity"] == 1


def test_enc_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run_cli(capsys, "enc", str(path))
    assert rc == 2

    path2 = tmp_path / "badtensor.json"
    path2.write_text(
        json.dumps(
            {"n": 3, "k": 2, "kind": "skew", "terms": [{"index": [1, 0], "coeff": "1"}]}
        )
    )
    rc, _, err = run_cli(capsys, "enc", str(path2))
    assert rc == 2
    assert err


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": True, "k": 1, "kind": "skew", "terms": [{"index": [0], "coeff": "1"}]}, "n and k"),
        ({"n": 2, "k": 2, "kind": "skew", "terms": [{"index": [False, True], "coeff": "1"}]}, "malformed index"),
    ],
    ids=["bool-n", "bool-index"],
)
def test_enc_json_booleans_exit_2(tmp_path, capsys, obj, message):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, "enc", str(path))
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 200, "k": 10, "kind": "skew", "terms": [{"index": list(range(10)), "coeff": "1"}]},
        {"n": 200, "k": 10, "kind": "sym", "terms": [{"index": [10] + [0] * 199, "coeff": "1"}]},
    ],
    ids=["skew", "sym"],
)
def test_enc_oversized_contraction_exits_2(tmp_path, capsys, obj):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, "enc", str(path))
    assert rc == 2
    assert out == ""
    assert f"{obj['kind']} tensor with n=200, k=10" in err


def test_enc_superscript_digit_coefficient_exits_2(tmp_path, capsys):
    # "\u00b2".isdigit() is true, but neither int() nor Fraction reads it
    path = tmp_path / "sup.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "kind": "skew", "terms": [{"index": [1], "coeff": "\u00b2"}]}))
    rc, out, err = run_cli(capsys, "enc", str(path))
    assert (rc, out) == (2, "")
    assert err == "divatlas: bad coefficient '\u00b2': Invalid literal for Fraction: '\u00b2'\n"


def test_enc_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "enc", str(tmp_path / "absent.json"))
    assert rc == 2


def test_verify_single_suite(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--seed", "7", "--suite", "rank-oracle")
    assert rc == 0
    assert "suite rank-oracle: PASS" in out
    assert "subdim" not in out  # filter really filters


def test_verify_unknown_suite_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "verify", "--suite", "no-such-suite")
    assert rc == 1


def test_verify_deterministic_output():
    cmd = [
        sys.executable,
        "-m",
        "divatlas.cli",
        "verify",
        "--seed",
        "7",
        "--suite",
        "rank-oracle",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_components_deterministic_output():
    cmd = [
        sys.executable,
        "-m",
        "divatlas.cli",
        "components",
        "--genus", "8", "--degree", "14", "--k", "3", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_compat_flags_reach_report(capsys):
    rc, out, _ = run_cli(
        capsys,
        "components", "--genus", "9", "--degree", "16", "--k", "2", "--class", "t",
        "--compat-paper-sym", "--format", "json",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["params"]["compat_paper_sym"] is True
    assert any("parity" in n for n in report["notes"])
