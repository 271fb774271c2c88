import json
import math
import os
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


ENC_CASES = ["skew-k3-n7", "sym-k3-n5", "skew-k3-n8-spellings", "sym-k4-n10-three-powers", "skew-k3-n8-big"]
COMPONENTS_CASES = [
    ("g37-d36-k2-n", ["--genus", "37", "--degree", "36", "--k", "2"]),
    ("g37-d36-k3-n", ["--genus", "37", "--degree", "36", "--k", "3"]),
    ("g4-d3-k2-n-canonical", ["--genus", "4", "--degree", "3", "--k", "2", "--canonical"]),
    ("g8-d14-k3-t", ["--genus", "8", "--degree", "14", "--k", "3", "--class", "t"]),
    (
        "g8-d9-k2-t-compat",
        ["--genus", "8", "--degree", "9", "--k", "2", "--class", "t", "--compat-paper-sym", "--compat-paper-secdim"],
    ),
    ("g60-d60-k5-n-canonical", ["--genus", "60", "--degree", "60", "--k", "5", "--canonical"]),
]


def _enc_golden(name):
    return ["enc", str(DATA / f"{name}.json"), "--sub", "6", "--format", "json"], DATA / f"{name}.enc.json"


def _components_golden(name, argv):
    return ["components", *argv, "--format", "json"], DATA / f"{name}.components.json"


@pytest.mark.parametrize("name", ENC_CASES)
def test_enc_output_matches_committed_file(capsys, name):
    # the expected files pin the whole JSON output, basis included; the
    # skew tensor has Fraction coefficients and enc 6 < n, the sym one enc = n;
    # the spellings file mixes JSON ints with "+3", " 2 ", "1_0" and "3/6"
    # strings and repeats two keys, one summing to zero; the sum of three
    # fourth powers on QQ^10 has enc 3, so most of its columns are tested
    # on the packed covectors, and the skew cubic's coefficients lie above
    # 2^62, so its dependent columns take the exact products
    argv, expected = _enc_golden(name)
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out == expected.read_text()


@pytest.mark.parametrize("name", ENC_CASES)
def test_enc_text_output_matches_committed_file(capsys, name):
    # the text form of the same five answers, sub line included
    rc, out, err = run_cli(capsys, "enc", str(DATA / f"{name}.json"), "--sub", "6")
    assert (rc, err) == (0, "")
    assert out == (DATA / f"{name}.enc.txt").read_text()


def test_enc_refuses_a_negative_sub_before_reading_the_file(capsys):
    # no enclosing dimension is below 0, so Sub_-1 is no locus to test; the
    # refusal comes before the file is opened
    for tensor in (DATA / "skew-k3-n7.json", DATA / "absent.json"):
        for fmt in ("text", "json"):
            got = run_cli(capsys, "enc", str(tensor), "--sub", "-1", "--format", fmt)
            assert got == (2, "", "divatlas: --sub -1 is below 0\n"), (tensor, fmt)
    rc, out, err = run_cli(capsys, "enc", str(DATA / "skew-k3-n7.json"), "--sub", "0")
    assert (rc, err) == (0, "") and out.endswith("member of Sub_0: false\n")


@pytest.mark.parametrize("name,argv", COMPONENTS_CASES)
def test_components_output_matches_committed_file(capsys, name, argv):
    # the genus-4 atlas has a two-point top stratum (multiplicity 2); in the
    # genus-8 compat atlas both switches change the output, the top stratum
    # has 14 points, and all four notes fire; the genus-60 k = 5 atlas, at
    # the top of the benchmark grid, has 3 components, 3 intersections and
    # a count note
    argv, expected = _components_golden(name, argv)
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out == expected.read_text()


def test_main_in_one_process_matches_committed_files(capsys):
    # one process runs every golden command line, forward and then in
    # reverse, so nothing one call leaves behind can reach the next
    cases = [_enc_golden(name) for name in ENC_CASES]
    cases += [_components_golden(name, argv) for name, argv in COMPONENTS_CASES]
    for argv, expected in cases + cases[::-1]:
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, ""), argv
        assert out == expected.read_text(), argv


def test_main_carries_no_option_to_the_next_call(capsys):
    tensor = str(DATA / "skew-k3-n7.json")
    rc, out, _ = run_cli(capsys, "enc", tensor, "--sub", "6", "--format", "json")
    assert rc == 0 and json.loads(out)["sub"] == {"e": 6, "member": True}
    rc, out, _ = run_cli(capsys, "enc", tensor, "--format", "json")
    assert rc == 0 and "sub" not in json.loads(out)
    rc, out, _ = run_cli(capsys, "enc", tensor)
    assert rc == 0
    assert out.startswith("kind: skew  n: 7  k: 3\nenc: 6\n")
    assert "member of Sub_" not in out
    argv, expected = _components_golden(*COMPONENTS_CASES[0])
    run_cli(capsys, *argv)
    rc, out, _ = run_cli(capsys, *argv[:-2])
    assert rc == 0 and out.startswith("divisor variety atlas: genus 37")


def test_usage_error_and_help_leave_the_next_call_correct(capsys):
    argv, expected = _enc_golden(ENC_CASES[0])
    rc, out, err = run_cli(capsys, "enc", "--sub", "6")
    assert (rc, out) == (1, "")
    assert err.startswith("usage: divatlas enc") and "divatlas enc: error:" in err
    assert run_cli(capsys, *argv) == (0, expected.read_text(), "")
    rc, out, err = run_cli(capsys, "enc", "--help")
    assert (rc, err) == (0, "")
    assert out.startswith("usage: divatlas enc") and "--sub E" in out
    assert run_cli(capsys, *argv) == (0, expected.read_text(), "")
    rc, out, err = run_cli(capsys, "--help")
    assert (rc, err) == (0, "")
    assert "{components,enc,verify}" in out
    # the last docstring paragraph is about the module, not the command
    assert "Exit codes: 0 success" in " ".join(out.split()) and "once per process" not in out


def test_main_builds_the_parser_at_most_once(capsys, monkeypatch):
    import divatlas.cli as cli

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "divatlas":
            built.append(self)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    argv, expected = _enc_golden(ENC_CASES[1])
    for _ in range(5):
        assert run_cli(capsys, *argv) == (0, expected.read_text(), "")
    assert len(built) <= 1


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import divatlas.cli\n"
        "assert built == [], built\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, loads_verify",
    [
        (["enc", str(DATA / "skew-k3-n7.json"), "--format", "json"], False),
        (["components", "--genus", "37", "--degree", "36", "--k", "2"], False),
        (["--help"], False),
        (["verify", "--suite", "bn-forms"], True),
    ],
    ids=["enc", "components", "help", "verify"],
)
def test_only_the_verify_command_imports_the_suites(argv, loads_verify):
    # each enc or components process would otherwise compile verify's
    # source, close to a third of the package's, and never run it
    code = (
        "import sys\n"
        "from divatlas.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('divatlas.verify' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loads_verify)


def test_suite_choices_are_the_verify_suites():
    from divatlas import cli, verify

    assert cli.SUITE_NAMES == tuple(verify.SUITES)


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
    assert err == (
        f"divatlas: {path} is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )

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
        # shapes whose column count alone has more digits than str() prints:
        # refused in a few steps of the bounded product, with no count
        {"n": 1000000, "k": 500000, "kind": "skew", "terms": []},
        {"n": 200000, "k": 100000, "kind": "sym", "terms": []},
        {"n": 2000000, "k": 1000000, "kind": "sym", "terms": []},
    ],
    ids=["skew", "sym", "skew-huge", "sym-huge", "sym-huger"],
)
def test_enc_oversized_contraction_exits_2(tmp_path, capsys, obj):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, "enc", str(path))
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"{obj['kind']} tensor with n={obj['n']}, k={obj['k']}" in err
    assert "limit of 1000000 entries" in err


def test_enc_superscript_digit_coefficient_exits_2(tmp_path, capsys):
    # "\u00b2".isdigit() is true, but neither int() nor Fraction reads it
    path = tmp_path / "sup.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "kind": "skew", "terms": [{"index": [1], "coeff": "\u00b2"}]}))
    rc, out, err = run_cli(capsys, "enc", str(path))
    assert (rc, out) == (2, "")
    assert err == "divatlas: bad coefficient '\u00b2': Invalid literal for Fraction: '\u00b2'\n"


@pytest.mark.parametrize("coeff", ["1e99999999", "1e4301"])
def test_enc_long_exponent_exits_2_at_once(tmp_path, coeff):
    # "1e99999999" once ran until killed, and "1e4301" was ranked and then
    # failed at print; in a child process with a time limit, as in CI
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"n": 3, "k": 2, "kind": "skew", "terms": [{"index": [0, 1], "coeff": coeff}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "divatlas", "enc", str(path)], capture_output=True, text=True, timeout=10
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"divatlas: bad coefficient {coeff!r}: exponent past 4300 in absolute value\n"


def _enc_in_a_child(path, limit=None):
    """(exit code, stdout, stderr) of divatlas enc on path in a fresh
    process, under int()'s default digit limit or PYTHONINTMAXSTRDIGITS=limit."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONINTMAXSTRDIGITS"}
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = str(limit)
    proc = subprocess.run(
        [sys.executable, "-m", "divatlas", "enc", str(path)], capture_output=True, text=True, timeout=30, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_enc_json_integer_past_the_digit_limit_exits_2_naming_the_file(tmp_path):
    # json.load reads a JSON integer by int(), which refuses one of more
    # than 4,300 digits with Python's own hint; the CLI names the file
    path = tmp_path / "bigint.json"
    path.write_text('{"n": 3, "k": 2, "kind": "skew", "terms": [{"index": [0, 1], "coeff": ' + "7" * 4301 + "}]}")
    assert _enc_in_a_child(path) == (2, "", f"divatlas: {path} holds an integer of more than 4300 digits\n")


def test_enc_bad_utf8_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"n": 1, "k": 1, "kind": "skew", "terms": [], "\xff": 0}')
    rc, out, err = run_cli(capsys, "enc", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"divatlas: cannot read {path}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1


def test_enc_long_coefficients_do_not_depend_on_the_int_digit_limit(tmp_path):
    # with PYTHONINTMAXSTRDIGITS=0 json reads any integer and int() any
    # string; a 4,301-digit coefficient is still refused, alone, next to
    # a fraction or as a bare JSON integer, with the error that a string
    # gets under the default limit
    digits = "7" * 4301
    terms = {
        "alone": [{"index": [0, 1], "coeff": digits}],
        "beside a fraction": [{"index": [0, 1], "coeff": digits}, {"index": [0, 2], "coeff": "1/2"}],
        "leading zeros": [{"index": [0, 1], "coeff": "0" * 4301 + "1"}],
    }
    for name, listed in terms.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 3, "k": 2, "kind": "skew", "terms": listed}))
        coeff = listed[0]["coeff"]
        expected = (2, "", f"divatlas: bad coefficient {coeff!r}: a run of more than 4300 digits\n")
        assert _enc_in_a_child(path, 0) == _enc_in_a_child(path) == expected, name
    path = tmp_path / "bare.json"
    path.write_text('{"n": 3, "k": 2, "kind": "skew", "terms": [{"index": [0, 1], "coeff": -' + digits + "}]}")
    assert _enc_in_a_child(path, 0) == (2, "", "divatlas: bad coefficient: an integer of more than 4300 digits\n")


def test_enc_missing_file_exits_2(tmp_path, capsys):
    path = tmp_path / "absent.json"
    rc, _, err = run_cli(capsys, "enc", str(path))
    assert rc == 2
    assert err == f"divatlas: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "enc-oracle", "--seed", "1"],
        ["components", "--genus", "37", "--degree", "36", "--k", "2"],
    ],
    ids=["verify", "components"],
)
def test_closed_output_pipe_prints_no_traceback(argv):
    # the reader is gone before the command writes a byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "divatlas", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


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
