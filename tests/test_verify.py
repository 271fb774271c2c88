"""Every verification check passes at seed 0 (and again at seed 7).

The acceptance module exercises the heavyweight checks with their full
stated grids; this file sweeps the complete registry so a regression in
any suite fails pytest as well as the CLI.
"""

import inspect
from pathlib import Path

import pytest

from divatlas import linalg, verify
from divatlas.verify import SUITES, run_suites

GOLDEN = Path(__file__).parent / "data" / "verify-seed0.txt"

ALL_CHECKS = [(name, chk) for name, checks in SUITES.items() for chk in checks]

# the two expensive seeded suites and check_exorbitance already run at
# seed 0 in the acceptance module; the suites run here once with another seed
LIGHT = [
    (n, c)
    for n, c in ALL_CHECKS
    if n not in ("enc-oracle", "subdim-oracle") and c.__name__ != "check_exorbitance"
]


@pytest.mark.parametrize("name,check", LIGHT, ids=[c.__name__ for _, c in LIGHT])
def test_check_passes(name, check):
    ok, detail = check(0)
    assert ok, f"{name}/{check.__name__}: {detail}"


@pytest.mark.parametrize("name,check", ALL_CHECKS, ids=[c.__name__ for _, c in ALL_CHECKS])
def test_every_check_takes_the_seed_alone(name, check):
    # run_suites calls chk(seed); a size that only a test varies is a module
    # constant, not a parameter
    assert list(inspect.signature(check).parameters) == ["seed"], f"{name}/{check.__name__}"


def test_enc_oracle_alternate_seed(monkeypatch):
    monkeypatch.setattr(verify, "ENC_SAMPLES", 25)
    ok, detail = SUITES["enc-oracle"][0](7)
    assert ok, detail
    assert "x 25 samples" in detail


def test_subdim_oracle_alternate_seed(monkeypatch):
    monkeypatch.setattr(verify, "TANGENT_SEEDS", 1)
    monkeypatch.setattr(verify, "TANGENT_N_MAX", 6)
    ok, detail = SUITES["subdim-oracle"][0](7)
    assert ok, detail
    # one seed on each of the 22 skew and 53 sym normalized cells with n <= 6
    assert detail.startswith("75 tangent-rank evaluations")


def test_rank_oracle_catches_a_certified_rank_without_its_fallback(monkeypatch):
    # the rank mod p alone, with the exact fallback dropped: each matrix
    # is ranked again with one vector times RANK_PRIME, so the first fails
    monkeypatch.setattr(verify, "_certified_rank", linalg._rank_mod_p)
    ok, detail = verify.check_rank_oracle(0)
    assert not ok
    assert detail.startswith("certified rank mismatch with a vector 0 mod p on matrix 0 ")


def test_run_suites_reports_every_suite():
    ok, lines = run_suites(["rank-oracle", "count-reconciliation"], seed=3)
    assert ok
    assert lines[0].startswith("suite rank-oracle: PASS")
    assert any(line.startswith("suite count-reconciliation") for line in lines)
    assert lines[-1] == "all suites passed"


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suites(["nonexistent"], seed=0)


def test_seed_0_output_matches_the_golden():
    # the output of `divatlas verify --seed 0`, byte for byte
    _, lines = run_suites(seed=0)
    assert "\n".join(lines) + "\n" == GOLDEN.read_text(encoding="utf-8")
