import hashlib
import json
import math
import pathlib
from fractions import Fraction

import pytest

from divatlas import atlas, brill_noether
from divatlas.atlas import atlas_report, canonical_analysis, class_to_kind, deformable, fiber_dim
from divatlas.brill_noether import achieved_r, big_R, rho, w_dim
from divatlas.subspaces import e_max
from divatlas.tensors import SKEW, SYM

DATA = pathlib.Path(__file__).parent / "data"


def _strata_of(report: dict) -> list:
    """The (r, e) pairs of the report's component rows."""
    return [(c["r"], c["e"]) for c in report["components"]]


def test_fiber_dim_values():
    assert fiber_dim(5, 2, SKEW) == 14
    assert fiber_dim(5, 3, SKEW) == 19
    assert fiber_dim(1, 2, SKEW) == 0
    assert fiber_dim(0, 2, SKEW) == -1  # empty system
    assert fiber_dim(1, 2, SYM) == 2
    assert fiber_dim(0, 3, SYM) == 0


def test_deformable_examples():
    assert deformable(2, 2, 1, SKEW)
    assert not deformable(4, 2, 2, SKEW)  # e(2, 3) = 2 blocks full rank
    assert deformable(2, 2, 2, SKEW)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 2, True), "r_target must be an integer, got True"),
        ((True, 2, 2), "enc_value must be an integer, got True"),
        ((1, 2, 2.0), "r_target must be an integer, got 2.0"),
        ((1, 2.0, 2), "k must be an integer, got 2.0"),
        # deformable(2, 2, -1) gave False, deformable(-3, 2, 3) True, and
        # deformable(2, 2, -2) named the dimension n of e_max
        ((2, 2, -1), "r_target must be >= 0, got -1"),
        ((-3, 2, 3), "enc_value must be >= 0, got -3"),
        ((2, 2, -2), "r_target must be >= 0, got -2"),
    ],
)
def test_deformable_rejects_bad_arguments(args, message):
    for kind in (SKEW, SYM):
        with pytest.raises(ValueError) as info:
            deformable(*args, kind)
        assert str(info.value) == message


def test_jump_strata_genus_37():
    assert _strata_of(atlas_report(37, 36, 2, SKEW)) == [(1, 2), (3, 4), (5, 6)]
    assert _strata_of(atlas_report(37, 36, 3, SKEW)) == [(2, 3), (4, 5), (5, 6)]


def test_jump_strata_canonical_parity():
    for g in range(3, 13):
        strata = _strata_of(atlas_report(g, 2 * g - 2, 2, SKEW))
        assert len(strata) == (1 if g % 2 else 2)
        if g % 2 == 0:
            assert strata == [(g - 2, g - 2), (g - 1, g)]


def test_components_genus_37_k2():
    comps = atlas_report(37, 36, 2, SKEW)["components"]
    assert [(c["r"], c["e"], c["total_dim"]) for c in comps] == [
        (1, 2, 33),
        (3, 4, 26),
        (5, 6, 15),
    ]
    assert [c["fiber_dim"] for c in comps] == [0, 5, 14]
    assert all(c["multiplicity"] == 1 for c in comps)


def test_components_genus_37_k3():
    comps = atlas_report(37, 36, 3, SKEW)["components"]
    assert [(c["r"], c["e"], c["total_dim"]) for c in comps] == [
        (2, 3, 28),
        (4, 5, 21),
        (5, 6, 20),
    ]


def test_components_main_paracanonical_dimension():
    for g in range(6, 15):
        for k in range(3, 5):
            comps = atlas_report(g, 2 * g - 2, k, SKEW)["components"]
            main = comps[0]
            assert main["total_dim"] == g + math.comb(g - 1, k) - 1
            assert main["support_dim"] == g


def test_components_two_point_top_stratum():
    # two degree-3 pencils on a genus-4 curve, each an isolated divisor
    comps = atlas_report(4, 3, 2, SKEW)["components"]
    assert len(comps) == 1
    assert comps[0]["multiplicity"] == 2
    assert comps[0]["total_dim"] == 0


def test_components_empty_atlas():
    assert atlas_report(2, 1, 2, SKEW)["components"] == []
    assert _strata_of(atlas_report(2, 1, 3, SKEW)) == []


def test_absorption_soundness():
    for g in range(2, 25):
        for d in range(1, 2 * g + 1):
            for k in (2, 3):
                emitted = {c["r"] for c in atlas_report(g, d, k, SKEW)["components"]}
                best = 0
                for r in achieved_r(g, d):
                    if fiber_dim(r, k, SKEW) < 0:
                        continue
                    e = e_max(k, r + 1)
                    if e <= best:
                        assert r not in emitted
                    best = max(best, e)


def test_strict_monotonicity_within_atlas():
    for g, d, k, kind in [
        (37, 36, 2, SKEW),
        (37, 36, 3, SKEW),
        (12, 22, 2, SKEW),
        (12, 22, 3, SYM),
        (9, 16, 2, SYM),
    ]:
        comps = atlas_report(g, d, k, kind)["components"]
        for a, b in zip(comps, comps[1:]):
            assert a["r"] < b["r"] and a["e"] < b["e"]
            if rho(g, b["r"], d) > 0 and rho(g, a["r"], d) <= g:
                assert a["support_dim"] > b["support_dim"]


def test_intersections_genus_4_canonical():
    inter = atlas_report(4, 6, 2, SKEW)["intersections"]
    assert len(inter) == 1
    x = inter[0]
    assert x["image"] == "W^3_6"
    assert x["fiber"] == {"e": 2, "k": 2, "ambient": 4, "kind": SKEW}
    assert x["fiber_dim"] == 4  # the Grassmannian of lines in P^3
    assert x["total_dim"] == 4


def test_intersections_even_genus_family():
    for g in range(4, 13, 2):
        x = atlas_report(g, 2 * g - 2, 2, SKEW)["intersections"][0]
        assert x["image"] == f"W^{g - 1}_{2 * g - 2}"
        assert x["fiber"]["e"] == g - 2
        assert x["fiber"]["ambient"] == g
        assert x["total_dim"] == math.comb(g, 2) - 2


def test_intersections_genus_37_k3_pair():
    inter = atlas_report(37, 36, 3, SKEW)["intersections"]
    pair = [x for x in inter if x["shallow_e"] == 3 and x["deep_e"] == 6]
    assert len(pair) == 1
    assert pair[0]["fiber_dim"] == 9
    assert pair[0]["total_dim"] == 10


def test_intersections_empty_for_single_component():
    assert atlas_report(3, 4, 2, SKEW)["intersections"] == []


def test_intersection_count_is_pairwise():
    report = atlas_report(37, 36, 2, SKEW)
    assert len(report["intersections"]) == math.comb(len(report["components"]), 2)


def test_component_count_genus_37():
    counts = atlas_report(37, 36, 2, SKEW)["counts"]
    assert counts["enumerated"] == 3
    assert counts["paper_formula"] == 4  # known off-by-one, reported not hidden
    assert not counts["agrees"]


def test_component_count_parity_family():
    for g in range(3, 13):
        counts = atlas_report(g, 2 * g - 2, 2, SKEW)["counts"]
        assert counts["enumerated"] == (1 if g % 2 else 2)
        assert counts["agrees"]  # the rho = 0 correction makes these match


def test_component_count_includes_multiplicity():
    assert atlas_report(4, 3, 2, SKEW)["counts"]["enumerated"] == 2


def test_canonical_analysis_gap_signs():
    for g in range(3, 31):
        assert canonical_analysis(g, 2)["gap"] == -1
    report = canonical_analysis(5, 3)
    assert report["gap"] == math.comb(4, 2) - 5 == 1
    assert report["exorbitant"]
    # Sub_4 = Sub_3 (normalize_e): codim 9 - sub_dim(3, 3, 5) = 9 - 6
    assert report["locus_codim"] == 3
    # Sub_3 = Sub_2 is the Grassmannian hypersurface in |K| = P^5
    assert canonical_analysis(4, 2)["locus_codim"] == 1


def test_canonical_analysis_even_genus_k2_exorbitant():
    assert canonical_analysis(4, 2)["exorbitant"]
    assert not canonical_analysis(5, 2)["exorbitant"]


def test_canonical_analysis_domain():
    with pytest.raises(ValueError):
        canonical_analysis(2, 2)
    with pytest.raises(ValueError):
        canonical_analysis(5, 5)
    with pytest.raises(ValueError):
        canonical_analysis(5, 1)


@pytest.mark.parametrize(
    "g, k, message",
    [
        (2, 2, "genus must be an integer >= 3, got 2"),
        (3.0, 2, "genus must be an integer >= 3, got 3.0"),
        (5, 5, "need 2 <= k < genus, got k=5"),
        (5, 1, "need 2 <= k < genus, got k=1"),
        (5, "2", "need 2 <= k < genus, got k=2"),
    ],
)
def test_canonical_analysis_bad_arguments_raise_with_message(g, k, message):
    with pytest.raises(ValueError) as info:
        canonical_analysis(g, k)
    assert str(info.value) == message


@pytest.mark.parametrize("g, d, k", [(2, 1, 2), (2, 3, 2), (2, 4, 3), (5, 4, 5), (5, 9, 6), (3, 4, 4)])
@pytest.mark.parametrize("kind", [SKEW, SYM])
def test_atlas_report_canonical_raises_canonical_analysis_messages(g, d, k, kind):
    # the report checks only g >= 3 and k < g before its canonical block
    # (k >= 2 and both ints are known there), with canonical_analysis's
    # own messages; without the block the same report is fine
    atlas_report(g, d, k, kind)
    with pytest.raises(ValueError) as expected:
        canonical_analysis(g, k)
    with pytest.raises(ValueError) as info:
        atlas_report(g, d, k, kind, include_canonical=True)
    assert str(info.value) == str(expected.value)
    assert str(info.value).startswith("genus must" if g < 3 else "need 2 <= k")


def test_resolution_flag():
    comps = atlas_report(37, 36, 2, SKEW)["components"]
    assert [c["is_resolution"] for c in comps] == [True, False, False]
    flagged = comps[0]
    assert flagged["fiber_dim"] == 0
    assert flagged["total_dim"] == w_dim(37, 1, 36)
    # same class of components on the cube
    comps3 = atlas_report(37, 36, 3, SKEW)["components"]
    assert [c["is_resolution"] for c in comps3] == [True, False, False]
    # wrong degree: no resolution flags
    assert not any(c["is_resolution"] for c in atlas_report(37, 35, 2, SKEW)["components"])


def test_sym_atlas_faithful_vs_compat():
    faithful = _strata_of(atlas_report(37, 36, 2, SYM))
    assert faithful == [(r, r + 1) for r in range(6)]
    compat = _strata_of(atlas_report(37, 36, 2, SYM, paper_sym=True))
    assert compat == [(1, 2), (3, 4), (5, 6)]


def test_sym_count_off_by_one_is_noted():
    report = atlas_report(37, 36, 3, SYM)
    assert report["counts"]["enumerated"] == 6
    assert report["counts"]["paper_formula"] == 5
    assert any(n.startswith("component count") for n in report["notes"])


def test_nsclass():
    assert class_to_kind("n") == SKEW
    assert class_to_kind("t") == SYM
    with pytest.raises(ValueError):
        class_to_kind("x")


def test_atlas_report_round_trip():
    for kwargs in [
        dict(g=37, d=36, k=2, kind=SKEW),
        dict(g=4, d=6, k=2, kind=SKEW, include_canonical=True),
        dict(g=8, d=14, k=3, kind=SYM, paper_sym=True),
        dict(g=6, d=10, k=2, kind=SKEW, printed_secdim=True),
    ]:
        report = atlas_report(**kwargs)
        assert json.loads(json.dumps(report)) == report


def test_atlas_report_secdim_switch_changes_fibers():
    plain = atlas_report(37, 36, 2, SKEW)
    printed = atlas_report(37, 36, 2, SKEW, printed_secdim=True)
    plain_fibers = [x["fiber_dim"] for x in plain["intersections"]]
    printed_fibers = [x["fiber_dim"] for x in printed["intersections"]]
    assert plain_fibers != printed_fibers
    assert any("secant" in n for n in printed["notes"])


def test_atlas_rejects_bad_parameters():
    for bad in [(1, 5, 2), (4, 0, 2), (4, 5, 1)]:
        with pytest.raises(ValueError):
            atlas_report(*bad, SKEW)


def test_atlas_report_builds_components_once(monkeypatch):
    # one walk per report: the component rows come from one call of their
    # core, with R = big_R(g, d) taken once at the argument check, and the
    # intersections are built once from those rows
    calls = []
    real = atlas._component_rows
    monkeypatch.setattr(atlas, "_component_rows", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    pairs = []
    real_pairs = atlas._intersection_rows
    monkeypatch.setattr(atlas, "_intersection_rows", lambda *a: pairs.append(a[1:]) or real_pairs(*a))
    for args in [(37, 36, 2, SKEW), (4, 3, 2, SKEW), (8, 14, 3, SYM)]:
        calls.clear()
        pairs.clear()
        atlas_report(*args, printed_secdim=True, include_canonical=True)
        assert calls == [args + (False, big_R(args[0], args[1]))]
        assert pairs == [(args[2], args[3], True)]


def test_rows_keep_the_record_checks(monkeypatch):
    # the rows check multiplicity >= 1 and shallow e < deep e, though
    # the walk cannot give either case
    monkeypatch.setattr(atlas, "_top_points", lambda g, d, R: 0)
    with pytest.raises(ValueError, match="^multiplicity must be >= 1$"):
        atlas_report(4, 3, 2, SKEW)
    monkeypatch.undo()
    monkeypatch.setattr(atlas, "_strata", lambda *a: [(1, 2), (3, 2)])
    with pytest.raises(ValueError, match="^shallow component must have the smaller bound e$"):
        atlas_report(37, 36, 2, SKEW)


def test_atlas_report_counts_the_top_points_once(monkeypatch):
    # a zero-dimensional top stratum that is a component carries its point
    # count as its multiplicity, and the closed-form count reads it there
    calls = []
    real = atlas._top_points
    monkeypatch.setattr(atlas, "_top_points", lambda *args: calls.append(args) or real(*args))
    finite_top_components = 0
    for g in range(2, 21):
        for d in range(1, 2 * g + 1):
            for k in range(2, 6):
                for kind in (SKEW, SYM):
                    calls.clear()
                    comps = atlas_report(g, d, k, kind)["components"]
                    assert len(calls) <= 1, (g, d, k, kind)
                    finite_top_components += bool(comps) and comps[-1]["support_dim"] == 0
    assert finite_top_components >= 100


def test_atlas_report_matches_the_pinned_digest():
    # sha256 over json.dumps of each report, key order included, one line
    # per report; the digest was taken before the reports were built
    # straight from the strata walk, and any change to a value, a note or
    # the order of keys breaks it
    digest = hashlib.sha256()
    for g in range(2, 21):
        for d in range(1, 2 * g + 1):
            for k in range(2, 6):
                for kind in (SKEW, SYM):
                    for paper_sym in (False, True):
                        for printed in (False, True):
                            report = atlas_report(g, d, k, kind, paper_sym, printed, g >= 3 and k < g)
                            digest.update(json.dumps(report).encode() + b"\n")
                            # the invariants the rows hold by construction
                            support = {}
                            for c in report["components"]:
                                assert c["total_dim"] == c["support_dim"] + c["fiber_dim"]
                                support[c["e"]] = c["support"]
                            for x in report["intersections"]:
                                assert x["image"] == support[x["deep_e"]]
    assert digest.hexdigest() == (DATA / "atlas-report-g20.sha256").read_text().strip()


# every setting of atlas_report's switches, one at a time and all together
ATLAS_SWITCHES = {
    "default": {},
    "paper_sym": {"paper_sym": True},
    "printed_secdim": {"printed_secdim": True},
    "include_canonical": {"include_canonical": True},
    "all": {"paper_sym": True, "printed_secdim": True, "include_canonical": True},
}


@pytest.mark.parametrize("switches", sorted(ATLAS_SWITCHES))
def test_public_entry_checks_arguments_once(monkeypatch, switches):
    calls = []
    real = brill_noether._check_args
    monkeypatch.setattr(brill_noether, "_check_args", lambda *a: calls.append(a) or real(*a))
    for args in [(37, 36, 2, SKEW), (4, 3, 2, SKEW), (8, 14, 3, SYM), (8, 9, 2, SYM)]:
        calls.clear()
        atlas_report(*args, **ATLAS_SWITCHES[switches])
        assert calls == [args[:2]]


KIND_MESSAGE = "kind must be one of ('skew', 'sym'), got 'x'"
K_MESSAGE = "symmetric-product index k must be an integer >= 2, got "


@pytest.mark.parametrize("switches", sorted(ATLAS_SWITCHES))
@pytest.mark.parametrize(
    "args,message",
    [
        ((1, 5, 2, SKEW), "genus must be an integer >= 2, got 1"),
        ((True, 5, 2, SKEW), "genus must be an integer >= 2, got True"),
        ((5, 0, 2, SKEW), "degree must be a positive integer, got 0"),
        ((5, True, 2, SKEW), "degree must be a positive integer, got True"),
        ((5, 4, 1, SKEW), K_MESSAGE + "1"),
        ((5, 4, True, SYM), K_MESSAGE + "True"),
        ((5, 4, 2.0, SKEW), K_MESSAGE + "2.0"),
        ((5, 4, 2, "x"), KIND_MESSAGE),
        # checked in the order g, d, k, kind
        ((1, 0, 1, "x"), "genus must be an integer >= 2, got 1"),
        ((5, 0, 1, "x"), "degree must be a positive integer, got 0"),
        ((5, 4, 1, "x"), K_MESSAGE + "1"),
    ],
)
def test_atlas_bad_arguments_raise_with_message(switches, args, message):
    with pytest.raises(ValueError) as info:
        atlas_report(*args, **ATLAS_SWITCHES[switches])
    assert str(info.value) == message


def test_fiber_dim_bad_arguments_raise_with_message():
    with pytest.raises(ValueError) as info:
        fiber_dim(-1, 2, SKEW)
    assert str(info.value) == "r must be >= 0"
    # k = 0 gave 0, k = -1 math.comb's "k must be a non-negative integer"
    for k in (0, -1):
        with pytest.raises(ValueError) as info:
            fiber_dim(2, k, SKEW)
        assert str(info.value) == f"k must be >= 1, got {k}"
    with pytest.raises(ValueError) as info:
        fiber_dim(1, 2, "x")
    assert str(info.value) == KIND_MESSAGE


@pytest.mark.parametrize("r", [True, False, 1.5, 2.0, "2", None, Fraction(2)], ids=repr)
def test_fiber_dim_refuses_non_integer_r(r):
    with pytest.raises(ValueError) as info:
        fiber_dim(r, 2, SKEW)
    assert str(info.value) == f"r must be an integer, got {r!r}"


@pytest.mark.parametrize("k", [True, False, 2.0, "2", None, Fraction(2)], ids=repr)
def test_fiber_dim_refuses_non_integer_k(k):
    # fiber_dim(2, True, "skew") gave 2
    with pytest.raises(ValueError) as info:
        fiber_dim(2, k, SKEW)
    assert str(info.value) == f"k must be an integer, got {k!r}"


def test_strata_walk_calls_the_unchecked_bounds(monkeypatch):
    # the checked e_max and e_max_sym are for outside callers; a report
    # takes its bounds from the private cores
    def refuse(*args, **kwargs):
        raise AssertionError("checked bound called inside a report")

    monkeypatch.setattr(atlas, "e_max", refuse)
    monkeypatch.setattr(atlas, "e_max_sym", refuse)
    for args in [(37, 36, 2, SKEW), (8, 14, 3, SYM), (8, 9, 2, SYM)]:
        atlas_report(*args, include_canonical=True)
        atlas_report(*args, paper_sym=True)
