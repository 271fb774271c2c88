import math

import pytest

from divatlas import atlas, brill_noether
from divatlas.atlas import (
    atlas_report,
    canonical_analysis,
    class_to_kind,
    component_count,
    components,
    deformable,
    fiber_dim,
    intersections,
    jump_strata,
)
from divatlas.brill_noether import achieved_r, big_R, rho, w_dim
from divatlas.subspaces import e_max
from divatlas.tensors import SKEW, SYM


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


def test_jump_strata_genus_37():
    assert jump_strata(37, 36, 2, SKEW) == [(1, 2), (3, 4), (5, 6)]
    assert jump_strata(37, 36, 3, SKEW) == [(2, 3), (4, 5), (5, 6)]


def test_jump_strata_canonical_parity():
    for g in range(3, 13):
        strata = jump_strata(g, 2 * g - 2, 2, SKEW)
        assert len(strata) == (1 if g % 2 else 2)
        if g % 2 == 0:
            assert strata == [(g - 2, g - 2), (g - 1, g)]


def test_components_genus_37_k2():
    comps = components(37, 36, 2, SKEW)
    assert [(c.r, c.e, c.total_dim) for c in comps] == [
        (1, 2, 33),
        (3, 4, 26),
        (5, 6, 15),
    ]
    assert [c.fiber_dim for c in comps] == [0, 5, 14]
    assert all(c.multiplicity == 1 for c in comps)


def test_components_genus_37_k3():
    comps = components(37, 36, 3, SKEW)
    assert [(c.r, c.e, c.total_dim) for c in comps] == [
        (2, 3, 28),
        (4, 5, 21),
        (5, 6, 20),
    ]


def test_components_main_paracanonical_dimension():
    for g in range(6, 15):
        for k in range(3, 5):
            comps = components(g, 2 * g - 2, k, SKEW)
            main = comps[0]
            assert main.total_dim == g + math.comb(g - 1, k) - 1
            assert main.support_dim == g


def test_components_two_point_top_stratum():
    # two degree-3 pencils on a genus-4 curve, each an isolated divisor
    comps = components(4, 3, 2, SKEW)
    assert len(comps) == 1
    assert comps[0].multiplicity == 2
    assert comps[0].total_dim == 0


def test_components_empty_atlas():
    assert components(2, 1, 2, SKEW) == []
    assert jump_strata(2, 1, 3, SKEW) == []


def test_absorption_soundness():
    for g in range(2, 25):
        for d in range(1, 2 * g + 1):
            for k in (2, 3):
                emitted = {c.r for c in components(g, d, k, SKEW)}
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
        comps = components(g, d, k, kind)
        for a, b in zip(comps, comps[1:]):
            assert a.r < b.r and a.e < b.e
            if rho(g, b.r, d) > 0 and rho(g, a.r, d) <= g:
                assert a.support_dim > b.support_dim


def test_intersections_genus_4_canonical():
    inter = intersections(4, 6, 2, SKEW)
    assert len(inter) == 1
    x = inter[0]
    assert x.image_r == 3
    assert (x.fiber_e, x.fiber_k, x.fiber_ambient, x.fiber_kind) == (2, 2, 4, SKEW)
    assert x.fiber_dim == 4  # the Grassmannian of lines in P^3
    assert x.total_dim == 4


def test_intersections_even_genus_family():
    for g in range(4, 13, 2):
        x = intersections(g, 2 * g - 2, 2, SKEW)[0]
        assert x.image_r == g - 1
        assert x.fiber_e == g - 2
        assert x.fiber_ambient == g
        assert x.total_dim == math.comb(g, 2) - 2


def test_intersections_genus_37_k3_pair():
    inter = intersections(37, 36, 3, SKEW)
    pair = [x for x in inter if x.shallow.e == 3 and x.deep.e == 6]
    assert len(pair) == 1
    assert pair[0].fiber_dim == 9
    assert pair[0].total_dim == 10


def test_intersections_empty_for_single_component():
    assert intersections(3, 4, 2, SKEW) == []


def test_intersection_count_is_pairwise():
    comps = components(37, 36, 2, SKEW)
    inter = intersections(37, 36, 2, SKEW)
    assert len(inter) == math.comb(len(comps), 2)


def test_component_count_genus_37():
    counts = component_count(37, 36, 2, SKEW)
    assert counts["enumerated"] == 3
    assert counts["paper_formula"] == 4  # known off-by-one, reported not hidden
    assert not counts["agrees"]


def test_component_count_parity_family():
    for g in range(3, 13):
        counts = component_count(g, 2 * g - 2, 2, SKEW)
        assert counts["enumerated"] == (1 if g % 2 else 2)
        assert counts["agrees"]  # the rho = 0 correction makes these match


def test_component_count_includes_multiplicity():
    assert component_count(4, 3, 2, SKEW)["enumerated"] == 2


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


def test_resolution_flag():
    comps = components(37, 36, 2, SKEW)
    assert [c.is_resolution for c in comps] == [True, False, False]
    flagged = comps[0]
    assert flagged.fiber_dim == 0
    assert flagged.total_dim == w_dim(37, 1, 36)
    # same class of components on the cube
    comps3 = components(37, 36, 3, SKEW)
    assert [c.is_resolution for c in comps3] == [True, False, False]
    # wrong degree: no resolution flags
    assert not any(c.is_resolution for c in components(37, 35, 2, SKEW))


def test_sym_atlas_faithful_vs_compat():
    faithful = components(37, 36, 2, SYM)
    assert [(c.r, c.e) for c in faithful] == [(r, r + 1) for r in range(6)]
    compat = components(37, 36, 2, SYM, paper_sym=True)
    assert [(c.r, c.e) for c in compat] == [(1, 2), (3, 4), (5, 6)]


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
    import json

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
            components(*bad, SKEW)


def _component_rows(records, d):
    return [
        {
            "r": c.r,
            "e": c.e,
            "support": f"W^{c.r}_{d}",
            "support_dim": c.support_dim,
            "fiber_dim": c.fiber_dim,
            "total_dim": c.total_dim,
            "multiplicity": c.multiplicity,
            "is_resolution": c.is_resolution,
        }
        for c in records
    ]


def _intersection_rows(records, d):
    return [
        {
            "shallow_e": x.shallow.e,
            "deep_e": x.deep.e,
            "image": f"W^{x.image_r}_{d}",
            "fiber": {"e": x.fiber_e, "k": x.fiber_k, "ambient": x.fiber_ambient, "kind": x.fiber_kind},
            "fiber_dim": x.fiber_dim,
            "total_dim": x.total_dim,
        }
        for x in records
    ]


def test_atlas_report_equals_standalone_calls():
    # the report builds the component list once; it must still say what
    # components, intersections and component_count say on their own
    for g in range(2, 21):
        for d in range(1, 2 * g + 1):
            for k in range(2, 6):
                for kind in (SKEW, SYM):
                    for paper_sym in (False, True):
                        comps = _component_rows(components(g, d, k, kind, paper_sym), d)
                        counts = component_count(g, d, k, kind, paper_sym)
                        for printed in (False, True):
                            report = atlas_report(g, d, k, kind, paper_sym, printed)
                            inters = intersections(g, d, k, kind, paper_sym, printed)
                            assert report["components"] == comps
                            assert report["intersections"] == _intersection_rows(inters, d)
                            assert report["counts"] == counts


def test_atlas_report_builds_components_once(monkeypatch):
    # the report builds its list through the private core that components
    # wraps, with R = big_R(g, d) taken once at the argument check
    calls = []
    real = atlas._components
    monkeypatch.setattr(atlas, "_components", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for args in [(37, 36, 2, SKEW), (4, 3, 2, SKEW), (8, 14, 3, SYM)]:
        calls.clear()
        atlas_report(*args, printed_secdim=True, include_canonical=True)
        assert calls == [args + (False, big_R(args[0], args[1]))]


@pytest.mark.parametrize(
    "call",
    [
        lambda *a: atlas_report(*a, printed_secdim=True, include_canonical=True),
        components,
        jump_strata,
        intersections,
        component_count,
    ],
    ids=["atlas_report", "components", "jump_strata", "intersections", "component_count"],
)
def test_public_entry_checks_arguments_once(monkeypatch, call):
    calls = []
    real = brill_noether._check_args
    monkeypatch.setattr(brill_noether, "_check_args", lambda *a: calls.append(a) or real(*a))
    for args in [(37, 36, 2, SKEW), (4, 3, 2, SKEW), (8, 14, 3, SYM), (8, 9, 2, SYM)]:
        calls.clear()
        call(*args)
        assert calls == [args[:2]]


ATLAS_FUNCTIONS = {
    "jump_strata": jump_strata,
    "components": components,
    "intersections": intersections,
    "component_count": component_count,
    "atlas_report": atlas_report,
}
KIND_MESSAGE = "kind must be one of ('skew', 'sym'), got 'x'"
K_MESSAGE = "symmetric-product index k must be an integer >= 2, got "


@pytest.mark.parametrize("name", sorted(ATLAS_FUNCTIONS))
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
def test_atlas_bad_arguments_raise_with_message(name, args, message):
    with pytest.raises(ValueError) as info:
        ATLAS_FUNCTIONS[name](*args)
    assert str(info.value) == message


def test_fiber_dim_bad_arguments_raise_with_message():
    with pytest.raises(ValueError) as info:
        fiber_dim(-1, 2, SKEW)
    assert str(info.value) == "r must be >= 0"
    with pytest.raises(ValueError) as info:
        fiber_dim(1, 2, "x")
    assert str(info.value) == KIND_MESSAGE
