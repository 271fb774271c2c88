import bisect
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from divatlas import linalg, subspaces, tensors, verify
from divatlas.linalg import RationalMatrix, _certified_rank, _independent_mod_p, rank
from divatlas.subspaces import (
    _chart_columns,
    _chart_pattern,
    e_max,
    e_max_sym,
    normalize_e,
    sec_dim_printed,
    sub_dim,
    sub_dim_tangent,
)
from divatlas.tensors import (
    SKEW,
    SYM,
    SkewTensor,
    SymTensor,
    _minors,
    _substitution,
    apply_linear_map,
    enc,
    exponent_vectors,
    k_subsets,
    random_tensor,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "subdim-tangent.json"


def test_e_max_parity_and_codegree_drops():
    assert e_max(2, 5) == 4
    assert e_max(3, 4) == 3
    assert e_max(3, 6) == 6
    assert e_max(2, 4) == 4
    assert e_max(2, 7) == 6
    assert e_max(4, 5) == 4
    assert e_max(2, 1) == 0  # exterior square of a line vanishes


def test_e_max_sym_modes():
    # the compat mode is atlas_report's paper_sym switch, on the core
    assert e_max_sym(2, 3) == 3
    assert subspaces._e_bound(2, 3, SYM, True) == 2
    assert e_max_sym(3, 5) == 5
    assert subspaces._e_bound(3, 5, SYM, True) == 5


def test_normalize_e():
    assert normalize_e(5, 2, SKEW) == 4
    assert normalize_e(4, 3, SKEW) == 3
    assert normalize_e(5, 3, SKEW) == 5
    assert normalize_e(5, 2, SYM) == 5
    # a vector encloses only its own line
    assert normalize_e(3, 1, SKEW) == normalize_e(3, 1, SYM) == 1
    with pytest.raises(ValueError):
        normalize_e(1, 2, SKEW)


def test_sub_dim_pins():
    assert sub_dim(5, 3, 6, SKEW) == 14
    assert sub_dim(3, 3, 6, SKEW) == 9
    assert sub_dim(6, 3, 6, SKEW) == 19
    assert sub_dim(2, 2, 4, SKEW) == 4


def test_sub_dim_veronese():
    for k in (2, 3, 4):
        for n in (3, 5, 7):
            assert sub_dim(1, k, n, SYM) == n - 1


def test_sub_dim_matches_tangent_oracle_at_every_e():
    # unnormalized e included; k = 1 gave e(n-e) + e - 1 for 1 < e < n
    for kind in (SKEW, SYM):
        for k in range(1, 5):
            for n in range(k, 8):
                for e in range(1 if kind == SYM else k, n + 1):
                    assert sub_dim(e, k, n, kind) == sub_dim_tangent(e, k, n, kind), (e, k, n, kind)


def test_sub_dim_grassmannian():
    # the e = k stratum is the cone over the Grassmannian of k-planes
    for k in (2, 3, 4):
        for n in range(k, 8):
            assert sub_dim(k, k, n, SKEW) == k * (n - k)


def test_sub_dim_domain_errors():
    with pytest.raises(ValueError):
        sub_dim(1, 2, 4, SKEW)
    with pytest.raises(ValueError):
        sub_dim(5, 2, 4, SKEW)


@pytest.mark.parametrize("bad", [True, False, 2.0, "2", None])
@pytest.mark.parametrize("name", ["e", "k", "n"])
@pytest.mark.parametrize("kind", [SKEW, SYM])
def test_dimension_functions_refuse_non_int_arguments(kind, name, bad):
    # bool is an int subclass: sub_dim_tangent(True, 1, 3, "sym") gave 2
    args = {"e": 2, "k": 2, "n": 3, "kind": kind, name: bad}
    match = f"{name} must be an integer"
    with pytest.raises(ValueError, match=match):
        sub_dim(**args)
    with pytest.raises(ValueError, match=match):
        sub_dim_tangent(**args)
    if name != "n":
        with pytest.raises(ValueError, match=match):
            normalize_e(args["e"], args["k"], kind)


@pytest.mark.parametrize("e, k, kind", [(0, 0, SKEW), (3, -1, SKEW), (1, 0, SYM), (2, -2, SYM)])
def test_normalize_e_refuses_degree_below_one(e, k, kind):
    # normalize_e(0, 0, "skew") gave 0 and normalize_e(3, -1, "skew") gave 3
    with pytest.raises(ValueError) as info:
        normalize_e(e, k, kind)
    assert str(info.value) == "degree k must be >= 1"


@pytest.mark.parametrize("bad", [True, False, 2.0, "2", None, Fraction(2)], ids=repr)
@pytest.mark.parametrize("name", ["k", "n"])
@pytest.mark.parametrize("bound", [e_max, e_max_sym])
def test_e_max_refuses_non_int_arguments(bound, name, bad):
    # e_max(True, 3) gave 1 and e_max_sym(2.0, 3) gave 3
    args = {"k": 2, "n": 3, name: bad}
    with pytest.raises(ValueError) as info:
        bound(**args)
    assert str(info.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("bound", [e_max, e_max_sym])
def test_e_max_range_errors(bound):
    with pytest.raises(ValueError, match="degree k must be >= 1"):
        bound(0, 3)
    with pytest.raises(ValueError, match="dimension n must be >= 0"):
        bound(2, -1)


def test_e_max_cores_match_the_checked_bounds():
    for k in range(1, 6):
        for n in range(0, 10):
            assert subspaces._e_bound(k, n, SKEW) == e_max(k, n)
            assert subspaces._e_bound(k, n, SYM) == subspaces._e_bound(k, n, SYM, False) == e_max_sym(k, n)
            # the compat mode drops the faithful bound by one exactly at k = 2, odd n
            drop = k == 2 and n % 2 == 1
            assert subspaces._e_bound(k, n, SYM, True) == e_max_sym(k, n) - drop


def test_sub_dim_monotone_in_e():
    for kind in (SKEW, SYM):
        for k in (2, 3, 4):
            for n in range(k, 9):
                dims = [sub_dim(e, k, n, kind) for e in range(k, n + 1)]
                assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_sub_dim_strict_containment_normalized():
    # proper containments between distinct normalized strata, k >= 3
    for k in (3, 4):
        for n in range(k, 9):
            values = [
                sub_dim(e, k, n, SKEW)
                for e in range(k, n + 1)
                if normalize_e(e, k, SKEW) == e
            ]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_sec_dim_printed_conflicts_are_visible():
    # the retained closed forms agree with the determinantal count in
    # some cases and disagree in others; both facts are pinned
    assert sec_dim_printed(1, 4, SKEW) == sub_dim(2, 2, 4, SKEW) == 4
    assert sec_dim_printed(2, 5, SKEW) == 5
    assert sub_dim(4, 2, 5, SKEW) == 9


@pytest.mark.parametrize(
    "s, n, kind, bad",
    [
        (1.5, 5, SKEW, "s must be an integer, got 1.5"),
        (True, 5, SKEW, "s must be an integer, got True"),
        (2, 2.5, SYM, "n must be an integer, got 2.5"),
    ],
    ids=repr,
)
def test_sec_dim_printed_refuses_non_int_arguments(s, n, kind, bad):
    # these gave 7.5, 6 and a TypeError from math.comb
    with pytest.raises(ValueError) as info:
        sec_dim_printed(s, n, kind)
    assert str(info.value) == bad


def test_sec_dim_printed_values_are_unchanged():
    # (2, 2) and (3, 5) skew gave -4 and -3; they are refused now
    expected = {
        SKEW: {(1, 2): 0, (1, 5): 6, (1, 8): 12, (2, 5): 5, (2, 8): 21, (3, 8): 15},
        SYM: {(1, 2): 1, (1, 5): 4, (1, 8): 7, (2, 2): 2, (2, 5): 8, (2, 8): 14, (3, 5): 11, (3, 8): 20},
    }
    for kind, values in expected.items():
        for (s, n), value in values.items():
            assert sec_dim_printed(s, n, kind) == value, (kind, s, n)


@pytest.mark.parametrize(
    "s, n, kind, bad",
    [
        (1, 0, SYM, "n must be >= 1 for s = 1 (sym), got 0"),
        (2, 2, SKEW, "n must be >= 4 for s = 2 (skew), got 2"),
        (3, 5, SKEW, "n must be >= 6 for s = 3 (skew), got 5"),
        (1, -3, SKEW, "n must be >= 2 for s = 1 (skew), got -3"),
    ],
    ids=repr,
)
def test_sec_dim_printed_refuses_small_n(s, n, kind, bad):
    # these gave -1, -4, -3 and math.comb's "n must be a non-negative integer"
    with pytest.raises(ValueError) as info:
        sec_dim_printed(s, n, kind)
    assert str(info.value) == bad


def test_sec_dim_printed_accepts_only_nonnegative_values():
    for kind, floor in ((SKEW, 2), (SYM, 1)):
        for s in range(1, 40):
            for n in range(120):
                if n < floor * s:
                    with pytest.raises(ValueError):
                        sec_dim_printed(s, n, kind)
                else:
                    assert sec_dim_printed(s, n, kind) >= 0, (kind, s, n)


def test_power_dim_counts_the_basis():
    for kind in (SKEW, SYM):
        for n in range(13):
            for k in range(7):
                assert tensors._power_dim(n, k, kind) == _power_dim(kind, k, n), (kind, n, k)


def _determinantal_k2(e: int, n: int, kind: str) -> int:
    """The k = 2 rank-stratification dimensions, written determinantally."""
    if kind == SKEW:
        return math.comb(n, 2) - math.comb(n - e, 2) - 1
    return math.comb(n + 1, 2) - math.comb(n - e + 1, 2) - 1


def test_sub_dim_k2_equals_the_determinantal_dimensions():
    for kind in (SKEW, SYM):
        for n in range(2, 41):
            for e in range(1 if kind == SYM else 2, n + 1):
                expected = _determinantal_k2(normalize_e(e, 2, kind), n, kind)
                assert sub_dim(e, 2, n, kind) == expected, (kind, e, n)


def test_tangent_oracle_pins():
    assert sub_dim_tangent(5, 3, 6, SKEW, seed=1) == 14
    assert sub_dim_tangent(4, 2, 5, SKEW, seed=1) == 9
    for k, n in [(2, 4), (2, 6), (3, 5)]:
        assert sub_dim_tangent(k, k, n, SKEW, seed=0) == k * (n - k)


def test_tangent_oracle_on_unnormalized_e():
    # parametrizing with a redundant enclosing bound sweeps out the same
    # variety, so the tangent rank sees the normalized dimension
    assert sub_dim_tangent(3, 2, 5, SKEW, seed=2) == sub_dim(3, 2, 5, SKEW)
    assert sub_dim_tangent(4, 3, 6, SKEW, seed=2) == sub_dim(4, 3, 6, SKEW)


def test_tangent_oracle_sym_spot_checks():
    assert sub_dim_tangent(2, 2, 3, SYM, seed=0) == sub_dim(2, 2, 3, SYM)
    assert sub_dim_tangent(1, 3, 4, SYM, seed=0) == sub_dim(1, 3, 4, SYM) == 3
    assert sub_dim_tangent(3, 3, 5, SYM, seed=0) == sub_dim(3, 3, 5, SYM)


def test_tangent_oracle_redraws_degenerate_omega(monkeypatch):
    # the first w drawn at each seed is the square of a linear form, so
    # it lies in Sub_1 and its tangent rank is too low; the recorded
    # draws pin that the oracle rejected it and drew a second w
    drawn = []

    def recording(*args):
        drawn.append(random_tensor(*args))
        return drawn[-1]

    monkeypatch.setattr(subspaces, "random_tensor", recording)
    for n, seed in [(6, 468), (5, 259)]:
        drawn.clear()
        assert sub_dim_tangent(2, 2, n, SYM, seed) == sub_dim(2, 2, n, SYM)
        assert [enc(t) for t in drawn] == [1, 2], (n, seed)


def test_tangent_oracle_small_grid(monkeypatch):
    # the full grid runs in the acceptance suite; spot a diagonal here.
    # Each sample runs the pass mod p once, on its chart Jacobian, which
    # has exactly sub_dim + 1 columns when e is normalized; the last
    # sample is certified, and any before it had a degenerate w (one
    # cell here draws w = 0 first)
    passes = []

    def recording(columns):
        passes.append((len(columns), _independent_mod_p(columns)))
        return passes[-1][1]

    monkeypatch.setattr(subspaces, "_independent_mod_p", recording)
    redrawn = 0
    for kind in (SKEW, SYM):
        for k in (2, 3):
            for n in range(k, 6):
                for e in range(k, n + 1):
                    if normalize_e(e, k, kind) != e:
                        continue
                    passes.clear()
                    assert sub_dim_tangent(e, k, n, kind, seed=3) == sub_dim(e, k, n, kind)
                    width = sub_dim(e, k, n, kind) + 1
                    assert passes == [(width, False)] * (len(passes) - 1) + [(width, True)]
                    redrawn += len(passes) - 1
    assert redrawn == 1


def test_tangent_oracle_computes_enc_and_the_exact_rank_only_on_a_shortfall(monkeypatch):
    calls = []

    def counting(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)

        return counted

    monkeypatch.setattr(subspaces, "enc", counting("enc", enc))
    monkeypatch.setattr(subspaces, "_independent_mod_p", counting("pass", _independent_mod_p))
    monkeypatch.setattr(linalg, "_bareiss", counting("bareiss", linalg._bareiss))
    # a nondegenerate w: the pass certifies full rank, with no enc(w)
    # and no exact rank
    assert sub_dim_tangent(5, 3, 6, SKEW, seed=1) == 14
    assert calls == ["pass"]
    # a degenerate first draw: the pass meets a dependency, enc(w) = 1
    # redraws, and the second w is certified mod p
    calls.clear()
    assert sub_dim_tangent(2, 2, 6, SYM, seed=468) == sub_dim(2, 2, 6, SYM)
    assert calls == ["pass", "enc", "pass"]
    # skew 2-forms on QQ^3 have rank 2, so the chart columns are always
    # dependent: one pass, one enc(w) at its maximum, one exact rank
    calls.clear()
    assert sub_dim_tangent(3, 2, 5, SKEW) == sub_dim(3, 2, 5, SKEW)
    assert calls == ["pass", "enc", "bareiss"]


def _chart(kind: str, w: dict, e: int, n: int, k: int) -> list:
    """The chart columns of w as sub_dim_tangent builds them."""
    return _chart_columns(w, _chart_pattern(kind, e, k), n - e)


def _enc_first_tangent(e: int, k: int, n: int, kind: str, seed: int) -> int:
    """Reference for sub_dim_tangent in the order that checks w first: draw
    w, redraw while enc(w) is below the maximum, then _certified_rank."""
    full = subspaces._e_bound(k, e, kind)
    rng = random.Random(f"subdim-tangent:{kind}:{k}:{e}:{n}:{seed}")
    for _ in range(subspaces.MAX_RETRIES):
        omega = random_tensor(e, k, kind, rng)
        if enc(omega) < full:
            continue
        return _certified_rank(_chart(kind, omega.coeffs, e, n, k)) - 1
    raise RuntimeError("no nondegenerate sample")


def test_tangent_oracle_equals_the_enc_first_reference():
    # every cell of verify's tangent grid with n <= 8, unnormalized e
    # included, then the exorbitance cells, then two degenerate first draws
    cells = [
        (kind, k, n, e, seed)
        for kind, ks in verify.TANGENT_GRID
        for k in ks
        for n in range(k, 9)
        for e in range(1 if kind == SYM else k, n + 1)
        for seed in range(10)
    ]
    cells += [(SKEW, k, g, g - 1, seed) for g in range(3, 10) for k in range(2, g) for seed in range(10)]
    cells += [(SYM, 2, 6, 2, 468), (SYM, 2, 5, 2, 259)]
    assert len(cells) == 2002
    for kind, k, n, e, seed in cells:
        assert sub_dim_tangent(e, k, n, kind, seed) == _enc_first_tangent(e, k, n, kind, seed), (kind, k, n, e, seed)


# ---------------------------------------------------------------------------
# the Jacobian at a general A: the oracle for the chart builders
#
# sub_dim_tangent builds its columns at A = [I_e ; 0] straight from w
# (_chart_columns on its face pattern, _chart_pattern).  The builders
# below take any integer A, through its minors (skew) or a substitution
# by its column forms (sym), and vary any rows of A; at the chart and the
# rows below the identity block they must give the same columns.


def _skew_jacobian_columns(a_cols, w: dict, n: int, k: int, varied=None):
    """Columns of the differential of (A, w) -> (wedge^k A)(w), on integers.

    Each column is a sparse {row: nonzero int} map, its rows indexed by
    the k-subsets of range(n) in combinations order.  The coordinate of
    (wedge^k A)(e_I) on J is the minor of A on rows J and columns I.
    Along an entry A[i][j] the factor A e_j of each term is replaced by
    e_i, so the column is e_i ^ psi_j with psi_j the image under
    wedge^(k-1) A of the interior derivative of w along e_j; for a fixed
    i distinct M give distinct M + {i}, so each entry comes from one term
    of psi_j.  The tensor-direction columns come first, then the entries
    A[i][j] for each j and each row i in varied (all n rows by default).
    """
    e = len(a_cols)
    varied = range(n) if varied is None else varied
    minors = _minors(a_cols, k)
    rows = {J: r for r, J in enumerate(itertools.combinations(range(n), k))}
    cols = [{rows[J]: v for J, v in minors[I].items()} for I in itertools.combinations(range(e), k)]
    for j in range(e):
        psi = {}
        for I, c in w.items():
            if j in I:
                q = I.index(j)
                for M, d in minors[I[:q] + I[q + 1 :]].items():
                    psi[M] = psi.get(M, 0) + (-c if q % 2 else c) * d
        psi = [(M, v) for M, v in psi.items() if v]
        for i in varied:
            col = {}
            for M, v in psi:
                p = bisect.bisect_left(M, i)  # moving e_i past p smaller indices
                if M[p : p + 1] != (i,):  # i not in M
                    col[rows[M[:p] + (i,) + M[p:]]] = -v if p % 2 else v
            cols.append(col)
    return cols


def _sym_jacobian_columns(a_cols, w: dict, n: int, k: int, varied=None):
    """Columns of the differential of (A, w) -> (S^k A)(w), on integers.

    Each column is a sparse {row: nonzero int} map, its rows indexed by
    the exponent vectors of degree k on n variables in exponent_vectors
    order.  The map substitutes source variable j by the linear form
    given by column j of A; its derivative along an entry A[i][j] is the
    partial derivative of w along j, substituted, times the i-th basis
    vector, and multiplying by x_i sends distinct monomials to distinct
    monomials.  Column order and varied are as in _skew_jacobian_columns.
    """
    e = len(a_cols)
    varied = range(n) if varied is None else varied
    substituted = _substitution(a_cols, n)
    target_pos = {a: r for r, a in enumerate(exponent_vectors(n, k))}
    cols = [{target_pos[key]: v for key, v in substituted(alpha).items()} for alpha in exponent_vectors(e, k)]
    for j in range(e):
        # substituted partial derivative along source variable j
        dpoly = {}
        for alpha, c in w.items():
            a = alpha[j]
            if a:
                for key, v in substituted(alpha[:j] + (a - 1,) + alpha[j + 1 :]).items():
                    dpoly[key] = dpoly.get(key, 0) + a * c * v
        dpoly = [(key, v) for key, v in dpoly.items() if v]
        for i in varied:
            cols.append({target_pos[key[:i] + (key[i] + 1,) + key[i + 1 :]]: v for key, v in dpoly})
    return cols


def _dense(columns, height: int) -> list:
    """Sparse {row: value} Jacobian columns as dense tuples of the given height."""
    assert all(0 <= r < height for col in columns for r in col)
    return [tuple(col.get(r, 0) for r in range(height)) for col in columns]


def _power_dim(kind: str, k: int, n: int) -> int:
    return len(k_subsets(n, k) if kind == SKEW else exponent_vectors(n, k))


def _linear_coefficient(values):
    """Coefficient of x in the polynomial of degree < len(values) that
    takes values[t] at x = t (Newton forward differences)."""
    diffs = list(values)
    coeff = Fraction(0)
    for m in range(1, len(values)):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        coeff += Fraction((-1) ** (m - 1), m) * diffs[0]
    return coeff


@pytest.mark.parametrize("kind", [SKEW, SYM])
def test_integer_jacobian_matches_apply_linear_map(kind):
    # independent route: the Fraction push-forward apply_linear_map.  The
    # column along a tensor coordinate is the image of that basis tensor;
    # the column along A[i][j] is the coefficient of eps in the image of w
    # under A + eps E_ij, interpolated at eps = 0..k (degree <= k in eps).
    # The Fraction route is slow, so a few seeded entries per cell are checked.
    rng = random.Random(f"jacobian-oracle:{kind}")
    tensor = SkewTensor if kind == SKEW else SymTensor
    build = _skew_jacobian_columns if kind == SKEW else _sym_jacobian_columns
    for k in range(1, 5):
        for n in range(k, 7):
            e = rng.randint(1 if kind == SYM else k, n)
            a_cols = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
            basis = k_subsets(e, k) if kind == SKEW else exponent_vectors(e, k)
            # the columns are linear in w, so a few terms exercise every rule
            w = {key: rng.choice((-9, -2, 1, 3, 7)) for key in rng.sample(basis, min(4, len(basis)))}
            cols = build(a_cols, w, n, k)
            assert len(cols) == len(basis) + e * n
            assert all(type(r) is int and type(x) is int and x for col in cols for r, x in col.items())
            # the chart's rows are a slice of the same columns
            chart = [cols[len(basis) + j * n + i] for j in range(e) for i in range(e, n)]
            assert build(a_cols, w, n, k, range(e, n)) == cols[: len(basis)] + chart
            cols = _dense(cols, _power_dim(kind, k, n))

            rows = [[col[i] for col in a_cols] for i in range(n)]
            for key, col in zip(basis, cols):
                assert col == apply_linear_map(rows, tensor(e, k, {key: 1})).coordinates()
            omega = tensor(e, k, w)
            for j, i in rng.sample([(j, i) for j in range(e) for i in range(n)], min(4, e * n)):
                images = []
                for eps in range(k + 1):
                    moved = [list(r) for r in rows]
                    moved[i][j] += eps
                    images.append(apply_linear_map(moved, omega).coordinates())
                expected = tuple(_linear_coefficient(v) for v in zip(*images))
                assert cols[len(basis) + j * n + i] == expected, (kind, k, n, e, i, j)


def test_chart_rank_equals_full_jacobian_rank(monkeypatch):
    # At A = [I_e ; 0] the columns along the top e rows of A add nothing
    # to the image of the differential: they are GL_e-orbit directions
    # plus tensor directions.  The map is GL_n-equivariant, so the chart's
    # certified rank is the exact rank of the full Jacobian (every row of
    # A varied, ranked through RationalMatrix) at a random injective A
    # and the same w.  In a collapsed cell (normalize_e(e) != e)
    # the chart has more columns than the rank, so the mod-p rank cannot
    # certify it and the exact fallback must still give sub_dim + 1.
    fallbacks = []
    bareiss = linalg._bareiss

    def counting(mat):
        fallbacks.append(len(mat))
        return bareiss(mat)

    deficient = 0
    for kind in (SKEW, SYM):
        build = _skew_jacobian_columns if kind == SKEW else _sym_jacobian_columns
        top = e_max if kind == SKEW else e_max_sym
        for k in (2, 3):
            for n in range(k, 7):
                for e in range(1 if kind == SYM else k, n + 1):
                    rng = random.Random(f"chart:{kind}:{k}:{n}:{e}")
                    a_cols = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
                    while rank(RationalMatrix.from_columns(a_cols)) < e:
                        a_cols = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(e)]
                    omega = random_tensor(e, k, kind, rng)
                    while enc(omega) < top(k, e):
                        omega = random_tensor(e, k, kind, rng)
                    identity = [tuple(int(i == j) for i in range(n)) for j in range(e)]
                    chart = build(identity, omega.coeffs, n, k, range(e, n))
                    expected = sub_dim(e, k, n, kind) + 1
                    monkeypatch.setattr(linalg, "_bareiss", counting)
                    fallbacks.clear()
                    got = _certified_rank(chart)
                    monkeypatch.undo()
                    full_cols = _dense(build(a_cols, omega.coeffs, n, k), _power_dim(kind, k, n))
                    full = rank(RationalMatrix.from_columns(full_cols))
                    assert got == full == expected, (kind, k, n, e)
                    if normalize_e(e, k, kind) == e:
                        assert len(chart) == expected and not fallbacks, (kind, k, n, e)
                    else:
                        # deficient unless e = n, where the chart is the whole power
                        assert (len(chart) > expected) is (e < n), (kind, k, n, e)
                        assert len(fallbacks) == (e < n), (kind, k, n, e)
                        deficient += e < n
    assert deficient == 6


def _golden_cells() -> list:
    return json.loads(GOLDEN.read_text())["cells"]


def test_tangent_oracle_reproduces_the_golden_values():
    # every cell of verify's tangent grid with n <= 9, collapsed e (which
    # take the exact fallback) and e = n included, at seeds 0, 1, 2
    cells = _golden_cells()
    assert len(cells) == 225
    for kind, k, n, e, values in cells:
        got = [sub_dim_tangent(e, k, n, kind, seed) for seed in range(len(values))]
        assert got == values, (kind, k, n, e)


def _chart_row_positions(kind: str, k: int, n: int, e: int) -> list:
    """For each compact row label of the chart builders, in label order,
    its position in the basis of the k-th power of QQ^n (k_subsets or
    exponent_vectors order): first the tensor directions on QQ^e, then,
    for each i from e to n - 1, each face of degree k - 1 on QQ^e times
    e_i (skew: M + (i,); sym: beta padded, plus 1 at position i)."""
    if kind == SKEW:
        position = {J: r for r, J in enumerate(k_subsets(n, k))}
        units = [position[I] for I in k_subsets(e, k)]
        return units + [position[M + (i,)] for i in range(e, n) for M in k_subsets(e, k - 1)]
    position = {a: r for r, a in enumerate(exponent_vectors(n, k))}
    pad = (0,) * (n - e)
    units = [position[alpha + pad] for alpha in exponent_vectors(e, k)]
    blocks = [
        position[beta + pad[: i - e] + (1,) + pad[i - e + 1 :]]
        for i in range(e, n)
        for beta in exponent_vectors(e, k - 1)
    ]
    return units + blocks


def test_chart_columns_match_the_general_builders():
    # at A = [I_e ; 0], varying the rows below the identity block, on the
    # golden cells with a generic w, a sparse (degenerate) w and w = 0:
    # each compact row label, mapped back to its k-subset or exponent
    # vector on QQ^n, gives the general builder's columns entry for entry.
    # Each shape is then built again from its cached face pattern, with a
    # w from another seed and with that w missing some terms.
    _chart_pattern.cache_clear()
    for kind, k, n, e, _ in _golden_cells():
        general = _skew_jacobian_columns if kind == SKEW else _sym_jacobian_columns
        identity = [tuple(int(i == j) for i in range(n)) for j in range(e)]
        position = _chart_row_positions(kind, k, n, e)
        assert len(set(position)) == len(position), (kind, k, n, e)
        rng = random.Random(f"chart-columns:{kind}:{k}:{n}:{e}")
        generic = random_tensor(e, k, kind, rng).coeffs
        sparse = dict(rng.sample(sorted(generic.items()), min(2, len(generic))))
        for w in (generic, sparse, {}):
            relabelled = [{position[r]: v for r, v in col.items()} for col in _chart(kind, w, e, n, k)]
            assert relabelled == general(identity, w, n, k, range(e, n)), (kind, k, n, e, w)
        hits = _chart_pattern.cache_info().hits
        other = random_tensor(e, k, kind, random.Random(f"chart-columns-again:{kind}:{k}:{n}:{e}")).coeffs
        dropped = {key: c for i, (key, c) in enumerate(other.items()) if i % 3}
        for w in (other, dropped):
            relabelled = [{position[r]: v for r, v in col.items()} for col in _chart(kind, w, e, n, k)]
            assert relabelled == general(identity, w, n, k, range(e, n)), (kind, k, n, e, w)
        assert _chart_pattern.cache_info().hits == hits + 2, (kind, k, n, e)
        # the cached pattern is immutable all the way down
        units, faces, directions = _chart_pattern(kind, e, k)
        assert type(directions) is tuple and len(directions) == e
        assert all(type(d) is tuple and all(type(x) is tuple and type(x[0]) is tuple for x in d) for d in directions)


def test_chart_row_labels_stay_below_the_jacobian_height():
    # the compact labels number the Jacobian's own rows: dim of the k-th
    # power of QQ^e for the tensor directions, then n - e blocks of the
    # faces of degree k - 1 on QQ^e; each seeded w here reaches the last
    # label, so the dense fallback is exactly that high
    for kind, k, n, e, _ in _golden_cells():
        height = _power_dim(kind, k, e) + (n - e) * _power_dim(kind, k - 1, e)
        if kind == SKEW:
            assert height == math.comb(e, k) + (n - e) * math.comb(e, k - 1)
        assert len(_chart_row_positions(kind, k, n, e)) == height
        w = random_tensor(e, k, kind, random.Random(f"chart-height:{kind}:{k}:{n}:{e}")).coeffs
        labels = {r for col in _chart(kind, w, e, n, k) for r in col}
        assert all(0 <= r < height for r in labels), (kind, k, n, e)
        if w and n > e:
            assert max(labels) == height - 1, (kind, k, n, e)


def test_chart_at_n_equal_e_is_the_unit_columns(monkeypatch):
    # with no varied rows the chart is the U tensor directions alone, whatever
    # w is; sub_dim_tangent still ranks every one of those columns (the pass
    # mod p sees them), so its value U - 1 comes from a rank, not a formula
    ranked = []

    def recording(columns):
        ranked.append(columns)
        return _independent_mod_p(columns)

    monkeypatch.setattr(subspaces, "_independent_mod_p", recording)
    for kind, ks in verify.TANGENT_GRID:
        for k in ks:
            for e in range(1 if kind == SYM else k, 9):
                units = [{r: 1} for r in range(_power_dim(kind, k, e))]
                pattern = _chart_pattern(kind, e, k)
                w = random_tensor(e, k, kind, random.Random(f"chart-units:{kind}:{k}:{e}")).coeffs
                for coeffs in (w, {}):
                    assert _chart_columns(coeffs, pattern, 0) == units, (kind, k, e)
                ranked.clear()
                assert sub_dim_tangent(e, k, e, kind, seed=5) == len(units) - 1, (kind, k, e)
                assert ranked == [units], (kind, k, e)


@pytest.mark.parametrize("kind, k, n, e", [(SYM, 4, 40, 5), (SKEW, 5, 30, 8), (SKEW, 3, 61, 7)])
def test_tangent_oracle_on_large_n(kind, k, n, e):
    # n far above e, where the chart's rows are a small share of the
    # k-th power of QQ^n
    assert sub_dim_tangent(e, k, n, kind) == sub_dim(e, k, n, kind)


def test_membership_dimension_coherence():
    # collapsing e to normalize_e never changes membership, because the
    # skipped values (odd skew ranks, enclosing dimension k+1) are not
    # attained by any tensor
    for k, n in [(2, 5), (3, 6)]:
        for s in range(10):
            t = random_tensor(n, k, SKEW, f"coherence:{k}:{n}:{s}")
            m = enc(t)
            for e in range(k, n + 1):
                assert (m <= e) == (m <= normalize_e(e, k, SKEW))


def test_e_max_attained_by_random_tensors():
    for k, n in [(2, 4), (2, 5), (3, 4), (3, 5), (3, 6)]:
        best = max(enc(random_tensor(n, k, SKEW, s)) for s in range(100))
        assert best == e_max(k, n)


def test_e_max_degree_one_matches_observed_enc():
    # a vector encloses only its own line
    for n in range(6):
        for kind, bound in ((SKEW, e_max), (SYM, e_max_sym)):
            best = max(enc(random_tensor(n, 1, kind, s)) for s in range(20))
            assert bound(1, n) == best == min(n, 1)
