import random
from fractions import Fraction

import pytest

from divatlas import linalg, subspaces
from divatlas.linalg import RationalMatrix, _certified_rank, rank
from divatlas.subspaces import (
    _skew_jacobian_columns,
    _sym_jacobian_columns,
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
    apply_linear_map,
    enc,
    exponent_vectors,
    k_subsets,
    random_tensor,
)


def test_e_max_parity_and_codegree_drops():
    assert e_max(2, 5) == 4
    assert e_max(3, 4) == 3
    assert e_max(3, 6) == 6
    assert e_max(2, 4) == 4
    assert e_max(2, 7) == 6
    assert e_max(4, 5) == 4
    assert e_max(2, 1) == 0  # exterior square of a line vanishes


def test_e_max_sym_modes():
    assert e_max_sym(2, 3) == 3
    assert e_max_sym(2, 3, paper_compat=True) == 2
    assert e_max_sym(3, 5) == 5
    assert e_max_sym(3, 5, paper_compat=True) == 5


def test_normalize_e():
    assert normalize_e(5, 2, SKEW) == 4
    assert normalize_e(4, 3, SKEW) == 3
    assert normalize_e(5, 3, SKEW) == 5
    assert normalize_e(5, 2, SYM) == 5
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
    # it lies in Sub_1 and its tangent rank is too low; the counter pins
    # that the oracle rejected it and drew a second w
    calls = []

    def counting(t):
        calls.append(t)
        return enc(t)

    monkeypatch.setattr(subspaces, "enc", counting)
    for n, seed in [(6, 468), (5, 259)]:
        calls.clear()
        assert sub_dim_tangent(2, 2, n, SYM, seed) == sub_dim(2, 2, n, SYM)
        assert [enc(t) for t in calls] == [1, 2], (n, seed)


def test_tangent_oracle_small_grid(monkeypatch):
    # the full grid runs in the acceptance suite; spot a diagonal here.
    # Each evaluation ranks the chart Jacobian, which has exactly
    # sub_dim + 1 columns when e is normalized.
    widths = []

    def recording(columns):
        widths.append(len(columns))
        return _certified_rank(columns)

    monkeypatch.setattr(subspaces, "_certified_rank", recording)
    for kind in (SKEW, SYM):
        for k in (2, 3):
            for n in range(k, 6):
                for e in range(k, n + 1):
                    if normalize_e(e, k, kind) != e:
                        continue
                    widths.clear()
                    assert sub_dim_tangent(e, k, n, kind, seed=3) == sub_dim(e, k, n, kind)
                    assert widths == [sub_dim(e, k, n, kind) + 1]


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
            assert all(type(x) is int for col in cols for x in col)
            # the chart's rows are a slice of the same columns
            chart = [cols[len(basis) + j * n + i] for j in range(e) for i in range(e, n)]
            assert build(a_cols, w, n, k, range(e, n)) == cols[: len(basis)] + chart

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
                    full = rank(RationalMatrix.from_columns(build(a_cols, omega.coeffs, n, k)))
                    assert got == full == expected, (kind, k, n, e)
                    if normalize_e(e, k, kind) == e:
                        assert len(chart) == expected and not fallbacks, (kind, k, n, e)
                    else:
                        # deficient unless e = n, where the chart is the whole power
                        assert (len(chart) > expected) is (e < n), (kind, k, n, e)
                        assert len(fallbacks) == (e < n), (kind, k, n, e)
                        deficient += e < n
    assert deficient == 6


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
