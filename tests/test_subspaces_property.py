"""Property tests: the general-A Jacobian rank is sub_dim + 1, and the
chart's rank by the block lemma equals it.

sub_dim_tangent ranks the Jacobian of (A, w) -> (power of A)(w) at the
chart point A = [I_e ; 0], varying only the rows of A below the
identity block, as U + (n - e) rank D: U unit columns, then one copy of
the derivative block D of w per varied row.  The map is
GL_n-equivariant and the top rows of A give directions already spanned
by the tensor columns, so for every w, the zero tensor and degenerate
tensors included, that rank must equal the exact rank of the full
Jacobian (every row of A varied, built by the general-A builders of
test_subspaces) at any injective integer A.

The first property needs neither the chart nor the block lemma: at an
injective A and a w whose enclosing dimension is the maximum on QQ^e,
the certified rank of the full Jacobian, every entry of A varied, is
sub_dim + 1, the dimension of the affine cone over Sub_e.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_subspaces import _dense, _lemma_rank, _power_dim, _skew_jacobian_columns, _sym_jacobian_columns  # noqa: E402

from divatlas.linalg import RationalMatrix, _certified_rank, rank  # noqa: E402
from divatlas.subspaces import e_max, e_max_sym, sub_dim  # noqa: E402
from divatlas.tensors import SKEW, SYM, enc, exponent_vectors, k_subsets, random_tensor  # noqa: E402

small = st.integers(-3, 3)


@st.composite
def chart_cases(draw, n_max=5):
    """(kind, k, n, e, A, w) with n <= n_max and A an injective integer n x e
    matrix, given by its columns: P L U, with L the first e columns of a
    unit lower triangular n x n matrix, U unit upper triangular e x e and
    P a row permutation.  w is any integer tensor on QQ^e."""
    kind = draw(st.sampled_from((SKEW, SYM)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, n_max))
    e = draw(st.integers(1 if kind == SYM else k, n))
    lower = [[1 if i == j else draw(small) if i > j else 0 for j in range(e)] for i in range(n)]
    upper = [[1 if i == j else draw(small) if i < j else 0 for j in range(e)] for i in range(e)]
    perm = draw(st.permutations(range(n)))
    a_cols = [tuple(sum(lower[perm[i]][t] * upper[t][j] for t in range(e)) for i in range(n)) for j in range(e)]
    basis = k_subsets(e, k) if kind == SKEW else exponent_vectors(e, k)
    coeffs = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
    return kind, k, n, e, a_cols, {key: c for key, c in zip(basis, coeffs) if c}


@st.composite
def generic_cases(draw):
    """chart_cases with n <= 6 and w a seeded random tensor on QQ^e, whose
    enclosing dimension is the maximum on QQ^e unless the draw is
    degenerate, which the property skips."""
    kind, k, n, e, a_cols, _ = draw(chart_cases(n_max=6))
    return kind, k, n, e, a_cols, random_tensor(e, k, kind, draw(st.integers(0, 2**16)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(generic_cases())
def test_general_jacobian_rank_is_sub_dim_plus_one(case):
    kind, k, n, e, a_cols, omega = case
    assume(enc(omega) == (e_max if kind == SKEW else e_max_sym)(k, e))
    w = omega.coeffs
    general = _skew_jacobian_columns if kind == SKEW else _sym_jacobian_columns
    height = _power_dim(kind, k, n)
    full = _dense(general(a_cols, w, n, k), height)
    assert _certified_rank(full, height) == sub_dim(e, k, n, kind) + 1


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(chart_cases())
def test_chart_rank_equals_full_jacobian_rank_at_an_injective_a(case):
    kind, k, n, e, a_cols, w = case
    assert rank(RationalMatrix.from_columns(a_cols)) == e
    general = _skew_jacobian_columns if kind == SKEW else _sym_jacobian_columns
    full = _dense(general(a_cols, w, n, k), _power_dim(kind, k, n))
    assert _lemma_rank(kind, w, e, n, k) == rank(RationalMatrix.from_columns(full))
