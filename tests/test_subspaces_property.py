"""Property test: the chart rank equals the full Jacobian rank.

sub_dim_tangent ranks the Jacobian of (A, w) -> (power of A)(w) at the
chart point A = [I_e ; 0], varying only the rows of A below the
identity block.  The map is GL_n-equivariant and the top rows of A give
directions already spanned by the tensor columns, so for every w, the
zero tensor and degenerate tensors included, the certified rank of the
chart columns must equal the exact rank of the full Jacobian (every row
of A varied, built by the general-A builders of test_subspaces) at any
injective integer A.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_subspaces import _chart, _dense, _power_dim, _skew_jacobian_columns, _sym_jacobian_columns  # noqa: E402

from divatlas.linalg import RationalMatrix, _certified_rank, rank  # noqa: E402
from divatlas.tensors import SKEW, SYM, exponent_vectors, k_subsets  # noqa: E402

small = st.integers(-3, 3)


@st.composite
def chart_cases(draw):
    """(kind, k, n, e, A, w) with n <= 5 and A an injective integer n x e
    matrix, given by its columns: P L U, with L the first e columns of a
    unit lower triangular n x n matrix, U unit upper triangular e x e and
    P a row permutation.  w is any integer tensor on QQ^e."""
    kind = draw(st.sampled_from((SKEW, SYM)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 5))
    e = draw(st.integers(1 if kind == SYM else k, n))
    lower = [[1 if i == j else draw(small) if i > j else 0 for j in range(e)] for i in range(n)]
    upper = [[1 if i == j else draw(small) if i < j else 0 for j in range(e)] for i in range(e)]
    perm = draw(st.permutations(range(n)))
    a_cols = [tuple(sum(lower[perm[i]][t] * upper[t][j] for t in range(e)) for i in range(n)) for j in range(e)]
    basis = k_subsets(e, k) if kind == SKEW else exponent_vectors(e, k)
    coeffs = draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
    return kind, k, n, e, a_cols, {key: c for key, c in zip(basis, coeffs) if c}


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(chart_cases())
def test_chart_rank_equals_full_jacobian_rank_at_an_injective_a(case):
    kind, k, n, e, a_cols, w = case
    assert rank(RationalMatrix.from_columns(a_cols)) == e
    chart = _chart(kind, w, e, n, k)
    general = _skew_jacobian_columns if kind == SKEW else _sym_jacobian_columns
    full = _dense(general(a_cols, w, n, k), _power_dim(kind, k, n))
    assert _certified_rank(chart) == rank(RationalMatrix.from_columns(full))
