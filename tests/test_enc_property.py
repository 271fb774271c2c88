"""Oracle properties of enc on rank-deficient contractions, and sympy as a
third rank oracle.

enc(t) is the dimension of the smallest subspace U with t in the k-th
power of U.  So enc(s + t) <= enc(s) + enc(t), since s + t lies in the
power of the sum of the two enclosing spaces, and enc(A t) = enc(t) for
an invertible A, which moves the enclosing space onto an isomorphic
one.  The tensors are short sums of decomposables on QQ^n, n <= 7, of
both kinds and k <= 3, so their contraction matrices are mostly
rank-deficient and the kernel meets many dependent columns, which it
tests on its packed covectors.

sympy's Matrix.rank, when sympy is installed, ranks the seeded
rank-deficient products of the rank-oracle suite beside the kernel and
gauss_rank.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from divatlas.linalg import gauss_rank, rank  # noqa: E402
from divatlas.tensors import SKEW, SYM, SkewTensor, SymTensor, apply_linear_map, enc, sym_power, wedge  # noqa: E402
from divatlas.verify import _rank_oracle_matrices  # noqa: E402

small = st.integers(-3, 3)
scalars = st.one_of(small.filter(bool), st.builds(Fraction, small.filter(bool), st.integers(2, 5)))


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from((SKEW, SYM)))
    k = draw(st.integers(1, 3))
    return kind, k, draw(st.integers(k + 1 if kind == SKEW else 2, 7))


def decomposable_sums(kind, k, n):
    """Sums of 0 to 3 decomposables (wedges of k vectors, or k-th powers)
    with small integer or Fraction weights."""
    vector = st.tuples(*[small] * n)
    if kind == SKEW:
        term = st.builds(lambda vs, c: wedge(vs) * c, st.lists(vector, min_size=k, max_size=k), scalars)
    else:
        term = st.builds(lambda v, c: sym_power(v, k) * c, vector, scalars)
    zero = SkewTensor(n, k, {}) if kind == SKEW else SymTensor(n, k, {})
    return st.lists(term, max_size=3).map(lambda ts: sum(ts, zero))


@st.composite
def invertible(draw, n):
    """An n x n integer matrix of determinant +-1: a row permutation of a
    unit lower times a unit upper triangular matrix."""
    lower = [[1 if i == j else (draw(small) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (draw(small) if i < j else 0) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return [[sum(lower[p][m] * upper[m][j] for m in range(n)) for j in range(n)] for p in perm]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enc_is_subadditive(data):
    kind, k, n = data.draw(shapes())
    s = data.draw(decomposable_sums(kind, k, n))
    t = data.draw(decomposable_sums(kind, k, n))
    assert enc(s + t) <= enc(s) + enc(t)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_enc_is_invariant_under_an_invertible_map(data):
    kind, k, n = data.draw(shapes())
    t = data.draw(decomposable_sums(kind, k, n))
    assert enc(apply_linear_map(data.draw(invertible(n)), t)) == enc(t)


@pytest.mark.parametrize("seed", [0, 1])
def test_sympy_rank_agrees_on_the_rank_oracle_products(seed):
    sympy = pytest.importorskip("sympy")
    deficient = 0
    for _, M, inner in _rank_oracle_matrices(seed, 100):
        if inner is None:
            continue
        b = sympy.Matrix([list(M.row(i)) for i in range(M.rows)]).rank()
        assert b == rank(M) == gauss_rank(M) <= inner
        deficient += b < min(M.rows, M.cols)
    assert deficient >= 30
