"""Property tests: membership agrees with the enclosing space, and the
annihilator that SubspaceBasis keeps for it is right.

A tensor t lies in the k-th exterior (resp. symmetric) power of span(W)
exactly when its enclosing space, the smallest such subspace, lies in
span(W).  is_in_power_of decides this from W's annihilator and t's own
faces, with no rank; the other side ranks t's contraction columns
(enclosing_space) and tests each basis vector with in_span.  The cases
cover both kinds, k <= 3 and n <= 6, with Fraction coefficients and
Fraction subspace bases; t is a tensor on the first e coordinates moved
by a random integer matrix, and W is drawn from that matrix's columns
and other vectors, so both answers occur, also with dim W < n.

The annihilator W keeps from its construction must be n - dim W plain
int covectors, independent and vanishing on W; a basis from
_independent, which makes them on first use, must give the same ones;
and a basis with a rational combination of its vectors appended must
be refused as dependent.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from divatlas.linalg import RationalMatrix, gauss_rank, in_span  # noqa: E402
from divatlas.tensors import (  # noqa: E402
    SKEW,
    SYM,
    SkewTensor,
    SubspaceBasis,
    SymTensor,
    apply_linear_map,
    enclosing_space,
    exponent_vectors,
    is_in_power_of,
    k_subsets,
)

small = st.integers(-3, 3)
fractions = st.builds(Fraction, small, st.integers(1, 4))
nonzero_fractions = st.builds(Fraction, small.filter(bool), st.integers(1, 4))


@st.composite
def membership_cases(draw):
    """(t, W): t of either kind, degree k <= 3 on QQ^n, n <= 6, with
    Fraction coefficients on the first e coordinates, moved by an integer
    n x n matrix A.  The pool is A's first e columns, which span a space
    holding t, and some other vectors.  W is spanned either by Fraction
    triangular combinations of the whole pool (so it contains t's
    enclosing space) or by random Fraction combinations of it; dependent
    vectors are dropped."""
    kind = draw(st.sampled_from((SKEW, SYM)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k if kind == SKEW else 1, 6))
    e = draw(st.integers(k if kind == SKEW else 1, n))
    if kind == SKEW:
        t = SkewTensor(n, k, {key: draw(fractions) for key in k_subsets(e, k)})
    else:
        t = SymTensor(n, k, {key + (0,) * (n - e): draw(fractions) for key in exponent_vectors(e, k)})
    a = [[draw(small) for _ in range(n)] for _ in range(n)]
    t = apply_linear_map(a, t)
    pool = [tuple(row[j] for row in a) for j in range(e)]
    pool += [tuple(draw(small) for _ in range(n)) for _ in range(draw(st.integers(0, n - e)))]
    if draw(st.booleans()):
        # v_j = f p_j + (a combination of p_0 .. p_(j-1)), f != 0, keeps the pool's span
        weights = [[draw(fractions) for _ in range(j)] + [draw(nonzero_fractions)] for j in range(len(pool))]
    else:
        weights = [[draw(fractions) for _ in pool] for _ in range(draw(st.integers(0, n)))]
    vectors = []
    for ws in weights:
        v = tuple(sum((w * p[i] for w, p in zip(ws, pool)), Fraction(0)) for i in range(n))
        if any(v) and not (vectors and in_span(v, vectors)):
            vectors.append(v)
    return t, SubspaceBasis(n, tuple(vectors))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(membership_cases())
def test_membership_holds_exactly_when_the_enclosing_space_lies_in_w(case):
    t, W = case
    expected = all(in_span(u, W.vectors) for u in enclosing_space(t).vectors)
    assert is_in_power_of(t, W) is expected


@st.composite
def independent_bases(draw):
    """(n, vectors): n <= 7 and independent vectors of QQ^n with int or
    Fraction entries; drawn vectors in the span of the earlier ones are
    dropped."""
    n = draw(st.integers(0, 7))
    entries = st.one_of(small, fractions)
    vectors = []
    for _ in range(draw(st.integers(0, n))):
        v = tuple(draw(entries) for _ in range(n))
        if any(v) and not (vectors and in_span(v, vectors)):
            vectors.append(v)
    return n, tuple(vectors)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(independent_bases(), st.data())
def test_subspace_basis_keeps_the_annihilator_of_its_span(case, data):
    n, vectors = case
    W = SubspaceBasis(n, vectors)
    covectors = W._annihilator()
    assert len(covectors) == n - W.dim
    for y in covectors:
        assert type(y) is tuple and {type(x) for x in y} <= {int}
        assert all(sum(a * b for a, b in zip(y, v)) == 0 for v in W.vectors)
    assert gauss_rank(RationalMatrix(covectors, cols=n)) == n - W.dim
    # a basis that skips the independence check makes the same covectors
    # on first use, and is the same value
    V = SubspaceBasis._independent(n, vectors)
    assert V == W and hash(V) == hash(W)
    assert V._annihilator() == covectors
    weights = [data.draw(fractions) for _ in vectors]
    combo = tuple(sum((w * v[i] for w, v in zip(weights, vectors)), Fraction(0)) for i in range(n))
    with pytest.raises(ValueError, match="basis vectors are linearly dependent"):
        SubspaceBasis(n, vectors + (combo,))
