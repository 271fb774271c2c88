"""Property test: the face table gives exactly the nonzero dense
contraction columns.

The face table of a tensor's terms (tensors._skew_faces, _sym_faces)
lists each term's faces, each with a row and a factor: the skew term I
has the face I minus I[pos] on row I[pos] with factor (-1)^pos, and the
symmetric term alpha the face alpha - e_i on row i with factor alpha_i.
Grouping the entries by face, with factor * coefficient on the entry's
row, must give every nonzero column of _contraction_columns (the dense
generator that enc ranks) under its face, and no other column; and
_face_sums on integer rows must give each of these columns' dot product
with the rows.  The tensors are sparse, of both kinds, k <= 4 and
n <= 7, with one term or a few, and integer or Fraction coefficients.
"""

import itertools
import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from divatlas.tensors import (  # noqa: E402
    SKEW,
    SYM,
    SkewTensor,
    SymTensor,
    _contraction_columns,
    _face_sums,
    _skew_faces,
    _sym_codes,
    _sym_faces,
    exponent_vectors,
    k_subsets,
)

small = st.integers(-3, 3).filter(bool)
scalars = st.one_of(small, st.builds(Fraction, small, st.integers(2, 5)))


@st.composite
def sparse_tensors(draw):
    """A skew or symmetric tensor of degree 1 <= k <= 4 on QQ^n, n <= 7,
    with 1 to 6 distinct basis keys and nonzero coefficients."""
    kind = draw(st.sampled_from((SKEW, SYM)))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k if kind == SKEW else 1, 7))
    basis = k_subsets(n, k) if kind == SKEW else exponent_vectors(n, k)
    keys = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=6, unique=True))
    coeffs = {key: draw(scalars) for key in keys}
    return (SkewTensor if kind == SKEW else SymTensor)(n, k, coeffs)


def _table(t):
    """t's face table, its items the coefficients in key order."""
    cs = list(t.coeffs.values())
    return _skew_faces(t.coeffs, cs) if t.kind == SKEW else _sym_faces(t.coeffs, cs, t.k)


def _dense_columns(t) -> dict:
    """{face: column} for the nonzero columns of _contraction_columns, with
    the face keys of the face table: (k-1)-subsets, or _sym_codes."""
    if t.kind == SKEW:
        faces = k_subsets(t.n, t.k - 1)
    else:
        faces = _sym_codes(exponent_vectors(t.n, t.k - 1), t.k)
    return {face: col for face, col in zip(faces, _contraction_columns(t)) if any(col)}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(sparse_tensors(), st.data())
def test_face_table_grouped_by_face_is_the_nonzero_dense_columns(t, data):
    grouped = {}
    for faces, row, factor, items in _table(t):
        rows = itertools.repeat(row) if type(row) is int else row
        factors = itertools.repeat(factor) if type(factor) is int else factor
        for face, i, m, c in zip(faces, rows, factors, items):
            col = grouped.setdefault(face, [0] * t.n)
            # each (face, row) pair comes from one term
            assert col[i] == 0, (face, i)
            col[i] = m * c
    dense = _dense_columns(t)
    assert {face: tuple(col) for face, col in grouped.items()} == dense
    ys = data.draw(st.lists(st.integers(-50, 50), min_size=t.n, max_size=t.n))
    dots = {face: sum(map(operator.mul, col, ys)) for face, col in dense.items()}
    assert _face_sums(_table(t), ys) == dots
