"""Property test: membership's face sums are the nonzero dense contraction
columns dotted with the rows.

The face sums of a tensor's terms (tensors._skew_face_sums,
_sym_face_sums) add, for each term, its entry times a row into the sum
of each of its faces: the skew term I adds (-1)^pos * c * rows[I[pos]]
to the face I minus I[pos], and the symmetric term alpha adds
alpha_i * c * rows[i] to the face alpha - e_i, keyed by its code in base
k + 1.  Each function's dict must be {face: column . rows} over exactly
the nonzero columns of _contraction_columns (the dense generator that
enc ranks), each under its face.  The tensors are sparse, of both kinds,
k <= 4 and n <= 7, with one term or a few, and integer or Fraction
coefficients, scaled to integers by the lcm of their denominators as
is_in_power_of scales them.
"""

import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from divatlas.linalg import _int_vector  # noqa: E402
from divatlas.tensors import (  # noqa: E402
    SKEW,
    SYM,
    SkewTensor,
    SymTensor,
    _contraction_columns,
    _skew_face_sums,
    _sym_face_sums,
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


def _dense_dots(t, cs: list, ys: list) -> dict:
    """{face: column . ys} over the nonzero columns of _contraction_columns
    of t with its coefficients replaced by cs, keyed as the face sums key
    them: a (k-1)-subset, or an exponent vector's digits in base k + 1."""
    scaled = type(t)(t.n, t.k, dict(zip(t.coeffs, cs)))
    if t.kind == SKEW:
        faces = k_subsets(t.n, t.k - 1)
    else:
        faces = [sum(a * (t.k + 1) ** i for i, a in enumerate(alpha)) for alpha in exponent_vectors(t.n, t.k - 1)]
    columns = zip(faces, _contraction_columns(scaled))
    return {face: sum(map(operator.mul, col, ys)) for face, col in columns if any(col)}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(sparse_tensors(), st.data())
def test_face_sums_are_the_nonzero_dense_columns_dotted_with_the_rows(t, data):
    cs = _int_vector(t.coeffs.values())
    ys = data.draw(st.lists(st.integers(-50, 50), min_size=t.n, max_size=t.n))
    if t.kind == SKEW:
        sums = _skew_face_sums(t.coeffs, cs, ys)
    else:
        sums = _sym_face_sums(t.coeffs, cs, t.k, ys)
    assert sums == _dense_dots(t, cs, ys)
