"""Property tests: the JSON interchange and the combinadic indexing invert.

* tensor_from_json(tensor_to_json(t)) == t for skew and symmetric tensors
  with int and Fraction coefficients, also through json.dumps and
  json.loads;
* subset_rank and subset_unrank are inverse bijections between
  range(C(n, k)) and the k-subsets of range(n), for n <= 12.
"""

import json
import math
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
    exponent_vectors,
    k_subsets,
    subset_rank,
    subset_unrank,
    tensor_from_json,
    tensor_to_json,
)

_COEFFS = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)),
)


@st.composite
def tensors(draw):
    kind = draw(st.sampled_from((SKEW, SYM)))
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    cls, basis = (SkewTensor, k_subsets(n, k)) if kind == SKEW else (SymTensor, exponent_vectors(n, k))
    keys = draw(st.lists(st.sampled_from(basis), unique=True, max_size=8)) if basis else []
    return cls(n, k, {key: draw(_COEFFS) for key in keys})


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tensors())
def test_tensor_json_round_trip(t):
    obj = tensor_to_json(t)
    for parsed in (tensor_from_json(obj), tensor_from_json(json.loads(json.dumps(obj)))):
        assert parsed == t
        assert list(map(type, parsed.coeffs.values())) == [type(t.coeffs[key]) for key in parsed.coeffs]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_subset_rank_and_unrank_are_inverse_bijections(data):
    n = data.draw(st.integers(0, 12))
    k = data.draw(st.integers(0, n))
    subsets = [subset_unrank(r, k, n) for r in range(math.comb(n, k))]
    assert [subset_rank(s, n) for s in subsets] == list(range(len(subsets)))
    # distinct strictly increasing k-subsets of range(n), as many as there are
    assert len(set(subsets)) == len(subsets)
    assert all(len(s) == k and list(s) == sorted(set(s)) and set(s) <= set(range(n)) for s in subsets)
    chosen = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))) if n else ()
    assert subset_unrank(subset_rank(chosen, n), k, n) == chosen
