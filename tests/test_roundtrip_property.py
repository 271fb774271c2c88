"""Property tests: the JSON interchange inverts, and enc's JSON answer is json's.

* tensor_from_json(tensor_to_json(t)) == t for skew and symmetric tensors
  with int and Fraction coefficients, also through json.dumps and
  json.loads.
* cli._enc_json writes what json.dumps(indent=2, sort_keys=True) writes
  for every enc result: empty bases, Fraction and negative entries, with
  and without a sub block.
"""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from divatlas.cli import _enc_json  # noqa: E402
from divatlas.tensors import (  # noqa: E402
    SKEW,
    SYM,
    SkewTensor,
    SymTensor,
    exponent_vectors,
    k_subsets,
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


@st.composite
def enc_results(draw):
    """A result dict of the shape that the CLI's enc command writes: every
    basis vector has n >= 1 entries, as str gives them."""
    n = draw(st.integers(0, 6))
    vectors = st.lists(_COEFFS.map(str), min_size=n, max_size=n)
    basis = draw(st.lists(vectors, max_size=n)) if n else []
    result = {"n": n, "k": draw(st.integers(0, 5)), "kind": draw(st.sampled_from((SKEW, SYM)))}
    result.update(enc=len(basis), basis=basis)
    e = draw(st.one_of(st.none(), st.integers(0, 10**6)))
    if e is not None:
        result["sub"] = {"e": e, "member": len(basis) <= e}
    return result


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(enc_results())
def test_enc_json_writes_what_json_dumps_writes(result):
    assert _enc_json(result) == json.dumps(result, indent=2, sort_keys=True)
