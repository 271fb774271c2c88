"""Property test: the subspaces that verify samples decide membership by
dimension alone.

The deformability and membership-flip suites realize membership in
Sub_e with sampled subspaces: _fatten extends t's enclosing space to
dimension e, and _probe_subspace draws subspaces that keep some of its
vectors.  For any random stream, a fattened space of dimension e >=
enc(t) holds the enclosing space and so contains t, and no subspace of
dimension below enc(t) contains t, since the enclosing space is the
smallest that does.  So those suites' outcomes are fixed by the
mathematics, whatever vectors the samplers draw.  The cases cover both
kinds, k <= 3 and n <= 5, the zero tensor and sparse tensors included.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from divatlas.tensors import (  # noqa: E402
    SKEW,
    SYM,
    SkewTensor,
    SymTensor,
    enc,
    enclosing_space,
    exponent_vectors,
    is_in_power_of,
    k_subsets,
)
from divatlas.verify import _fatten, _probe_subspace  # noqa: E402


@st.composite
def sampler_cases(draw):
    """(t, seed): t of either kind, degree k <= 3 on QQ^n with n <= 5 and
    coefficients in [-2, 2], many of them zero; seed seeds the samplers."""
    kind = draw(st.sampled_from((SKEW, SYM)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k if kind == SKEW else 1, 5))
    basis = k_subsets(n, k) if kind == SKEW else exponent_vectors(n, k)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    cls = SkewTensor if kind == SKEW else SymTensor
    return cls(n, k, dict(zip(basis, coeffs))), draw(st.integers(0, 2**32))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(sampler_cases())
def test_sampled_subspaces_contain_t_exactly_from_enc_up(case):
    t, seed = case
    m = enc(t)
    space = enclosing_space(t)
    rng = random.Random(seed)
    for e in range(m, t.n + 1):
        assert is_in_power_of(t, _fatten(space, e, rng))
    for dim in range(1, m):
        for _ in range(3):
            assert not is_in_power_of(t, _probe_subspace(space, dim, rng))
