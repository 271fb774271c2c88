"""Property test: the strata walk is the atlas.

The report keeps a stratum exactly when its enclosing bound strictly
exceeds every bound before it, so the (r, e) pairs of its component
rows strictly increase in both r and e, and they are the pairs that
walk keeps, restated here from the achieved section counts and the
bounds; every two components meet once.  Only the last row can carry a
point count (multiplicity above 1), which is what the count and the
zero-dimensional note read.  verify's coherence grid stops
at g <= 40 and k <= 4; this draws from g <= 200, k <= 8.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from divatlas.atlas import atlas_report  # noqa: E402
from divatlas.brill_noether import achieved_r  # noqa: E402
from divatlas.subspaces import _e_bound  # noqa: E402
from divatlas.tensors import SKEW, SYM  # noqa: E402


@st.composite
def atlas_cells(draw):
    """(g, d, k, kind, paper_sym) with g <= 200, d <= 2g and k <= 8."""
    g = draw(st.integers(2, 200))
    d = draw(st.integers(1, 2 * g))
    k = draw(st.integers(2, 8))
    return g, d, k, draw(st.sampled_from((SKEW, SYM))), draw(st.booleans())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(atlas_cells())
def test_jump_strata_are_the_component_rows(cell):
    g, d, k, kind, paper_sym = cell
    report = atlas_report(*cell)
    strata = [(c["r"], c["e"]) for c in report["components"]]
    for (r, e), (r2, e2) in zip(strata, strata[1:]):
        assert r < r2 and e < e2
    jumps, best = [], 0
    for r in achieved_r(g, d):
        e = _e_bound(k, r + 1, kind, paper_sym)
        if e > best:
            jumps.append((r, e))
            best = e
    assert strata == jumps
    assert len(report["intersections"]) == math.comb(len(strata), 2)
    # rho strictly decreases in r, so only the last row can sit at rho = 0:
    # the count and the zero-dimensional note read that row alone
    multiplicities = [c["multiplicity"] for c in report["components"]]
    assert all(m == 1 for m in multiplicities[:-1])
    assert report["counts"]["enumerated"] == sum(multiplicities)
    zero_dimensional = [n for n in report["notes"] if n.startswith("top stratum is zero-dimensional")]
    assert len(zero_dimensional) == (1 if multiplicities and multiplicities[-1] > 1 else 0)
