"""Property test: the rank pass mod p is a plain GF(p) rank, and stops at full row rank.

linalg._rank_mod_p ranks a stream of integer vectors modulo RANK_PRIME
by fraction-free steps, and _certified_rank trusts it only when that
rank is the row count or the vector count.  Here it is checked against
a Gauss-Jordan rank over GF(p) written in the test, which divides by
its pivots, and against gauss_rank over QQ, which no rank mod p
exceeds.  The entries include multiples of p (0 mod p, nonzero over
QQ) and 10^20, past one digit.  The stream raises if it is read past
the vector at which the rank mod p reaches the row count.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_linalg import _stopping_at  # noqa: E402

from divatlas.linalg import RANK_PRIME, RationalMatrix, _certified_rank, _rank_mod_p, gauss_rank  # noqa: E402

P = RANK_PRIME
entries = st.sampled_from((0, 1, -1, 3, P, 2 * P, 10**20))


def _gf_rank(columns, n_rows: int) -> int:
    """Rank over GF(p) by Gauss-Jordan elimination on the rows, with inverses."""
    rows = [[col[i] % P for col in columns] for i in range(n_rows)]
    r = 0
    for j in range(len(columns)):
        piv = next((i for i in range(r, n_rows) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][j], -1, P)
        rows[r] = [x * inv % P for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][j]:
                f = rows[i][j]
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


@st.composite
def streams(draw):
    n_rows = draw(st.integers(0, 7))
    columns = draw(st.lists(st.tuples(*[entries] * n_rows), max_size=9))
    return n_rows, columns


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(streams())
def test_rank_mod_p_is_the_gf_p_rank_and_stops_at_full_row_rank(stream):
    n_rows, columns = stream
    rank_p = _gf_rank(columns, n_rows)
    exact = gauss_rank(RationalMatrix.from_columns(columns, n_rows))
    # the first column at which the rank mod p reaches n_rows, if any
    stop = next((j for j in range(-1, len(columns)) if _gf_rank(columns[: j + 1], n_rows) == n_rows), len(columns))
    assert _rank_mod_p(_stopping_at(columns, stop), n_rows) == rank_p <= exact
    assert _certified_rank(_stopping_at(columns, stop), n_rows) == exact
