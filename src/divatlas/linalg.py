"""Exact linear algebra over the rationals.

Every geometric predicate in this package (enclosing dimension,
subspace-variety membership, tangent-space dimension) reduces to the
rank of a matrix with rational entries, and a single wrong rank flips
a predicate, so nothing here is ever computed with floating point.

Rank is computed by clearing denominators row by row (which does not
change the row space) and running fraction-free Bareiss elimination on
the resulting integer matrix.  The same kernel, ``_bareiss``, gives
determinants above 3 x 3 and, on [W | I], the integer covectors that
annihilate span(W), which the membership test contracts the tensor
with.  A plain rational Gaussian elimination,
``gauss_rank``, is kept as an independent cross-check; the two share
no elimination code.

``_certified_rank`` serves the tangent-space oracle, whose integer
Jacobians have independent columns in the generic case: it takes the
rank modulo the prime 2^61 - 1, which can only be at or below the rank
over QQ, so a rank mod p equal to the column count is certified and
anything less is redone exactly by ``_bareiss``.  It is not used where deficient ranks are expected (the
contraction matrices of enc, the membership test).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

Vector = tuple  # tuple of exact scalars (see as_exact)


def as_exact(x) -> int | Fraction:
    """Coerce an int, a Fraction or a string like '3/4' to an exact scalar.

    This is the one place the number type is decided: every integral
    value comes back as a plain int (so Fraction(4, 2) and '6/3' give 2),
    and only a non-integral value as a Fraction.  Python's int and
    Fraction mix exactly, so the rest of the package uses plain
    arithmetic.  Floats and bools are rejected.
    """
    if isinstance(x, bool):
        raise TypeError("expected an exact rational, got bool")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def as_vector(entries) -> Vector:
    return tuple(as_exact(x) for x in entries)


class RationalMatrix:
    """Immutable dense matrix of exact rationals.

    Construct from a row-major nested sequence, or use one of the
    classmethods.  Entries may be ints, Fractions or 'p/q' strings;
    they are stored as as_exact gives them: ints, and Fractions only
    where not integral.
    """

    __slots__ = ("rows", "cols", "_m")

    def __init__(self, data, cols: int | None = None):
        m = tuple(tuple(as_exact(x) for x in row) for row in data)
        widths = {len(row) for row in m}
        if len(widths) > 1:
            raise ValueError("rows have unequal lengths")
        width = widths.pop() if widths else (cols if cols is not None else 0)
        if cols is not None and cols != width:
            raise ValueError(f"cols={cols} does not match row width {width}")
        self.rows = len(m)
        self.cols = width
        self._m = m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "RationalMatrix":
        """Build from a sparse {(row, col): value} map; missing entries are 0."""
        data = [[0] * cols for _ in range(rows)]
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index ({i}, {j}) out of bounds")
            data[i][j] = v
        return cls(data, cols=cols)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "RationalMatrix":
        cols = list(columns)
        if cols:
            heights = {len(c) for c in cols}
            if len(heights) > 1:
                raise ValueError("columns have unequal lengths")
            rows = heights.pop()
        elif rows is None:
            rows = 0
        return cls([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    def __getitem__(self, key) -> int | Fraction:
        i, j = key
        return self._m[i][j]

    def row(self, i: int) -> Vector:
        return self._m[i]

    def column(self, j: int) -> Vector:
        return tuple(self._m[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._m[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._m) == (other.rows, other.cols, other._m)

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, row)) for row in self._m]})"


def _int_rows(rows) -> list:
    """Fresh integer rows: each row with a Fraction entry is rescaled by
    the lcm of its denominators (rank-preserving); an integral row is
    copied as it is."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _bareiss(mat: list) -> tuple[int, list, int]:
    """Fraction-free elimination on an integer matrix (destructive).

    Returns (rank, pivot column indices, sign * last pivot), where sign
    tracks the row swaps.  The one-step Bareiss update keeps every
    intermediate entry equal to a minor of the input, so the integer
    divisions below are exact, and the k-th pivot is the leading k x k
    minor of the row-swapped input: for a square matrix of full rank the
    third value is its determinant.  Every step is an invertible row
    operation, so on [W | I] with W of full column rank m the rows from
    m on are zero on the W block and their right-hand blocks are
    independent covectors annihilating span(W), which is_in_power_of
    relies on.
    """
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    r = 0
    prev = 1
    sign = 1
    pivot_cols = []
    for col in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        pc = mat[r][col]
        for i in range(r + 1, n_rows):
            ric = mat[i][col]
            mrow = mat[r]
            irow = mat[i]
            for j in range(col + 1, n_cols):
                irow[j] = (pc * irow[j] - ric * mrow[j]) // prev
            irow[col] = 0
        prev = pc
        pivot_cols.append(col)
        r += 1
        if r == n_rows:
            break
    return r, pivot_cols, sign * prev


# a Mersenne prime: a rank mod p is at most the rank over QQ
RANK_PRIME = 2**61 - 1


def _certified_rank(columns) -> int:
    """Exact rank of integer vectors, given as they are (no conversion).

    The rank mod RANK_PRIME never exceeds the rank over QQ, so if the
    vectors are independent mod p they are independent over QQ.  At the
    first dependency mod p the exact rank is taken by _bareiss on the
    same vectors instead; a deficient rank mod p is never returned.
    Each pivot row is kept normalized to 1 and trimmed to start at its
    pivot.
    """
    p = RANK_PRIME
    pivots = []
    for col in columns:
        v = list(col)
        for j, prow in pivots:
            f = v[j] % p
            if f:
                v[j:] = [a - f * b for a, b in zip(v[j:], prow)]
        v = [x % p for x in v]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return _bareiss([list(c) for c in columns])[0]
        inv = pow(v[lead], -1, p)
        pivots.append((lead, [x * inv % p for x in v[lead:]]))
    return len(pivots)


def rank(M: RationalMatrix) -> int:
    """Exact rank over the rationals (Bareiss elimination)."""
    return _bareiss(_int_rows(M._m))[0]


def image_basis(M: RationalMatrix) -> list:
    """Pivot columns of M: a basis of the column space, length = rank(M)."""
    _, pivots, _ = _bareiss(_int_rows(M._m))
    return [M.column(j) for j in pivots]


def in_span(v, basis) -> bool:
    """True iff v lies in the linear span of the given vectors."""
    vs = list(basis)
    return rank(RationalMatrix.from_columns(vs)) == rank(RationalMatrix.from_columns(vs + [v]))


def gauss_rank(M: RationalMatrix) -> int:
    """Rank by naive rational Gaussian elimination.

    Reference implementation used only to cross-check the Bareiss path.
    """
    m = [list(M.row(i)) for i in range(M.rows)]
    n_rows, n_cols = M.rows, M.cols
    r = 0
    for col in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1, m[r][col])
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def lin_indep(vectors) -> bool:
    vs = list(vectors)
    if not vs:
        return True
    return rank(RationalMatrix.from_columns(vs)) == len(vs)


def exact_det(rows) -> int | Fraction:
    """Determinant of a square rational matrix given as nested sequences.

    Scaling a row by the lcm of its denominators scales the determinant
    by the same factor, so the integer determinant of the rescaled rows
    is divided by the product of the row scales.
    """
    m = [as_vector(row) for row in rows]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
    scale = math.prod(math.lcm(*(x.denominator for x in row)) for row in m)
    return as_exact(Fraction(int_det(_int_rows(m)), scale))


def int_det(rows) -> int:
    """Determinant of an integer matrix: closed forms up to 3 x 3, Bareiss above."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    r, _, det = _bareiss([list(row) for row in rows])
    return det if r == n else 0


def random_matrix(rows: int, cols: int, rng: random.Random, lo: int = -9, hi: int = 9) -> RationalMatrix:
    """Seeded random integer matrix with entries uniform in [lo, hi]."""
    return RationalMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])
