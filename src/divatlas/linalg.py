"""Exact linear algebra over the rationals.

Every geometric predicate in this package (enclosing dimension,
subspace-variety membership, tangent-space dimension) reduces to the
rank of a matrix with rational entries, and a single wrong rank flips
a predicate, so nothing here is ever computed with floating point.

Rank is computed by clearing denominators row by row (which does not
change the row space) and running fraction-free Bareiss elimination on
the resulting integer matrix.  The kernel, ``_bareiss``, is
left-looking: it reads the matrix column by column, carries each column
through the pivot steps recorded so far only when it reaches it, and
stops at full row rank, so the columns after the last pivot are never
read.  A contraction matrix is n x C(n, k-1), and a generic one reaches
full row rank well before its last column.  The same kernel gives
determinants above 3 x 3 and, through ``_reduce``, carries the unit
covectors through the pivot steps of a subspace basis, which gives the
integer covectors that annihilate its span (the membership test).  A
plain rational Gaussian elimination, ``gauss_rank``, is kept as an
independent cross-check; the two share no elimination code.

``_certified_rank`` serves the tangent-space oracle, whose integer
Jacobians have independent columns in the generic case and are mostly
zeros: it takes sparse columns, {row: nonzero int} maps, and their rank
modulo the prime 2^61 - 1 by an elimination that touches only nonzero
entries.  That rank can only be at or below the rank over QQ, so a rank
mod p equal to the column count is certified, and anything less is
redone exactly by ``_bareiss`` on the densified columns.  It is not
used where deficient ranks are expected (the contraction matrices of
enc, the membership test).
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction

Vector = tuple  # tuple of exact scalars (see as_exact)
_INT = frozenset((int,))  # _INT.issuperset(map(type, xs)): every x is a plain int


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

    __slots__ = ("rows", "cols", "_m", "_integral")

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
        self._integral = False

    @classmethod
    def _exact(cls, rows: list, cols: int, integral: bool) -> "RationalMatrix":
        """Wrap rows of width cols whose entries are already exact, as
        as_exact gives them, without coercing them again; integral says
        that every entry is an int, so the rank kernel can read the rows
        as they are."""
        mat = object.__new__(cls)
        mat.rows = len(rows)
        mat.cols = cols
        mat._m = tuple(map(tuple, rows))
        mat._integral = integral
        return mat

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
        if _INT.issuperset(map(type, row)):
            out.append(list(row))
            continue
        den = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _reduce(v: list, steps: list) -> list:
    """Carry the column v (a list over the rows) through the recorded
    pivot steps of _bareiss, in order, and return its rows from
    len(steps) down; v itself may be changed.

    Step s holds (swap, pivot, mult): it swaps row s with row s + swap,
    then gives every row i > s the one-step Bareiss update
    (pivot * v[i] - mult[i - s - 1] * v[s]) // previous pivot, where mult
    is the pivot column below its pivot.  Row s is final after step s,
    so each step drops it, and with a step per row nothing is left to
    carry.  Where v[s] is 0 the update only scales the rows below by
    pivot / previous pivot.  Such scalings telescope, so they are left
    out: v then holds the values times held / (pivot of the step just
    taken), where held is the pivot of the last step that did update
    it, and the next update divides by held instead.  A column that is
    zero from row s down stays zero, so it stops there.
    """
    size = len(v) - len(steps)
    if not size:
        return []
    held = 1
    for swap, pivot, mult in steps:
        if swap:
            v[0], v[swap] = v[swap], v[0]
        a = v[0]
        if a:
            v = [(pivot * x - a * m) // held for x, m in zip(v[1:], mult)]
            held = pivot
        else:
            del v[0]
            if not any(v):
                return [0] * size
    last = steps[-1][1] if steps else 1
    if held != last:
        v = [x * last // held for x in v]
    return v


def _bareiss(mat, steps: list | None = None) -> tuple[int, list, int]:
    """Left-looking fraction-free elimination on the integer rows mat.

    Returns (rank, pivot column indices, sign * last pivot), where sign
    tracks the row swaps.  The matrix is read one column at a time, left
    to right, and never written: each nonzero column is carried through
    the pivot steps recorded so far (_reduce) only when the loop reaches
    it, a zero column is passed over, and the loop stops once the rank
    equals the row count, so no column after the last pivot is read.
    The one-step Bareiss update keeps every intermediate entry equal to
    a minor of the input, so the integer divisions are exact, and the
    k-th pivot is the leading k x k minor of the row-swapped input: for
    a square matrix of full rank the third value is its determinant.
    Given a list as steps, the pivot steps are recorded in it, so that
    _reduce can carry more columns through them (is_in_power_of).
    """
    n_rows = len(mat)
    steps = [] if steps is None else steps
    pivot_cols = []
    sign = 1
    for col, entries in enumerate(zip(*mat)):
        if not any(entries):
            continue
        v = _reduce(list(entries), steps) if steps else list(entries)
        for piv, x in enumerate(v):
            if x:
                break
        else:
            continue
        if piv:
            v[0], v[piv] = v[piv], v[0]
            sign = -sign
        steps.append((piv, v[0], v[1:]))
        pivot_cols.append(col)
        if len(steps) == n_rows:
            break
    return len(steps), pivot_cols, sign * (steps[-1][1] if steps else 1)


# a Mersenne prime: a rank mod p is at most the rank over QQ
RANK_PRIME = 2**61 - 1


def _certified_rank(columns) -> int:
    """Exact rank of sparse integer vectors, each a {row: nonzero int} map.

    The rank mod RANK_PRIME never exceeds the rank over QQ, so if the
    vectors are independent mod p they are independent over QQ.  At the
    first dependency mod p the exact rank is taken by _bareiss on the
    same vectors, densified, instead; a deficient rank mod p is never
    returned.

    The elimination mod p touches only nonzero entries.  Each vector
    that gains a pivot is stored under its lead row (its smallest
    nonzero row after reduction), divided by its lead entry, which is
    then left out: a stored vector has entries only below its lead row.
    A new vector is reduced by the stored vectors of the lead rows it
    meets, smallest row first, from a heap.  A subtraction changes only
    rows below the one it clears (fill-in), and a lead row it fills is
    pushed, so the vector leaves with a zero on every lead row.
    """
    p = RANK_PRIME
    pivots = {}
    for col in columns:
        v = {r: x % p for r, x in col.items()}
        todo = [r for r in v if r in pivots]
        heapq.heapify(todo)
        while todo:
            r = heapq.heappop(todo)
            f = v.pop(r)
            if not f:
                continue
            for s, b in pivots[r].items():
                if s in v:
                    v[s] = (v[s] - f * b) % p
                else:
                    v[s] = -f * b % p
                    if s in pivots:
                        heapq.heappush(todo, s)
        lead = min((r for r, x in v.items() if x), default=None)
        if lead is None:
            height = 1 + max((r for c in columns for r in c), default=-1)
            return _bareiss([[c.get(r, 0) for r in range(height)] for c in columns])[0]
        inv = pow(v.pop(lead), -1, p)
        pivots[lead] = {s: x * inv % p for s, x in v.items() if x}
    return len(pivots)


def _kernel_rows(M: RationalMatrix):
    return M._m if M._integral else _int_rows(M._m)


def rank(M: RationalMatrix) -> int:
    """Exact rank over the rationals (Bareiss elimination)."""
    return _bareiss(_kernel_rows(M))[0]


def image_basis(M: RationalMatrix) -> list:
    """Pivot columns of M: a basis of the column space, length = rank(M)."""
    _, pivots, _ = _bareiss(_kernel_rows(M))
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
    """True iff the vectors are independent.  They are eliminated as rows,
    so _bareiss stops as soon as each of them has a pivot."""
    vs = [as_vector(v) for v in vectors]
    if len({len(v) for v in vs}) > 1:
        raise ValueError("columns have unequal lengths")
    return _bareiss(_int_rows(vs))[0] == len(vs)


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
    r, _, det = _bareiss(rows)
    return det if r == n else 0


def random_matrix(rows: int, cols: int, rng: random.Random, lo: int = -9, hi: int = 9) -> RationalMatrix:
    """Seeded random integer matrix with entries uniform in [lo, hi]."""
    return RationalMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])
