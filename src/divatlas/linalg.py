"""Exact linear algebra over the rationals.

Every geometric predicate in this package (enclosing dimension,
subspace-variety membership, tangent-space dimension) reduces to the
rank of a matrix with rational entries, and a single wrong rank flips
a predicate, so nothing here is ever computed with floating point.

Every exact rank, pivot set and determinant comes from one
fraction-free elimination kernel on integers, ``_eliminate``.  It takes
a stream of columns and keeps one integer covector per row that has no
pivot yet; by Sylvester's identity (Bareiss, Math. Comp. 22, 1968) the
covector's dot product with a column is the entry that Bareiss
elimination would leave there, so a column is a pivot exactly when one
of these products is nonzero, and the covectors are updated by the
exactly dividing Bareiss step.  The kernel reads the columns one at a
time and stops at full row rank, so a caller can make its columns on
demand (the contraction columns of ``tensors.enc``: a generic
contraction matrix is n x C(n, k-1) and reaches full row rank well
before its last column).  The covectors left at the end span the
annihilator of the column space: ``tensors.SubspaceBasis`` keeps those
of its vectors, and the membership test contracts with them.  Rows or
columns with a Fraction entry are scaled by the lcm of their
denominators first, which changes neither the rank nor the pivot
columns.  ``_bareiss`` is the same kernel on the columns of a list of
rows.

Both the kernel and the membership test apply many covectors y_s to
the same integer columns, and ``_packed_rows`` makes that one product
(Kronecker packing): it packs the m covectors into n integers, row i
holding the sum of y_s[i] << (w * s), and for a column v with every
|v_i| <= bound the one product of v with the rows is 0 exactly when
every y_s . v is 0, once the slot width w exceeds the bit length of
max_s ||y_s||_1 * bound.  The kernel packs its covectors at the first
dependent column after a pivot and skips the later columns, within its
entry bound, whose packed product is 0.

The tangent-space oracle's integer Jacobians have independent columns
in the generic case and are mostly zeros.  They come as sparse
columns, {row: nonzero int} maps, and take two steps.  The pass,
``_independent_mod_p``, eliminates them modulo ``RANK_PRIME`` =
2^30 - 35, touching only nonzero entries, and stops at the first column
that is dependent mod p.  A rank mod p is at most the rank over QQ, so
columns independent mod p are certified independent, whatever the
prime.  It is the largest prime below 2^30 so that every residue is one
30-bit digit of a CPython int: a product of two residues fits in two
digits, and each reduction divides by a one-digit int.  Most Jacobian
columns are units (one entry, on a tensor direction): the pass stores a
one-entry column whose row holds no lead and whose entry is nonzero
mod p at once, with no reduction.  The exact fallback,
``_densified_rank``, is ``_bareiss`` on the columns made dense, up to
their highest row; a rank mod p below the column count is never
returned.  The chart builders number the Jacobian's own rows (the
tensor directions, then one block of faces per varied row of A), so
that height is the Jacobian's row count, not the dimension of the k-th
power of QQ^n.  ``_certified_rank`` is the pass with its fallback
behind it, the exact rank that the tests check;
``subspaces.sub_dim_tangent`` calls the two steps itself, since it
tests w between them.  None of this is used where deficient ranks
are expected (the contraction matrices of enc, the membership test).

The production route (enc, enclosing_space, SubspaceBasis and the
membership test, sub_dim_tangent, the atlas, and the CLI's enc and
components) uses only the kernels and the coercions: ``_eliminate``,
``_bareiss``, ``_independent_mod_p``, ``_densified_rank``,
``_packed_rows``, ``_int_vector``, ``as_exact``, ``as_vector``,
``_check_ints`` and ``_random_ints`` (the seeded draws of
``tensors.random_tensor``, which ``random_matrix`` shares).  The oracles
here, kept for ``verify``, the tests and the benchmark, are the dense
``RationalMatrix`` with ``rank``, ``image_basis`` and ``in_span`` on
it, ``exact_det`` and ``int_det`` (``_bareiss`` on rows from
``_int_rows``), ``random_matrix``, and ``gauss_rank``, a plain rational
Gaussian elimination that shares no code with the kernel, so it checks
the kernel independently.  tests/test_layering.py fails if a production
function loads an oracle or if gauss_rank loads a kernel.
"""

from __future__ import annotations

import heapq
import math
import operator
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


def _check_ints(**args) -> None:
    """Refuse any argument that is not a plain int, naming it."""
    # bool is an int subclass, but True is not a dimension or a degree
    for name, value in args.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def as_vector(entries) -> Vector:
    v = tuple(entries)
    # plain ints are exact already (a bool's type is not int)
    return v if _INT.issuperset(map(type, v)) else tuple(as_exact(x) for x in v)


class RationalMatrix:
    """Immutable dense matrix of exact rationals.

    Construct from a row-major nested sequence, or use one of the
    classmethods.  Entries may be ints, Fractions or 'p/q' strings;
    they are stored as as_exact gives them: ints, and Fractions only
    where not integral.
    """

    __slots__ = ("rows", "cols", "_m")

    def __init__(self, data, cols: int | None = None):
        m = tuple(as_vector(row) for row in data)
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


def _int_vector(v) -> list:
    """A fresh integer list: v rescaled by the lcm of its denominators if
    it has a Fraction entry (which keeps its span), else copied as it is."""
    if _INT.issuperset(map(type, v)):
        return list(v)
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v]


def _int_rows(rows) -> list:
    """Fresh integer rows, each rescaled as _int_vector does (rank-preserving)."""
    return [_int_vector(row) for row in rows]


def _packed_rows(covectors, n: int, bound: int) -> list:
    """The m >= 1 covectors y_0 .. y_(m-1), each a sequence of n ints,
    packed into n ints: row i is the sum over s of y_s[i] << (w * s), with
    the slot width w = (max_s ||y_s||_1 * bound).bit_length() + 1.

    Lemma: for an integer column v with max |v_i| <= bound,
    sum(v_i * row_i) == 0 exactly when every y_s . v == 0.  The sum is
    sum_s (y_s . v) * 2^(w*s), and |y_s . v| <= ||y_s||_1 * bound
    < 2^(w-1).  If some product is nonzero, let s be the lowest: the sum
    is 2^(w*s) * ((y_s . v) + 2^w * Q) for an integer Q, and that is not
    0, since a nonzero y_s . v smaller than 2^w in absolute value is no
    multiple of 2^w.  So one product of v with the rows tests all m
    products at once; the spare bit in each slot also lets each y_s . v
    be read back from the sum as a balanced base-2^w digit.
    """
    ys = list(covectors)
    w = (max(sum(map(abs, y)) for y in ys) * bound).bit_length() + 1
    rows = [0] * n
    for s, y in enumerate(ys):
        shift = w * s
        for i, x in enumerate(y):
            if x:
                rows[i] += x << shift
    return rows


# the entry bound of the columns that _eliminate tests on its packed covectors
_PACK_BOUND = 2**62 - 1


def _eliminate(columns, n_rows: int) -> tuple:
    """Fraction-free elimination of a stream of integer columns, each a
    sequence of n_rows ints.

    Returns (pivot column indices, sign * last pivot, annihilator).  The
    columns are read one at a time, left to right, and the stream is not
    advanced past the column that brings the rank to n_rows, so a
    generator can make its columns on demand.

    The state is one integer covector per row that holds no pivot yet,
    y_q = prev * e_q + sum_j B[q][j] * e_(pivot row j), with prev the
    last pivot (1 before the first).  By Sylvester's identity y_q . v is
    the entry that Bareiss elimination would leave in row q of the
    column v after the pivot steps so far: the minor on the pivot rows
    and q, the pivot columns and v.  So y_q annihilates every pivot
    column, and v is a pivot exactly when some y_q . v is nonzero.  The
    first such covector, in the row order that the swaps leave, is
    swapped to the front and taken out, as a Bareiss row swap would, and
    its value a is the next pivot; every other covector, with value d,
    becomes (a * y_q - d * y_pivot) // prev, which annihilates v too.
    The division is exact, since the new entries are again minors of
    the input.  The k-th pivot is the k x k minor on the pivot rows and
    columns, so for a square matrix of full rank the second value is its
    determinant.

    The covectors left at the end are independent (each has prev on its
    own row and 0 on the other rows without a pivot) and annihilate
    every column read, so they span the annihilator of the column space.
    They come back as an iterator over n_rows - rank dense lists of ints,
    each made when it is asked for, so a caller that needs only the
    pivots (enc) makes none.

    Between two pivots the covectors do not change, so the first column
    found dependent after a pivot has them packed (_packed_rows, with
    bound _PACK_BOUND): a later column with every entry within the
    bound whose one product with the packed rows is 0 is dependent and
    skipped without the per-covector products.  Every other column, a
    nonzero packed product or an entry past the bound, takes the exact
    products, so the pivots, the last pivot and the covectors are those
    of the per-covector test.  The next pivot drops the packed rows.
    """
    pivot_cols = []
    pivot_rows = []
    rows = list(range(n_rows))  # the rows without a pivot, in swap order
    covectors = [()] * n_rows  # B[q] for each of them
    prev = 1
    sign = 1
    packed = None  # the covectors packed, once a column since the last pivot was dependent
    mul = operator.mul
    for col, v in enumerate(columns if rows else ()):
        if not any(v):
            continue
        if pivot_rows:
            if packed is not None and not sum(map(mul, v, packed)):
                if max(v) <= _PACK_BOUND and min(v) >= -_PACK_BOUND:
                    continue
            vp = pivot_entries(v)
            ds = [sum(map(mul, b, vp), prev * v[q]) for q, b in zip(rows, covectors)]
            if not any(ds):
                if packed is None:
                    dense = _dense_covectors(rows, covectors, pivot_rows, prev, n_rows)
                    packed = _packed_rows(dense, n_rows, _PACK_BOUND)
                continue
        else:
            ds = list(v)  # every y_q is still e_q, and the rows are in order
        for piv, a in enumerate(ds):
            if a:
                break
        # swap row piv to the front, as Bareiss does, then take it out
        if piv:
            sign = -sign
        pivot_rows.append(rows[piv])
        # v's entries on the pivot rows, as a tuple even for one pivot row
        # (the spare entry of row 0 lies past the end of every B[q])
        pivot_entries = operator.itemgetter(*pivot_rows, 0)
        b_piv = covectors[piv]
        rows[piv], covectors[piv], ds[piv] = rows[0], covectors[0], ds[0]
        del rows[0], covectors[0], ds[0]
        if b_piv:
            covectors = [[(a * x - d * y) // prev for x, y in zip(b, b_piv)] + [-d] for b, d in zip(covectors, ds)]
        else:  # the first pivot: every B[q] was empty
            covectors = [[-d] for d in ds]
        pivot_cols.append(col)
        prev = a
        packed = None
        if not rows:
            break
    return pivot_cols, sign * prev, _dense_covectors(rows, covectors, pivot_rows, prev, n_rows)


def _dense_covectors(rows, covectors, pivot_rows, prev, n_rows):
    """The covectors prev * e_q + sum_j B[q][j] * e_(pivot row j) as dense
    lists, each made when it is asked for."""
    for q, b in zip(rows, covectors):
        y = [0] * n_rows
        y[q] = prev
        for p, x in zip(pivot_rows, b):
            y[p] = x
        yield y


def _bareiss(mat) -> tuple[int, list, int]:
    """(rank, pivot column indices, sign * last pivot) of the integer rows
    mat, which are read column by column and never written (_eliminate)."""
    pivots, last, _ = _eliminate(zip(*mat), len(mat))
    return len(pivots), pivots, last


# the largest prime below 2^30: a residue mod it is one 30-bit digit of a
# CPython int, so the pass's products and reductions stay on one- and
# two-digit ints; a rank mod any prime is at most the rank over QQ
RANK_PRIME = 2**30 - 35


def _independent_mod_p(columns) -> bool:
    """True when the sparse integer vectors, each a {row: nonzero int} map,
    are independent mod RANK_PRIME, and so independent over QQ: the rank
    mod p never exceeds the rank over QQ.  False at the first vector that
    is dependent mod p on those before it, and the rest are not read.

    The elimination mod p touches only nonzero entries: residues that
    vanish mod p, input entries included, are dropped.  Each vector that
    gains a pivot is stored under its lead row (its smallest row after
    reduction), divided by its lead entry, which is then left out: a
    stored vector has entries only below its lead row.  A one-entry
    vector on a row that holds no lead, with its entry nonzero mod p
    (the unit tensor-direction columns of the tangent oracle's chart
    Jacobian), is stored empty at once, with no dict, heap or inverse;
    a one-entry vector that is 0 mod p or meets a lead goes the general
    way.  A new vector that meets no stored lead row is not reduced at
    all; otherwise it is reduced by the stored vectors of the lead rows
    it meets, smallest row first, from a heap.  A subtraction changes
    only rows below the one it clears (fill-in), and a lead row it fills
    is pushed, so the vector leaves with a zero on every lead row.
    """
    p = RANK_PRIME
    pivots = {}
    for col in columns:
        if len(col) == 1:
            [(r, x)] = col.items()
            if r not in pivots and x % p:
                pivots[r] = {}
                continue
        v = {r: y for r, x in col.items() if (y := x % p)}
        todo = [r for r in v if r in pivots]
        if todo:
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
            v = {r: x for r, x in v.items() if x}
        if not v:
            return False
        lead = min(v)
        x = v.pop(lead)
        if v:
            inv = pow(x, -1, p)
            v = {s: y * inv % p for s, y in v.items()}
        pivots[lead] = v
    return True


def _densified_rank(columns) -> int:
    """Exact rank of sparse integer vectors, each a {row: nonzero int} map:
    _bareiss on them made dense."""
    height = 1 + max((r for c in columns for r in c), default=-1)
    return _bareiss([[c.get(r, 0) for r in range(height)] for c in columns])[0]


def _certified_rank(columns) -> int:
    """Exact rank of a list of sparse integer vectors, each a {row: nonzero
    int} map: their count when _independent_mod_p certifies them, else
    _densified_rank.  A deficient rank mod p is never returned."""
    return len(columns) if _independent_mod_p(columns) else _densified_rank(columns)


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
    Forward elimination only: the pivot row is normalized and subtracted
    from the rows below it, from the pivot column on, since every entry
    to its left is already zero there.
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
        pivot_row = [x * inv for x in m[r][col:]]
        for i in range(r + 1, n_rows):
            f = m[i][col]
            if f != 0:
                m[i][col:] = [a - f * b for a, b in zip(m[i][col:], pivot_row)]
        r += 1
        if r == n_rows:
            break
    return r


def exact_det(rows) -> int | Fraction:
    """Determinant of a square rational matrix given as nested sequences.

    Scaling a row by the lcm of its denominators scales the determinant
    by the same factor, so the integer determinant of the rescaled rows
    is divided by the product of the row scales.
    """
    m = [as_vector(row) for row in rows]
    scale = math.prod(math.lcm(*(x.denominator for x in row)) for row in m)
    return as_exact(Fraction(int_det(_int_rows(m)), scale))


def int_det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination (1 for 0 x 0)."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    r, _, det = _bareiss(rows)
    return det if r == len(rows) else 0


def _random_ints(rng: random.Random, count: int) -> list:
    """count seeded ints uniform in [-9, 9]: the draws of count calls of
    rng.randint(-9, 9), which leave rng in the same state.

    randint(-9, 9) draws r = getrandbits(5), again while r >= 19, and
    gives r - 9; this is that loop without randint's Python layers.
    """
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(5)
        while r >= 19:
            r = bits(5)
        out.append(r - 9)
    return out


def random_matrix(rows: int, cols: int, rng: random.Random) -> RationalMatrix:
    """Seeded random integer matrix with entries uniform in [-9, 9], drawn
    row by row (_random_ints)."""
    draws = _random_ints(rng, rows * cols)
    return RationalMatrix([draws[i * cols : (i + 1) * cols] for i in range(rows)])
