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
denominators first (``_int_vector``), which changes neither the rank
nor the pivot columns.

Both the kernel and the membership test apply many covectors y_s to
the same integer columns, and ``_packed_rows`` makes that one product
(Kronecker packing): it packs the m covectors into n integers, row i
holding the sum of y_s[i] << (w * s), and for a column v with every
|v_i| <= bound the one product of v with the rows is 0 exactly when
every y_s . v is 0, once the slot width w exceeds the bit length of
max_s ||y_s||_1 * bound.  The kernel packs only on a bound that its
caller guarantees for every entry of its stream (enc passes its
tensor's): then it packs its covectors at the first dependent column
after a pivot and skips each later column whose packed product is 0.
Without a bound (SubspaceBasis, _certified_rank's fallback and the
oracles) it takes the per-covector products on every column.

The tangent-space oracle ranks one integer block per sample, the
derivatives of w (``subspaces.sub_dim_tangent``), which has full column
rank in the generic case and many more rows than columns.  Its rows
come as a stream of dense vectors, the input that ``_eliminate`` takes,
and in every cell ``_certified_rank`` takes their exact rank in two
steps.  The pass, ``_rank_mod_p``, counts their rank modulo
``RANK_PRIME`` = 2^30 - 35 by fraction-free steps on reduced residues,
and stops at the vector that brings it to full row rank.  A rank mod p is at most the rank over QQ,
whatever the prime, so a rank mod p that equals the row count or the
vector count, which no rank exceeds, is certified.  The prime is the
largest below 2^30 so that every residue is one 30-bit digit of a
CPython int: a product of two residues fits in two digits, and each
reduction divides by a one-digit int.  Any other rank mod p takes the
exact fallback, ``_eliminate`` on the vectors the pass read, which are
all of them, so a rank lost mod p is never returned: the tangent cells
whose block D can never reach full column rank take the pass and then
the fallback.  The contraction matrices of enc and the membership test,
where deficient ranks are expected, take ``_eliminate`` alone.

The production route (enc, enclosing_space, SubspaceBasis and the
membership test, sub_dim_tangent, the atlas, and the CLI's enc and
components) uses only the kernels and the coercions: ``_eliminate``,
``_rank_mod_p``, ``_certified_rank``, ``_packed_rows``,
``_int_vector``, ``as_exact``, ``as_vector`` and ``_check_ints``.
``_random_ints`` makes the seeded draws of ``tensors.random_tensor``
and ``random_vector``, which ``random_matrix`` shares; sub_dim_tangent
draws its w from digests of its own (``subspaces._draw_w``).  The oracles
here, kept for ``verify``, the tests and the benchmark, are the dense
``RationalMatrix`` with ``rank``, ``image_basis`` and ``in_span`` on
it, ``exact_det`` and ``int_det`` (``_eliminate`` on the columns of
their integer rows), ``random_matrix``, and ``gauss_rank``, a plain
rational Gaussian elimination that shares no code with the kernel, so
it checks the kernel independently.  tests/test_layering.py fails if a
production function loads an oracle or if gauss_rank loads a kernel.
"""

from __future__ import annotations

import math
import operator
import random
import re
from fractions import Fraction

Vector = tuple  # tuple of exact scalars (see as_exact)
_INT = frozenset((int,))  # _INT.issuperset(map(type, xs)): every x is a plain int
# The spellings that Fraction reads under Python 3.11: PEP 515 underscores
# only between digits, and no space around the slash.  Fraction's own
# grammar moves with the interpreter (3.10 reads no underscore, 3.12 reads
# "1 / 2"), so as_exact checks a string here and hands Fraction the
# spelling without its underscores, which every version reads alike.
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = re.compile(
    rf"\s*[-+]?(?=\d|\.\d)(?:{_DIGITS})?(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:[eE][-+]?(?P<exponent>{_DIGITS}))?)\s*"
)
# int()'s default limit on the digits of a decimal string.  A spelling with
# a longer run of digits is refused before Fraction reads the run by int(),
# whose own limit moves with PYTHONINTMAXSTRDIGITS; one whose exponent
# passes the limit is refused before Fraction computes 10**exponent, a
# number of that many digits whatever the mantissa ("0e..." included); and
# a value read from a string whose numerator or denominator passes it is
# refused rather than failing later, when str() prints it.
_MAX_DIGITS = 4300
_DIGITS_BOUND = 10**_MAX_DIGITS


def as_exact(x) -> int | Fraction:
    """Coerce an int, a Fraction or a string like '3/4' to an exact scalar.

    This is the one place the number type is decided: every integral
    value comes back as a plain int (so Fraction(4, 2) and '6/3' give 2),
    and only a non-integral value as a Fraction.  Python's int and
    Fraction mix exactly, so the rest of the package uses plain
    arithmetic.  Floats and bools are rejected.  A string must be one
    of the spellings of ``_RATIONAL`` on every Python version, with no
    run of more than _MAX_DIGITS digits (underscores left out), an
    exponent of at most _MAX_DIGITS in absolute value and a value whose
    numerator and denominator have at most _MAX_DIGITS digits, whatever
    int()'s digit limit.
    """
    if isinstance(x, bool):
        raise TypeError("expected an exact rational, got bool")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        spelling = _RATIONAL.fullmatch(x)
        if not spelling:
            raise ValueError(f"Invalid literal for Fraction: {x!r}")
        plain = x.replace("_", "")
        if len(plain) > _MAX_DIGITS and max(map(len, re.findall(r"\d+", plain))) > _MAX_DIGITS:
            raise ValueError(f"a run of more than {_MAX_DIGITS} digits")
        if int(spelling["exponent"] or 0) > _MAX_DIGITS:
            raise ValueError(f"exponent past {_MAX_DIGITS} in absolute value")
        x = Fraction(plain)
        if abs(x.numerator) >= _DIGITS_BOUND or x.denominator >= _DIGITS_BOUND:
            raise ValueError(f"numerator or denominator of more than {_MAX_DIGITS} digits")
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

    Construct from a row-major nested sequence, or from columns with its
    one classmethod, from_columns.  Entries may be ints, Fractions or
    'p/q' strings; they are stored as as_exact gives them: ints, and
    Fractions only where not integral.
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


def _eliminate(columns, n_rows: int, bound: int | None = None) -> tuple:
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

    A caller that guarantees |entry| <= bound for every column of the
    stream passes that bound.  Between two pivots the covectors do not
    change, so then the first column found dependent after a pivot has
    them packed (_packed_rows, with that bound), and a later column whose
    one product with the packed rows is 0 is dependent and skipped
    without the per-covector products; a nonzero packed product takes
    them, so the pivots, the last pivot and the covectors are those of
    the per-covector test.  The next pivot drops the packed rows.  With
    no bound every nonzero column takes the per-covector products.
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
                continue
            vp = pivot_entries(v)
            ds = [sum(map(mul, b, vp), prev * v[q]) for q, b in zip(rows, covectors)]
            if not any(ds):
                if packed is None and bound is not None:
                    dense = _dense_covectors(rows, covectors, pivot_rows, prev, n_rows)
                    packed = _packed_rows(dense, n_rows, bound)
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
        # at the first pivot every B[q] is empty, so each becomes [-d]
        covectors = [[(a * x - d * y) // prev for x, y in zip(b, b_piv)] + [-d] for b, d in zip(covectors, ds)]
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


# the largest prime below 2^30: a residue mod it is one 30-bit digit of a
# CPython int, so the pass's products and reductions stay on one- and
# two-digit ints; a rank mod any prime is at most the rank over QQ
RANK_PRIME = 2**30 - 35


def _rank_mod_p(columns, n_rows: int) -> int:
    """Rank mod RANK_PRIME of a stream of integer vectors, each a sequence
    of n_rows ints (_eliminate's input); the stream is not advanced past
    the vector that brings the rank to n_rows.  A rank mod p is at most
    the rank over QQ, whatever the prime.

    Each vector is reduced mod p and scanned from its first entry.  At
    an index that holds a pivot, with lead a and the vector's entry x
    there, the vector becomes a * v - x * pivot, which clears that entry
    and changes only the entries after it, since a pivot is 0 before its
    lead.  At the first nonzero entry without a pivot the vector becomes
    the pivot of that index, kept as its lead and the entries after it.
    A vector that reaches the end is dependent mod p.  The steps are
    fraction-free, so no inverse mod p is taken, and every residue is
    reduced at once, so it stays one 30-bit digit.
    """
    p = RANK_PRIME
    pivots = [None] * n_rows  # (lead, entries after it) for each index that has a pivot
    r = 0
    for col in columns if n_rows else ():
        v = [x % p for x in col]
        for i, pivot in enumerate(pivots):
            x = v[i]
            if not x:
                continue
            if pivot is None:
                pivots[i] = (x, v[i + 1 :])
                r += 1
                break
            a, tail = pivot
            v[i + 1 :] = [(a * y - x * b) % p for y, b in zip(v[i + 1 :], tail)]
        if r == n_rows:
            break
    return r


def _certified_rank(columns, n_rows: int) -> int:
    """Exact rank of a stream of integer vectors, each a sequence of n_rows
    ints: their rank mod p (_rank_mod_p) when that is n_rows or their
    count, which no rank over QQ exceeds, else _eliminate on the vectors
    read.  A rank lost mod p is never returned; short of n_rows the pass
    has read every vector, so the exact rank is theirs."""
    seen = []
    r = _rank_mod_p((seen.append(v) or v for v in columns), n_rows)
    if r == n_rows or r == len(seen):
        return r
    return len(_eliminate(seen, n_rows)[0])


def rank(M: RationalMatrix) -> int:
    """Exact rank over the rationals (_eliminate on M's columns, each
    scaled to integers, which keeps the rank)."""
    return len(_eliminate(map(_int_vector, zip(*M._m)), M.rows)[0])


def image_basis(M: RationalMatrix) -> list:
    """Pivot columns of M: a basis of the column space, length = rank(M).
    Scaling a column to integers keeps the pivot columns."""
    pivots, _, _ = _eliminate(map(_int_vector, zip(*M._m)), M.rows)
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
    return as_exact(Fraction(int_det([_int_vector(row) for row in m]), scale))


def int_det(rows) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination (1 for
    0 x 0): _eliminate on its columns, whose last pivot is the determinant
    at full rank."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, det, _ = _eliminate(zip(*rows), len(rows))
    return det if len(pivots) == len(rows) else 0


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
