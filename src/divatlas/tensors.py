"""Skew-symmetric and symmetric tensors over rational vector spaces.

A skew tensor of degree k on an n-dimensional space is stored as a
sparse map from strictly increasing index k-tuples to coefficients; a
symmetric tensor as a map from exponent vectors (length n, entries
summing to k) to the coefficient of the corresponding monomial.  Both
classes share one container, _Tensor, for validation, coordinates and
arithmetic; each adds only its kind, its key check and its basis.

The central computation is the enclosing space of a tensor: the
smallest subspace U such that the tensor lies in the k-th exterior
(resp. symmetric) power of U.  It is obtained as the column space of a
contraction matrix, a signed rearrangement of the coefficients in the
skew case and the first catalecticant in the symmetric case, so the
enclosing dimension is an exact matrix rank.

One face rule underlies that matrix, read in two directions.  A term I
of a skew tensor has the faces I minus I[pos], on row I[pos], with
factor (-1)^pos; a term alpha of a symmetric one has the faces
alpha - e_i, on row i, with factor alpha_i; the contraction column of a
face holds factor * coefficient on the row of each term above it.

* From a face to its column: _skew_column and _sym_column make the
  column of one face by n coefficient lookups.  The column generator
  of each kind (_contraction_columns) yields them for every
  (k-1)-subset or exponent vector in order; enc and enclosing_space
  stream these into the elimination kernel (linalg._eliminate), which
  stops at full row rank, so a generic tensor's columns after the last
  pivot are never made, and the oracle contraction_matrix collects the
  same columns into a RationalMatrix.  Every tensor also hands the
  kernel the bound on its scaled column entries (_entry_bound), which
  membership packs with too.
* From the terms to their faces: membership's face sums of each kind
  (_skew_face_sums, _sym_face_sums) walk the terms once per position
  or coordinate and add each term's entry times its row into the sum
  of its face, a symmetric face keyed by an integer rather than a
  tuple.  The tangent chart reads D's faces one at a time and stops
  after a few, so subspaces._face_entries works out the entries of
  each face it reads from the face alone, by the same rule.

Membership in the k-th power of a subspace (is_in_power_of) reads the
covectors that span the subspace's annihilator: SubspaceBasis makes
them in the one kernel call that checks its vectors' independence, and
a basis from enclosing_space, which that check skips, makes them from
its own vectors on first use rather than reuse enc's elimination.  It
dots them with the column of one face, that of the first term, made by
enc's one-face helper, whose nonzero product certifies a non-member.
Then it packs the covectors into n integer rows (linalg._packed_rows)
and, by the face sums of t's kind, adds each term's entry times its
row into one sum per face of the support; t is a member iff every sum
is 0, and no face column is made.  A True answer thus comes from the
face sums alone, which load no column builder and not the kernel
(tests/test_layering.py fences them), so membership stays a route
independent of the enclosing space it checks.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    _DIGITS_BOUND,
    _INT,
    _MAX_DIGITS,
    RationalMatrix,
    _check_ints,
    _eliminate,
    _int_vector,
    _packed_rows,
    _random_ints,
    as_exact,
    as_vector,
    exact_det,
    rank,  # noqa: F401 (unused here; perfbench's tracer tests rewrap this binding)
)

SKEW = "skew"
SYM = "sym"
KINDS = (SKEW, SYM)


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _kind(t) -> str:
    """t's kind; anything that is not a tensor raises TypeError before any
    attribute of it is read."""
    if not isinstance(t, _Tensor):
        raise TypeError(f"not a tensor: {type(t).__name__}")
    return t.kind


def _check_shape(n: int, k: int) -> None:
    """Refuse an n or k that is not a nonnegative int (bools included)."""
    _check_ints(n=n, k=k)
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")


# ---------------------------------------------------------------------------
# the bases of the k-th exterior and symmetric powers, in a fixed order


def k_subsets(n: int, k: int):
    """All k-subsets of range(n) in lexicographic order."""
    return list(itertools.combinations(range(n), k))


_EXPONENT_VECTORS = {}  # (n, k) -> tuple of exponent vectors


def exponent_vectors(n: int, k: int):
    """All exponent vectors of length n with entries summing to k.

    Ordered consistently with itertools.combinations_with_replacement so
    that the ordering is deterministic across runs.  The vectors are
    made once per (n, k); each call returns a fresh list of them.
    """
    vectors = _EXPONENT_VECTORS.get((n, k))
    if vectors is None:
        out = []
        for combo in itertools.combinations_with_replacement(range(n), k):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
        vectors = _EXPONENT_VECTORS[(n, k)] = tuple(out)
    return list(vectors)


def _power_dim(n: int, k: int, kind: str) -> int:
    """Dimension of the k-th exterior (skew) or symmetric (sym) power of
    QQ^n: the length of k_subsets(n, k) or of exponent_vectors(n, k)."""
    if kind == SKEW:
        return math.comb(n, k)
    # on QQ^0 the one exponent vector is the empty one, of degree 0
    return math.comb(n + k - 1, k) if n else int(k == 0)


# ---------------------------------------------------------------------------
# tensor containers


def _nonzero_sums(keys: list, values) -> dict:
    """{key: the sum of its values} in first-occurrence order, zero sums
    left out; a repeated key accumulates in order, through as_exact."""
    values = list(values)
    sums = dict(zip(keys, values))
    if len(sums) < len(keys):
        sums = {}
        for key, c in zip(keys, values):
            sums[key] = as_exact(sums[key] + c) if key in sums else c
    return sums if all(sums.values()) else {key: c for key, c in sums.items() if c}


@dataclass(frozen=True)
class _Tensor:
    """Sparse body shared by SkewTensor and SymTensor.

    coeffs maps basis keys to nonzero exact scalars, normalized by
    as_exact (ints, and Fractions only where not integral); a subclass names its
    kind, validates its keys (_keys_valid(keys, n, k) on the whole key list,
    _check_index(key, n, k) on one key) and lists its basis in order
    (_basis).  Arithmetic returns the subclass of self.
    """

    n: int
    k: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_shape(self.n, self.k)
        keys = list(map(tuple, self.coeffs))
        self._check_keys(keys, self.n, self.k)
        values = self.coeffs.values()
        if not _INT.issuperset(map(type, values)):
            values = map(as_exact, values)
        object.__setattr__(self, "coeffs", _nonzero_sums(keys, values))

    @classmethod
    def _check_keys(cls, keys: list, n: int, k: int) -> None:
        """Validate a list of tuple keys, the one check of both construction
        routes.  Keys of plain ints pass on whole-list passes (_keys_valid);
        otherwise they are walked in order and the first bad key raises
        _check_index's error.  Bool entries are refused."""
        if not (_INT.issuperset(map(type, itertools.chain.from_iterable(keys))) and cls._keys_valid(keys, n, k)):
            for key in keys:
                cls._check_index(key, n, k)

    @classmethod
    def _exact(cls, n: int, k: int, coeffs: dict):
        """Wrap coefficients that are valid by construction (int n and k,
        tuple keys that pass _check_keys, nonzero values as as_exact gives
        them) without a second pass over them."""
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "k", k)
        object.__setattr__(t, "coeffs", coeffs)
        return t

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key) -> int | Fraction:
        return self.coeffs.get(tuple(key), 0)

    def coordinates(self):
        """Dense coefficient vector in basis order."""
        return tuple(self.coeffs.get(key, 0) for key in self._basis())

    def __add__(self, other):
        if not isinstance(other, type(self)) or (other.n, other.k) != (self.n, self.k):
            raise ValueError(f"can only add {self.kind} tensors of the same shape")
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, 0) + c
        return type(self)(self.n, self.k, merged)

    def __neg__(self):
        return type(self)(self.n, self.k, {key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        s = as_exact(scalar)
        return type(self)(self.n, self.k, {key: s * c for key, c in self.coeffs.items()})

    __rmul__ = __mul__


class SkewTensor(_Tensor):
    """Element of the k-th exterior power of QQ^n, sparse in the wedge basis."""

    kind = SKEW

    @staticmethod
    def _keys_valid(keys: list, n: int, k: int) -> bool:
        """Keys of int entries are k-subsets of range(n): the lengths, then
        each key column against the next, entry by entry."""
        if not {k}.issuperset(map(len, keys)):
            return False
        if not keys or not k:
            return True
        columns = list(zip(*keys))
        return (
            min(columns[0]) >= 0
            and max(columns[-1]) < n
            and all(map(operator.lt, itertools.chain(*columns[:-1]), itertools.chain(*columns[1:])))
        )

    @staticmethod
    def _check_index(idx, n: int, k: int):
        if len(idx) != k:
            raise ValueError(f"index {idx} does not have degree {k}")
        prev = -1
        for x in idx:
            if not isinstance(x, int) or isinstance(x, bool) or x <= prev or x >= n:
                raise ValueError(f"index {idx} is not a strictly increasing subset of range({n})")
            prev = x

    def _basis(self):
        return k_subsets(self.n, self.k)


class SymTensor(_Tensor):
    """Element of the k-th symmetric power of QQ^n.

    Coefficients follow the monomial convention: coeffs[alpha] is the
    coefficient of x^alpha when the tensor is written as a homogeneous
    polynomial of degree k in the basis coordinates.
    """

    kind = SYM

    @staticmethod
    def _keys_valid(keys: list, n: int, k: int) -> bool:
        """Keys of int entries are exponent vectors: n entries, nonnegative,
        summing to k.  The lengths and degrees are read from bytes(key),
        which refuses any entry outside 0..255, so the bytes need no sign
        check; when it refuses (a negative entry, or one past 255 for
        k >= 256), the keys themselves take all three checks."""
        try:
            keys, signed = list(map(bytes, keys)), False
        except ValueError:
            signed = True
        return (
            {n}.issuperset(map(len, keys))
            and {k}.issuperset(map(sum, keys))
            # for n = 0 every key is () and has no min
            and (not signed or not n or min(map(min, keys), default=0) >= 0)
        )

    @staticmethod
    def _check_index(alpha, n: int, k: int):
        if len(alpha) != n:
            raise ValueError(f"exponent vector {alpha} does not have length {n}")
        if not all(isinstance(a, int) and not isinstance(a, bool) and a >= 0 for a in alpha) or sum(alpha) != k:
            raise ValueError(f"exponent vector {alpha} does not have total degree {k}")

    def _basis(self):
        return exponent_vectors(self.n, self.k)


@dataclass(frozen=True)
class SubspaceBasis:
    """A basis (independent list of vectors) of a subspace W of QQ^n.

    The constructor eliminates the vectors once, each scaled by the lcm
    of its denominators (which keeps its span), as the columns of an
    n-row matrix (linalg._eliminate): they are independent exactly when
    each of them is a pivot, and the n - dim integer covectors that the
    same call leaves span the annihilator of W, which is_in_power_of
    contracts with.  They are kept as a private attribute, outside the
    fields, so equality, hashing and repr see only ambient_dim and
    vectors.

    A basis from _independent (enclosing_space's pivot columns) skips
    that check and makes its covectors from its own vectors on first
    use, by the same call: taking them from enc's elimination would let
    is_in_power_of(t, enclosing_space(t)) check enc against enc's own
    kernel output.
    """

    ambient_dim: int
    vectors: tuple = ()

    def __post_init__(self):
        _check_ints(ambient_dim=self.ambient_dim)
        if self.ambient_dim < 0:
            raise ValueError(f"ambient_dim must be >= 0, got {self.ambient_dim}")
        vs = tuple(as_vector(v) for v in self.vectors)
        for v in vs:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        object.__setattr__(self, "vectors", vs)
        if self._run_kernel() != len(vs):
            raise ValueError("basis vectors are linearly dependent")

    @classmethod
    def _independent(cls, ambient_dim: int, vectors: tuple) -> "SubspaceBasis":
        """Wrap vectors of length ambient_dim that are independent by construction
        (pivot columns), without a second elimination to check it; the
        covectors are made on first use."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "ambient_dim", ambient_dim)
        object.__setattr__(basis, "vectors", vectors)
        object.__setattr__(basis, "_covectors", None)
        return basis

    def _run_kernel(self) -> int:
        """The one elimination of the vectors: keep the covectors it leaves,
        as int tuples, and return its pivot count."""
        pivots, _, covectors = _eliminate(map(_int_vector, self.vectors), self.ambient_dim)
        object.__setattr__(self, "_covectors", tuple(map(tuple, covectors)))
        return len(pivots)

    def _annihilator(self) -> tuple:
        """The n - dim integer covectors, as int tuples, that span the
        annihilator of W."""
        if self._covectors is None:
            self._run_kernel()
        return self._covectors

    @property
    def dim(self) -> int:
        return len(self.vectors)


# ---------------------------------------------------------------------------
# constructors


def _minors(columns, k: int) -> dict:
    """All m x m minors, m <= k, of the matrix with the given columns.

    Returns {I: {J: minor}}, with I an increasing m-subset of the columns
    and J one of the rows; zero minors are left out.  Each minor is
    expanded along its last column from the level below, using ring
    operations only, so integer columns give integer minors.
    """
    n = len(columns[0])
    table = {(): {(): 1}}
    for m in range(1, k + 1):
        for I in itertools.combinations(range(len(columns)), m):
            col = columns[I[-1]]
            out = {}
            for R, d in table[I[:-1]].items():
                lo = 0
                for p, hi in enumerate(R + (n,)):
                    # row r lands at position p of J; its cofactor sign is (-1)^(p + m - 1)
                    for r in range(lo, hi):
                        if col[r]:
                            J = R[:p] + (r,) + R[p:]
                            term = col[r] * d
                            out[J] = out.get(J, 0) + (term if (p + m) % 2 else -term)
                    lo = hi + 1
            table[I] = {J: v for J, v in out.items() if v}
    return table


def wedge(vectors) -> SkewTensor:
    """Wedge product u_1 ^ ... ^ u_k of vectors in QQ^n.

    The coefficient on a basis k-subset I is the k x k minor of the
    matrix [u_1 ... u_k] taken on rows I.  Linearly dependent inputs
    give the zero tensor.
    """
    vs = [as_vector(v) for v in vectors]
    if not vs:
        raise ValueError("wedge of an empty list is ambiguous; give at least one vector")
    n = len(vs[0])
    if any(len(v) != n for v in vs):
        raise ValueError("vectors of unequal length")
    k = len(vs)
    return SkewTensor(n, k, _minors(vs, k)[tuple(range(k))])


def sym_power(v, k: int) -> SymTensor:
    """k-th power v^k of a vector, expanded in the monomial convention."""
    vec = as_vector(v)
    n = len(vec)
    _check_shape(n, k)
    coeffs = {}
    for alpha in exponent_vectors(n, k):
        c = math.factorial(k)
        for a in alpha:
            c //= math.factorial(a)
        for x, a in zip(vec, alpha):
            if a:
                c *= x**a
        if c:
            coeffs[alpha] = c
    return SymTensor(n, k, coeffs)


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _substitution(columns, n_out: int):
    """The map alpha -> x^alpha with variable i replaced by the linear form
    columns[i] in n_out variables, as a polynomial dict.

    Each monomial is the one below it (alpha less its last variable)
    times that variable's form, and every monomial built is memoized
    for the life of the returned map, so monomials share their lower
    products and each costs one product with a form.  The returned
    polynomials are shared and must not be mutated.  The constant is the
    int 1, so integer forms give integer polynomials and Fraction forms
    Fractions.
    """
    forms = [
        {tuple(1 if r == j else 0 for r in range(n_out)): c for j, c in enumerate(col) if c}
        for col in columns
    ]
    memo = {(0,) * len(forms): {(0,) * n_out: 1}}

    def substituted(alpha):
        poly = memo.get(alpha)
        if poly is None:
            i = len(alpha) - 1
            while not alpha[i]:
                i -= 1
            below = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            poly = memo[alpha] = _poly_mul(substituted(below), forms[i])
        return poly

    return substituted


# ---------------------------------------------------------------------------
# contraction matrices and enclosing spaces


MAX_CONTRACTION_ENTRIES = 10**6


def _check_contraction_size(t, kind: str) -> None:
    """Refuse t if its contraction matrix, n x C(top, r) with top = n
    (skew) or n + k - 2 (sym) and r = k - 1, would hold more than
    MAX_CONTRACTION_ENTRIES entries.  The column count is reached
    through the products C(top - r + i, i), i = 0 .. r, taken with
    r <= top - r, which never decrease; any() stops at the first one
    past the limit, so a huge shape is refused in a few steps and no
    unfinished count is printed."""
    r = t.k - 1
    top = t.n + r - 1 if kind == SYM else t.n
    first, r = int(0 <= r <= top), min(r, top - r)
    counts = itertools.accumulate(range(1, r + 1), lambda c, i: c * (top - r + i) // i, initial=first)
    if any(t.n * c > MAX_CONTRACTION_ENTRIES for c in counts):
        raise ValueError(
            f"contraction matrix of the {t.kind} tensor with n={t.n}, k={t.k} would hold more than the "
            f"limit of {MAX_CONTRACTION_ENTRIES} entries"
        )


def _contraction_columns(t):
    """The columns of t's contraction matrix, in order, as tuples of exact
    scalars (as as_exact gives them), made one at a time on demand.

    Checks the type, the degree and the size limit when called, before
    any column is made, and returns the generator of t's kind.
    """
    kind = _kind(t)
    if t.k < 1:
        raise ValueError("contraction needs degree k >= 1")
    _check_contraction_size(t, kind)
    return _skew_columns(t) if kind == SKEW else _sym_columns(t)


def _skew_columns(t: SkewTensor):
    """_skew_column of each (k-1)-subset J, in lex order."""
    n = t.n
    get = t.coeffs.get
    for J in itertools.combinations(range(n), t.k - 1):
        yield _skew_column(get, J, n)


def _skew_column(get, J: tuple, n: int) -> tuple:
    """The contraction column of the face J, read by n lookups through get
    (a skew tensor's coeffs.get): row i not in J holds (-1)^pos *
    coeff(J + {i}), where pos is the position of i in the sorted union;
    a row in J holds 0."""
    col = []
    lo = 0
    for pos, hi in enumerate(J + (n,)):
        pre, suf = J[:pos], J[pos:]
        for i in range(lo, hi):
            c = get((*pre, i, *suf), 0)
            col.append(-c if pos % 2 and c else c)
        if hi < n:
            col.append(0)
        lo = hi + 1
    return tuple(col)


def _sym_columns(t: SymTensor):
    """_sym_column of each exponent vector a of degree k-1, in
    exponent_vectors order."""
    n = t.n
    get = t.coeffs.get
    integral = _integral(t)
    for a in exponent_vectors(n, t.k - 1):
        yield _sym_column(get, a, n, integral)


def _sym_column(get, a, n: int, integral: bool) -> tuple:
    """The contraction column of the face a, read by n lookups through get
    (a symmetric tensor's coeffs.get): row i holds (a_i + 1) *
    coeff(a + e_i).  Unless integral says every coefficient is an int, an
    entry goes through as_exact, since (a_i + 1) * c can be integral for
    a Fraction c."""
    alpha = list(a)
    col = []
    for i in range(n):
        e = alpha[i] + 1
        alpha[i] = e
        c = get(tuple(alpha), 0)
        alpha[i] = e - 1
        col.append(e * c if integral or not c else as_exact(e * c))
    return tuple(col)


def _integral(t) -> bool:
    # coefficients are as as_exact gives them: ints, or non-integral Fractions
    return _INT.issuperset(map(type, t.coeffs.values()))


def contraction_matrix(t) -> RationalMatrix:
    """Every column of _contraction_columns, as a matrix with n rows.

    Skew: the matrix of the contraction pairing t against (k-1)-covectors,
    C(n, k-1) columns.  The column of a (k-1)-subset J has entry
    (-1)^pos * coeff(J + {i}) in row i (i not in J), where pos is the
    0-based position of i in the sorted union, and 0 in the rows of J.
    The sign is a fixed global convention; the column space does not
    depend on it.

    Sym: the first catalecticant, C(n+k-2, k-1) columns.  The column of
    an exponent vector a of total degree k-1 has entry
    (a_i + 1) * coeff(a + e_i) in row i; the integer factor comes from
    the monomial convention and does not change the column space.

    An oracle: enc and enclosing_space stream the same columns into the
    kernel and never build this matrix.
    """
    return RationalMatrix.from_columns(_contraction_columns(t), t.n)


def _entry_bound(t, cs) -> int:
    """A bound on every entry of t's contraction columns, each scaled to
    integers by the lcm of its denominators: max |c| (skew) or k * max |c|
    (sym, a factor a_i + 1 <= k) over cs, t's coefficients scaled by the
    lcm L of all their denominators.  It covers a column scaled by its own
    lcm, since that lcm divides L."""
    return max(map(abs, cs), default=0) * (1 if t.kind == SKEW else t.k)


def _pivot_columns(t) -> tuple:
    """The pivot columns of t's contraction matrix, as _contraction_columns
    makes them, and none for a degree-0 tensor, a scalar, which no vector
    is needed to enclose.  A non-tensor raises TypeError first.  The
    kernel takes each column scaled by the lcm of its denominators, and
    stops at full row rank: the columns after the last pivot of a tensor
    with enc = n are never made.  It also takes _entry_bound, so it packs
    its covectors for t's own entries."""
    _kind(t)
    if not t.k:
        return ()
    seen = []
    stream = (seen.append(col) or col for col in _contraction_columns(t))
    integral = _integral(t)
    bound = _entry_bound(t, t.coeffs.values() if integral else _int_vector(t.coeffs.values()))
    pivots, _, _ = _eliminate(stream if integral else map(_int_vector, stream), t.n, bound)
    return tuple(seen[j] for j in pivots)


def enclosing_space(t) -> SubspaceBasis:
    """Basis of the smallest subspace U with t in the k-th power of U: the
    pivot columns of the contraction matrix."""
    # the type check of _pivot_columns runs before t.n is read
    columns = _pivot_columns(t)
    return SubspaceBasis._independent(t.n, columns)


def enc(t) -> int:
    """Enclosing dimension: rank of the contraction matrix."""
    return len(_pivot_columns(t))


# ---------------------------------------------------------------------------
# push-forward and membership in powers of a subspace


def _matrix_rows(mat) -> list:
    if not isinstance(mat, RationalMatrix):
        # the constructor refuses rows of unequal lengths
        mat = RationalMatrix(mat)
    return [list(mat.row(i)) for i in range(mat.rows)]


def apply_linear_map(mat, t):
    """Push a tensor forward along a linear map given by a matrix.

    mat has shape n_out x t.n and sends the i-th basis vector to the
    i-th column; the tensor is transported through the induced map on
    exterior (resp. symmetric) powers.
    """
    kind = _kind(t)
    rows = _matrix_rows(mat)
    n_out = len(rows)
    n_in = len(rows[0]) if rows else 0
    if n_in != t.n:
        raise ValueError("matrix width does not match tensor dimension")
    if kind == SKEW:
        coeffs = {}
        for J in itertools.combinations(range(n_out), t.k):
            s = 0
            for I, c in t.coeffs.items():
                s += c * exact_det([[rows[j][i] for i in I] for j in J])
            if s:
                coeffs[J] = s
        return SkewTensor(n_out, t.k, coeffs)
    # substitute variable i by the linear form given by column i
    substituted = _substitution(list(zip(*rows)), n_out)
    out = {}
    for alpha, c in t.coeffs.items():
        for key, v in substituted(alpha).items():
            w = out.get(key, 0) + c * v
            if w:
                out[key] = w
            elif key in out:
                del out[key]
    return SymTensor(n_out, t.k, out)


def _skew_face_sums(keys, cs: list, rows: list) -> dict:
    """{face: sum_i v_i * rows[i]}, v the contraction column of the face,
    over the faces of skew terms (keys, coefficients cs in key order): at
    position pos, the term I adds (-1)^pos * c * rows[I[pos]] to the face
    I minus I[pos].  Each (face, row) pair comes from one term, so v_i is
    that one term's entry.  The faces of one position are zipped from the
    other index columns of the keys, and the rows are negated once, for
    the odd positions."""
    columns = list(zip(*keys))
    signed = (rows, [-y for y in rows])
    sums = {}
    get = sums.get
    for pos, column in enumerate(columns):
        others = columns[:pos] + columns[pos + 1 :]
        faces = zip(*others) if others else itertools.repeat(())
        for face, y, c in zip(faces, map(signed[pos % 2].__getitem__, column), cs):
            sums[face] = get(face, 0) + c * y
    return sums


def _sym_face_sums(keys, cs: list, k: int, rows: list) -> dict:
    """{face: sum_i v_i * rows[i]}, v the contraction column of the face,
    over the faces of symmetric terms (keys, coefficients cs in key order):
    at coordinate i, the term alpha with alpha_i > 0 adds
    alpha_i * c * rows[i] to the face alpha - e_i.  Each (face, row) pair
    comes from one term, as for skew.  An exponent vector of degree at
    most k is keyed by the integer whose digits in base k + 1 are its
    entries, so the face is alpha's code less (k+1)^i, and no face tuple
    is made."""
    units = [(k + 1) ** i for i in range(len(rows))]
    mul = operator.mul
    codes = [sum(map(mul, alpha, units)) for alpha in keys]
    sums = {}
    get = sums.get
    for es, unit, y in zip(zip(*keys), units, rows):
        for code, a, c in zip(codes, es, cs):
            if a:
                face = code - unit
                sums[face] = get(face, 0) + a * c * y
    return sums


def is_in_power_of(t, W: SubspaceBasis) -> bool:
    """True iff t lies in the k-th exterior (resp. symmetric) power of span(W).

    Uses the identity that the k-th exterior power of W is the common
    kernel of the contractions i_y by the covectors y vanishing on W
    (and, over QQ, the k-th symmetric power is the common kernel of the
    derivations d_y).  The coefficient of i_y t (resp. d_y t) on a face
    J is the dot product of y with J's contraction column, so t is a
    member iff every covector annihilates every face column.  Three
    steps:

    1. The n - dim(W) independent integer covectors that span W's
       annihilator are read from W.  The constructor made them in the
       elimination that checked W's independence; a basis from
       enclosing_space makes them from its vectors on the first call
       and keeps them, so that is_in_power_of(t, enclosing_space(t))
       checks enc against a second elimination, not against enc's
       own.  With none, a zero t or k = 0, t is a member.
    2. The column of one face, that of t's first term (its first index
       or first nonzero exponent lowered), is made by n coefficient
       lookups, by the helper that makes enc's columns (_skew_column,
       _sym_column).  A covector with a nonzero dot product on it is an
       exact certificate that t is not a member.
    3. Otherwise t's coefficients are scaled to integers by the lcm of
       their denominators, and the covectors are packed into n integer
       rows (linalg._packed_rows), with enc's bound on the entries of a
       scaled face column (_entry_bound).
       The face sums of t's kind (_skew_face_sums, _sym_face_sums) add
       each term's entry times its row into one sum per face of the
       support, and t is a member iff every sum is 0: by the
       packing lemma, a face's sum is 0 exactly when every covector
       annihilates its column.  The cost scales with the support
       (nnz * k products), never with C(n, k-1), and no face column is
       made.

    This is a route of its own: it never builds a contraction matrix,
    takes a rank or streams _contraction_columns, which enc and
    enclosing_space rank, and its True answer reads no column at all,
    so it can be checked against them.  Only step 2's False answer
    shares a helper with enc, and it is an exact certificate.
    """
    kind = _kind(t)
    if not isinstance(W, SubspaceBasis):
        raise TypeError(f"not a subspace basis: {type(W).__name__}")
    if W.ambient_dim != t.n:
        raise ValueError("subspace ambient dimension does not match tensor")
    if not t.k or not t.coeffs:
        return True
    covectors = W._annihilator()
    if not covectors:
        return True
    get = t.coeffs.get
    first = next(iter(t.coeffs))
    if kind == SKEW:
        col = _skew_column(get, first[1:], t.n)
    else:
        a = list(first)
        a[next(i for i, x in enumerate(a) if x)] -= 1
        # only whether a product is 0 is asked, so entries need no as_exact
        col = _sym_column(get, a, t.n, True)
    mul = operator.mul
    if any(sum(map(mul, y, col)) for y in covectors):
        return False
    cs = _int_vector(t.coeffs.values())
    rows = _packed_rows(covectors, t.n, _entry_bound(t, cs))
    sums = _skew_face_sums(t.coeffs, cs, rows) if kind == SKEW else _sym_face_sums(t.coeffs, cs, t.k, rows)
    return not any(sums.values())


# ---------------------------------------------------------------------------
# seeded random tensors for property suites


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_vector(n: int, rng: random.Random):
    """Seeded random integer vector of length n, entries uniform in [-9, 9]
    (linalg._random_ints)."""
    return tuple(_random_ints(rng, n))


def random_tensor(n: int, k: int, kind: str, seed):
    """Deterministic random tensor with integer coefficients in [-9, 9].

    Every basis key is drawn in basis order, zeros included, so a seed
    gives the same tensor as the public constructor would; the keys and
    int values are valid by construction, so the tensor is wrapped
    without a second pass over them.
    """
    check_kind(kind)
    _check_shape(n, k)
    rng = _rng(seed)
    if kind == SKEW:
        cls, basis = SkewTensor, k_subsets(n, k)
    else:
        cls, basis = SymTensor, exponent_vectors(n, k)
    draws = zip(basis, _random_ints(rng, len(basis)))
    return cls._exact(n, k, {key: c for key, c in draws if c})


def random_decomposable(n: int, k: int, kind: str, seed):
    """Deterministic random decomposable tensor: a wedge of k independent
    vectors (skew) or the k-th power of a nonzero vector (sym).  n and k
    must be nonnegative ints (not bools)."""
    check_kind(kind)
    _check_shape(n, k)
    rng = _rng(seed)
    for _ in range(64):
        if kind == SKEW:
            t = wedge([random_vector(n, rng) for _ in range(k)])
        else:
            t = sym_power(random_vector(n, rng), k)
        if not t.is_zero:
            return t
    raise RuntimeError("failed to sample a nonzero decomposable tensor")


# ---------------------------------------------------------------------------
# JSON interchange


def tensor_to_json(t) -> dict:
    """Serialize a tensor to the interchange dict used by the CLI: skew terms
    in increasing key order, symmetric ones in decreasing."""
    kind = _kind(t)
    items = sorted(t.coeffs.items(), reverse=kind == SYM)
    return {
        "n": t.n,
        "k": t.k,
        "kind": kind,
        "terms": [{"index": list(idx), "coeff": str(c)} for idx, c in items],
    }


def _coeff_from_json(c):
    """A term's coefficient as an exact scalar: a JSON int as it is, and a
    string by as_exact, whose errors are reported.  An int of 10^4300 or
    more in absolute value, which json reads under a raised int() digit
    limit, is refused as as_exact refuses a string of that value."""
    if type(c) is int:
        if -_DIGITS_BOUND < c < _DIGITS_BOUND:
            return c
        raise ValueError(f"bad coefficient: an integer of more than {_MAX_DIGITS} digits")
    if not isinstance(c, (str, int)):
        raise ValueError(f"coefficient must be an int or a 'p/q' string: {c!r}")
    try:
        return as_exact(c)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"bad coefficient {c!r}: {exc}") from exc


_DICT = frozenset((dict,))
_LIST = frozenset((list,))
_STR = frozenset((str,))


def _coeffs_from_json(cs: list) -> list:
    """The coefficients as _coeff_from_json gives them one by one.  A list
    of strings of at most _MAX_DIGITS characters each is converted by
    int() in one pass: every such string that int() reads (Unicode digits
    and spaces, PEP 515 underscores and a sign included) is an integer
    spelling of as_exact's with the same value, whatever int()'s digit
    limit.  Any other list, or one with a string that int() refuses (a
    fraction, a decimal or a bad one), is converted one by one, and the
    first bad coefficient raises."""
    if _STR.issuperset(map(type, cs)) and max(map(len, cs), default=0) <= _MAX_DIGITS:
        try:
            return list(map(int, cs))
        except ValueError:
            pass
    return list(map(_coeff_from_json, cs))


def _terms_from_json(terms: list) -> tuple:
    """(index lists, exact coefficients) of the JSON terms.

    Plain dicts whose indices are lists of plain ints are checked in
    whole-list passes.  When one fails, the terms are walked in order
    and the first malformed term, index or coefficient raises; a walk
    that raises nothing (dict, list or int subclasses) gives the values.
    """
    if _DICT.issuperset(map(type, terms)):
        try:
            idxs = list(map(operator.itemgetter("index"), terms))
            cs = list(map(operator.itemgetter("coeff"), terms))
        except KeyError:
            pass
        else:
            if _LIST.issuperset(map(type, idxs)) and _INT.issuperset(map(type, itertools.chain.from_iterable(idxs))):
                return idxs, _coeffs_from_json(cs)
    idxs, values = [], []
    for term in terms:
        if not isinstance(term, dict) or "index" not in term or "coeff" not in term:
            raise ValueError(f"malformed term: {term!r}")
        idx = term["index"]
        if not _int_list(idx):
            raise ValueError(f"malformed index: {idx!r}")
        idxs.append(idx)
        values.append(_coeff_from_json(term["coeff"]))
    return idxs, values


def _int_list(idx) -> bool:
    """idx is a list of ints, bools excluded."""
    return isinstance(idx, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in idx)


def tensor_from_json(obj: dict):
    """Parse the tensor interchange format, validating all invariants.

    The terms are checked and their coefficients converted in whole-list
    passes (_terms_from_json), and their keys by the kind's _check_keys,
    the check of the public constructor; the tensor is then built without
    a second pass over them.  The error is the one a walk over the terms
    in order finds: the first malformed term, index or coefficient, and
    otherwise the first bad index.
    """
    if not isinstance(obj, dict):
        raise ValueError("tensor JSON must be an object")
    missing = {"n", "k", "kind", "terms"} - set(obj)
    if missing:
        raise ValueError(f"tensor JSON is missing keys: {sorted(missing)}")
    n, k, kind, terms = obj["n"], obj["k"], obj["kind"], obj["terms"]
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in (n, k)):
        raise ValueError("n and k must be nonnegative integers")
    check_kind(kind)
    if not isinstance(terms, list):
        raise ValueError("terms must be a list")
    cls = SkewTensor if kind == SKEW else SymTensor
    idxs, values = _terms_from_json(terms)
    keys = list(map(tuple, idxs))
    # the term check left only int entries, so the key shapes are what is left
    if not cls._keys_valid(keys, n, k):
        cls._check_keys(keys, n, k)
    return cls._exact(n, k, _nonzero_sums(keys, values))
