"""Subspace varieties: maximal enclosing dimensions and dimension formulas.

Sub_e denotes the projective locus of degree-k tensors whose enclosing
dimension is at most e.  For skew tensors some of these loci coincide
(a skew 2-tensor has even rank, and a k-vector can never have enclosing
dimension exactly k+1), which is what normalize_e collapses.

Every dimension comes from one Grassmannian-bundle count, for every k:
e(n-e) + dim(k-th power of QQ^e) - 1, with e normalized.  For k = 2 the
loci are the classical rank strata of (skew-)symmetric matrices, and
the count equals their determinantal dimensions identically (see
sub_dim).  An independent tangent-space oracle, sub_dim_tangent,
recomputes each dimension as the exact rank of the Jacobian of that
parametrization at a random integer point, and the two are required to
agree in the test suites.

The parametrization is GL_n-equivariant and every injective A lies in
the GL_n-orbit of A = [I_e ; 0], so the rank is taken there and only
the rows of A below the identity block are varied: the top rows give
GL_e-orbit directions, which add nothing to the image of the
differential.  That leaves e(n-e) + dim(power of QQ^e) columns, exactly
the generic rank when e is normalized.  At this chart point the
Jacobian is read straight off w's integer coefficients, with no minors
and no substitution: a unit column for each tensor direction, and for
each varied row a signed copy of a derivative of w (the interior
derivative for skew tensors, the partial derivative for symmetric
ones), each entry from one term of w.  The builders emit each column
as a sparse {row: nonzero int} map on the Jacobian's own rows, which
they number compactly: the tensor directions first, then one block of
the faces of degree k-1 on QQ^e for each varied row of A.  That is the
Jacobian on the basis of the k-th power of QQ^n up to a row
permutation, which changes no rank, and no map over that basis is
made.

The face pattern of a chart (which term of w lands on which face, and
with which sign or multiplicity) is the face table of the basis of the
k-th power of QQ^e (tensors._skew_faces, _sym_faces), the table that
membership's face sums also read: the derivative of w along e_j is the
table's entries on row j.  It depends on the shape (kind, e, k) alone,
so _chart_pattern makes it once per shape and caches it; a sample only
reads w's coefficients into it (_chart_columns).

Each sample takes one pass mod linalg.RANK_PRIME, a prime below 2^30,
over its columns (linalg._independent_mod_p, a sparse elimination)
before anything else.  Columns independent mod p are independent over
QQ, and full column rank also proves that w is nondegenerate (the lemma
in sub_dim_tangent), so that sample is done without computing enc(w).
Only a pass that meets a dependency computes enc(w): a degenerate w is
redrawn, and for a nondegenerate one the rank is recomputed exactly
(linalg._densified_rank), so no sample takes the pass twice.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

# rank is not called here; perfbench's tracer tests expect to find it bound in this module
from .linalg import _check_ints, _densified_rank, _independent_mod_p, rank  # noqa: F401
from .tensors import (
    SKEW,
    SYM,
    _power_dim,
    _skew_faces,
    _sym_codes,
    _sym_faces,
    check_kind,
    enc,
    exponent_vectors,
    k_subsets,
    random_tensor,
)


def e_max(k: int, n: int) -> int:
    """Maximum enclosing dimension of a degree-k skew tensor on QQ^n.

    At most 1 for k = 1 (a vector encloses only its own line); n-1 when
    k = n-1, or when k = 2 and n is odd; n otherwise (0 when the whole
    exterior power vanishes because n < k).  k and n must be ints (not
    bools).
    """
    _check_degree(k=k, n=n)
    if n < 0:
        raise ValueError("dimension n must be >= 0")
    return _e_bound(k, n, SKEW)


def e_max_sym(k: int, n: int) -> int:
    """Maximum enclosing dimension of a degree-k symmetric tensor on QQ^n.

    n for every n >= 1 and k >= 2: the generic symmetric tensor has a
    full-rank catalecticant in any dimension (for k = 2 take
    x_1^2 + ... + x_n^2).  A vector (k = 1) encloses only its own line,
    so the bound is min(n, 1) there.  k and n must be ints (not bools).
    """
    _check_degree(k=k, n=n)
    if n < 0:
        raise ValueError("dimension n must be >= 0")
    return _e_bound(k, n, SYM)


def _e_bound(k: int, n: int, kind: str, paper_compat: bool = False) -> int:
    """e_max (skew) or e_max_sym (sym) on arguments the caller has checked.

    paper_compat applies to sym only: it drops the bound to n-1 for
    k = 2 and odd n, mirroring the parity rule for skew 2-tensors.  It is
    atlas_report's paper_sym convention, kept so that both conventions
    can be compared, not because odd catalecticant ranks fail to occur."""
    if k == 1:
        return min(n, 1)
    odd_square = k == 2 and n % 2 == 1
    if kind == SYM:
        return n - 1 if paper_compat and odd_square else n
    if n < k:
        return 0
    return n - 1 if odd_square or k == n - 1 else n


def _check_degree(**args) -> None:
    """_check_ints on the arguments, then k >= 1."""
    _check_ints(**args)
    if args["k"] < 1:
        raise ValueError("degree k must be >= 1")


def _check_cell(e: int, k: int, n: int, kind: str) -> None:
    check_kind(kind)
    _check_degree(e=e, k=k, n=n)
    floor = 1 if kind == SYM else k
    if not floor <= e <= n:
        raise ValueError(f"need {floor} <= e <= n, got k={k}, e={e}, n={n}")


def normalize_e(e: int, k: int, kind: str) -> int:
    """Smallest e' with Sub_e' = Sub_e.

    For k = 1, of either kind, a nonzero vector encloses only its own
    line, so Sub_e is all of P^(n-1) for every e >= 1 and e collapses
    to 1.  Skew: for k = 2 round down to even (skew matrix ranks are
    even); for k >= 3 the only coincidence is e = k+1, which collapses
    to k (a k-vector enclosed in k+1 dimensions is already
    decomposable).  Symmetric tensors of degree k >= 2 attain every
    enclosing dimension down to 1 (k-th powers of vectors), so e is
    returned unchanged.  e and k must be ints (not bools), and k >= 1.
    """
    check_kind(kind)
    _check_degree(e=e, k=k)
    floor = 1 if kind == SYM else k
    if e < floor:
        raise ValueError(f"e = {e} below the minimum enclosing dimension {floor}")
    return _normalize_e(e, k, kind)


def _normalize_e(e: int, k: int, kind: str) -> int:
    if k == 1:
        return 1
    if kind == SYM:
        return e
    if k == 2:
        return 2 * (e // 2)
    if k >= 3 and e == k + 1:
        return k
    return e


def sub_dim(e: int, k: int, n: int, kind: str) -> int:
    """Dimension of Sub_e inside the projectivized k-th power of QQ^n.

    Every k uses the Grassmannian-bundle count e'(n-e') + C(e',k) - 1
    (skew) and e'(n-e') + C(e'+k-1,k) - 1 (symmetric), with e' the
    normalized enclosing bound.  For k = 2 these are the determinantal
    rank-stratification dimensions, since C(n,2) - C(n-e',2) =
    e'(n-e') + C(e',2) and C(n+1,2) - C(n-e'+1,2) = e'(n-e') + C(e'+1,2)
    for 0 <= e' <= n.
    """
    _check_cell(e, k, n, kind)
    return _sub_dim(e, k, n, kind)


def _sub_dim(e: int, k: int, n: int, kind: str) -> int:
    """sub_dim on arguments the caller has checked (the atlas's fibers)."""
    e = _normalize_e(e, k, kind)
    return e * (n - e) + _power_dim(e, k, kind) - 1


def sec_dim_printed(s: int, n: int, kind: str) -> int:
    """Closed-form secant-variety dimensions kept for comparison only.

    These are the published expressions for the s-secant variety of the
    Grassmannian G(2, n) (skew) and of the quadratic Veronese (sym).
    They disagree with sub_dim in known cases (for example they give 5
    for rank <= 4 skew forms on QQ^5, which actually fill P^9), so they
    are not used by any computation; sub_dim is certified against the
    tangent oracle instead.  s and n must be ints (not bools), s >= 1,
    and n >= 2s (skew) or n >= s (sym): the expressions assume room for
    s independent 2-planes or lines in QQ^n.
    """
    check_kind(kind)
    _check_ints(s=s, n=n)
    if s < 1:
        raise ValueError("secant index s must be >= 1")
    floor = 2 * s if kind == SKEW else s
    if n < floor:
        raise ValueError(f"n must be >= {floor} for s = {s} ({kind}), got {n}")
    if kind == SKEW:
        return min(math.comb(n, 2) - 1, 2 * (n - 2) * s + s - 1) - 2 * s * (s - 1)
    return min(math.comb(n + 1, 2) - 1, math.comb(s + 1, 2) + s * (n - s) - 1)


# ---------------------------------------------------------------------------
# tangent-space oracle


@functools.cache
def _chart_pattern(kind: str, e: int, k: int) -> tuple:
    """(U, F, directions), the face pattern of sub_dim_tangent's chart
    columns on QQ^e: U tensor directions (the basis of the k-th power of
    QQ^e), F faces of degree k - 1 on QQ^e, and for each j < e a tuple
    of (basis key, face index, factor), one for each entry on row j of
    the face table of the basis (tensors._skew_faces, _sym_faces).

    At A = [I_e ; 0], the column along an entry A[i][j], i >= e, is e_i
    times the derivative of w along e_j.  Skew: a term c e_I with j at
    position q of I gives (-1)^q c e_M, M = I minus j, the table's face
    and sign on row j; moving e_i past the k - 1 indices of M, all below
    it, gives (-1)^(q+k-1) c on the row of M + (i,), so the factor is
    the table's times (-1)^(k-1).  Sym: a term c x^alpha gives alpha_j c
    on beta = alpha - e_j, the table's face and factor, times x_i.  Each
    entry comes from one term of w, and the row of face f times e_i is
    labelled U + (i - e) * F + f, f the face's index in combinations or
    exponent_vectors order.

    The pattern depends on neither w nor n, and functools.cache keeps it
    for the process, as tensors._EXPONENT_VECTORS is kept; it is made of
    tuples only, so no caller can change it.  perfbench and tools/ab.py
    import the package afresh before each round, so there a pattern
    lives one round."""
    if kind == SKEW:
        basis = k_subsets(e, k)
        table, face_keys, sign = _skew_faces(basis, basis), k_subsets(e, k - 1), -1 if (k - 1) % 2 else 1
    else:
        basis = exponent_vectors(e, k)
        table, face_keys, sign = _sym_faces(basis, basis, k), _sym_codes(exponent_vectors(e, k - 1), k), 1
    index = {face: f for f, face in enumerate(face_keys)}
    directions = [[] for _ in range(e)]
    for faces, row, factor, keys in table:
        rows = itertools.repeat(row) if type(row) is int else row
        factors = itertools.repeat(factor) if type(factor) is int else factor
        for face, j, m, key in zip(faces, rows, factors, keys):
            directions[j].append((key, index[face], sign * m))
    return len(basis), len(index), tuple(map(tuple, directions))


def _chart_columns(w: dict, pattern: tuple, blocks: int) -> list:
    """The chart columns of w, a map from basis keys on QQ^e to nonzero
    ints, on its _chart_pattern and blocks = n - e varied rows, each a
    sparse {row: nonzero int} map on the Jacobian's own rows: the U unit
    columns, then for each j the derivative of w along e_j, the pairs
    (face index, coefficient times factor) of the terms of w present in
    direction j, placed for each row i >= e on the rows U + (i - e) * F
    + face index.  With no varied rows (n = e) the unit columns are the
    whole chart, and no derivative is made."""
    units, faces, directions = pattern
    cols = [{r: 1} for r in range(units)]
    if not blocks:
        return cols
    get = w.get
    for entries in directions:
        derivative = [(f, m * c) for key, f, m in entries if (c := get(key))]
        for base in range(units, units + blocks * faces, faces):
            cols.append({base + f: v for f, v in derivative})
    return cols


# redraws of w in sub_dim_tangent before it gives up
MAX_RETRIES = 8


def sub_dim_tangent(e: int, k: int, n: int, kind: str, seed=0) -> int:
    """Dimension of Sub_e measured at a random point, independent of sub_dim.

    Evaluates the Jacobian of the parametrization (A, w) -> (power of A
    applied to w) at A = [I_e ; 0], with w a random integer degree-k
    tensor on QQ^e, and returns its exact rank minus 1 (the
    projectivization).  The map is GL_n-equivariant, so the rank at any
    injective A equals the rank at [I_e ; 0] and depends on w alone.
    Only the rows of A below the identity block are varied, since the
    top rows give GL_e-orbit directions: e(n-e) + dim(power of QQ^e)
    columns, the generic rank in every cell whose e is normalized.  The
    columns are built straight from w's coefficients on the cached face
    pattern of the shape (_chart_columns on _chart_pattern, which reads
    the face table of tensors), with no minors or substitution, on
    compact row labels: the U = dim(power of QQ^e) tensor directions are
    rows 0 .. U - 1, and the row of face f (of degree k - 1 on QQ^e)
    times e_i is U + (i - e) * F + f, with F the number of faces.  Every
    column is still ranked; the labels only leave out the rows of the
    k-th power of QQ^n that no column reaches.

    A w whose enclosing dimension is below the maximum on QQ^e lies in
    a smaller Sub_e, so it must not be measured.  Each sample goes:

    1. draw w and build its columns;
    2. one pass mod a prime (linalg._independent_mod_p); if it finds
       every column independent, return the column count minus 1;
    3. else compute enc(w), and redraw w if it is below the maximum;
    4. else return the exact rank (linalg._densified_rank) minus 1.

    Step 2 needs no check of w.  Lemma: for n > e, if enc(w) < e there
    is a covector y != 0 on QQ^e with i_y w = 0 (d_y w = 0 for
    symmetric w; take y vanishing on a smaller space that encloses w).
    The column along A[i][j] is e_i times the derivative of w along
    e_j, which is linear in the direction, so sum_j y_j column(A[i][j])
    is e_i times the derivative of w along y, which is 0, for each row
    i >= e: the columns are dependent.  So full column rank proves
    enc(w) = e, which is then the maximum; when the maximum is below e
    (k = 1 < e; skew k = 2 at odd e; skew k = e - 1) and n > e, every
    sample reaches step 3.  For n = e the columns are the unit tensor
    directions alone, independent whatever w is, and the value does not
    depend on w.  So the draws and the value are those of the order
    that checks enc(w) first: a w that step 2 accepts would pass that
    check, and step 3 sees the same w that it would.  After MAX_RETRIES
    degenerate draws a RuntimeError is raised; for n = e the first draw
    returns at step 2, so it is reachable only for n > e.  e, k and n
    must be ints (not bools).
    """
    _check_cell(e, k, n, kind)
    full = _e_bound(k, e, kind)
    rng = random.Random(f"subdim-tangent:{kind}:{k}:{e}:{n}:{seed}")
    pattern = _chart_pattern(kind, e, k)
    for _ in range(MAX_RETRIES):
        omega = random_tensor(e, k, kind, rng)
        columns = _chart_columns(omega.coeffs, pattern, n - e)
        if _independent_mod_p(columns):
            return len(columns) - 1
        if enc(omega) < full:
            continue
        return _densified_rank(columns) - 1
    raise RuntimeError(f"no nondegenerate sample after {MAX_RETRIES} retries")
