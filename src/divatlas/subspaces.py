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
as a sparse {row: nonzero int} map, and the rank is certified by a
rank mod 2^61 - 1 (linalg._certified_rank, a sparse elimination):
columns independent mod p are independent over QQ, and anything less
is recomputed exactly.
"""

from __future__ import annotations

import itertools
import math
import random

# rank is not called here; perfbench's tracer tests expect to find it bound in this module
from .linalg import _certified_rank, _check_ints, rank  # noqa: F401
from .tensors import (
    SKEW,
    SYM,
    _power_dim,
    check_kind,
    enc,
    exponent_vectors,
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


def e_max_sym(k: int, n: int, paper_compat: bool = False) -> int:
    """Maximum enclosing dimension of a degree-k symmetric tensor on QQ^n.

    The faithful default is n for every n >= 1 and k >= 2: the generic
    symmetric tensor has a full-rank catalecticant in any dimension (for
    k = 2 take x_1^2 + ... + x_n^2).  A vector (k = 1) encloses only its
    own line, so the bound is min(n, 1) there.  The compat mode instead
    drops to n-1 for k = 2 and odd n, mirroring the parity rule for skew
    2-tensors; it is exposed so that both conventions can be compared,
    not because odd catalecticant ranks fail to occur.  k and n must be
    ints (not bools).
    """
    _check_degree(k=k, n=n)
    if n < 0:
        raise ValueError("dimension n must be >= 0")
    return _e_bound(k, n, SYM, paper_compat)


def _e_bound(k: int, n: int, kind: str, paper_compat: bool = False) -> int:
    """e_max (skew) or e_max_sym (sym) on arguments the caller has checked;
    paper_compat applies to sym only."""
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
    tangent oracle instead.  s and n must be ints (not bools).
    """
    check_kind(kind)
    _check_ints(s=s, n=n)
    if s < 1:
        raise ValueError("secant index s must be >= 1")
    if kind == SKEW:
        return min(math.comb(n, 2) - 1, 2 * (n - 2) * s + s - 1) - 2 * s * (s - 1)
    return min(math.comb(n + 1, 2) - 1, math.comb(s + 1, 2) + s * (n - s) - 1)


# ---------------------------------------------------------------------------
# tangent-space oracle


def _skew_chart_columns(w: dict, e: int, n: int, k: int) -> list:
    """Columns of the differential of (A, w) -> (wedge^k A)(w) at the chart
    point A = [I_e ; 0], along w and the rows of A below the identity block.

    Each column is a sparse {row: nonzero int} map, its rows indexed by
    the k-subsets of range(n) in combinations order, and w maps k-subsets
    of range(e) to nonzero ints.  At the chart every minor of A on
    columns I is 1 on rows I and 0 elsewhere, so the column along the
    tensor coordinate I is the unit vector of I.  Along an entry A[i][j]
    the factor A e_j of each term is replaced by e_i, which gives
    e_i ^ psi_j with psi_j the interior derivative of w along e_j: a term
    c e_I with j at position q of I gives (-1)^q c e_M, M = I minus j.
    For i >= e, e_i is moved past the k-1 indices of M, all below it, so
    the entry is (-1)^(q+k-1) c on the row of M + (i,).  Distinct I give
    distinct M, so each entry comes from one term of w.  The tensor
    columns come first, then the entries A[i][j] for each j < e and each
    row i from e to n - 1.
    """
    rows = {J: r for r, J in enumerate(itertools.combinations(range(n), k))}
    cols = [{rows[I]: 1} for I in itertools.combinations(range(e), k)]
    psis = [[] for _ in range(e)]
    for I, c in w.items():
        for q, j in enumerate(I):
            psis[j].append((I[:q] + I[q + 1 :], -c if (q + k - 1) % 2 else c))
    for psi in psis:
        for i in range(e, n):
            cols.append({rows[M + (i,)]: v for M, v in psi})
    return cols


def _sym_chart_columns(w: dict, e: int, n: int, k: int) -> list:
    """Columns of the differential of (A, w) -> (S^k A)(w) at the chart
    point A = [I_e ; 0], along w and the rows of A below the identity block.

    Each column is a sparse {row: nonzero int} map, its rows indexed by
    the exponent vectors of degree k on n variables in exponent_vectors
    order, and w maps exponent vectors on e variables to nonzero ints.
    At the chart the map pads each exponent vector with n - e zeros, so
    the column along the tensor coordinate alpha is the unit vector of
    alpha padded.  Along an entry A[i][j] it is the partial derivative of
    w along x_j times x_i: a term c x^alpha gives alpha_j c on alpha - e_j,
    padded, with a 1 at position i >= e.  Distinct alpha give distinct
    alpha - e_j, so each entry comes from one term of w.  Column order is
    as in _skew_chart_columns.
    """
    pad = (0,) * (n - e)
    target_pos = {a: r for r, a in enumerate(exponent_vectors(n, k))}
    cols = [{target_pos[alpha + pad]: 1} for alpha in exponent_vectors(e, k)]
    units = [pad[:t] + (1,) + pad[t + 1 :] for t in range(n - e)]
    partials = [[] for _ in range(e)]
    for alpha, c in w.items():
        for j, a in enumerate(alpha):
            if a:
                partials[j].append((alpha[:j] + (a - 1,) + alpha[j + 1 :], a * c))
    for partial in partials:
        for unit in units:
            cols.append({target_pos[beta + unit]: v for beta, v in partial})
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
    columns are built straight from w's coefficients
    (_skew_chart_columns, _sym_chart_columns), with no minors or
    substitution.  The rank is certified mod a prime, with an exact
    fallback (linalg._certified_rank).  A w whose enclosing dimension
    is below the maximum on QQ^e lies in a smaller Sub_e; it is redrawn
    up to MAX_RETRIES times.  e, k and n must be ints (not bools).
    """
    _check_cell(e, k, n, kind)
    full = _e_bound(k, e, kind)
    rng = random.Random(f"subdim-tangent:{kind}:{k}:{e}:{n}:{seed}")
    build = _skew_chart_columns if kind == SKEW else _sym_chart_columns
    for _ in range(MAX_RETRIES):
        omega = random_tensor(e, k, kind, rng)
        if enc(omega) < full:
            continue
        return _certified_rank(build(omega.coeffs, e, n, k)) - 1
    raise RuntimeError(f"no nondegenerate sample after {MAX_RETRIES} retries")
