"""Subspace varieties: maximal enclosing dimensions and dimension formulas.

Sub_e denotes the projective locus of degree-k tensors whose enclosing
dimension is at most e.  For skew tensors some of these loci coincide
(a skew 2-tensor has even rank, and a k-vector can never have enclosing
dimension exactly k+1), which is what normalize_e collapses.

For k = 2 the loci are the classical rank strata of (skew-)symmetric
matrices and their dimensions are computed determinantally; for k >= 3
they come from the Grassmannian-bundle parametrization.  An independent
tangent-space oracle, sub_dim_tangent, recomputes each dimension as the
exact rank of the Jacobian of that parametrization at a random integer
point, and the two are required to agree in the test suites.  At an
integer point the Jacobian is integral: its entries are minors of A
(skew) or coefficients of substituted monomials (symmetric), built on
Python ints throughout.  The builders emit each column as a sparse
{row: nonzero int} map, since the Jacobian is mostly zeros (at the
chart below, a unit block beside n - e copies of the contraction
columns of w), and the rank is taken on that form.

The parametrization is GL_n-equivariant and every injective A lies in
the GL_n-orbit of A = [I_e ; 0], so the rank is taken there and only
the rows of A below the identity block are varied: the top rows give
GL_e-orbit directions, which add nothing to the image of the
differential.  That leaves e(n-e) + dim(power of QQ^e) columns, exactly
the generic rank when e is normalized.  The rank is certified by a rank
mod 2^61 - 1 (linalg._certified_rank, a sparse elimination): columns
independent mod p are independent over QQ, and anything less is
recomputed exactly.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

# rank is not called here; perfbench's tracer tests expect to find it bound in this module
from .linalg import _certified_rank, rank  # noqa: F401
from .tensors import (
    SKEW,
    SYM,
    _minors,
    _substitution,
    check_kind,
    enc,
    exponent_vectors,
    random_tensor,
)


def e_max(k: int, n: int) -> int:
    """Maximum enclosing dimension of a degree-k skew tensor on QQ^n.

    At most 1 for k = 1 (a vector encloses only its own line); n-1 when
    k = n-1, or when k = 2 and n is odd; n otherwise (0 when the whole
    exterior power vanishes because n < k).
    """
    if k < 1:
        raise ValueError("degree k must be >= 1")
    if n < 0:
        raise ValueError("dimension n must be >= 0")
    if k == 1:
        return min(n, 1)
    if n < k:
        return 0
    if k == n - 1 or (k == 2 and n % 2 == 1):
        return n - 1
    return n


def e_max_sym(k: int, n: int, paper_compat: bool = False) -> int:
    """Maximum enclosing dimension of a degree-k symmetric tensor on QQ^n.

    The faithful default is n for every n >= 1 and k >= 2: the generic
    symmetric tensor has a full-rank catalecticant in any dimension (for
    k = 2 take x_1^2 + ... + x_n^2).  A vector (k = 1) encloses only its
    own line, so the bound is min(n, 1) there.  The compat mode instead
    drops to n-1 for k = 2 and odd n, mirroring the parity rule for skew
    2-tensors; it is exposed so that both conventions can be compared,
    not because odd catalecticant ranks fail to occur.
    """
    if k < 1:
        raise ValueError("degree k must be >= 1")
    if n < 0:
        raise ValueError("dimension n must be >= 0")
    if k == 1:
        return min(n, 1)
    if n == 0:
        return 0
    if paper_compat and k == 2 and n % 2 == 1:
        return n - 1
    return n


def normalize_e(e: int, k: int, kind: str) -> int:
    """Smallest e' with Sub_e' = Sub_e.

    For k = 1, of either kind, a nonzero vector encloses only its own
    line, so Sub_e is all of P^(n-1) for every e >= 1 and e collapses
    to 1.  Skew: for k = 2 round down to even (skew matrix ranks are
    even); for k >= 3 the only coincidence is e = k+1, which collapses
    to k (a k-vector enclosed in k+1 dimensions is already
    decomposable).  Symmetric tensors of degree k >= 2 attain every
    enclosing dimension down to 1 (k-th powers of vectors), so e is
    returned unchanged.
    """
    check_kind(kind)
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

    k = 2 uses the determinantal rank-stratification dimensions
    (C(n,2) - C(n-e',2) - 1 skew, C(n+1,2) - C(n-e'+1,2) - 1 symmetric);
    k = 1 and k >= 3 use the Grassmannian-bundle count
    e'(n-e') + C(e',k) - 1 (skew) and e'(n-e') + C(e'+k-1,k) - 1
    (symmetric), with e' the normalized enclosing bound.
    """
    check_kind(kind)
    if k < 1:
        raise ValueError("degree k must be >= 1")
    floor = 1 if kind == SYM else k
    if not floor <= e <= n:
        raise ValueError(f"need {floor} <= e <= n, got k={k}, e={e}, n={n}")
    return _sub_dim(e, k, n, kind)


def _sub_dim(e: int, k: int, n: int, kind: str) -> int:
    """sub_dim on arguments the caller has checked (the atlas's fibers)."""
    e_norm = _normalize_e(e, k, kind)
    if k == 2:
        if kind == SKEW:
            return math.comb(n, 2) - math.comb(n - e_norm, 2) - 1
        return math.comb(n + 1, 2) - math.comb(n - e_norm + 1, 2) - 1
    if kind == SKEW:
        return e_norm * (n - e_norm) + math.comb(e_norm, k) - 1
    return e_norm * (n - e_norm) + math.comb(e_norm + k - 1, k) - 1


def sec_dim_printed(s: int, n: int, kind: str) -> int:
    """Closed-form secant-variety dimensions kept for comparison only.

    These are the published expressions for the s-secant variety of the
    Grassmannian G(2, n) (skew) and of the quadratic Veronese (sym).
    They disagree with sub_dim in known cases (for example they give 5
    for rank <= 4 skew forms on QQ^5, which actually fill P^9), so they
    are not used by any computation; sub_dim is certified against the
    tangent oracle instead.
    """
    check_kind(kind)
    if s < 1:
        raise ValueError("secant index s must be >= 1")
    if kind == SKEW:
        return min(math.comb(n, 2) - 1, 2 * (n - 2) * s + s - 1) - 2 * s * (s - 1)
    return min(math.comb(n + 1, 2) - 1, math.comb(s + 1, 2) + s * (n - s) - 1)


# ---------------------------------------------------------------------------
# tangent-space oracle


def _skew_jacobian_columns(a_cols, w: dict, n: int, k: int, varied=None):
    """Columns of the differential of (A, w) -> (wedge^k A)(w), on integers.

    Each column is a sparse {row: nonzero int} map, its rows indexed by
    the k-subsets of range(n) in combinations order.  The coordinate of
    (wedge^k A)(e_I) on J is the minor of A on rows J and columns I.
    Along an entry A[i][j] the factor A e_j of each term is replaced by
    e_i, so the column is e_i ^ psi_j with psi_j the image under
    wedge^(k-1) A of the interior derivative of w along e_j; for a fixed
    i distinct M give distinct M + {i}, so each entry comes from one term
    of psi_j.  The tensor-direction columns come first, then the entries
    A[i][j] for each j and each row i in varied (all n rows by default).
    """
    e = len(a_cols)
    varied = range(n) if varied is None else varied
    minors = _minors(a_cols, k)
    rows = {J: r for r, J in enumerate(itertools.combinations(range(n), k))}
    cols = [{rows[J]: v for J, v in minors[I].items()} for I in itertools.combinations(range(e), k)]
    for j in range(e):
        psi = {}
        for I, c in w.items():
            if j in I:
                q = I.index(j)
                for M, d in minors[I[:q] + I[q + 1 :]].items():
                    psi[M] = psi.get(M, 0) + (-c if q % 2 else c) * d
        psi = [(M, v) for M, v in psi.items() if v]
        for i in varied:
            col = {}
            for M, v in psi:
                p = bisect.bisect_left(M, i)  # moving e_i past p smaller indices
                if M[p : p + 1] != (i,):  # i not in M
                    col[rows[M[:p] + (i,) + M[p:]]] = -v if p % 2 else v
            cols.append(col)
    return cols


def _sym_jacobian_columns(a_cols, w: dict, n: int, k: int, varied=None):
    """Columns of the differential of (A, w) -> (S^k A)(w), on integers.

    Each column is a sparse {row: nonzero int} map, its rows indexed by
    the exponent vectors of degree k on n variables in exponent_vectors
    order.  The map substitutes source variable j by the linear form
    given by column j of A; its derivative along an entry A[i][j] is the
    partial derivative of w along j, substituted, times the i-th basis
    vector, and multiplying by x_i sends distinct monomials to distinct
    monomials.  Column order and varied are as in _skew_jacobian_columns.
    """
    e = len(a_cols)
    varied = range(n) if varied is None else varied
    substituted = _substitution(a_cols, n)
    target_pos = {a: r for r, a in enumerate(exponent_vectors(n, k))}
    cols = [{target_pos[key]: v for key, v in substituted(alpha).items()} for alpha in exponent_vectors(e, k)]
    for j in range(e):
        # substituted partial derivative along source variable j
        dpoly = {}
        for alpha, c in w.items():
            a = alpha[j]
            if a:
                for key, v in substituted(alpha[:j] + (a - 1,) + alpha[j + 1 :]).items():
                    dpoly[key] = dpoly.get(key, 0) + a * c * v
        dpoly = [(key, v) for key, v in dpoly.items() if v]
        for i in varied:
            cols.append({target_pos[key[:i] + (key[i] + 1,) + key[i + 1 :]]: v for key, v in dpoly})
    return cols


def sub_dim_tangent(e: int, k: int, n: int, kind: str, seed=0, max_retries: int = 8) -> int:
    """Dimension of Sub_e measured at a random point, independent of sub_dim.

    Evaluates the Jacobian of the parametrization (A, w) -> (power of A
    applied to w) at A = [I_e ; 0], with w a random integer degree-k
    tensor on QQ^e, and returns its exact rank minus 1 (the
    projectivization).  The map is GL_n-equivariant, so the rank at any
    injective A equals the rank at [I_e ; 0] and depends on w alone.
    Only the rows of A below the identity block are varied, since the
    top rows give GL_e-orbit directions: e(n-e) + dim(power of QQ^e)
    columns, the generic rank in every cell whose e is normalized.  The
    rank is certified mod a prime, with an exact fallback
    (linalg._certified_rank).  A w whose enclosing dimension is below
    the maximum on QQ^e lies in a smaller Sub_e; it is redrawn a bounded
    number of times.
    """
    check_kind(kind)
    if k < 1:
        raise ValueError("degree k must be >= 1")
    floor = 1 if kind == SYM else k
    if not floor <= e <= n:
        raise ValueError(f"need {floor} <= e <= n, got k={k}, e={e}, n={n}")
    full = e_max(k, e) if kind == SKEW else e_max_sym(k, e)
    rng = random.Random(f"subdim-tangent:{kind}:{k}:{e}:{n}:{seed}")
    a_cols = [tuple(int(i == j) for i in range(n)) for j in range(e)]
    build = _skew_jacobian_columns if kind == SKEW else _sym_jacobian_columns
    for _ in range(max_retries):
        omega = random_tensor(e, k, kind, rng)
        if enc(omega) < full:
            continue
        return _certified_rank(build(a_cols, omega.coeffs, n, k, range(e, n))) - 1
    raise RuntimeError(f"no nondegenerate sample after {max_retries} retries")
