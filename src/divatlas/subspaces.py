"""Subspace varieties: maximal enclosing dimensions and dimension formulas.

Sub_e denotes the projective locus of degree-k tensors whose enclosing
dimension is at most e.  For skew tensors some of these loci coincide
(a skew 2-tensor has even rank, and a k-vector can never have enclosing
dimension exactly k+1), which is what normalize_e collapses.

Every dimension comes from one Grassmannian-bundle count, for every k:
e(n-e) + dim(k-th power of QQ^e) - 1, with e normalized.  For k = 2 the
loci are the classical rank strata of (skew-)symmetric matrices, and
the count equals their determinantal dimensions identically (see
sub_dim).  A tangent-space oracle, sub_dim_tangent, measures each
dimension as the exact rank of the Jacobian of that parametrization at
a random integer point, and the two are required to agree in the test
suites.

The parametrization is GL_n-equivariant and every injective A lies in
the GL_n-orbit of A = [I_e ; 0], so the rank is taken there and only
the rows of A below the identity block are varied: the top rows give
GL_e-orbit directions, which add nothing to the image of the
differential.  At this chart point the Jacobian is block diagonal, up
to a row permutation: U = dim(power of QQ^e) unit columns on the tensor
directions, then for each varied row i >= e one copy of a single F x e
block D, placed on the faces of degree k-1 on QQ^e times e_i.  Column j
of D is the derivative of w along e_j (the interior derivative for skew
tensors, the partial derivative for symmetric ones), each entry from one
term of w, so D is w's contraction matrix transposed, up to one global
sign, and rank D = enc(w).  The chart's rank is therefore
U + (n-e) rank D, and the oracle ranks D alone.

The entries of D (which term of w lands on which face, and with which
sign or multiplicity) depend on the shape (kind, e, k) alone, so
_chart_pattern keeps one chart per shape: its faces in D's row order,
the position of each basis key, and the entries of each face, each
naming its term of w by the term's index in the basis.  A face's
entries are worked out from the face alone (_face_entries) when a
sample first reads its row, and kept, so a shape pays only for the
faces that its samples read: e of them on a generic w.  A sample draws
w as the plain list of its coefficients in basis order, uniform on
[-9, 9] like tensors.random_tensor's, from the BLAKE2b digests of the
cell, the seed and the attempt (_draw_w): one digest gives up to 64
coefficients for less than seeding a Mersenne Twister per sample would
cost.  It only reads them into the chart's entries, one row when it is
asked for (_d_rows).

Each sample ranks D exactly by its rows, in every cell
(linalg._certified_rank: a rank-counting pass mod linalg.RANK_PRIME that
stops at the row that brings the rank to e, with an exact fallback only
when the rank mod p falls short of both e and the rows read).  No row
after that one is made: on a generic w, 7 of the 28 rows for sym k = 3,
e = 7, and 7 of the 35 for skew k = 4, e = 7.  Where the maximal
enclosing dimension on QQ^e is below e (skew k = 2 at odd e, e = k + 1,
and k = 1 at e > 1), the pass reads every row and falls short of e, so
the exact fallback gives the rank unless the pass's count is the number
of rows (k = 1, whose D is one row).  A w with rank D below that
maximum is degenerate and is redrawn.  So the oracle checks that the
maximum (_e_bound) is attained at a random w and that normalize_e is
right; it does not recompute enc's kernel, and it reads no contraction
column.  A lower bound on the rank at a general A,
which would not rest on the block lemma, is what would make it
independent of the formula it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array

try:
    # the builtin module that hashlib wraps; hashlib also loads OpenSSL
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# rank is not called here; perfbench's tracer tests expect to find it bound in this module
from .linalg import _certified_rank, _check_ints, rank  # noqa: F401
from .tensors import SKEW, SYM, _power_dim, check_kind


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


class _Chart:
    """The chart of one shape (kind, e, k), as _chart_pattern makes it."""

    __slots__ = ("kind", "e", "k", "units", "faces", "index", "entries")

    def __init__(self, kind: str, e: int, k: int, units: int, faces: tuple, index: dict, entries: list):
        self.kind, self.e, self.k, self.units = kind, e, k, units
        self.faces, self.index, self.entries = faces, index, entries


@functools.cache
def _chart_pattern(kind: str, e: int, k: int) -> _Chart:
    """The chart of sub_dim_tangent on QQ^e, its face entries made lazily.

    units is the number U of tensor directions, the basis of the k-th
    power of QQ^e; faces lists the faces of degree k - 1 on QQ^e in D's
    row order; index maps each basis key to its position in the basis;
    entries holds one slot per face, None until some sample first reads
    the face's row and _face_entries fills it.  A key or face is a sorted
    tuple of indices in range(e): a k-subset for skew, with
    itertools.combinations giving the order of tensors.k_subsets, and a
    multiset for sym, the exponent vector alpha holding alpha_j copies
    of j, with itertools.combinations_with_replacement giving the order
    of tensors.exponent_vectors.  The faces are taken from both ends of
    that order in turn (first, last, second, second to last, ...): the
    first skew faces in that order share their low indices, so their
    rows span few directions, while the two ends cover all of them; a
    generic skew sample with k = 4, e = 8 reaches rank e after 8 rows,
    not 22.  The rank of D does not depend on the order of its rows.

    Every sample reads D's rows in that order and stops where its rank
    is certified, after e rows on a generic w: the first sample of a
    shape makes the entries of the faces it reads, a later one only
    those of the faces that no earlier one reached.  A slot is only ever
    filled with its own face's entries, so two streams of rows, or two
    threads, that make one face at once write equal tuples.  Nothing
    makes the entries of every face at once, and none of tensors' face
    code is read.

    The chart depends on neither w nor n, and functools.cache keeps it
    for the process, as tensors._EXPONENT_VECTORS is kept; every entry
    handed out is a tuple of int triples, so no caller can change one.
    perfbench and tools/ab.py import the package afresh before each
    round, so there a chart lives one round."""
    combos = itertools.combinations if kind == SKEW else itertools.combinations_with_replacement
    faces = list(combos(range(e), k - 1))
    ends = itertools.islice(itertools.chain.from_iterable(zip(faces, reversed(faces))), len(faces))
    index = dict(zip(combos(range(e), k), itertools.count()))
    return _Chart(kind, e, k, len(index), tuple(ends), index, [None] * len(faces))


def _face_entries(chart: _Chart, f: int) -> tuple:
    """The entries of chart.faces[f], kept in the slot chart.entries[f]:
    one (basis index i, direction j, factor) for each term of w on the
    face, in increasing j.

    At A = [I_e ; 0], the column along an entry A[i][j], i >= e, is e_i
    times the derivative of w along e_j.  Skew: for each j not in the
    face M, the term c e_I, I = M with j inserted at position q, gives
    (-1)^q c e_M, and moving e_i past the k - 1 indices of M, all below
    it, gives (-1)^(q+k-1) c on M + (i,).  Sym: for each j, the term
    c x^alpha, alpha = beta + e_j, gives alpha_j c = (beta_j + 1) c on
    the face beta, times x_i.  Each entry of D, a face and a direction,
    comes from one term of w.  For both kinds the term's key is the
    face with j inserted at position q, the number of the face's indices
    below j: key holds the face with a slot at q, and c - q counts the
    face's copies of j, which is beta_j for sym, and for skew is 1
    exactly when j is in M, which then has no entry along j."""
    face, index, k = chart.faces[f], chart.index, chart.k
    made, key, q = [], [0, *face], 0
    for j in range(chart.e):
        key[q], c = j, q
        while c < k - 1 and face[c] == j:
            c += 1
        if chart.kind == SYM:
            made.append((index[tuple(key)], j, c - q + 1))
        elif c == q:
            made.append((index[tuple(key)], j, (-1) ** (q + k - 1)))
        q = c
    chart.entries[f] = made = tuple(made)
    return made


def _d_rows(w: list, chart: _Chart):
    """The rows of the block D for w, the list of its coefficients in the
    basis order of the k-th power of QQ^e, zeros included, one for each
    face of the chart, in order: row f is a list of e ints, its entry j
    the coefficient of the term of w on face f and direction j times its
    factor, 0 where the face has no term along j.  Each row is made when
    it is asked for, and a face's entries when its row is first asked
    for by any sample."""
    e = chart.e
    for f, made in enumerate(chart.entries):
        row = [0] * e
        for i, j, m in made or _face_entries(chart, f):
            row[j] = m * w[i]
        yield row


# sub_dim_tangent's draws: a digest byte b < 247 = 13 * 19 becomes b % 19 - 9
# (as a signed byte), uniform on [-9, 9], and the bytes 247..255 are dropped
_DRAW_TABLE = bytes((b % 19 - 9) % 256 for b in range(256))
_DRAW_DROPPED = bytes(range(247, 256))


def _draw_w(cell: str, attempt: int, count: int) -> list:
    """count ints uniform on [-9, 9], the coefficients of sub_dim_tangent's
    w at one attempt: the bytes of the BLAKE2b digests of
    f"{cell}:{attempt}:{block}" for block 0, 1, ..., in order, each byte
    below 247 read as b % 19 - 9 and the others dropped.  The mapping
    runs in C (bytes.translate into a signed array), and a shorter draw
    is a prefix of a longer one."""
    data = b""
    block = 0
    while len(data) < count:
        data += blake2b(f"{cell}:{attempt}:{block}".encode()).digest().translate(_DRAW_TABLE, _DRAW_DROPPED)
        block += 1
    return array("b", data[:count]).tolist()


# redraws of w in sub_dim_tangent before it gives up
MAX_RETRIES = 8


def sub_dim_tangent(e: int, k: int, n: int, kind: str, seed=0) -> int:
    """Dimension of Sub_e measured at a random point.

    Takes the Jacobian of the parametrization (A, w) -> (power of A
    applied to w) at A = [I_e ; 0], with w a random integer degree-k
    tensor on QQ^e, and returns its exact rank minus 1 (the
    projectivization).  The map is GL_n-equivariant, so the rank at any
    injective A equals the rank at [I_e ; 0] and depends on w alone.
    Only the rows of A below the identity block are varied, since the
    top rows give GL_e-orbit directions.

    Block lemma: at this chart the Jacobian is, up to a row permutation,
    the U x U identity on the U = dim(power of QQ^e) tensor directions,
    then n - e copies of one F x e block D, F the number of faces of
    degree k - 1 on QQ^e.  The column along A[i][j], i >= e, is e_i
    times the derivative of w along e_j, so it lies on the rows of the
    faces times e_i, which are disjoint for distinct i and from the
    tensor directions, and its entries there are column j of D, the same
    for every i.  So the rank is U + (n - e) rank D.  The derivative is
    linear in the direction, and the covectors y on QQ^e along which it
    vanishes (i_y w = 0 skew, d_y w = 0 sym) are those that vanish on
    w's enclosing space, so D's kernel has dimension e - enc(w) and
    rank D = enc(w).  D is w's
    contraction matrix transposed, up to one global sign, built row by
    row from w's coefficients on the cached chart of the shape (_d_rows
    on _chart_pattern, whose face entries _face_entries makes as the
    rows are first read), so no contraction column and no enc is run.

    A w whose enclosing dimension is below the maximum on QQ^e
    (_e_bound) lies in a smaller Sub_e, so it must not be measured.
    Attempt a draws w as the list of its U coefficients in basis order,
    uniform on [-9, 9], zeros included, from the BLAKE2b digests of
    f"subdim-tangent:{kind}:{k}:{e}:{n}:{seed}:{a}" and its blocks
    (_draw_w), and takes the exact rank of D by linalg._certified_rank on
    D's rows: a pass mod a prime that stops at rank e, with an exact
    fallback only when it falls short of both e and the row count, which
    it always does where the maximum is below e (skew k = 2 at odd e and
    e = k + 1; not k = 1 at e > 1, whose D is one row).  A rank below
    the maximum is redrawn, and otherwise U + (n - e) rank D - 1 is
    returned.  So the oracle checks that the maximum is attained at a
    random w and that normalize_e is right, and the draw decides only
    how many attempts that takes.  For n = e it returns U - 1 before any
    draw, since nothing is varied; after MAX_RETRIES degenerate draws a
    RuntimeError is raised, so that is reachable only for n > e.  e, k
    and n must be ints (not bools).
    """
    _check_cell(e, k, n, kind)
    if n == e:
        return _power_dim(e, k, kind) - 1
    cell = f"subdim-tangent:{kind}:{k}:{e}:{n}:{seed}"
    chart = _chart_pattern(kind, e, k)
    units, full = chart.units, _e_bound(k, e, kind)
    for attempt in range(MAX_RETRIES):
        rank_d = _certified_rank(_d_rows(_draw_w(cell, attempt, units), chart), e)
        if rank_d == full:
            return units + (n - e) * rank_d - 1
    raise RuntimeError(f"no nondegenerate sample after {MAX_RETRIES} retries")
