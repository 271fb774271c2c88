"""Seeded cross-module verification suites.

Each check returns (ok, detail) and is deterministic in its seed, so a
verification run prints byte-identical output when repeated.  The
checks are grouped into named suites consumed by the command line and
reused directly by the test suite: oracle agreements (Bareiss rank
against plain elimination, closed-form subspace dimensions against the
tangent-space rank), genericity attainment of the maximal enclosing
dimensions, and the worked numerical examples pinned throughout the
package.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

from . import atlas, brill_noether as bn
from .linalg import RationalMatrix, gauss_rank, image_basis, random_matrix, rank
from .subspaces import _e_bound, e_max, normalize_e, sub_dim, sub_dim_tangent
from .tensors import (
    SKEW,
    SYM,
    SubspaceBasis,
    enc,
    enclosing_space,
    is_in_power_of,
    random_decomposable,
    random_tensor,
    random_vector,
)


def _rank_mismatch(M: RationalMatrix, b: int) -> str | None:
    """What the rank kernel, which gave rank b, gets wrong on M against the
    elimination oracle, if anything."""
    if b != gauss_rank(M):
        return "bareiss/gauss mismatch"
    if b != rank(M.transpose()):
        return "rank(M) != rank(M^T)"
    basis = image_basis(M)
    if len(basis) != b:
        return "image basis of the wrong size"
    # a basis of every column is independent by the first check
    if b < M.cols and gauss_rank(RationalMatrix.from_columns(basis, M.rows)) != b:
        return "dependent image basis"
    return None


def check_rank_oracle(seed: int = 0, count: int = 100) -> tuple:
    """Bareiss rank equals naive rational elimination rank; rank(M) = rank(M^T);
    the image basis is independent.

    Uniform random matrices are almost always of full rank, so after
    every other one the check also draws a product of r x s and s x c
    factors with s < min(r, c), whose rank is at most s.
    """
    rng = random.Random(f"rank-oracle:{seed}")
    deficient = 0
    for i in range(count):
        r = rng.randint(1, 12)
        c = rng.randint(1, 12)
        M = random_matrix(r, c, rng)
        error = _rank_mismatch(M, rank(M))
        if error:
            return False, f"{error} on matrix {i} ({r}x{c})"
        if i % 2 or min(r, c) < 2:
            continue
        s = rng.randint(1, min(r, c) - 1)
        L, R = random_matrix(r, s, rng), random_matrix(s, c, rng)
        R_cols = R.columns()
        P = RationalMatrix([[sum(map(operator.mul, L.row(a), col)) for col in R_cols] for a in range(r)])
        b = rank(P)
        error = _rank_mismatch(P, b) or (b > s and "rank above the inner dimension")
        if error:
            return False, f"{error} on the product {i} ({r}x{s} times {s}x{c})"
        deficient += b < min(r, c)
    return True, (
        f"{count} random matrices up to 12x12 and {deficient} rank-deficient products "
        "agree with the elimination oracle"
    )


# (kind, k, n); the bound of a cell is e_max for skew and e_max_sym for sym
ENC_GRID = (
    (SKEW, 2, 4),
    (SKEW, 2, 5),
    (SKEW, 2, 6),
    (SKEW, 3, 4),
    (SKEW, 3, 5),
    (SKEW, 3, 6),
    (SKEW, 4, 5),
    (SYM, 2, 3),
    (SYM, 2, 4),
    (SYM, 3, 4),
    (SYM, 4, 4),
)


def _random_hyperplane(basis: SubspaceBasis, rng: random.Random) -> SubspaceBasis:
    """A random codimension-1 subspace of the span of the given basis."""
    m = basis.dim
    n = basis.ambient_dim
    coords = list(zip(*basis.vectors))  # coords[i]: the i-th entries of the vectors
    for _ in range(32):
        combos = []
        for _ in range(m - 1):
            coeffs = [rng.randint(-9, 9) for _ in range(m)]
            combos.append(tuple(sum(map(operator.mul, coeffs, coord)) for coord in coords))
        try:
            return SubspaceBasis(n, tuple(combos))
        except ValueError:
            continue
    raise RuntimeError("failed to sample a hyperplane")


def check_enc_oracle(seed: int = 0, samples: int = 100, hyperplanes: int = 3) -> tuple:
    """Genericity and self-consistency of the enclosing dimension.

    Over the (kind, k, n) grid: decomposables (wedges, k-th powers) have
    enc = k (skew) or 1 (sym), the maximum observed enc over random
    tensors equals the closed-form bound (e_max with both parity drops,
    or e_max_sym), every sample lies in the power of its own enclosing
    space, and no sampled codimension-1 subspace of that space contains
    it.  A symmetric cell takes a quarter of the samples: its bound is
    attained by almost every sample.
    """
    for kind, k, n in ENC_GRID:
        where = f"(k,n)=({k},{n})" if kind == SKEW else f"sym (k,n)=({k},{n})"
        tag = f"{seed}:{k}:{n}" if kind == SKEW else f"sym:{seed}:{k}:{n}"
        rank_one = k if kind == SKEW else 1
        bound = _e_bound(k, n, kind)
        count = samples if kind == SKEW else max(1, samples // 4)
        observed = 0
        for s in range(count):
            d = random_decomposable(n, k, kind, f"enc-dec:{tag}:{s}")
            if enc(d) != rank_one:
                return False, f"decomposable with enc != {rank_one} at {where} seed {s}"
            t = random_tensor(n, k, kind, f"enc-rand:{tag}:{s}")
            m = enc(t)
            observed = max(observed, m)
            space = enclosing_space(t)
            if len(space.vectors) != m:
                return False, f"enclosing basis size != enc at {where} seed {s}"
            if not is_in_power_of(t, space):
                return False, f"self-enclosure failed at {where} seed {s}"
            if m >= 1:
                rng = random.Random(f"enc-hyp:{tag}:{s}")
                for _ in range(hyperplanes):
                    hyp = _random_hyperplane(space, rng)
                    if is_in_power_of(t, hyp):
                        return False, f"minimality failed at {where} seed {s}"
        if observed != bound:
            name = "e_max" if kind == SKEW else "e_max_sym"
            return False, f"max enc {observed} != {name}({k},{n}) = {bound} over {count} samples"
    skew = sum(kind == SKEW for kind, _, _ in ENC_GRID)
    return (
        True,
        f"{skew} skew (k,n) cells x {samples} samples and {len(ENC_GRID) - skew} sym cells x "
        f"{max(1, samples // 4)}: bounds attained, enclosure exact",
    )


# (kind, degrees); n runs from k to n_max
TANGENT_GRID = ((SKEW, (2, 3, 4, 5)), (SYM, (2, 3, 4)))


def check_subdim_tangent_grid(seed: int = 0, seeds_per_cell: int = 3, n_max: int = 9) -> tuple:
    """Tangent-space dimension oracle agrees with the closed-form dimensions.

    Skew k = 2..5 with e from k and symmetric k = 2..4 with e from 1, for
    k <= n <= n_max (582 evaluations at the defaults).
    """
    checked = 0
    for kind, ks in TANGENT_GRID:
        for k in ks:
            for n in range(k, n_max + 1):
                for e in range(1 if kind == SYM else k, n + 1):
                    if normalize_e(e, k, kind) != e:
                        continue
                    expected = sub_dim(e, k, n, kind)
                    for s in range(seeds_per_cell):
                        got = sub_dim_tangent(e, k, n, kind, seed=seed + s)
                        if got != expected:
                            return (
                                False,
                                f"tangent {got} != closed form {expected} at "
                                f"(e,k,n,kind)=({e},{k},{n},{kind}) seed {seed + s}",
                            )
                        checked += 1
    return True, f"{checked} tangent-rank evaluations agree with the closed forms"


def check_bn_grid(seed: int = 0) -> tuple:
    """Square-root bracketing, stratum counts and monotonicity of rho."""
    for g in range(2, 41):
        for d in range(1, 3 * g + 1):
            R = bn.big_R(g, d)
            if bn.rho(g, R, d) < 0 or bn.rho(g, R + 1, d) >= 0:
                return False, f"big_R bracketing failed at g={g}, d={d}"
            ach = bn.achieved_r(g, d)
            if len(ach) != R - bn.small_r(g, d) + 1:
                return False, f"stratum count mismatch at g={g}, d={d}"
            prev = None
            for r in range(max(0, d - g), R + 3):
                cur = bn.rho(g, r, d)
                if prev is not None and cur >= prev:
                    return False, f"rho not strictly decreasing at g={g}, d={d}, r={r}"
                prev = cur
            # for d >= g the generic bundle is effective and the loci up to
            # small_r fill the whole Picard torus; below that W^0_d has
            # dimension d and the statement is empty
            if d >= g:
                for r in range(0, bn.small_r(g, d) + 1):
                    if bn.w_dim(g, r, d) != g:
                        return False, f"w_dim != g below small_r at g={g}, d={d}, r={r}"
    return True, "grid g <= 40, d <= 3g: bracketing, counts and monotonicity hold"


def _rectangle_tableaux(rows: int, cols: int) -> int:
    """Standard Young tableaux on a rows x cols rectangle, by the hook-length formula."""
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - i) + (cols - j) - 1
    return math.factorial(rows * cols) // hooks


def check_lambda_constants(seed: int = 0) -> tuple:
    """Degree constants: the canonical case gives exactly one point, and
    every finite top stratum has as many points by three routes."""
    for g in range(2, 11):
        if math.factorial(g) * bn.lambda_grd(g, g - 1, 2 * g - 2) != 1:
            return False, f"g! * lambda != 1 at g={g}"
    # classical count of degree-3 pencils on a genus-4 curve, against a
    # direct evaluation of the product formula
    direct = Fraction(1)
    for i in range(2):
        direct *= Fraction(math.factorial(i), math.factorial(4 - 3 + 1 + i))
    if bn.w_top_points(4, 3) != math.factorial(4) * direct:
        return False, "w_top_points(4, 3) disagrees with the direct product"
    if bn.w_top_points(4, 3) != 2:
        return False, f"w_top_points(4, 3) = {bn.w_top_points(4, 3)}, expected 2"
    # a zero-dimensional W^R_d has as many points as there are standard
    # tableaux on the (R+1) x (g-d+R) rectangle (Griffiths-Harris)
    cells = 0
    for g in range(2, 61):
        for d in range(1, 2 * g + 1):
            R = bn.big_R(g, d)
            if bn.rho(g, R, d) != 0:
                continue
            if (R + 1) * (g - d + R) != g:
                return False, f"(R+1)(g-d+R) != g at g={g}, d={d}"
            points = bn.w_top_points(g, d)
            if points != math.factorial(g) * bn.lambda_grd(g, R, d):
                return False, f"w_top_points != g! * lambda at g={g}, d={d}"
            if points != _rectangle_tableaux(R + 1, g - d + R):
                return False, f"w_top_points != hook-length count at g={g}, d={d}"
            cells += 1
    return True, (
        "g! * lambda = 1 for g = 2..10; two degree-3 pencils on genus 4; "
        f"w_top_points = g! * lambda = hook-length count on {cells} rho = 0 cells, g <= 60"
    )


def check_g37_w_dims(seed: int = 0) -> tuple:
    """Stratum dimensions of the degree-36 loci at genus 37."""
    expected = [36, 33, 28, 21, 12, 1]
    got = [bn.w_dim(37, r, 36) for r in range(6)]
    if got != expected:
        return False, f"w_dim(37, r, 36) = {got}, expected {expected}"
    if bn.w_dim(37, 6, 36) is not None:
        return False, "w_dim(37, 6, 36) should be nonexistent"
    return True, "w_dim(37, r, 36) = 36, 33, 28, 21, 12, 1 and empty at r = 6"


def check_g37_atlas_k2(seed: int = 0) -> tuple:
    comps = atlas.components(37, 36, 2, SKEW)
    shape = [(c.r, c.e, c.total_dim) for c in comps]
    if shape != [(1, 2, 33), (3, 4, 26), (5, 6, 15)]:
        return False, f"genus-37 k=2 atlas is {shape}"
    return True, "genus-37 k=2: components (1,2), (3,4), (5,6) with dims 33, 26, 15"


def check_g37_atlas_k3(seed: int = 0) -> tuple:
    comps = atlas.components(37, 36, 3, SKEW)
    shape = [(c.r, c.e, c.total_dim) for c in comps]
    if shape != [(2, 3, 28), (4, 5, 21), (5, 6, 20)]:
        return False, f"genus-37 k=3 atlas is {shape}"
    return True, "genus-37 k=3: components (2,3), (4,5), (5,6) with dims 28, 21, 20"


def check_subdim_pins(seed: int = 0) -> tuple:
    """Pinned subspace-variety dimensions from the worked examples."""
    pins = [
        ((5, 3, 6, SKEW), 14),
        ((3, 3, 6, SKEW), 9),
        ((6, 3, 6, SKEW), 19),
        ((2, 2, 4, SKEW), 4),
    ]
    for args, expected in pins:
        if sub_dim(*args) != expected:
            return False, f"sub_dim{args} = {sub_dim(*args)}, expected {expected}"
    return True, "sub_dim pins 14, 9, 19, 4 reproduced"


def check_canonical_parity(seed: int = 0) -> tuple:
    """Canonical divisor variety of C_2: one component for odd genus, two
    for even genus, meeting along the expected subspace variety."""
    for g in range(3, 13):
        comps = atlas.components(g, 2 * g - 2, 2, SKEW)
        want = 1 if g % 2 == 1 else 2
        if len(comps) != want or sum(c.multiplicity for c in comps) != want:
            return False, f"genus {g} canonical square has {len(comps)} components"
        if g % 2 == 0:
            inter = atlas.intersections(g, 2 * g - 2, 2, SKEW)
            if len(inter) != 1:
                return False, f"genus {g}: expected a single intersection record"
            x = inter[0]
            ok = (
                x.image_r == g - 1
                and x.fiber_e == g - 2
                and x.fiber_ambient == g
                and x.total_dim == math.comb(g, 2) - 2
            )
            if not ok:
                return False, f"genus {g}: intersection record off"
    return True, "genus 3..12: canonical parity and intersection loci as expected"


def check_exorbitance(seed: int = 0) -> tuple:
    """Sign of the canonical gap and nonvanishing of the intersection codim.

    The codim itself is checked against the tangent-space oracle: dim |K|
    minus the codim must be the measured dimension of Sub_(g-1).
    """
    for g in range(3, 31):
        if atlas.canonical_analysis(g, 2)["gap"] >= 0:
            return False, f"gap(g={g}, k=2) should be negative"
    for g in range(6, 31):
        for k in range(3, g - 1):
            report = atlas.canonical_analysis(g, k)
            if report["gap"] <= 0:
                return False, f"gap(g={g}, k={k}) should be positive"
            if report["locus_codim"] == 0:
                return False, f"locus codim vanishes at g={g}, k={k}"
    for g in range(3, 12):
        for k in range(2, g):
            report = atlas.canonical_analysis(g, k)
            measured = sub_dim_tangent(g - 1, k, g, SKEW, seed)
            if report["canonical_dim"] - report["locus_codim"] != measured:
                return False, f"locus codim at g={g}, k={k} disagrees with tangent dim {measured}"
    return True, (
        "gap < 0 for k = 2 and > 0 for 3 <= k <= g-2, g = 6..30; "
        "locus codim matches the tangent oracle for g = 3..11"
    )


def check_resolution_flags(seed: int = 0) -> tuple:
    """The degree g-1 skew component with e = r+1 = k resolves W^(k-1)."""
    for g in range(4, 21):
        for k in range(2, 5):
            comps = atlas.components(g, g - 1, k, SKEW)
            flagged = [c for c in comps if c.is_resolution]
            expected = [c for c in comps if c.e == k and c.r == k - 1]
            if flagged != expected:
                return False, f"resolution flag mismatch at g={g}, k={k}"
            for c in flagged:
                if c.fiber_dim != 0 or c.total_dim != bn.w_dim(g, k - 1, g - 1):
                    return False, f"flagged component not birational at g={g}, k={k}"
    return True, "resolution components are exactly the e = r+1 = k strata at d = g-1"


def check_atlas_coherence(seed: int = 0) -> tuple:
    """Structural invariants of the enumeration on a broad grid.

    Components are strictly increasing in r and e with nested supports;
    absorbed strata never reappear; every intersection is a proper
    subvariety of both parents.
    """
    for g in range(2, 41):
        for d in range(1, 2 * g + 1):
            for k in (2, 3, 4):
                for kind in (SKEW, SYM):
                    comps = atlas.components(g, d, k, kind)
                    for a, b in zip(comps, comps[1:]):
                        if not (a.r < b.r and a.e < b.e):
                            return False, f"non-monotone strata at g={g}, d={d}, k={k}, {kind}"
                        # supports strictly shrink once the caps min(g, rho) are inactive
                        if bn.rho(g, b.r, d) > 0 and bn.rho(g, a.r, d) <= g:
                            if not a.support_dim > b.support_dim:
                                return False, f"supports not nested at g={g}, d={d}, k={k}, {kind}"
                    strata = {c.r: c.e for c in comps}
                    prev_e = 0
                    for r in bn.achieved_r(g, d):
                        if atlas.fiber_dim(r, k, kind) < 0:
                            continue
                        e = _e_bound(k, r + 1, kind)
                        if e <= prev_e and r in strata:
                            return False, f"absorbed stratum emitted at g={g}, d={d}, k={k}, {kind}"
                        prev_e = max(prev_e, e)
                    for x in atlas.intersections(g, d, k, kind):
                        full_system = atlas.fiber_dim(x.deep.r, k, kind)
                        if not x.fiber_dim < full_system:
                            return False, f"intersection fiber not proper at g={g}, d={d}, k={k}, {kind}"
                        if not x.total_dim < min(x.shallow.total_dim, x.deep.total_dim):
                            return False, f"intersection not proper at g={g}, d={d}, k={k}, {kind}"
    return True, "grid g <= 40, d <= 2g, k <= 4: monotone strata, proper intersections"


def check_count_reconciliation(seed: int = 0) -> tuple:
    """Enumerated counts match the closed form or carry an explicit note."""
    for g in range(2, 21):
        for d in range(1, 2 * g + 1):
            for k in (2, 3):
                report = atlas.atlas_report(g, d, k, SKEW)
                counts = report["counts"]
                noted = any(note.startswith("component count") for note in report["notes"])
                if not counts["agrees"] and not noted:
                    return False, f"silent count disagreement at g={g}, d={d}, k={k}"
                if counts["agrees"] and noted:
                    return False, f"spurious count note at g={g}, d={d}, k={k}"
    report = atlas.atlas_report(37, 36, 2, SKEW)
    if report["counts"]["enumerated"] != 3:
        return False, "genus-37 k=2 enumeration is not 3"
    if not report["counts"]["agrees"] and not any(
        note.startswith("component count") for note in report["notes"]
    ):
        return False, "genus-37 k=2 disagreement is not noted"
    return True, "grid g <= 20 plus genus 37: every disagreement carries a note"


DEFORM_GRID = ((2, 4), (2, 5), (3, 5), (3, 6))


def check_deformability(seed: int = 0, samples: int = 5, trials: int = 20) -> tuple:
    """The deformability predicate agrees with brute-force subspace search.

    For sampled tensors with enc = m: the predicate admits the tensor
    into stratum r exactly when m <= e(k, r+1); on the affirmative side
    a subspace of the allowed dimension containing the tensor exists
    (its enclosing space, fattened by random directions), and on the
    negative side sampled subspaces of the allowed dimension, including
    ones hugging the enclosing space, never contain it.
    """
    for k, n in DEFORM_GRID:
        for s in range(samples):
            t = random_tensor(n, k, SKEW, f"deform:{seed}:{k}:{n}:{s}")
            m = enc(t)
            space = enclosing_space(t)
            rng = random.Random(f"deform-sub:{seed}:{k}:{n}:{s}")
            for r_target in range(k - 1, n + 1):
                bound = min(e_max(k, r_target + 1), n)
                predicted = atlas.deformable(m, k, r_target, SKEW)
                if predicted != (m <= e_max(k, r_target + 1)):
                    return False, f"predicate formula broken at (k,n)=({k},{n})"
                if predicted:
                    fat = _fatten(space, bound, rng)
                    if not is_in_power_of(t, fat):
                        return False, f"admitted tensor not contained at (k,n)=({k},{n}) r={r_target}"
                elif bound >= k:
                    for _ in range(trials):
                        probe = _probe_subspace(space, bound, rng)
                        if is_in_power_of(t, probe):
                            return False, f"rejected tensor contained at (k,n)=({k},{n}) r={r_target}"
    return True, f"{len(DEFORM_GRID)} cells x {samples} tensors: predicate matches subspace search"


def _fatten(space: SubspaceBasis, dim: int, rng: random.Random) -> SubspaceBasis:
    """Extend a basis to a dim-dimensional subspace with random directions."""
    if space.dim > dim:
        raise ValueError("cannot fatten to a smaller dimension")
    n = space.ambient_dim
    vecs = list(space.vectors)
    for _ in range(64):
        if len(vecs) == dim:
            return SubspaceBasis(n, tuple(vecs))
        cand = random_vector(n, rng)
        try:
            probe = SubspaceBasis(n, tuple(vecs + [cand]))
        except ValueError:
            continue
        vecs = list(probe.vectors)
    raise RuntimeError("failed to fatten subspace")


def _probe_subspace(space: SubspaceBasis, dim: int, rng: random.Random) -> SubspaceBasis:
    """A dim-dimensional subspace biased toward the enclosing space.

    Mixes a random choice of vectors from the enclosing space with
    random ambient directions, so the search also exercises subspaces
    that nearly contain the tensor.
    """
    n = space.ambient_dim
    for _ in range(64):
        keep = rng.randint(0, min(dim - 1, space.dim))
        vecs = list(space.vectors[:keep])
        while len(vecs) < dim:
            vecs.append(random_vector(n, rng))
        try:
            return SubspaceBasis(n, tuple(vecs))
        except ValueError:
            continue
    raise RuntimeError("failed to sample probe subspace")


def check_membership_flip(seed: int = 0, samples: int = 4) -> tuple:
    """Membership in Sub_e flips exactly at e = enc(t).

    Realized with subspaces: for e >= enc(t) a containing subspace of
    dimension e exists, for e < enc(t) sampled candidates all fail.  The
    skew samples are random tensors; the symmetric ones are sums of one
    to `samples` k-th powers, so that their enclosing dimensions, and
    with them the flip, spread from the symmetric floor of 1 upward.
    """
    for kind, k, n in ((SKEW, 2, 5), (SKEW, 3, 5), (SYM, 2, 5), (SYM, 3, 5)):
        floor, bound = (k if kind == SKEW else 1), _e_bound(k, n, kind)
        tag = "" if kind == SKEW else "sym:"
        for s in range(samples):
            if kind == SKEW:
                t = random_tensor(n, k, SKEW, f"flip:{seed}:{k}:{n}:{s}")
            else:
                t = random_decomposable(n, k, SYM, f"flip:{seed}:{tag}{k}:{n}:{s}:0")
                for j in range(1, s + 1):
                    t = t + random_decomposable(n, k, SYM, f"flip:{seed}:{tag}{k}:{n}:{s}:{j}")
            m = enc(t)
            if m > bound:
                return False, f"enc {m} above its bound {bound} at (kind,k,n)=({kind},{k},{n})"
            if m < floor:
                continue
            space = enclosing_space(t)
            rng = random.Random(f"flip-sub:{seed}:{tag}{k}:{n}:{s}")
            for e in range(floor, n + 1):
                if e >= m:
                    member = is_in_power_of(t, _fatten(space, e, rng))
                else:
                    member = any(
                        is_in_power_of(t, _probe_subspace(space, e, rng)) for _ in range(10)
                    )
                if member != (m <= e):
                    return False, f"membership does not flip at enc at (kind,k,n)=({kind},{k},{n}) e={e}"
    return True, "skew and sym: subspace search flips exactly at e = enc over the sample grid"


SUITES = {
    "rank-oracle": (check_rank_oracle,),
    "enc-oracle": (check_enc_oracle,),
    "subdim-oracle": (check_subdim_tangent_grid,),
    "bn-forms": (check_bn_grid, check_lambda_constants),
    "atlas-examples": (
        check_g37_w_dims,
        check_g37_atlas_k2,
        check_g37_atlas_k3,
        check_subdim_pins,
        check_canonical_parity,
        check_exorbitance,
        check_resolution_flags,
        check_atlas_coherence,
    ),
    "count-reconciliation": (check_count_reconciliation,),
    "deformability": (check_deformability, check_membership_flip),
}


def run_suites(names=None, seed: int = 0) -> tuple:
    """Run the named suites (all by default); returns (all_ok, output lines)."""
    if names is None:
        names = list(SUITES)
    lines = []
    all_ok = True
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        suite_ok = True
        details = []
        for chk in SUITES[name]:
            ok, detail = chk(seed)
            suite_ok = suite_ok and ok
            details.append((chk.__name__, ok, detail))
        all_ok = all_ok and suite_ok
        lines.append(f"suite {name}: {'PASS' if suite_ok else 'FAIL'}")
        for fname, ok, detail in details:
            lines.append(f"  {fname}: {'ok' if ok else 'FAILED'} - {detail}")
    lines.append("all suites passed" if all_ok else "SUITE FAILURES PRESENT")
    return all_ok, lines
