"""Seeded inputs, ops and answer checks for the four benchmark workloads.

Every input is generated here from the workload seed with plain integer
arithmetic, so the same seed gives the same inputs whatever the package
does internally.  Every expected answer is fixed by how the input was
built (or by a closed form), never by a digest of earlier output:

* enc-scan: dense seeded tensors have enc = n (k is neither 2 nor n-1,
  so e_max = n; a rank drop needs a measure-zero coefficient choice);
  sums of s decomposables built from independent vectors have
  enc = s*k (skew) or s (sym).
* tangent-oracle: the certified tangent rank equals the closed form
  ``sub_dim`` (see TANGENT_SAMPLES).
* membership: W contains the span U of the construction vectors
  (True), or W has dimension below dim U = enc(t) (False).
* atlas-sweep: structural invariants of the report plus the pinned
  genus-37 shapes.

Independent vectors are the columns of a row-permuted product of a unit
lower and a unit upper triangular integer matrix, whose determinant is
+-1 by construction.

A workload's ``prepare(seed, workdir)`` makes the seeded inputs once,
input files included, and returns one round of recipes in a fixed
seeded order.  A recipe takes a freshly imported package and returns
the op bound to it (``bind``), so that each round of a run can run on a
package of its own and nothing the package keeps between calls
outlives a round.  Each op's ``call`` looks the package function up on
its module at call time, so the tracer's rebinding is seen and the
untraced run calls the original.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import random

SKEW = "skew"
SYM = "sym"


class Op:
    """One unit of user work: a zero-argument ``call`` and a ``check`` on its result."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed) + parts))


def _package_call(pkg, module: str, name: str, *args, **kwargs):
    mod = getattr(pkg, module)

    def call():
        return getattr(mod, name)(*args, **kwargs)

    return call


def _shuffled(recipes: list, workload: str, seed: int) -> list:
    _rng(workload, seed, "order").shuffle(recipes)
    return recipes


def bind(pkg, recipes: list) -> list:
    """The ops of one round, bound to the package ``pkg``."""
    return [recipe(pkg) for recipe in recipes]


# ---------------------------------------------------------------------------
# integer constructions


def invertible_columns(n: int, rng: random.Random) -> list:
    """Columns of a dense n x n integer matrix with determinant +-1."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    prod = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    rows = [prod[p] for p in perm]
    return [tuple(rows[i][j] for i in range(n)) for j in range(n)]


def combine(vectors: list, weights: list) -> tuple:
    """Sum of weights[i] * vectors[i]."""
    n = len(vectors[0])
    return tuple(sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(n))


def mixed_basis(vectors: list, count: int, rng: random.Random) -> list:
    """First ``count`` columns of (vectors as columns) * Q with Q invertible:
    independent vectors spanning a random ``count``-dimensional subspace
    of span(vectors), all of it when count = len(vectors)."""
    q = invertible_columns(len(vectors), rng)
    return [combine(vectors, q[j]) for j in range(count)]


@functools.cache
def _perms(k: int) -> tuple:
    """Every permutation of range(k) with its sign."""
    out = []
    for p in itertools.permutations(range(k)):
        inversions = sum(1 for a, b in itertools.combinations(p, 2) if a > b)
        out.append((p, -1 if inversions % 2 else 1))
    return tuple(out)


def wedge_coeffs(vectors: list) -> dict:
    """Coefficients of v_1 ^ ... ^ v_k: the k x k minors on each row subset."""
    k = len(vectors)
    n = len(vectors[0])
    perms = _perms(k)
    out = {}
    for rows in itertools.combinations(range(n), k):
        det = 0
        for p, sign in perms:
            term = sign
            for col, r in enumerate(p):
                term *= vectors[col][rows[r]]
            det += term
        if det:
            out[rows] = det
    return out


def exponent_vectors(n: int, k: int) -> list:
    out = []
    for combo in itertools.combinations_with_replacement(range(n), k):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        out.append(tuple(alpha))
    return out


@functools.cache
def _monomials(n: int, k: int) -> tuple:
    """((alpha, multinomial(k; alpha), ((i, alpha_i) for alpha_i > 0)), ...)."""
    out = []
    for alpha in exponent_vectors(n, k):
        c = math.factorial(k)
        for a in alpha:
            c //= math.factorial(a)
        out.append((alpha, c, tuple((i, a) for i, a in enumerate(alpha) if a)))
    return tuple(out)


def sym_power_coeffs(v: tuple, k: int) -> dict:
    """Monomial coefficients of v^k: multinomial(k; alpha) * prod v_i^alpha_i."""
    powers = [[x**a for a in range(k + 1)] for x in v]
    out = {}
    for alpha, c, support in _monomials(len(v), k):
        for i, a in support:
            c *= powers[i][a]
        if c:
            out[alpha] = c
    return out


def add_into(total: dict, part: dict) -> dict:
    for key, c in part.items():
        s = total.get(key, 0) + c
        if s:
            total[key] = s
        else:
            total.pop(key, None)
    return total


def decomposable_sum(kind: str, k: int, vectors: list, s: int) -> dict:
    """Sum of s decomposables on disjoint blocks of independent vectors.

    Its enclosing space is the span of the vectors used: dimension s*k
    (skew) or s (sym).
    """
    total = {}
    for b in range(s):
        if kind == SKEW:
            add_into(total, wedge_coeffs(vectors[b * k : (b + 1) * k]))
        else:
            add_into(total, sym_power_coeffs(vectors[b], k))
    return total


def dense_coeffs(kind: str, k: int, n: int, rng: random.Random) -> dict:
    keys = itertools.combinations(range(n), k) if kind == SKEW else exponent_vectors(n, k)
    return {key: rng.choice((-1, 1)) * rng.randint(1, 9) for key in keys}


def tensor_json(kind: str, k: int, n: int, coeffs: dict) -> dict:
    return {
        "n": n,
        "k": k,
        "kind": kind,
        "terms": [{"index": list(key), "coeff": str(c)} for key, c in sorted(coeffs.items())],
    }


# ---------------------------------------------------------------------------
# enc-scan: the CLI `enc` query on seeded tensor files

ENC_SIZES = {3: (6, 8, 10, 12, 14, 16, 20, 24), 4: (6, 8, 10, 12, 14, 16)}
# sizes up to 12 get several independent draws, so that a round holds
# over 100 ops while the largest cells still dominate its time
SMALL_DRAWS = 4


def enc_cells() -> list:
    """(kind, k, n, variant, s, draw); s is the number of decomposables
    (0 = dense)."""
    cells = []
    for kind in (SKEW, SYM):
        for k, sizes in ENC_SIZES.items():
            for n in sizes:
                s = max(1, n // (2 * k)) if kind == SKEW else n // 2
                for draw in range(SMALL_DRAWS if n <= 12 else 1):
                    cells.append((kind, k, n, "dense", 0, draw))
                    cells.append((kind, k, n, "low", s, draw))
    return cells


def enc_expected(kind: str, k: int, n: int, s: int) -> int:
    if s == 0:
        return n
    return s * k if kind == SKEW else s


def enc_inputs(seed: int) -> list:
    """[(cell, tensor JSON dict, E)] for one round, unshuffled."""
    out = []
    for cell in enc_cells():
        kind, k, n, variant, s, draw = cell
        rng = _rng("enc-scan", seed, kind, k, n, variant, draw)
        if s == 0:
            coeffs = dense_coeffs(kind, k, n, rng)
        else:
            coeffs = decomposable_sum(kind, k, invertible_columns(n, rng), s)
        out.append((cell, tensor_json(kind, k, n, coeffs), rng.randint(1, n)))
    return out


def _run_cli(pkg, argv: list):
    mod = pkg.cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mod.main(argv)
        return code, out.getvalue()

    return call


def _enc_check(kind: str, k: int, n: int, expected: int, e: int):
    def check(result) -> bool:
        code, text = result
        if code != 0:
            return False
        obj = json.loads(text)
        return (
            (obj["kind"], obj["k"], obj["n"]) == (kind, k, n)
            and obj["enc"] == expected
            and len(obj["basis"]) == expected
            and all(len(v) == n for v in obj["basis"])
            and obj["sub"]["e"] == e
            and obj["sub"]["member"] == (expected <= e)
        )

    return check


def _enc_op(label: str, argv: list, check, pkg) -> Op:
    return Op(label, _run_cli(pkg, argv), check)


def prepare_enc_scan(seed: int, workdir: str) -> list:
    os.makedirs(workdir, exist_ok=True)
    recipes = []
    for cell, obj, e in enc_inputs(seed):
        kind, k, n, variant, s, draw = cell
        path = os.path.join(workdir, f"{kind}-k{k}-n{n}-{variant}-{draw}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj))
        argv = ["enc", path, "--sub", str(e), "--format", "json"]
        check = _enc_check(kind, k, n, enc_expected(kind, k, n, s), e)
        recipes.append(functools.partial(_enc_op, f"{kind} k={k} n={n} {variant}", argv, check))
    return _shuffled(recipes, "enc-scan", seed)


# ---------------------------------------------------------------------------
# tangent-oracle: the Jacobian-rank certification of Sub_e dimensions


def tangent_cells() -> list:
    """(kind, k, n, e, draw) with e normalized: both kinds at k = 2, 3 and
    skew k = 4, n <= 8, e from k to n; two sample draws when n <= 6."""
    cells = []
    for kind, ks in ((SKEW, (2, 3, 4)), (SYM, (2, 3))):
        for k in ks:
            for n in range(k, 9):
                for e in range(k, n + 1):
                    if kind == SKEW and ((k == 2 and e % 2) or (k >= 3 and e == k + 1)):
                        continue  # Sub_e coincides with a smaller e
                    for draw in range(2 if n <= 6 else 1):
                        cells.append((kind, k, n, e, draw))
    return cells


# The Jacobian rank at a random point is at most the generic rank, and
# equal to it off a measure-zero set.  sub_dim_tangent redraws a
# rank-deficient A but not a degenerate w, so in the small k = 2 cells
# about 1% of single samples fall below sub_dim; for example
# sub_dim_tangent(2, 2, 5, "sym", 454578482) gives 5 where sub_dim gives 8.
# One op therefore certifies one dimension the way a Monte Carlo oracle
# is used: seeded sample points are tried until the rank reaches the
# closed form, at most TANGENT_SAMPLES of them, and the op is correct
# when the largest rank equals sub_dim.  A rank above it fails at once.
# Extra samples show in the traced run as subspaces.sub_dim_tangent.calls
# above 1 per op.
TANGENT_SAMPLES = 3


def tangent_inputs(seed: int) -> list:
    """[(cell, sample seeds)] for one round, unshuffled."""
    rng = _rng("tangent-oracle", seed, "samples")
    return [(cell, tuple(rng.randrange(1 << 30) for _ in range(TANGENT_SAMPLES))) for cell in tangent_cells()]


def _certify(pkg, e: int, k: int, n: int, kind: str, samples: tuple, expected: int):
    mod = pkg.subspaces

    def call():
        best = -1
        for sample in samples:
            best = max(best, mod.sub_dim_tangent(e, k, n, kind, sample))
            if best >= expected:
                break
        return best

    return call


def _tangent_op(e: int, k: int, n: int, kind: str, samples: tuple, pkg) -> Op:
    expected = pkg.subspaces.sub_dim(e, k, n, kind)
    return Op(f"{kind} k={k} n={n} e={e}", _certify(pkg, e, k, n, kind, samples, expected), expected.__eq__)


def prepare_tangent_oracle(seed: int, workdir: str) -> list:
    recipes = [
        functools.partial(_tangent_op, e, k, n, kind, samples)
        for (kind, k, n, e, _), samples in tangent_inputs(seed)
    ]
    return _shuffled(recipes, "tangent-oracle", seed)


# ---------------------------------------------------------------------------
# membership: is_in_power_of against subspaces of known position

# The costs of the symmetric cells depend on the draw, so the tail
# quantiles of one run vary with the seed: over ten seeds, op_p90_ms
# spread by 0.11 of its median with three draws per cell and by about
# 0.08 with six.
MEMBERSHIP_DRAWS = 6

MEMBERSHIP_CELLS = (
    # (kind, k, n, s): the tensor is a sum of s decomposables.
    # Symmetric k = 4 stops at n = 7: one n = 8 op takes 0.2-1.5 s.  The
    # skew cells have costs that do not depend on the draw and spread
    # evenly between the cheap and the costly symmetric ones, so no gap
    # between op sizes sits at the median.
    (SKEW, 3, 8, 2),
    (SKEW, 3, 9, 2),
    (SKEW, 3, 10, 2),
    (SKEW, 3, 10, 3),
    (SKEW, 3, 11, 2),
    (SKEW, 3, 11, 3),
    (SKEW, 3, 12, 2),
    (SKEW, 3, 12, 3),
    (SKEW, 4, 9, 2),
    (SKEW, 4, 10, 2),
    (SYM, 3, 6, 4),
    (SYM, 3, 7, 5),
    (SYM, 3, 8, 6),
    (SYM, 4, 6, 4),
    (SYM, 4, 7, 5),
)


def membership_inputs(seed: int) -> list:
    """[(cell, W role, tensor coeffs, W vectors, expected)] for one round.

    roles: "span+" is U plus one extra direction when dim U < n-1 (True);
    "hyperplane" is a hyperplane of U and "random" a random subspace of
    dimension dim U - 1 (both False, as dim W < dim U = enc).
    """
    out = []
    for kind, k, n, s in MEMBERSHIP_CELLS:
        for draw in range(MEMBERSHIP_DRAWS):
            cell = (kind, k, n, s, draw)
            rng = _rng("membership", seed, kind, k, n, draw)
            cols = invertible_columns(n, rng)
            dim_u = s * k if kind == SKEW else s
            coeffs = decomposable_sum(kind, k, cols, s)
            extra = 1 if dim_u < n - 1 else 0
            span_plus = mixed_basis(cols[: dim_u + extra], dim_u + extra, rng)
            hyperplane = mixed_basis(cols[:dim_u], dim_u - 1, rng)
            other = invertible_columns(n, rng)[: dim_u - 1]
            for role, vectors, expected in (
                ("span+", span_plus, True),
                ("hyperplane", hyperplane, False),
                ("random", other, False),
            ):
                out.append((cell, role, coeffs, vectors, expected))
    return out


def _membership_op(kind: str, k: int, n: int, role: str, coeffs: dict, vectors: list, expected: bool, pkg) -> Op:
    t = pkg.tensors
    tensor = (t.SkewTensor if kind == SKEW else t.SymTensor)(n, k, coeffs)
    space = t.SubspaceBasis(n, tuple(vectors))
    return Op(
        f"{kind} k={k} n={n} {role}",
        _package_call(pkg, "tensors", "is_in_power_of", tensor, space),
        (lambda result: result is expected),
    )


def prepare_membership(seed: int, workdir: str) -> list:
    recipes = [
        functools.partial(_membership_op, kind, k, n, role, coeffs, vectors, expected)
        for (kind, k, n, _, _), role, coeffs, vectors, expected in membership_inputs(seed)
    ]
    return _shuffled(recipes, "membership", seed)


# ---------------------------------------------------------------------------
# atlas-sweep: component atlases over a Brill-Noether grid

G37_SHAPES = {
    2: [(1, 2, 33), (3, 4, 26), (5, 6, 15)],
    3: [(2, 3, 28), (4, 5, 21), (5, 6, 20)],
}


def atlas_cells() -> list:
    return [
        (g, d, k, kind)
        for g in range(2, 61)
        for d in range(1, 2 * g + 1)
        for k in range(2, 6)
        for kind in (SKEW, SYM)
    ]


def atlas_inputs(seed: int) -> list:
    """[(g, d, k, kind, include_canonical)]; the canonical block is a
    seeded coin flip wherever it is defined (g >= 3, k < g)."""
    rng = _rng("atlas-sweep", seed, "canonical")
    return [(g, d, k, kind, g >= 3 and k < g and rng.random() < 0.5) for g, d, k, kind in atlas_cells()]


def _is_count_note(note) -> bool:
    if isinstance(note, dict):
        return note.get("code") == "count-mismatch"
    return note.startswith("component count")


def check_atlas_report(report, g: int, d: int, k: int, kind: str, canonical: bool) -> bool:
    """Invariants any correct atlas must satisfy; no digest, no locus_codim."""
    params = report["params"]
    if (params["genus"], params["degree"], params["k"]) != (g, d, k):
        return False
    if params["class"] != ("n" if kind == SKEW else "t"):
        return False
    comps = report["components"]
    for c in comps:
        if c["total_dim"] != c["support_dim"] + c["fiber_dim"] or c["multiplicity"] < 1:
            return False
    for a, b in zip(comps, comps[1:]):
        if not (a["r"] < b["r"] and a["e"] < b["e"]):
            return False
    by_e = {c["e"]: c for c in comps}
    inters = report["intersections"]
    if len(inters) != len(comps) * (len(comps) - 1) // 2:
        return False
    for x in inters:
        shallow, deep = by_e.get(x["shallow_e"]), by_e.get(x["deep_e"])
        if shallow is None or deep is None or shallow["e"] >= deep["e"]:
            return False
        if not x["fiber_dim"] < deep["fiber_dim"]:
            return False
        if not x["total_dim"] < min(shallow["total_dim"], deep["total_dim"]):
            return False
    counts = report["counts"]
    if counts["enumerated"] != sum(c["multiplicity"] for c in comps):
        return False
    if counts["agrees"] != (counts["enumerated"] == counts["paper_formula"]):
        return False
    if counts["agrees"] == any(_is_count_note(note) for note in report["notes"]):
        return False
    if ("canonical" in report) != canonical:
        return False
    if canonical:
        can = report["canonical"]
        if can["canonical_dim"] != math.comb(g, k) - 1:
            return False
        if can["gap"] != can["canonical_dim"] - can["main_dim"]:
            return False
    if (g, d, kind) == (37, 36, SKEW) and k in G37_SHAPES:
        if [(c["r"], c["e"], c["total_dim"]) for c in comps] != G37_SHAPES[k]:
            return False
    return True


def _atlas_op(g: int, d: int, k: int, kind: str, canonical: bool, pkg) -> Op:
    return Op(
        f"g={g} d={d} k={k} {kind}",
        _package_call(pkg, "atlas", "atlas_report", g, d, k, kind, include_canonical=canonical),
        (lambda report: check_atlas_report(report, g, d, k, kind, canonical)),
    )


def prepare_atlas_sweep(seed: int, workdir: str) -> list:
    recipes = [functools.partial(_atlas_op, *args) for args in atlas_inputs(seed)]
    return _shuffled(recipes, "atlas-sweep", seed)


WORKLOADS = {
    "enc-scan": prepare_enc_scan,
    "tangent-oracle": prepare_tangent_oracle,
    "membership": prepare_membership,
    "atlas-sweep": prepare_atlas_sweep,
}
