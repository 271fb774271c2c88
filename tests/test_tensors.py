import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from divatlas import linalg, tensors
from divatlas.linalg import (
    _INT,
    RationalMatrix,
    _eliminate,
    _int_vector,
    exact_det,
    gauss_rank,
    image_basis,
    in_span,
    random_matrix,
    rank,
)
from divatlas.subspaces import e_max
from divatlas.tensors import (
    SKEW,
    SYM,
    SkewTensor,
    SubspaceBasis,
    SymTensor,
    apply_linear_map,
    contraction_matrix,
    enc,
    enclosing_space,
    exponent_vectors,
    is_in_power_of,
    k_subsets,
    random_decomposable,
    random_tensor,
    random_vector,
    sym_power,
    tensor_from_json,
    tensor_to_json,
    wedge,
)
from divatlas.verify import _draw_subspace

SYMPLECTIC4 = SkewTensor(4, 2, {(0, 1): 1, (2, 3): 1})


# ---------------------------------------------------------------------------
# wedge products


def test_wedge_basis_vectors():
    t = wedge([(1, 0, 0, 0), (0, 1, 0, 0)])
    assert t.coeffs == {(0, 1): Fraction(1)}


def test_wedge_of_equal_vectors_vanishes():
    assert wedge([(1, 2, 3), (1, 2, 3)]).is_zero


def test_wedge_hand_expanded_minors():
    # columns (1,1,0) and (0,1,0): only the top 2x2 minor survives
    t = wedge([(1, 1, 0), (0, 1, 0)])
    assert t.coeffs == {(0, 1): Fraction(1)}


def test_wedge_multilinearity():
    rng = random.Random("multilinear")
    for _ in range(10):
        u = [random_vector(5, rng) for _ in range(3)]
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        shifted = [list(v) for v in u]
        shifted[0] = [a + c * b for a, b in zip(u[0], u[2])]
        assert wedge(shifted) == wedge(u)


def test_wedge_matches_exact_det_minors():
    # wedge expands its minors itself; exact_det is the reference, on
    # rational entries and with k = 4 on its Bareiss path
    rng = random.Random("wedge-minors")
    for k in range(1, 5):
        for n in range(k, 7):
            vs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(k)]
            expected = {}
            for I in itertools.combinations(range(n), k):
                d = exact_det([[v[i] for v in vs] for i in I])
                if d:
                    expected[I] = d
            assert wedge(vs).coeffs == expected


def test_skew_tensor_validation():
    with pytest.raises(ValueError):
        SkewTensor(4, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        SkewTensor(4, 2, {(0, 4): 1})
    with pytest.raises(ValueError):
        SkewTensor(4, 2, {(0,): 1})


# ---------------------------------------------------------------------------
# symmetric constructors


def test_sym_power_of_basis_vector():
    t = sym_power((1, 0), 3)
    assert t.coeffs == {(3, 0): Fraction(1)}


def test_sym_power_binomial_expansion():
    t = sym_power((1, 1), 2)
    assert t.coeffs == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}


@pytest.mark.parametrize(
    "k, message",
    [
        (2.0, "k must be an integer, got 2.0"),
        (True, "k must be an integer, got True"),
        (-1, "n and k must be nonnegative"),
    ],
    ids=repr,
)
def test_sym_power_refuses_bad_k(k, message):
    # sym_power((1, 0), 2.0) raised TypeError from inside itertools
    with pytest.raises(ValueError) as info:
        sym_power((1, 0), k)
    assert str(info.value) == message


def test_sym_tensor_validation():
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(1, 1, 0): 1})


# ---------------------------------------------------------------------------
# contraction matrices


def test_contraction_skew_plane():
    M = contraction_matrix(wedge([(1, 0), (0, 1)]))
    assert (M.rows, M.cols) == (2, 2)
    assert rank(M) == 2


def test_contraction_skew_zero():
    M = contraction_matrix(SkewTensor(3, 2, {}))
    assert M == RationalMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_contraction_skew_symplectic_explicit():
    # sign convention is pinned: entry (i, J) is (-1)^pos coeff(J + {i})
    M = contraction_matrix(SYMPLECTIC4)
    expected = RationalMatrix(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ]
    )
    assert M == expected
    assert rank(M) == 4


def test_contraction_sym_unit_quadric():
    q = SymTensor(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    M = contraction_matrix(q)
    assert M == RationalMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert rank(M) == 3


def test_contraction_sym_power_rank_one():
    assert rank(contraction_matrix(sym_power((1, 0, 0), 4))) == 1


def test_contraction_sym_fermat_explicit():
    t = SymTensor(2, 3, {(3, 0): 1, (0, 3): 1})
    M = contraction_matrix(t)
    # columns indexed by exponent vectors (2,0), (1,1), (0,2)
    assert M == RationalMatrix([[3, 0, 0], [0, 0, 3]])
    assert rank(M) == 2


def _scan_skew(t):
    # reference: column J holds (-1)^pos coeff(J + {i}) at every i with J + {i} in the support
    cols = list(itertools.combinations(range(t.n), t.k - 1))
    data = [[Fraction(0)] * len(cols) for _ in range(t.n)]
    for jc, J in enumerate(cols):
        for idx, c in t.coeffs.items():
            extra = [i for i in idx if i not in J]
            if len(extra) == 1 and all(j in idx for j in J):
                data[extra[0]][jc] += (-1) ** idx.index(extra[0]) * c
    return RationalMatrix(data, cols=len(cols))


def _scan_sym(t):
    # reference: column a holds (a_i + 1) coeff(a + e_i) in row i
    cols = exponent_vectors(t.n, t.k - 1)
    data = [[Fraction(0)] * len(cols) for _ in range(t.n)]
    for jc, alpha in enumerate(cols):
        for i in range(t.n):
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            data[i][jc] = (alpha[i] + 1) * t.coefficient(beta)
    return RationalMatrix(data, cols=len(cols))


def _sparse_rational(keys, rng):
    chosen = rng.sample(keys, rng.randint(0, min(len(keys), 6)))
    return {key: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for key in chosen}


def test_contraction_builders_match_reference_scan():
    rng = random.Random("contraction-scan")
    builders = [
        (SkewTensor, k_subsets, contraction_matrix, _scan_skew),
        (SymTensor, exponent_vectors, contraction_matrix, _scan_sym),
    ]
    for _ in range(150):
        n, k = rng.randint(0, 8), rng.randint(1, 4)
        for cls, basis, build, scan in builders:
            keys = basis(n, k)
            a = cls(n, k, _sparse_rational(keys, rng))
            # b repeats some terms of a, so a - b has cancelled coefficients
            shared = {key: c for key, c in a.coeffs.items() if rng.random() < 0.5}
            t = a - cls(n, k, {**_sparse_rational(keys, rng), **shared})
            for tensor in (a, t):
                M = build(tensor)
                reference = scan(tensor)
                assert M == reference
                # stored as as_exact gives them: (a_i + 1) * c can be integral
                assert all(type(x) is int or x.denominator > 1 for i in range(M.rows) for x in M.row(i))
                # the streamed columns give the pivot columns of the reference scan
                assert list(enclosing_space(tensor).vectors) == image_basis(reference)
                assert enc(tensor) == gauss_rank(reference)


# ---------------------------------------------------------------------------
# enclosing spaces


def test_enclosing_space_decomposable():
    basis = enclosing_space(wedge([(1, 0, 0, 0), (0, 1, 0, 0)]))
    vecs = set(basis.vectors)
    assert len(vecs) == 2
    for v in vecs:
        assert v[2] == v[3] == 0


def test_enclosing_space_zero_tensor():
    assert enclosing_space(SkewTensor(4, 2, {})).vectors == ()


def test_enclosing_space_reads_no_column_after_the_last_pivot(monkeypatch):
    columns = tensors._contraction_columns
    checked = 0
    for kind, n, k in [(SKEW, 5, 2), (SKEW, 7, 3), (SKEW, 8, 4), (SYM, 4, 2), (SYM, 6, 3), (SYM, 5, 4)]:
        for s in range(3):
            t = random_tensor(n, k, kind, f"last-pivot:{kind}:{s}")
            rows = tensors.contraction_matrix(t)._m
            pivots, _, _ = _eliminate(zip(*rows), len(rows))
            if len(pivots) < n:
                continue
            last = pivots[-1]

            def up_to_last_pivot(tensor, last=last):
                for j, col in enumerate(columns(tensor)):
                    if j > last:
                        raise AssertionError(f"column {j} read after the last pivot {last}")
                    yield col

            monkeypatch.setattr(tensors, "_contraction_columns", up_to_last_pivot)
            assert enclosing_space(t).dim == enc(t) == n
            monkeypatch.undo()
            checked += last + 1 < len(list(columns(t)))
    assert checked >= 12


def test_enc_symplectic_in_five_space():
    t = SkewTensor(5, 2, {(0, 1): 1, (2, 3): 1})
    assert enc(t) == 4
    space = enclosing_space(t)
    assert space.dim == 4
    assert all(v[4] == 0 for v in space.vectors)


def test_enc_decomposable_is_k():
    for k, n in [(2, 4), (3, 5), (4, 6)]:
        for s in range(10):
            assert enc(random_decomposable(n, k, SKEW, s)) == k


def test_enc_random_two_forms_on_five_space():
    # skew forms on odd-dimensional space have even rank, so the generic
    # enclosing dimension is 4; all 50 seeds attain it
    assert all(enc(random_tensor(5, 2, SKEW, s)) == 4 for s in range(50))


def test_enc_random_three_forms_on_six_space():
    values = [enc(random_tensor(6, 3, SKEW, s)) for s in range(100)]
    assert sum(1 for v in values if v == 6) >= 90


def test_enc_random_sym_quadrics():
    values = [enc(random_tensor(3, 2, SYM, s)) for s in range(100)]
    assert sum(1 for v in values if v == 3) >= 90


def test_enc_scaling_invariance():
    t = random_tensor(5, 2, SKEW, 7)
    assert enc(t * Fraction(3, 7)) == enc(t)
    assert enc(SkewTensor(5, 2, {})) == 0


def test_enc_degree_zero_convention():
    assert enc(SkewTensor(3, 0, {(): 5})) == 0
    assert enc(SymTensor(3, 0, {(0, 0, 0): 5})) == 0


def test_enc_basis_invariance():
    rng = random.Random("basis-change")
    for kind, n, k in [(SKEW, 5, 2), (SKEW, 6, 3), (SYM, 4, 2), (SYM, 3, 3)]:
        t = random_tensor(n, k, kind, f"inv:{kind}:{n}:{k}")
        for _ in range(5):
            while True:
                g = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                if rank(RationalMatrix(g)) == n:
                    break
            assert enc(apply_linear_map(g, t)) == enc(t)


def test_enc_bounded_by_e_max():
    for k, n in [(2, 4), (2, 5), (3, 5), (3, 6)]:
        for s in range(25):
            assert enc(random_tensor(n, k, SKEW, s)) <= e_max(k, n)
    for k, n in [(2, 3), (3, 4)]:
        for s in range(25):
            assert enc(random_tensor(n, k, SYM, s)) <= n


# ---------------------------------------------------------------------------
# membership in powers of a subspace


def test_is_in_power_of_examples():
    t = wedge([(1, 0, 0, 0), (0, 1, 0, 0)])
    big = SubspaceBasis(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    small = SubspaceBasis(4, ((0, 1, 0, 0), (0, 0, 1, 0)))
    assert is_in_power_of(t, big)
    assert not is_in_power_of(t, small)
    # the covectors vanishing on span(e1, e2) come out as e0*, e3*; only
    # the second one detects these
    assert not is_in_power_of(wedge([(0, 1, 0, 0), (0, 0, 0, 1)]), small)
    assert not is_in_power_of(SymTensor(4, 2, {(0, 1, 0, 1): 1}), small)


def _random_subspace(n: int, dim: int, seed) -> SubspaceBasis:
    """A seeded dim-dimensional subspace of QQ^n: dim random vectors, drawn
    again together until independent."""
    rng = random.Random(seed)
    return _draw_subspace(n, lambda: tuple(random_vector(n, rng) for _ in range(dim)), "a test subspace")


def _count_eliminations(monkeypatch) -> list:
    """Wrap tensors._eliminate: each call appends the list of the columns
    that it reads, filled as the kernel reads them."""
    calls = []
    eliminate = tensors._eliminate

    def counted(columns, n_rows, bound=None):
        seen = []
        calls.append(seen)
        return eliminate((seen.append(col) or col for col in columns), n_rows, bound)

    monkeypatch.setattr(tensors, "_eliminate", counted)
    return calls


def test_enclosing_space_skips_independence_recheck(monkeypatch):
    # pivot columns are independent by construction, so enclosing_space
    # runs only its own pivot search; the covectors are made from the
    # basis vectors on the first membership test, then kept
    calls = _count_eliminations(monkeypatch)
    for kind, n, k, dim in ((SKEW, 5, 2, 4), (SYM, 4, 3, 4), (SKEW, 6, 2, 6)):
        t = random_tensor(n, k, kind, 1)
        basis = enclosing_space(t)
        assert basis.dim == dim
        assert len(calls) == 1
        assert is_in_power_of(t, basis)
        assert len(calls) == 2
        assert [tuple(col) for col in calls[1]] == list(basis.vectors)
        assert is_in_power_of(t, basis)
        assert len(calls) == 2
        calls.clear()


def _fraction_tensor(n: int, k: int, kind: str, rng: random.Random):
    """A seeded tensor with Fraction coefficients: random_tensor's, each
    over a denominator drawn from 1..12."""
    t = random_tensor(n, k, kind, rng)
    return type(t)(n, k, {key: Fraction(c, rng.randint(1, 12)) for key, c in t.coeffs.items()})


def test_enc_columns_stay_within_the_bound_it_passes(monkeypatch):
    # every tensor passes the kernel max |c| (skew) or k * max |c| (sym),
    # over its coefficients scaled by the lcm L of all their denominators,
    # and the kernel packs on it without looking at a column: every
    # column that enc streams, scaled by its own lcm, must lie within it.
    # The sym bound is reached where a k-th power term's face holds k * c
    seen = []
    eliminate = tensors._eliminate

    def bounded(columns, n_rows, bound=None):
        seen.append((bound, []))
        return eliminate((seen[-1][1].append(col) or col for col in columns), n_rows, bound)

    monkeypatch.setattr(tensors, "_eliminate", bounded)
    reached = {SKEW: 0, SYM: 0}
    rng = random.Random("enc-bound")
    for kind, n, k in [(SKEW, 6, 2), (SKEW, 7, 3), (SKEW, 8, 4), (SYM, 4, 2), (SYM, 5, 3), (SYM, 4, 4)]:
        for scale in (1, -7, 2**70):
            t = random_tensor(n, k, kind, rng) * scale
            sparse = type(t)(n, k, dict(itertools.islice(t.coeffs.items(), 3)))
            for u in (t, sparse, random_decomposable(n, k, kind, rng) * scale):
                seen.clear()
                enc(u)
                (bound, columns), = seen
                top = max(map(abs, u.coeffs.values()))
                assert bound == (top if kind == SKEW else k * top), (kind, n, k)
                assert all(abs(x) <= bound for col in columns for x in col), (kind, n, k)
                reached[kind] += any(abs(x) == bound for col in columns for x in col)
    assert min(reached.values()) > 0, reached
    fractions = 0
    for kind, n, k in [(SKEW, 6, 2), (SKEW, 7, 3), (SYM, 4, 2), (SYM, 5, 3), (SYM, 4, 4)]:
        for _ in range(5):
            t = _fraction_tensor(n, k, kind, rng)
            seen.clear()
            enc(t)
            (bound, columns), = seen
            scale = math.lcm(*(c.denominator for c in t.coeffs.values()))
            top = max(abs(c * scale) for c in t.coeffs.values())
            assert bound == (top if kind == SKEW else k * top), (kind, n, k)
            assert all(abs(x) <= bound for col in columns for x in col), (kind, n, k)
            fractions += not _INT.issuperset(map(type, t.coeffs.values()))
    assert fractions >= 20


def _fraction_cases(count: int, seed):
    """count seeded Fraction tensors of both kinds, k <= 4 and n <= 7:
    sums of one to three decomposables with Fraction weights, mostly of
    enc below n, and every fourth one a _fraction_tensor."""
    rng = random.Random(seed)
    for i in range(count):
        kind = rng.choice((SKEW, SYM))
        k = rng.randint(1, 4)
        n = rng.randint(k + 1 if kind == SKEW else 2, 7)
        if i % 4 == 3:
            yield _fraction_tensor(n, k, kind, rng)
            continue
        t = random_decomposable(n, k, kind, rng) * Fraction(rng.randint(1, 5), rng.randint(2, 7))
        for _ in range(rng.randint(0, 2)):
            t = t + random_decomposable(n, k, kind, rng) * Fraction(rng.randint(-5, 5), rng.randint(2, 7))
        yield t


def test_enc_on_fraction_tensors_matches_gauss_rank_and_packs_on_its_bound(monkeypatch):
    packs = []
    real = linalg._packed_rows
    monkeypatch.setattr(linalg, "_packed_rows", lambda *args: packs.append(args[2]) or real(*args))
    packed = 0
    for t in _fraction_cases(400, "fraction-enc"):
        packs.clear()
        assert enc(t) == gauss_rank(contraction_matrix(t)), t
        assert set(packs) <= {tensors._entry_bound(t, _int_vector(t.coeffs.values()))}, t
        packed += bool(packs)
    assert packed >= 150, packed


def test_only_enc_packs_in_the_kernel(monkeypatch):
    # the kernel packs only on a bound that its caller passes, and only
    # enc's column stream passes one: its own _entry_bound, on integral
    # and Fraction tensors alike.  SubspaceBasis, rank, int_det and
    # _certified_rank's fallback pass none, so on streams with dependent
    # columns they make no _packed_rows call
    packs = []
    real = linalg._packed_rows
    monkeypatch.setattr(linalg, "_packed_rows", lambda *args: packs.append(args[2]) or real(*args))
    rng = random.Random("who-packs")
    packed = {int: 0, Fraction: 0}
    for kind, n, k in [(SKEW, 6, 2), (SKEW, 7, 3), (SYM, 4, 3), (SYM, 5, 2)]:
        decomposable = random_decomposable(n, k, kind, rng)
        # a sum of two decomposables with Fraction coefficients has enc below n
        two = decomposable * Fraction(1, 6) + random_decomposable(n, k, kind, rng) * Fraction(3, 4)
        for t in (decomposable, two):
            packs.clear()
            enc(t)
            assert set(packs) <= {tensors._entry_bound(t, _int_vector(t.coeffs.values()))}, (kind, n, k)
            packed[Fraction if any(type(c) is Fraction for c in t.coeffs.values()) else int] += bool(packs)
    assert min(packed.values()) >= 3, packed
    packs.clear()
    vectors = [random_vector(6, rng) for _ in range(3)]
    assert SubspaceBasis(6, tuple(vectors)).dim == 3
    dependent = vectors + [tuple(a + b for a, b in zip(*vectors[:2])), tuple(2 * x for x in vectors[2])]
    assert rank(RationalMatrix.from_columns(dependent)) == 3
    assert linalg.int_det([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0
    fallbacks = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args: fallbacks.append(args[1:]) or eliminate(*args))
    assert linalg._certified_rank(iter([[1, 0, 0], [2, 0, 0], [0, 1, 1], [0, 2, 2]]), 3) == 2
    assert fallbacks == [(3,)]
    assert packs == []


def test_is_in_power_of_degree_zero():
    # a nonzero scalar lies in the 0-th power, QQ, of every subspace
    n = 4
    for t in (SkewTensor(n, 0, {(): 5}), SymTensor(n, 0, {(0,) * n: 5})):
        assert is_in_power_of(t, enclosing_space(t))
        for dim in (0, 1, n):
            assert is_in_power_of(t, _random_subspace(n, dim, f"deg0:{dim}"))


def test_subspace_basis_eliminates_once(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    rng = random.Random("x")
    vectors = tuple(random_vector(6, rng) for _ in range(3))
    W = SubspaceBasis(6, vectors)
    assert len(calls) == 1
    assert W.vectors == vectors
    # membership reads the covectors that construction kept
    for t in (random_tensor(6, 2, SKEW, 2), random_tensor(6, 2, SYM, 2)):
        assert not is_in_power_of(t, W)
    assert len(calls) == 1


def test_subspace_basis_checks_independence():
    assert SubspaceBasis(2, ((1, 0), (0, 1))).dim == 2
    with pytest.raises(ValueError, match="basis vectors are linearly dependent"):
        SubspaceBasis(2, ((1, 2), (2, 4)))
    empty = SubspaceBasis(2, ())
    assert empty.dim == 0
    assert empty._annihilator() == ((1, 0), (0, 1))


def test_random_tensor_matches_the_public_constructor(monkeypatch):
    # the draws are wrapped without a second validation pass; they must
    # give the tensor the public constructor gives for the same draws, and
    # leave the generator where randint would (a caller may draw on from it)
    cases = [(0, 0), (3, 0), (1, 1), (2, 3), (4, 2), (5, 3), (4, 4), (6, 3)]
    expected = {}
    states = {}
    for kind, cls, basis in ((SKEW, SkewTensor, k_subsets), (SYM, SymTensor, exponent_vectors)):
        for n, k in cases:
            rng = random.Random(f"draw:{kind}:{n}:{k}")
            expected[kind, n, k] = cls(n, k, {key: rng.randint(-9, 9) for key in basis(n, k)})
            states[kind, n, k] = rng.getstate()

    def no_check(*args):
        raise AssertionError("a seeded draw was validated")

    for cls in (SkewTensor, SymTensor):
        monkeypatch.setattr(cls, "_check_index", staticmethod(no_check))
    for (kind, n, k), want in expected.items():
        rng = random.Random(f"draw:{kind}:{n}:{k}")
        got = random_tensor(n, k, kind, rng)
        assert type(got) is type(want) and got == want, (kind, n, k)
        assert rng.getstate() == states[kind, n, k], (kind, n, k)
        assert all(type(c) is int and c for c in got.coeffs.values())
    for kind in (SKEW, SYM):
        for n, k in [(-1, 2), (2, -1)]:
            with pytest.raises(ValueError):
                random_tensor(n, k, kind, 0)
        for n, k, name in [(True, 1, "n"), (2.0, 1, "n"), (2, False, "k"), (3, "2", "k")]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                random_tensor(n, k, kind, 0)


def test_random_vector_and_matrix_keep_the_randint_stream():
    # one draw helper serves random_vector, random_matrix and random_tensor:
    # the values and the generator's state after them are randint's
    for n in (0, 1, 5, 40):
        rng, ref = random.Random(f"vector:{n}"), random.Random(f"vector:{n}")
        assert random_vector(n, rng) == tuple(ref.randint(-9, 9) for _ in range(n))
        assert rng.getstate() == ref.getstate()
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (4, 7), (9, 2)):
        rng, ref = random.Random(f"matrix:{rows}:{cols}"), random.Random(f"matrix:{rows}:{cols}")
        want = RationalMatrix([[ref.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert random_matrix(rows, cols, rng) == want, (rows, cols)
        assert rng.getstate() == ref.getstate()
    # every value in [-9, 9] is drawn, and nothing outside it
    assert set(random_vector(2000, random.Random(0))) == set(range(-9, 10))


@pytest.mark.parametrize("kind", [SKEW, SYM])
@pytest.mark.parametrize(
    "n, k, message",
    [
        (3, True, "k must be an integer, got True"),
        (True, 2, "n must be an integer, got True"),
        (3, 2.0, "k must be an integer, got 2.0"),
        ("3", 2, "n must be an integer, got '3'"),
        (-1, 2, "n and k must be nonnegative"),
        (3, -1, "n and k must be nonnegative"),
    ],
    ids=repr,
)
def test_random_decomposable_refuses_bad_sizes(kind, n, k, message):
    # random_decomposable(3, True, "skew", 0) gave a degree-1 tensor, and
    # random_decomposable(-1, 2, "sym", 0) drew 64 times before a RuntimeError
    with pytest.raises(ValueError) as info:
        random_decomposable(n, k, kind, 0)
    assert str(info.value) == message


def test_draw_subspace_redraws_and_gives_up_after_64_draws():
    draws = iter([((1, 2), (2, 4)), ((1, 2), (0, 1))])
    assert _draw_subspace(2, lambda: next(draws), "a plane").vectors == ((1, 2), (0, 1))
    calls = []
    with pytest.raises(RuntimeError) as info:
        _draw_subspace(3, lambda: calls.append(1) or ((0, 0, 0),), "a line")
    assert str(info.value) == "failed to sample a line"
    assert len(calls) == 64


def test_exponent_vectors_are_made_once_and_returned_fresh():
    first = exponent_vectors(4, 3)
    assert len(first) == math.comb(6, 3) and first[0] == (3, 0, 0, 0)
    assert (4, 3) in tensors._EXPONENT_VECTORS
    first.reverse()  # callers may reorder their list in place
    assert exponent_vectors(4, 3)[0] == (3, 0, 0, 0)


def _expanded_product(forms, n_out: int) -> dict:
    """Reference: the product of linear forms (coefficient tuples) expanded
    term by term, one output variable chosen from every factor."""
    out = {}
    for choice in itertools.product(range(n_out), repeat=len(forms)):
        key = tuple(choice.count(r) for r in range(n_out))
        out[key] = out.get(key, 0) + math.prod(f[r] for f, r in zip(forms, choice))
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize(
    "p, q, product",
    [
        ({(1, 0): 1}, {(0, 1): 1}, {(1, 1): 1}),
        # the xy terms cancel and are dropped
        ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}, {(2, 0): 1, (0, 2): -1}),
    ],
    ids=["x*y", "(x+y)(x-y)"],
)
def test_poly_mul_multiplies_two_forms(p, q, product):
    assert tensors._poly_mul(p, q) == product


def test_substitution_matches_direct_products(monkeypatch):
    # each monomial is built from the one below it and memoized for the
    # life of the map; the reference multiplies out the form powers afresh
    rng = random.Random("substitution")
    products = []
    poly_mul = tensors._poly_mul
    monkeypatch.setattr(tensors, "_poly_mul", lambda p, q: products.append(1) or poly_mul(p, q))
    for k in range(5):
        for n_in, n_out in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            columns = [
                tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n_out)) for _ in range(n_in)
            ]
            substituted = tensors._substitution(columns, n_out)
            alphas = exponent_vectors(n_in, k)
            rng.shuffle(alphas)
            products.clear()
            for alpha in alphas:
                forms = [col for col, a in zip(columns, alpha) for _ in range(a)]
                assert substituted(alpha) == _expanded_product(forms, n_out), (k, n_in, n_out, alpha)
            # at most one product per monomial of degree 1..k, and none on a repeat
            assert len(products) <= sum(math.comb(n_in + d - 1, d) for d in range(1, k + 1))
            before = len(products)
            assert all(substituted(alpha) is substituted(alpha) for alpha in alphas)
            assert len(products) == before


def test_integral_values_are_ints():
    def types(t):
        return {type(c) for c in t.coeffs.values()}

    assert type(SkewTensor(2, 1, {(0,): Fraction(4, 2)}).coefficient((0,))) is int
    assert type(SymTensor(1, 1, {(1,): "1/2"}).coefficient((1,))) is Fraction
    assert types(SymTensor(1, 1, {(1,): "1/2"}) * 2) == {int}
    assert types(sym_power((1, 2), 3)) == {int}
    assert types(wedge([(1, 2, 3), (4, 5, 7)])) == {int}
    for kind, n, k in [(SKEW, 5, 2), (SYM, 4, 3)]:
        basis = enclosing_space(random_tensor(n, k, kind, 0))
        assert {type(x) for v in basis.vectors for x in v} == {int}


def test_is_in_power_of_dependent_basis_rejected():
    with pytest.raises(ValueError):
        SubspaceBasis(4, ((1, 0, 0, 0), (2, 0, 0, 0)))


def test_is_in_power_of_ambient_mismatch():
    t = wedge([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        is_in_power_of(t, SubspaceBasis(3, ((1, 0, 0),)))


TENSOR_ENTRIES = {
    "enc": enc,
    "enclosing_space": enclosing_space,
    "is_in_power_of": lambda t: is_in_power_of(t, SubspaceBasis(3, ((1, 0, 0),))),
    "contraction_matrix": contraction_matrix,
    "apply_linear_map": lambda t: apply_linear_map([[1]], t),
    "tensor_to_json": tensor_to_json,
}


@pytest.mark.parametrize("not_tensor", ["x", None, {"n": 3}], ids=["str", "None", "dict"])
@pytest.mark.parametrize("entry", TENSOR_ENTRIES.values(), ids=TENSOR_ENTRIES)
def test_entries_refuse_a_non_tensor_before_reading_it(entry, not_tensor):
    # enc, enclosing_space, is_in_power_of and apply_linear_map read .k or
    # .n first and raised AttributeError
    with pytest.raises(TypeError) as err:
        entry(not_tensor)
    assert str(err.value) == f"not a tensor: {type(not_tensor).__name__}"


@pytest.mark.parametrize("not_subspace", [[(1, 0, 0, 0)], None, "x"], ids=["list", "None", "str"])
def test_is_in_power_of_refuses_a_non_subspace(not_subspace):
    # is_in_power_of(t, None) read W.ambient_dim and raised AttributeError
    with pytest.raises(TypeError) as err:
        is_in_power_of(SYMPLECTIC4, not_subspace)
    assert str(err.value) == f"not a subspace basis: {type(not_subspace).__name__}"


@pytest.mark.parametrize(
    "mat, message",
    [
        ([[1, 0], [0, 1]], "matrix width does not match tensor dimension"),
        # a ragged matrix was read row by row and gave SkewTensor(n=2, ...)
        ([[1, 0, 0], [0, 1]], "rows have unequal lengths"),
    ],
    ids=["narrow", "ragged"],
)
def test_apply_linear_map_refuses_a_bad_matrix(mat, message):
    with pytest.raises(ValueError) as err:
        apply_linear_map(mat, wedge([(1, 0, 0), (0, 1, 0)]))
    assert str(err.value) == message


def test_symplectic_never_in_three_dims():
    for s in range(20):
        W = _random_subspace(4, 3, f"threedim:{s}")
        assert not is_in_power_of(SYMPLECTIC4, W)


def test_self_enclosure_and_minimality():
    rng = random.Random("minimality")
    for kind, n, k in [(SKEW, 5, 2), (SKEW, 6, 3), (SYM, 4, 2)]:
        for s in range(5):
            t = random_tensor(n, k, kind, f"selfenc:{kind}:{n}:{k}:{s}")
            space = enclosing_space(t)
            assert is_in_power_of(t, space)
            m = space.dim
            if m < 2:
                continue
            for _ in range(20):
                while True:
                    coeff_rows = [
                        [rng.randint(-9, 9) for _ in range(m)] for _ in range(m - 1)
                    ]
                    combos = [
                        tuple(
                            sum(c * v[i] for c, v in zip(row, space.vectors))
                            for i in range(n)
                        )
                        for row in coeff_rows
                    ]
                    try:
                        hyper = SubspaceBasis(n, tuple(combos))
                        break
                    except ValueError:
                        continue
                assert not is_in_power_of(t, hyper)


def test_sym_membership():
    t = sym_power((1, 1, 0), 3)
    inside = SubspaceBasis(3, ((1, 1, 0), (0, 0, 1)))
    off = SubspaceBasis(3, ((1, 0, 0), (0, 0, 1)))
    assert is_in_power_of(t, inside)
    assert not is_in_power_of(t, off)


def _rational_span(vectors, dim, n, rng):
    """A basis of dim independent random combinations of the vectors, with
    non-integer coefficients."""
    while True:
        combos = []
        for _ in range(dim):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in vectors]
            combos.append(tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(n)))
        try:
            return SubspaceBasis(n, tuple(combos))
        except ValueError:
            continue


def test_is_in_power_of_matches_enclosing_space_oracle():
    # membership holds exactly when the enclosing space lies in span(W);
    # the oracle is a span test and never rewrites the tensor
    rng = random.Random("membership-oracle")
    outcomes = {True: 0, False: 0}
    for kind, n, k in [(SKEW, 5, 2), (SKEW, 7, 3), (SYM, 4, 2), (SYM, 5, 3)]:
        for s in range(12):
            t = random_decomposable(n, k, kind, f"oracle:{kind}:{s}:a")
            if s % 2:
                t = t + random_decomposable(n, k, kind, f"oracle:{kind}:{s}:b")
            U = list(enclosing_space(t).vectors)
            extra = [random_vector(n, rng) for _ in range(n)]
            dim = rng.randint(len(U), n - 1)
            if s % 3 == 0:  # contains U
                W = _rational_span(U + extra[: dim - len(U)], dim, n, rng)
            elif s % 3 == 1:  # a hyperplane of U plus other directions
                W = _rational_span(U[:-1] + extra[: dim - len(U) + 1], dim, n, rng)
            else:  # a random subspace
                W = _rational_span(extra, dim, n, rng)
            assert any(x.denominator > 1 for w in W.vectors for x in w)
            expected = all(in_span(u, W.vectors) for u in U)
            assert is_in_power_of(t, W) == expected
            outcomes[expected] += 1
    assert min(outcomes.values()) >= 10


def _eliminate_block(aug, m):
    """Right-looking elimination of the first m columns of the integer
    rows aug, in place: each row operation (a swap, or replacing a row by
    an integer combination with the pivot row, divided by its content)
    is applied across the whole row.  The first m columns must have full
    column rank."""
    for col in range(m):
        piv = next(i for i in range(col, len(aug)) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        for i in range(col + 1, len(aug)):
            f = aug[i][col]
            if f:
                row = [p * a - f * b for a, b in zip(aug[i], aug[col])]
                g = math.gcd(*row)
                aug[i] = [x // g for x in row]


def _transport_membership(t, W):
    """Reference membership test by change of basis: eliminating the W
    block of [W | I] leaves in its right block an invertible A that maps
    span(W) onto the first dim(W) coordinates; t lies in the power of
    span(W) iff no coefficient of A t touches a later coordinate."""
    m, n = W.dim, t.n
    aug = [_int_vector([w[i] for w in W.vectors] + [int(i == j) for j in range(n)]) for i in range(n)]
    _eliminate_block(aug, m)
    image = apply_linear_map([row[m:] for row in aug], t)
    if t.kind == SKEW:
        return all(max(idx, default=-1) < m for idx in image.coeffs)
    return all(not any(alpha[m:]) for alpha in image.coeffs)


def test_is_in_power_of_matches_transport_reference():
    rng = random.Random("membership-transport")
    outcomes = {True: 0, False: 0}
    fractions = {"tensor": 0, "space": 0}
    cells = [(SKEW, 1, 4), (SKEW, 2, 5), (SKEW, 3, 7), (SKEW, 4, 6)]
    cells += [(SYM, k, 4) for k in range(1, 5)]
    for kind, k, n in cells:
        for s in range(8):
            t = random_decomposable(n, k, kind, f"transport:{kind}:{k}:{s}:a")
            if s >= 4 and 2 * k < n:
                t = t + random_decomposable(n, k, kind, f"transport:{kind}:{k}:{s}:b")
            if s % 4 >= 2:
                t = t * Fraction(rng.randint(1, 9), rng.randint(2, 5))
            fractions["tensor"] += any(type(c) is Fraction for c in t.coeffs.values())
            U = list(enclosing_space(t).vectors)
            extra = [random_vector(n, rng) for _ in range(n)]
            dim = rng.randint(len(U), n - 1) if len(U) < n else n
            if s % 2 == 0:  # contains U
                W = _rational_span(U + extra[: dim - len(U)], dim, n, rng)
            else:  # a hyperplane of U plus other directions
                W = _rational_span(U[1:] + extra[: dim - len(U) + 1], dim, n, rng)
            fractions["space"] += any(type(x) is Fraction for w in W.vectors for x in w)
            got = is_in_power_of(t, W)
            assert got == _transport_membership(t, W) == (s % 2 == 0), (kind, k, n, s)
            outcomes[got] += 1
    assert min(outcomes.values()) >= 10
    assert min(fractions.values()) >= 10


def test_is_in_power_of_matches_transport_reference_at_large_coefficients():
    # coefficients near 2^200 and Fractions widen the packed slots; k = 1
    # has the one empty face; W of every dimension below n leaves from 1
    # to n annihilator covectors
    rng = random.Random("membership-transport-large")
    scales = (2**200 + 1, -(2**200), Fraction(2**200 - 1, 3), Fraction(-7, 2**61))
    outcomes = {True: 0, False: 0}
    kinds = {"big": 0, "fraction": 0}
    for kind, k, n in [(SKEW, 1, 4), (SKEW, 2, 5), (SKEW, 3, 6), (SYM, 1, 4), (SYM, 2, 4), (SYM, 3, 5)]:
        covector_counts = set()
        for s in range(2 * n):
            t = random_decomposable(n, k, kind, f"large:{kind}:{k}:{s}:a") * rng.choice(scales)
            if s % 2:
                t = t + random_decomposable(n, k, kind, f"large:{kind}:{k}:{s}:b") * rng.choice(scales)
            kinds["big"] += max(abs(c) for c in t.coeffs.values()) > 2**190
            kinds["fraction"] += any(type(c) is Fraction for c in t.coeffs.values())
            U = list(enclosing_space(t).vectors)
            dim = s % n
            extra = [random_vector(n, rng) for _ in range(n)]
            if s % 3 and dim >= len(U):  # contains U
                W = _rational_span(U + extra[: dim - len(U)], dim, n, rng)
            else:
                W = _rational_span(extra, dim, n, rng)
            covector_counts.add(len(W._annihilator()))
            got = is_in_power_of(t, W)
            assert got == _transport_membership(t, W), (kind, k, n, s)
            outcomes[got] += 1
        assert covector_counts == set(range(1, n + 1))
    assert min(outcomes.values()) >= 10
    assert min(kinds.values()) >= 10


def test_is_in_power_of_avoids_the_oracle_side(monkeypatch):
    # membership must stay a route independent of enclosing_space, which
    # the tests check it against
    cases = []
    for kind, n, k in [(SKEW, 6, 2), (SKEW, 6, 3), (SYM, 5, 2), (SYM, 5, 3)]:
        t = random_decomposable(n, k, kind, f"independent:{kind}:{k}:a")
        t = t + random_decomposable(n, k, kind, f"independent:{kind}:{k}:b")
        space = enclosing_space(t)
        hyper = SubspaceBasis(n, space.vectors[1:])
        cases += [(t, space, True), (t, hyper, False)]

    def refuse(*args, **kwargs):
        raise AssertionError("oracle-side function called")

    names = ("contraction_matrix", "enclosing_space", "enc", "rank", "image_basis", "apply_linear_map")
    # the column generators that enc and enclosing_space rank
    names += ("_contraction_columns", "_skew_columns", "_sym_columns", "_pivot_columns")
    for name in names:
        for module in (tensors, linalg):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for t, W, expected in cases:
        assert is_in_power_of(t, W) is expected


def _coordinate_span(n, indices):
    return SubspaceBasis(n, tuple(tuple(int(i == j) for i in range(n)) for j in sorted(indices)))


@pytest.mark.parametrize(
    "cls, first, second",
    [
        (SkewTensor, (0, 1, 2), (3, 4, 5)),
        (SymTensor, (3, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 3)),
    ],
    ids=[SKEW, SYM],
)
def test_is_in_power_of_full_pass_decides_past_a_zero_first_face(cls, first, second):
    # W = span(e0..e4) is annihilated by e5 alone; the first term's face
    # column has nothing in row 5, so the one-face certificate finds zero
    # and only the second term's faces show that t is not a member
    t = cls(6, 3, {first: 1, second: 1})
    W = _coordinate_span(6, range(5))
    get = t.coeffs.get
    if cls is SkewTensor:
        column = tensors._skew_column(get, first[1:], 6)
    else:
        column = tensors._sym_column(get, (2, 0, 0, 0, 0, 0), 6, True)
    assert column[5] == 0 and any(column)
    assert not is_in_power_of(t, W)
    assert is_in_power_of(cls(6, 3, {first: 1}), W)
    assert is_in_power_of(t, _coordinate_span(6, range(6)))


def test_is_in_power_of_sparse_tensor_at_large_n():
    # ten terms of degree 4 on QQ^80: the cost follows the support (40
    # faces), not the C(80, 3) = 82,160 faces of the contraction matrix
    rng = random.Random("sparse-membership")
    n, k = 80, 4
    t = SkewTensor(n, k, {tuple(sorted(rng.sample(range(n), k))): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(10)})
    assert len(t.coeffs) == 10
    support = sorted(set(itertools.chain.from_iterable(t.coeffs)))
    others = [i for i in range(n) if i not in support]
    cases = [(_coordinate_span(n, support), True), (_coordinate_span(n, support + others[:20]), True)]
    for drop in (support[0], support[len(support) // 2], support[-1]):
        cases.append((_coordinate_span(n, [i for i in support if i != drop] + others[:20]), False))
    start = time.perf_counter()
    for W, expected in cases:
        assert is_in_power_of(t, W) is expected
    # a walk over all C(n, k-1) faces takes seconds; the support pass takes milliseconds
    assert time.perf_counter() - start < 2


def test_sym_decomposable_enc():
    for s in range(10):
        assert enc(random_decomposable(4, 3, SYM, s)) == 1


# ---------------------------------------------------------------------------
# JSON interchange


def test_json_round_trip_skew():
    t = SkewTensor(4, 2, {(0, 1): Fraction(1, 2), (2, 3): -3})
    obj = tensor_to_json(t)
    assert json.loads(json.dumps(obj)) == obj
    assert tensor_from_json(obj) == t


def test_json_round_trip_sym():
    t = SymTensor(3, 2, {(2, 0, 0): 1, (1, 1, 0): Fraction(-2, 5)})
    assert tensor_from_json(tensor_to_json(t)) == t


def test_json_coefficient_strings():
    obj = {
        "n": 2,
        "k": 2,
        "kind": "sym",
        "terms": [{"index": [1, 1], "coeff": "2/3"}, {"index": [2, 0], "coeff": 4}],
    }
    t = tensor_from_json(obj)
    assert t.coefficient((1, 1)) == Fraction(2, 3)
    assert t.coefficient((2, 0)) == 4


@pytest.mark.parametrize(
    "coeff, expected",
    [
        ("+3", 3),
        (" 5 ", 5),
        ("1_0", 10),
        ("-0", 0),
        ("007", 7),
        ("1.5", Fraction(3, 2)),
        ("1e3", 1000),
        ("3/6", Fraction(1, 2)),
        ("1/2_0", Fraction(1, 20)),
        ("1e1_0", 10**10),
        ("1_0.2_5", Fraction(41, 4)),
        (4, 4),
    ],
)
def test_json_coefficient_spellings(coeff, expected):
    # every spelling of as_exact's grammar keeps its value and number type,
    # on every Python version: Python 3.10's Fraction reads no underscore
    obj = {"n": 2, "k": 1, "kind": "skew", "terms": [{"index": [1], "coeff": coeff}]}
    got = tensor_from_json(obj).coefficient((1,))
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("coeff", ["1__0", "_1", "1_", "1_/2", "1 / 2"])
def test_json_coefficient_spellings_refused_on_every_python(coeff):
    # underscores stand only between digits, and no space stands around the
    # slash, though Fraction reads "1 / 2" from Python 3.12 on
    obj = {"n": 2, "k": 1, "kind": "skew", "terms": [{"index": [1], "coeff": coeff}]}
    with pytest.raises(ValueError) as info:
        tensor_from_json(obj)
    assert str(info.value) == f"bad coefficient {coeff!r}: Invalid literal for Fraction: {coeff!r}"


@pytest.mark.parametrize(
    "kind, n, k, terms, message",
    [
        # term errors come before index errors, whatever the order of the terms
        (SKEW, 3, 2, [([1, 0], "1"), ([0, 1], "x")], "bad coefficient 'x': Invalid literal for Fraction: 'x'"),
        (SKEW, 2, 1, [([1], "\u00b2")], "bad coefficient '\u00b2': Invalid literal for Fraction: '\u00b2'"),
        (SKEW, 2, 1, [([1], True)], "bad coefficient True: expected an exact rational, got bool"),
        # the first bad index is reported
        (
            SKEW,
            3,
            2,
            [([0, 1], "1"), ([2, 5], "2"), ([1, 0], "1")],
            "index (2, 5) is not a strictly increasing subset of range(3)",
        ),
        (
            SYM,
            3,
            2,
            [([1, 1, 0], "1"), ([1, 1], "2"), ([3, 0, 0], "1")],
            "exponent vector (1, 1) does not have length 3",
        ),
        (SYM, 2, 2, [([3, -1], "1")], "exponent vector (3, -1) does not have total degree 2"),
    ],
)
def test_json_error_messages(kind, n, k, terms, message):
    obj = {"n": n, "k": k, "kind": kind, "terms": [{"index": i, "coeff": c} for i, c in terms]}
    with pytest.raises(ValueError) as err:
        tensor_from_json(obj)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tensor_from_json([]), "tensor JSON must be an object"),
        (lambda: tensor_from_json({"n": 2, "k": 1, "kind": SKEW, "terms": {}}), "terms must be a list"),
        (
            lambda: tensor_from_json({"n": 2, "k": 1, "kind": SKEW, "terms": [{"index": [1], "coeff": 1.5}]}),
            "coefficient must be an int or a 'p/q' string: 1.5",
        ),
        (lambda: contraction_matrix(SkewTensor(3, 0, {(): 2})), "contraction needs degree k >= 1"),
        (lambda: contraction_matrix(SymTensor(3, 0, {(0, 0, 0): 2})), "contraction needs degree k >= 1"),
    ],
    ids=["json-not-an-object", "terms-not-a-list", "float-coefficient", "skew-degree-0", "sym-degree-0"],
)
def test_refusals_give_their_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_json_malformed_rejected():
    bad = [
        {"n": 3, "k": 2, "kind": "skew"},
        {"n": 3, "k": 2, "kind": "other", "terms": []},
        {"n": 3, "k": 2, "kind": "skew", "terms": [{"index": [1, 0], "coeff": "1"}]},
        {"n": 3, "k": 2, "kind": "skew", "terms": [{"index": [0, 1], "coeff": "1/0"}]},
        {"n": 3, "k": 2, "kind": "sym", "terms": [{"index": [1, 1, 1], "coeff": "1"}]},
        {"n": 3, "k": 2, "kind": "skew", "terms": [{"coeff": "1"}]},
    ]
    for obj in bad:
        with pytest.raises(ValueError):
            tensor_from_json(obj)


@pytest.mark.parametrize(
    "cls, n, k, key, message",
    [
        (SkewTensor, 3, 2, (False, True), "index (False, True) is not a strictly increasing subset of range(3)"),
        (SymTensor, 2, 2, (True, True), "exponent vector (True, True) does not have total degree 2"),
    ],
    ids=[SKEW, SYM],
)
def test_bool_index_entries_refused_by_both_routes(cls, n, k, key, message):
    # a bool key would serialize as [false, true], which tensor_from_json refuses
    with pytest.raises(ValueError) as err:
        cls(n, k, {key: 5})
    assert str(err.value) == message
    t = cls(n, k, {tuple(map(int, key)): 5})
    obj = json.loads(json.dumps(tensor_to_json(t)))
    assert tensor_from_json(obj) == t
    obj["terms"][0]["index"] = list(key)
    with pytest.raises(ValueError) as err:
        tensor_from_json(obj)
    assert str(err.value) == f"malformed index: {list(key)!r}"


@pytest.mark.parametrize("bad", [True, False, 2.0, "2", None, Fraction(2)], ids=repr)
@pytest.mark.parametrize("name", ["n", "k"])
@pytest.mark.parametrize("cls", [SkewTensor, SymTensor], ids=[SKEW, SYM])
def test_constructors_refuse_non_int_n_and_k(cls, name, bad):
    # SkewTensor(True, 1, {(0,): 1}) and SymTensor(2, True, {(1, 0): 1}) were accepted
    args = {"n": 2, "k": 1, "coeffs": {}, name: bad}
    with pytest.raises(ValueError) as err:
        cls(**args)
    assert str(err.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("n, k", [(-1, 1), (2, -1)])
@pytest.mark.parametrize("cls", [SkewTensor, SymTensor], ids=[SKEW, SYM])
def test_constructors_refuse_negative_n_and_k(cls, n, k):
    with pytest.raises(ValueError) as err:
        cls(n, k, {})
    assert str(err.value) == "n and k must be nonnegative"


@pytest.mark.parametrize(
    "ambient_dim, vectors, message",
    [
        (True, ((1,),), "ambient_dim must be an integer, got True"),
        (2.0, ((1, 0),), "ambient_dim must be an integer, got 2.0"),
        ("2", (), "ambient_dim must be an integer, got '2'"),
        (-1, (), "ambient_dim must be >= 0, got -1"),
    ],
    ids=repr,
)
def test_subspace_basis_checks_ambient_dim_before_the_kernel(monkeypatch, ambient_dim, vectors, message):
    # SubspaceBasis(True, ((1,),)) and SubspaceBasis(-1, ()) were accepted, and
    # SubspaceBasis(2.0, ((1, 0),)) raised TypeError from range in the kernel
    def refuse(*args):
        raise AssertionError("kernel ran on an unchecked ambient_dim")

    monkeypatch.setattr(tensors, "_eliminate", refuse)
    with pytest.raises(ValueError) as err:
        SubspaceBasis(ambient_dim, vectors)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "cls, n, k, keys, message",
    [
        (SkewTensor, 4, 2, [(0, 1), (2, 4), (1, 1)], "index (2, 4) is not a strictly increasing subset of range(4)"),
        (SkewTensor, 4, 2, [(0, 1), (-1, 2), (3,)], "index (-1, 2) is not a strictly increasing subset of range(4)"),
        (SkewTensor, 4, 2, [(0, 1), (2, 3, 0)], "index (2, 3, 0) does not have degree 2"),
        (SkewTensor, 4, 2, [(1, 0.5)], "index (1, 0.5) is not a strictly increasing subset of range(4)"),
        (SymTensor, 3, 2, [(2, 0, 0), (1, 1), (3, 0, 0)], "exponent vector (1, 1) does not have length 3"),
        (SymTensor, 2, 2, [(1, 1), (3, -1)], "exponent vector (3, -1) does not have total degree 2"),
        (SymTensor, 0, 1, [()], "exponent vector () does not have total degree 1"),
    ],
)
def test_constructor_reports_the_first_bad_key(cls, n, k, keys, message):
    with pytest.raises(ValueError) as err:
        cls(n, k, dict.fromkeys(keys, 1))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "key, message, json_message",
    [
        ((True, 1), "exponent vector (True, 1) does not have total degree 2", "malformed index: [True, 1]"),
        ((1.0, 1), "exponent vector (1.0, 1) does not have total degree 2", "malformed index: [1.0, 1]"),
        ((-1, 3), "exponent vector (-1, 3) does not have total degree 2", None),
        ((256, -254), "exponent vector (256, -254) does not have total degree 2", None),
    ],
)
def test_sym_key_check_refuses_bool_float_and_negative_entries(key, message, json_message):
    # the key check reads lengths and degrees from bytes(key), which takes
    # True as 1 and refuses a float or an entry outside 0..255; each
    # route still refuses with its own message
    with pytest.raises(ValueError) as err:
        SymTensor(2, 2, {(2, 0): 1, key: 1})
    assert str(err.value) == message
    terms = [{"index": [2, 0], "coeff": "1"}, {"index": list(key), "coeff": "1"}]
    with pytest.raises(ValueError) as err:
        tensor_from_json({"n": 2, "k": 2, "kind": SYM, "terms": terms})
    assert str(err.value) == (json_message or message)


def test_sym_keys_with_entries_past_255_are_accepted():
    # bytes() refuses an entry past 255, so k >= 256 takes the key checks on
    # the keys themselves
    coeffs = {(300, 0): 1, (256, 44): 2, (0, 300): 3}
    t = SymTensor(2, 300, coeffs)
    assert t.coeffs == coeffs and enc(t) == 2
    terms = [{"index": list(key), "coeff": str(c)} for key, c in coeffs.items()]
    assert tensor_from_json({"n": 2, "k": 300, "kind": SYM, "terms": terms}) == t
    assert SymTensor(1, 256, {(256,): 5}).coeffs == {(256,): 5}
    with pytest.raises(ValueError, match=r"exponent vector \(256, 45\) does not have total degree 300"):
        SymTensor(2, 300, {(300, 0): 1, (256, 45): 2})


def test_constructor_accumulates_keys_that_become_equal():
    # keys become tuples first: a repeat accumulates in order and zero sums drop
    t = SymTensor(2, 2, {(2, 0): 1, range(2, -1, -2): 3, (1, 1): "0", (0, 2): "1/2"})
    assert list(t.coeffs.items()) == [((2, 0), 4), ((0, 2), Fraction(1, 2))]
    t = SkewTensor(3, 2, {(0, 1): Fraction(1, 2), range(2): Fraction(-1, 2), (1, 2): Fraction(4, 2)})
    assert list(t.coeffs.items()) == [((1, 2), 2)] and type(t.coeffs[(1, 2)]) is int
    assert SymTensor(0, 0, {(): 3}).coeffs == {(): 3}
