import ast
import itertools
import math
import operator
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import divatlas
from divatlas import linalg
from divatlas.linalg import (
    RANK_PRIME,
    RationalMatrix,
    _certified_rank,
    _eliminate,
    _int_vector,
    _rank_mod_p,
    as_exact,
    exact_det,
    gauss_rank,
    image_basis,
    in_span,
    int_det,
    random_matrix,
    rank,
)


def test_rank_identity():
    assert rank(RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero_matrix():
    assert rank(RationalMatrix([[0] * 7 for _ in range(4)])) == 0


def test_rank_rank_one_matrix_matches_gauss_oracle():
    M = RationalMatrix([[1, 2], [2, 4], [3, 6]])
    assert gauss_rank(M) == 1  # independent naive-elimination oracle
    assert rank(M) == 1


def test_rank_fractional_entries():
    M = RationalMatrix([["1/2", "1/3"], ["1/4", "1/6"]])
    assert rank(M) == 1
    M = RationalMatrix([["1/2", "1/3"], ["1/4", "1/5"]])
    assert rank(M) == 2


def test_image_basis_identity():
    assert image_basis(RationalMatrix([[1, 0], [0, 1]])) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_image_basis_zero():
    assert image_basis(RationalMatrix([[0, 0], [0, 0], [0, 0]])) == []


def test_image_basis_spans_column_space():
    M = RationalMatrix([[1, 2], [2, 4]])
    basis = image_basis(M)
    assert len(basis) == 1
    assert in_span((1, 2), basis)


def test_in_span_trivial_cases():
    assert in_span((0, 0), [])
    assert not in_span((1, 0), [(0, 1)])
    assert in_span((3, 6), [(1, 2)])  # explicit scalar 3


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span((1, 0, 0), [(0, 1)])


def test_floats_rejected():
    with pytest.raises(TypeError):
        RationalMatrix([[0.5]])


def test_as_exact_decides_number_type():
    assert type(as_exact("6/3")) is int and as_exact("6/3") == 2
    assert type(as_exact(Fraction(4, 2))) is int
    assert as_exact("1/2") == Fraction(1, 2) and type(as_exact("1/2")) is Fraction
    # exponents up to the 4,300-digit limit
    for spelling, value in (("1e4299", 10**4299), ("1e-4299", Fraction(1, 10**4299)), ("1e3", 1000), ("1e1_0", 10**10)):
        assert as_exact(spelling) == value and type(as_exact(spelling)) is type(value), spelling
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            as_exact(bad)
    M = RationalMatrix.from_columns([(1, Fraction(4, 2)), ("6/3", "1/2")])
    assert [type(x) for col in M.columns() for x in col] == [int, int, int, Fraction]
    assert type(exact_det([["1/2", 0], [0, 4]])) is int


def test_as_exact_refuses_a_long_exponent_or_value_at_once():
    # unchecked, the last three would have Fraction build 10**99999999, so
    # they run in a child process with a time limit
    code = (
        "from divatlas.linalg import as_exact\n"
        "for c in ('1e4300', '1e-4300', '0e99999999', '1.5e99999999', '1e99999999'):\n"
        "    try:\n"
        "        print(as_exact(c))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    digits = "numerator or denominator of more than 4300 digits"
    assert proc.stdout.splitlines() == [digits] * 2 + ["exponent past 4300 in absolute value"] * 3


def test_gauss_rank_pivots_stay_exact():
    # a float reciprocal of the pivot would round 10**17 + 1 to 10**17
    assert gauss_rank(RationalMatrix([[1, 10**17 + 1], [1, 10**17]])) == 2


def test_no_true_division_in_package():
    # an int / int is a float, so exact code divides only through Fraction or //
    for path in sorted(pathlib.Path(divatlas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                pytest.fail(f"true division at {path.name}:{node.lineno}")


def test_rank_transpose_random():
    rng = random.Random("transpose")
    for _ in range(60):
        M = random_matrix(rng.randint(1, 12), rng.randint(1, 12), rng)
        assert rank(M) == rank(M.transpose())


def test_bareiss_equals_gauss_random():
    rng = random.Random("oracle")
    for _ in range(100):
        M = random_matrix(rng.randint(1, 12), rng.randint(1, 12), rng)
        assert rank(M) == gauss_rank(M)


def test_random_full_rank_frequency():
    # generic matrices are full rank with overwhelming frequency
    hits = 0
    for seed in range(200):
        rng = random.Random(f"fullrank:{seed}")
        r, c = rng.randint(1, 12), rng.randint(1, 12)
        M = random_matrix(r, c, rng)
        if rank(M) == min(r, c):
            hits += 1
    assert hits >= 190


def test_rank_bounded_by_shape():
    rng = random.Random("bound")
    for _ in range(40):
        r, c = rng.randint(1, 10), rng.randint(1, 10)
        assert rank(random_matrix(r, c, rng)) <= min(r, c)


def test_columns_lie_in_image_basis_span():
    rng = random.Random("span")
    for _ in range(30):
        M = random_matrix(rng.randint(1, 8), rng.randint(1, 8), rng)
        basis = image_basis(M)
        for j in range(M.cols):
            assert in_span(M.column(j), basis)


def _leibniz_det(rows):
    """Permutation-sum determinant, independent of any elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


def test_det_matches_leibniz():
    rng = random.Random("det")
    cases = []
    for n in range(6):
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            cases.append(rows)
            if n >= 2:
                # a zero pivot: the first column needs a row swap
                cases.append([[0] + rows[0][1:]] + rows[1:])
                # singular: the last row is the sum of the first two
                cases.append(rows[:-1] + [[a + b for a, b in zip(rows[0], rows[1])]])
    for rows in cases:
        expected = _leibniz_det(rows)
        assert int_det(rows) == expected
        assert exact_det(rows) == expected
    for n in range(6):
        for _ in range(10):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            assert exact_det(rows) == _leibniz_det(rows)
    with pytest.raises(ValueError):
        exact_det([[1, 2]])


@pytest.mark.parametrize("rows", [[[2, 3]], [[1, 2, 3], [4, 5, 6]], [[1, 2], [3]]])
def test_int_det_refuses_a_non_square_matrix(rows):
    with pytest.raises(ValueError, match="determinant of a non-square matrix"):
        int_det(rows)


def test_int_det_of_the_empty_matrix_is_one():
    assert int_det([]) == 1
    assert exact_det([]) == 1


def test_det_fractional():
    assert exact_det([["1/2", 0], [0, "1/3"]]) == Fraction(1, 6)


def test_int_vector_copies_integral_vectors_without_rescaling(monkeypatch):
    class NoLcm:
        def lcm(self, *args):
            raise AssertionError("lcm taken on an integral vector")

    row = (3, -4, 0)
    monkeypatch.setattr(linalg, "math", NoLcm())
    out = _int_vector(row)
    assert out == [3, -4, 0] and type(out) is list
    out[0] = 7  # a fresh list, safe to change
    assert row == (3, -4, 0)
    monkeypatch.undo()
    assert [_int_vector(v) for v in [(Fraction(1, 2), 1), (2, Fraction(2, 3))]] == [[1, 2], [6, 2]]


def _count_fallbacks(monkeypatch) -> list:
    """Record the n_rows of every _eliminate call: _certified_rank's exact
    fallback (rank, image_basis and the determinants go through it too)."""
    calls = []
    eliminate = linalg._eliminate

    def counting(columns, n_rows):
        calls.append(n_rows)
        return eliminate(columns, n_rows)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    return calls


def _stopping_at(columns, stop: int):
    """The columns as a stream that raises if it is read past column stop."""
    for j, col in enumerate(columns):
        if j > stop:
            raise AssertionError(f"column {j} read past column {stop}")
        yield col


def test_certified_rank_never_returns_a_rank_lost_mod_p(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    # full rank over QQ, smaller rank mod p: each takes the exact pass
    for columns in (
        [(1, 0), (0, RANK_PRIME)],
        [(1, 1), (1, 1 + RANK_PRIME)],
        [(RANK_PRIME, 2 * RANK_PRIME, 0)],
        [(1, 2, 3, 0), (2, 4, 6 + RANK_PRIME, 0), (0, 0, 1, 1)],
    ):
        fallbacks.clear()
        got = _certified_rank(columns, len(columns[0]))
        assert fallbacks == [len(columns[0])]
        assert got == rank(RationalMatrix.from_columns(columns)) == len(columns)
    # full row rank mod p certifies at the column that reaches it, and no
    # column after it is read
    fallbacks.clear()
    assert _certified_rank(_stopping_at([(1, 2), (0, 1), (5, 0)], 1), 2) == 2
    assert _rank_mod_p(_stopping_at([(0, 0), (3, 0), (RANK_PRIME, 1), (1, 1)], 2), 2) == 2
    assert not fallbacks
    # no rows: rank 0, and no column is read
    assert _certified_rank(_stopping_at([(), ()], -1), 0) == 0
    assert not fallbacks


def test_certified_rank_reductions_and_lost_ranks(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    # a chain: column i is e_i + e_(i+1), so reducing e_0 runs through
    # every pivot in turn before it reaches row m
    m = 6
    chain = [tuple(int(r in (i, i + 1)) for r in range(m + 1)) for i in range(m)]
    e0 = tuple(int(r == 0) for r in range(m + 1))
    assert _certified_rank(chain + [e0], m + 1) == m + 1
    assert not fallbacks
    # e_0 - (-1)^m e_m lies in the span of the chain: a dependency found
    # only through the reductions
    dependent = tuple(int(r == 0) - (-1) ** m * int(r == m) for r in range(m + 1))
    assert _certified_rank(chain + [dependent], m + 1) == m
    assert fallbacks == [m + 1]
    # deficient mod p, through entries that vanish mod p (the first three,
    # of full rank over QQ) or a dependency over QQ (the last): each takes
    # the exact pass on every column
    for columns, n_rows, expected in (
        ([(1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1 + RANK_PRIME)], 6, 2),
        ([(0, 0, 0, RANK_PRIME)], 4, 1),
        ([(0, 0, 1) + (0,) * 5, (0, 0, 1 + RANK_PRIME, 0, 0, 0, 0, RANK_PRIME)], 8, 2),
        ([(2, 0, 0, 0, 1), (4, 0, 0, 0, 2)], 5, 1),
    ):
        fallbacks.clear()
        assert _certified_rank(columns, n_rows) == expected
        assert fallbacks == [n_rows]
    # random columns against the exact rank
    rng = random.Random("sparse-certified-rank")
    for _ in range(150):
        rows, cols = rng.randint(1, 12), rng.randint(1, 10)
        dense = [
            tuple(rng.choice((0, 0, 0, 0, 1, -1, 3, RANK_PRIME)) for _ in range(rows)) for _ in range(cols)
        ]
        dense += [tuple(a - b for a, b in zip(dense[0], dense[-1]))] * rng.randint(0, 1)
        fallbacks.clear()
        got = _certified_rank(dense, rows)
        # one exact pass at most, and always when the rank is short of
        # both the row and the column count
        assert len(fallbacks) <= 1 and (got in (len(dense), rows) or fallbacks)
        assert got == rank(RationalMatrix.from_columns(dense))


def _gauss_rank_of_sparse(columns, height: int) -> int:
    return gauss_rank(RationalMatrix.from_columns(_dense_columns(columns, height), height))


def _dense_columns(columns, height: int) -> list:
    """{row: int} maps as dense tuples of the given height."""
    return [tuple(c.get(r, 0) for r in range(height)) for c in columns]


def test_rank_prime_is_a_prime_of_one_cpython_digit():
    # below 2**30, every residue of the pass is one 30-bit digit of a
    # CPython int; any prime certifies, so primality is all it needs
    p = RANK_PRIME
    assert 2 < p < 2**30
    assert all(p % d for d in range(2, math.isqrt(p) + 1))


def test_certified_rank_on_one_entry_columns(monkeypatch):
    # unit columns take the general elimination like any other: on an
    # index with no pivot and nonzero mod p they become pivots, and a
    # rank mod p short of both counts takes the exact fallback
    fallbacks = _count_fallbacks(monkeypatch)
    for columns, height, rank_p in (
        # 0 mod p: dependent mod p, independent over QQ
        ([{0: RANK_PRIME}], 1, 0),
        ([{1: 1}, {0: 2 * RANK_PRIME}], 2, 1),
        # a repeated unit column
        ([{2: 1}, {2: 1}], 3, 1),
        ([{0: 1}, {3: -4}, {0: 7}], 4, 2),
        # a unit column on an index that already holds a pivot
        ([{0: 1, 3: 2}, {0: 5}], 4, 2),
        ([{1: 1, 2: 1}, {1: 7}, {2: 1}], 3, 2),
        ([{4: 3}, {2: 1, 4: 1}, {2: 5}], 5, 2),
    ):
        dense = _dense_columns(columns, height)
        fallbacks.clear()
        assert _rank_mod_p(dense, height) == rank_p, columns
        assert _certified_rank(dense, height) == _gauss_rank_of_sparse(columns, height), columns
        assert len(fallbacks) == (rank_p < min(len(columns), height)), columns
    assert _certified_rank([(RANK_PRIME,)], 1) == 1
    # unit columns interleaved with random columns, as in the cases above
    rng = random.Random("one-entry-columns")
    for _ in range(150):
        rows, cols = rng.randint(1, 10), rng.randint(0, 6)
        columns = [
            {r: x for r in range(rows) if (x := rng.choice((0, 0, 0, 1, -1, 3, RANK_PRIME)))} for _ in range(cols)
        ]
        for _ in range(rng.randint(1, 4)):
            unit = {rng.randrange(rows): rng.choice((1, 1, -2, RANK_PRIME))}
            columns.insert(rng.randint(0, len(columns)), unit)
        dense = _dense_columns(columns, rows)
        rank_p = _rank_mod_p(dense, rows)
        fallbacks.clear()
        got = _certified_rank(dense, rows)
        assert got == _gauss_rank_of_sparse(columns, rows), columns
        assert len(fallbacks) == (rank_p < min(len(columns), rows))


def test_certified_rank_agrees_with_rank(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random("certified-rank")
    certified = 0
    assert _certified_rank([], 3) == 0
    assert _certified_rank([(), ()], 0) == 0
    assert not fallbacks
    for _ in range(120):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        inner = rng.randint(0, min(rows, cols))
        if rng.randint(0, 1):
            M = RationalMatrix([[rng.randint(-(10**20), 10**20) for _ in range(cols)] for _ in range(rows)])
        else:
            # a product through QQ^inner: rank at most inner
            L, R = random_matrix(rows, inner, rng), random_matrix(inner, cols, rng)
            M = RationalMatrix(
                [[sum(L[i, t] * R[t, j] for t in range(inner)) for j in range(cols)] for i in range(rows)],
                cols=cols,
            )
        fallbacks.clear()
        got = _certified_rank(M.columns(), rows)
        # an exact pass exactly when the rank is short of both counts
        assert len(fallbacks) == (got < min(rows, cols))
        assert got == rank(M) == gauss_rank(M)
        certified += got == min(rows, cols)
    assert 20 < certified < 100


def _right_looking_bareiss(mat):
    """Reference: right-looking fraction-free elimination, in place.  Each
    pivot step updates every column to its right at once."""
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    r = 0
    prev = 1
    sign = 1
    pivot_cols = []
    for col in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        pc = mat[r][col]
        for i in range(r + 1, n_rows):
            ric = mat[i][col]
            mrow = mat[r]
            irow = mat[i]
            for j in range(col + 1, n_cols):
                irow[j] = (pc * irow[j] - ric * mrow[j]) // prev
            irow[col] = 0
        prev = pc
        pivot_cols.append(col)
        r += 1
        if r == n_rows:
            break
    return r, pivot_cols, sign * prev


def _kernel_cases(rng):
    """Seeded integer matrices: empty shapes, zero columns, forced row
    swaps, dependent rows, and wide n x 800 shapes."""
    digits = range(-9, 10)
    sparse = [0] * 40 + list(digits)
    yield []
    for rows, cols in ((0, 0), (1, 0), (3, 0), (1, 1), (2, 5)):
        yield [[0] * cols for _ in range(rows)]
    for _ in range(2000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 12)
        shape = rng.randrange(4)
        # shape 0: sparse, with zero columns
        mat = [rng.choices(sparse if shape == 0 else digits, k=cols) for _ in range(rows)]
        if shape == 1:  # a zero top-left block: the first pivots need row swaps
            lead = rng.randint(1, cols)
            for row in mat[: rng.randint(1, rows)]:
                row[:lead] = [0] * lead
        elif shape == 2 and rows > 1:  # each later row a combination of the first few
            base = rng.randint(1, rows - 1)
            for i in range(base, rows):
                w = rng.choices(range(-3, 4), k=base)
                mat[i] = [sum(map(operator.mul, w, col)) for col in zip(*mat[:base])]
        yield mat
    for n in (4, 16):
        mat = [rng.choices(digits, k=800) for _ in range(n)]
        yield mat
        # row 0 first nonzero in the last column: the rank is full only there
        yield [[0] * 799 + [1]] + mat[1:]
        for inner in (1, n // 2):  # rank inner: every column is reached
            weights = [rng.choices(range(-3, 4), k=inner) for _ in range(n)]
            yield [[sum(map(operator.mul, w, col)) for col in zip(*mat[:inner])] for w in weights]


def _check_annihilator(mat, rank_, annihilator, independence: bool):
    """The covectors are ints, one per row without a pivot, and annihilate
    every column; with independence, gauss_rank finds them independent."""
    n_rows = len(mat)
    assert len(annihilator) == n_rows - rank_
    assert all(type(x) is int and len(y) == n_rows for y in annihilator for x in y)
    for col in zip(*mat):
        assert not any(sum(map(operator.mul, y, col)) for y in annihilator)
    if annihilator and independence:
        assert gauss_rank(RationalMatrix(annihilator)) == len(annihilator)


def test_bareiss_matches_right_looking_reference():
    rng = random.Random("left-looking")
    count = swapped = deficient = wide = 0
    for mat in _kernel_cases(rng):
        frozen = tuple(map(tuple, mat))
        pivots, last, annihilator = _eliminate(zip(*frozen), len(mat))
        annihilator = list(annihilator)
        got = (len(pivots), pivots, last)
        assert got == _right_looking_bareiss([list(row) for row in mat]), mat
        if count % 4 == 0:  # the oracles' routes into the kernel read the same pivots
            M = RationalMatrix(frozen, cols=len(mat[0]) if mat else 0)
            assert rank(M) == got[0] and image_basis(M) == [M.column(j) for j in pivots]
            if len(mat) == M.cols:
                assert int_det(frozen) == (last if got[0] == len(mat) else 0)
        # gauss_rank on every third case: its Fractions cost more than the kernel
        _check_annihilator(mat, got[0], annihilator, count % 3 == 0)
        count += 1
        swapped += bool(got[1]) and mat[0][got[1][0]] == 0  # the first pivot took a row swap
        deficient += got[0] < min(len(mat), len(mat[0]) if mat else 0)
        wide += bool(mat) and len(mat[0]) == 800
    assert count >= 2000
    assert swapped >= 100 and deficient >= 300 and wide == 8


class _Untouchable:
    """An entry that fails on any arithmetic or truth test."""

    def _refuse(self, *args):
        raise AssertionError("an entry after full row rank was used")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __floordiv__ = __rfloordiv__ = __neg__ = __bool__ = _refuse


def test_bareiss_stops_at_full_row_rank():
    for n in (1, 2, 5):
        for width in (1, 7):
            mat = [[int(i == j) for j in range(n)] + [_Untouchable() for _ in range(width)] for i in range(n)]
            pivots, last, _ = _eliminate(zip(*mat), n)
            assert (len(pivots), pivots, last) == (n, list(range(n)), 1)

    # nor is a stream of columns advanced past the one that completes the rank
    def columns(n):
        for j in range(n):
            yield [int(i == j) for i in range(n)]
        raise AssertionError("a column after full row rank was requested")

    for n in (0, 1, 4):
        pivots, last, annihilator = _eliminate(columns(n), n)
        assert (pivots, last, list(annihilator)) == (list(range(n)), 1, [])


# ---------------------------------------------------------------------------
# the packed covector test


def _per_covector_eliminate(columns, n_rows):
    """_eliminate with one product per covector on every nonzero column,
    written apart from the kernel: the reference for its packed test and
    for its run with no bound.  Returns the dense covectors as a list."""
    pivot_cols, pivot_rows = [], []
    rows = list(range(n_rows))
    covectors = [()] * n_rows
    prev, sign = 1, 1
    for col, v in enumerate(columns if rows else ()):
        if not any(v):
            continue
        if pivot_rows:
            ds = [sum(b[j] * v[p] for j, p in enumerate(pivot_rows)) + prev * v[q] for q, b in zip(rows, covectors)]
            if not any(ds):
                continue
        else:
            ds = list(v)
        piv = next(i for i, a in enumerate(ds) if a)
        a = ds[piv]
        if piv:
            sign = -sign
        pivot_rows.append(rows[piv])
        b_piv = covectors[piv]
        rows[piv], covectors[piv], ds[piv] = rows[0], covectors[0], ds[0]
        del rows[0], covectors[0], ds[0]
        covectors = [[(a * x - d * y) // prev for x, y in zip(b, b_piv)] + [-d] for b, d in zip(covectors, ds)]
        pivot_cols.append(col)
        prev = a
        if not rows:
            break
    dense = []
    for q, b in zip(rows, covectors):
        y = [0] * n_rows
        y[q] = prev
        for p, x in zip(pivot_rows, b):
            y[p] = x
        dense.append(y)
    return pivot_cols, sign * prev, dense


_EDGES = (2**62 - 1, 2**62, 2**200)


def _edge_streams(rng, edges=_EDGES):
    """(n, columns): rank-deficient streams whose columns combine, with
    weights -1..1, fewer base columns than rows; base entries are 0,
    small, or +-edges, by default +-(2^62 - 1), +-2^62 or +-2^200, so
    dependent columns hold entries past one machine word."""
    values = [0, 0, 1, -2, 3] + [s * x for x in edges for s in (1, -1)]
    for n in range(2, 8):
        for _ in range(30):
            base = [[rng.choice(values) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
            columns = []
            for _ in range(rng.randint(len(base), 3 * n)):
                if rng.random() < 0.5:  # a base column again, its entries kept exactly
                    columns.append(list(rng.choice(base)))
                else:
                    ws = [rng.randint(-1, 1) for _ in base]
                    columns.append([sum(w * b[i] for w, b in zip(ws, base)) for i in range(n)])
            yield n, columns


def test_kernel_with_no_bound_matches_the_per_covector_reference_and_never_packs(monkeypatch):
    # with no bound of its caller's the kernel takes the per-covector
    # products on every column, whatever the size of its entries
    packs = []
    monkeypatch.setattr(linalg, "_packed_rows", lambda *args: packs.append(args[2]))
    dependent = {"2^62 - 1": 0, "2^62": 0, "2^200": 0}
    for n, columns in _edge_streams(random.Random("packed-kernel")):
        pivots, last, annihilator = _eliminate(iter(columns), n)
        expected = _per_covector_eliminate(columns, n)
        assert (pivots, last, list(annihilator)) == expected
        assert len(pivots) == gauss_rank(RationalMatrix.from_columns(columns)) < n
        for j, v in enumerate(columns):
            top = max(map(abs, v))
            if j not in pivots and top:
                dependent["2^62 - 1"] += top == 2**62 - 1
                dependent["2^62"] += top == 2**62
                dependent["2^200"] += top >= 2**200
    assert packs == []
    assert min(dependent.values()) >= 50, dependent


def test_eliminate_with_a_covering_bound_matches_the_per_covector_reference(monkeypatch):
    # a caller's bound that covers every entry of its stream, tight or
    # loose, packs with that bound and gives the triple of the
    # per-covector reference; with no bound nothing is packed
    packs = []
    real = linalg._packed_rows
    monkeypatch.setattr(linalg, "_packed_rows", lambda *args: packs.append(args[2]) or real(*args))
    rng = random.Random("covering-bound")
    streams = list(_edge_streams(rng, edges=())) + list(_edge_streams(rng, edges=(7, 2**62, 2**200)))
    packed = 0
    for n, columns in streams:
        expected = _per_covector_eliminate(columns, n)
        top = max(abs(x) for v in columns for x in v)
        for bound in (None, top, top + 1, 3 * top + 5, 2**300):
            packs.clear()
            pivots, last, annihilator = _eliminate(iter(columns), n, bound)
            assert (pivots, last, list(annihilator)) == expected, (n, columns, bound)
            assert set(packs) <= {bound} - {None}
            packed += bool(packs)
    assert packed > len(streams), packed


def test_eliminate_packs_on_the_bound_its_caller_passes(monkeypatch):
    # after e_0 and a dependent e_0 the covectors e_1, e_2 are packed; on
    # the rows 0, 1, 2^w that a bound of 2^62 - 1 gives, (0, 2^w, -1) has
    # a packed product of 0.  A caller whose stream holds 2^w passes a
    # bound that covers it, the rows are packed on that bound, and the
    # column is a pivot
    w = linalg._packed_rows([[0, 1, 0], [0, 0, 1]], 3, 2**62 - 1)[2].bit_length() - 1
    columns = [[1, 0, 0], [1, 0, 0], [0, 2**w, -1]]
    packs = []
    real = linalg._packed_rows
    monkeypatch.setattr(linalg, "_packed_rows", lambda *args: packs.append(args[2]) or real(*args))
    pivots, last, annihilator = _eliminate(iter(columns), 3, 2**w)
    assert (pivots, last, packs) == ([0, 2], 2**w, [2**w])
    assert gauss_rank(RationalMatrix.from_columns(columns)) == 2


def _slots(total, w, m):
    """The m balanced base-2^w digits of total, lowest first."""
    digits = []
    for _ in range(m):
        d = total & ((1 << w) - 1)
        if d >> (w - 1):
            d -= 1 << w
        digits.append(d)
        total = (total - d) >> w
    assert total == 0
    return digits


def test_packed_rows_slots_decode_to_the_plain_dots():
    # every entry of an extreme column is +-bound, with the signs of one
    # covector, so that covector's dot reaches ||y||_1 * bound, the most a
    # slot must hold
    rng = random.Random("packed-rows")
    entries = (0, 0, 1, -1, 5, -(10**6), 2**70, -(2**70))
    cases = [([[1, -1, 0], [0, 1, -1]], 3)]  # (b, b, b) is in the common kernel
    for _ in range(60):
        n = rng.randint(1, 8)
        ys = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randint(1, n))]
        cases.append(([y for y in ys if any(y)] or [[1] * n], n))
    for bound in (1, 7, 2**62 - 1, 2**200):
        for ys, n in cases:
            rows = linalg._packed_rows(ys, n, bound)
            assert len(rows) == n and all(type(x) is int for x in rows)
            w = (max(sum(map(abs, y)) for y in ys) * bound).bit_length() + 1
            columns = [[bound if x >= 0 else -bound for x in y] for y in ys]
            columns += [[-x for x in v] for v in columns]
            columns += [[rng.choice((bound, -bound)) for _ in range(n)], [bound] * n]
            for v in columns:
                dots = [sum(map(operator.mul, y, v)) for y in ys]
                total = sum(map(operator.mul, v, rows))
                assert _slots(total, w, len(ys)) == dots
                assert (total == 0) == (not any(dots))
