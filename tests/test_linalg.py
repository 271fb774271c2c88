import ast
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

import divatlas
from divatlas.linalg import (
    RationalMatrix,
    as_exact,
    exact_det,
    gauss_rank,
    image_basis,
    in_span,
    int_det,
    lin_indep,
    random_matrix,
    rank,
)


def test_rank_identity():
    assert rank(RationalMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(RationalMatrix.zero(4, 7)) == 0


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
    assert image_basis(RationalMatrix.identity(2)) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_image_basis_zero():
    assert image_basis(RationalMatrix.zero(3, 2)) == []


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
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            as_exact(bad)
    M = RationalMatrix.from_columns([(1, Fraction(4, 2)), ("6/3", "1/2")])
    assert [type(x) for col in M.columns() for x in col] == [int, int, int, Fraction]
    assert type(exact_det([["1/2", 0], [0, 4]])) is int


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


def test_det_fractional():
    assert exact_det([["1/2", 0], [0, "1/3"]]) == Fraction(1, 6)


def test_lin_indep():
    assert lin_indep([(1, 0), (0, 1)])
    assert not lin_indep([(1, 2), (2, 4)])
    assert lin_indep([])


def test_from_entries_sparse():
    M = RationalMatrix.from_entries(2, 3, {(0, 0): 1, (1, 2): "2/3"})
    assert M[0, 0] == 1
    assert M[1, 2] == Fraction(2, 3)
    assert M[0, 1] == 0
    with pytest.raises(ValueError):
        RationalMatrix.from_entries(2, 2, {(2, 0): 1})
