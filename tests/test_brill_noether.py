import math
from fractions import Fraction

import pytest

from divatlas.brill_noether import (
    achieved_r,
    big_R,
    lambda_grd,
    rho,
    small_r,
    w_dim,
    w_top_points,
)
from divatlas.verify import _rectangle_tableaux


def test_rho_genus_37_strata():
    assert [rho(37, r, 36) for r in range(6)] == [36, 33, 28, 21, 12, 1]
    for r in range(6):
        assert rho(37, r, 36) == 37 - (r + 1) ** 2


def test_rho_trivial_cases():
    assert rho(5, 0, 5) == 5
    for g in range(2, 12):
        assert rho(g, g - 1, 2 * g - 2) == 0


def test_rho_strictly_decreasing():
    for g in range(2, 15):
        for d in range(1, 2 * g + 1):
            values = [rho(g, r, d) for r in range(max(0, d - g), big_R(g, d) + 3)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_w_dim_values():
    assert w_dim(37, 5, 36) == 1
    assert w_dim(37, 6, 36) is None
    assert w_dim(4, 1, 6) == 4  # rho = 6 capped at g


def test_w_dim_distinguishes_empty_from_points():
    assert w_dim(4, 3, 6) == 0
    assert w_dim(4, 4, 6) is None


def test_w_dim_cap_below_small_r():
    # for d >= g the loci up to small_r fill the whole Picard torus;
    # for d < g the locus W^0_d has dimension d, so no cap applies there
    for g in range(2, 15):
        for d in range(g, 2 * g + 1):
            for r in range(0, small_r(g, d) + 1):
                assert w_dim(g, r, d) == g
    assert w_dim(5, 0, 3) == 3


def test_big_R_values():
    assert big_R(37, 36) == 5
    for g in range(2, 20):
        assert big_R(g, 2 * g - 2) == g - 1
        assert big_R(g, 2 * g - 1) == g - 1
        assert len(achieved_r(g, 2 * g - 1)) == 1


def test_big_R_sign_change_bracketing():
    for g in range(2, 41):
        for d in range(1, 3 * g + 1):
            R = big_R(g, d)
            assert rho(g, R, d) >= 0
            assert rho(g, R + 1, d) < 0


def test_small_r():
    assert small_r(37, 36) == 0
    assert small_r(4, 6) == 2
    for g in range(2, 10):
        assert small_r(g, 2 * g - 2) == g - 2


def test_achieved_r():
    assert achieved_r(37, 36) == [0, 1, 2, 3, 4, 5]
    for g in range(3, 10):
        assert achieved_r(g, 2 * g - 2) == [g - 2, g - 1]
    for g in range(2, 41):
        for d in range(1, 3 * g + 1):
            assert len(achieved_r(g, d)) == big_R(g, d) - small_r(g, d) + 1


def test_lambda_canonical_value():
    for g in range(2, 11):
        assert math.factorial(g) * lambda_grd(g, g - 1, 2 * g - 2) == 1


def test_lambda_single_factor():
    for g in range(3, 10):
        for d in range(1, g):
            assert lambda_grd(g, 0, d) == Fraction(1, math.factorial(g - d))


def test_lambda_rejects_empty_locus():
    with pytest.raises(ValueError):
        lambda_grd(3, 0, 5)  # g - d + r < 0


def test_w_top_points_two_pencils():
    # the classical pair of degree-3 pencils on a genus-4 curve, checked
    # against a direct evaluation of the factorial product
    assert lambda_grd(4, 1, 3) == Fraction(
        math.factorial(0) * math.factorial(1),
        math.factorial(2) * math.factorial(3),
    )
    assert w_top_points(4, 3) == 2


def test_w_top_points_three_routes():
    # the points of a finite W^R_d: the integer product, g! * lambda and
    # the standard tableaux on the (R+1) x (g-d+R) rectangle; on 2 x n
    # rectangles the tableaux are counted by the Catalan numbers
    assert [_rectangle_tableaux(2, n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert _rectangle_tableaux(3, 3) == 42
    cells = 0
    for g in range(2, 61):
        for d in range(1, 2 * g + 1):
            R = big_R(g, d)
            if rho(g, R, d) != 0:
                assert w_top_points(g, d) is None
                continue
            assert (R + 1) * (g - d + R) == g
            points = w_top_points(g, d)
            assert type(points) is int
            assert points == math.factorial(g) * lambda_grd(g, R, d)
            assert points == _rectangle_tableaux(R + 1, g - d + R)
            cells += 1
    assert cells == 201


def test_w_top_points_not_applicable():
    assert w_top_points(37, 36) is None  # rho = 1 at the top stratum


def test_genus_domain_enforced():
    for g in (0, 1):
        with pytest.raises(ValueError):
            rho(g, 0, 2)
    with pytest.raises(ValueError):
        rho(3, -1, 2)



# each public function, called as f(g, d, r); r is ignored where it takes none
BN_FUNCTIONS = {
    "rho": lambda g, d, r: rho(g, r, d),
    "w_dim": lambda g, d, r: w_dim(g, r, d),
    "lambda_grd": lambda g, d, r: lambda_grd(g, r, d),
    "big_R": lambda g, d, r: big_R(g, d),
    "small_r": lambda g, d, r: small_r(g, d),
    "achieved_r": lambda g, d, r: achieved_r(g, d),
    "w_top_points": lambda g, d, r: w_top_points(g, d),
}

# a bool is an int equal to 0 or 1, and used to pass as one: rho(5, 0, True) was 1
BAD_GD = [
    ((1, 5, 1), "genus must be an integer >= 2, got 1"),
    ((True, 5, 1), "genus must be an integer >= 2, got True"),
    ((4.0, 5, 1), "genus must be an integer >= 2, got 4.0"),
    ((5, 0, 1), "degree must be a positive integer, got 0"),
    ((5, True, 1), "degree must be a positive integer, got True"),
    ((5, "4", 1), "degree must be a positive integer, got 4"),
]
BAD_R = [
    ((5, 4, -1), "r must be a nonnegative integer, got -1"),
    ((5, 4, True), "r must be a nonnegative integer, got True"),
    ((5, 4, False), "r must be a nonnegative integer, got False"),
]


@pytest.mark.parametrize(
    "name,args,message",
    [(name, *case) for name in BN_FUNCTIONS for case in BAD_GD]
    + [(name, *case) for name in ("rho", "w_dim", "lambda_grd") for case in BAD_R],
)
def test_bad_arguments_raise_with_message(name, args, message):
    with pytest.raises(ValueError) as info:
        BN_FUNCTIONS[name](*args)
    assert str(info.value) == message
