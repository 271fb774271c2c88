"""Closed-form Brill-Noether numerics for a Petri-general curve.

On a Petri-general curve of genus g the locus W^r_d of degree-d line
bundles with at least r+1 sections is nonempty exactly when the
Brill-Noether number rho(g, r, d) = g - (r+1)(g-d+r) is nonnegative,
and then has dimension min(g, rho).  Everything in this module is an
integer formula; the only care needed is the floor of the largest root
of rho as a polynomial in r, which is computed with an exact integer
square root and cross-checked against the sign change of rho.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _check_args(g: int, d: int, r: int | None = None):
    if not isinstance(g, int) or g < 2:
        raise ValueError(f"genus must be an integer >= 2, got {g}")
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"degree must be a positive integer, got {d}")
    if r is not None and (not isinstance(r, int) or r < 0):
        raise ValueError(f"r must be a nonnegative integer, got {r}")


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    _check_args(g, d, r)
    return g - (r + 1) * (g - d + r)


def w_dim(g: int, r: int, d: int) -> int | None:
    """Dimension of W^r_d, or None when the locus is empty (rho < 0)."""
    value = rho(g, r, d)
    if value < 0:
        return None
    return min(g, value)


def big_R(g: int, d: int) -> int:
    """Largest r with W^r_d nonempty: the floor of the largest root of rho.

    Computed with math.isqrt, never floating point, and cross-checked:
    rho must be nonnegative at the result and negative one step above.
    """
    _check_args(g, d)
    a = d - g - 1
    disc = a * a + 4 * d
    R = (a + math.isqrt(disc)) // 2
    if rho(g, R, d) < 0 or rho(g, R + 1, d) >= 0:
        raise AssertionError(f"integer-sqrt bracketing failed for g={g}, d={d}")
    return R


def small_r(g: int, d: int) -> int:
    """Smallest r with W^r_d \\ W^(r+1)_d nonempty: d-g for d > g, else 0."""
    _check_args(g, d)
    return max(0, d - g)


def achieved_r(g: int, d: int) -> list:
    """All r realized as h^0(L) - 1 for some degree-d bundle L."""
    return list(range(small_r(g, d), big_R(g, d) + 1))


def lambda_grd(g: int, r: int, d: int) -> Fraction:
    """The exact rational product of i! / (g-d+r+i)! over i = 0..r.

    g! times this value is the degree of W^r_d when that locus is
    zero-dimensional (and counts its points on a Petri-general curve).
    """
    _check_args(g, d, r)
    if g - d + r < 0:
        raise ValueError(
            f"negative factorial argument: g-d+r = {g - d + r} (locus is empty here)"
        )
    out = Fraction(1)
    for i in range(r + 1):
        out *= Fraction(math.factorial(i), math.factorial(g - d + r + i))
    return out


def w_top_points(g: int, d: int) -> int | None:
    """Number of points of the top locus W^R_d when it is finite.

    Returns g! * lambda(g, R_d, d) when rho(g, R_d, d) = 0, else None
    (the top locus is positive-dimensional and the count does not apply).
    The product is taken on integers, g! * prod i! over prod (g-d+R+i)!,
    and lambda_grd's Fraction product stays a second route to it.
    """
    R = big_R(g, d)
    if rho(g, R, d) != 0:
        return None
    num = math.factorial(g)
    den = 1
    for i in range(R + 1):
        num *= math.factorial(i)
        den *= math.factorial(g - d + R + i)
    count, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"point count is not integral for g={g}, d={d}")
    return count
