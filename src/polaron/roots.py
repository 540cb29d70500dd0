"""One-dimensional searches shared by the branch and Friedrichs solvers:
Brent's root at the package's fixed tolerances, on a given bracket or
outward from a point by doubling steps, monotone Newton and a
grid-then-refine line minimum."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import NumericError

__all__ = ["Counted", "root", "root_beyond", "monotone_newton", "line_min"]

XTOL = 1e-14
RTOL = 4 * np.finfo(float).eps
_MAX_STEPS = 200


class Counted:
    """Scalar function that counts its evaluations in `calls`."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def root(f, a: float, b: float) -> float:
    """Brent's root of f on a sign-changing bracket [a, b]."""
    # brentq's wrapper of f refers to itself, so it lives until the cyclic
    # collector runs; it gets a holder emptied on return, so that it does
    # not keep f alive, nor what f refers to, such as a kernel matrix
    held = [f]
    try:
        return brentq(lambda x: held[0](x), a, b, xtol=XTOL, rtol=RTOL)
    finally:
        held.clear()


def root_beyond(f, x0: float, x1: float) -> float:
    """Brent's root of f outward from x0, where f(x0) < 0: f is sampled at
    x0 + 2^k (x1 - x0), k = 0, 1, ..., until f >= 0, and the root is taken
    between that sample and the one before it (x0 before the first)."""
    inside, x = x0, x1
    for _ in range(_MAX_STEPS):
        if f(x) >= 0.0:
            return root(f, inside, x)
        inside, x = x, x0 + 2.0 * (x - x0)
    raise NumericError(f"no sign change found in {_MAX_STEPS} doublings away from {x0}")


def monotone_newton(fg, x: float, tol: float):
    """Newton's root of a decreasing concave f from an x with f(x) < 0: the
    iterates fall onto the root without crossing it (Ortega & Rheinboldt
    1970).  fg(x) = (f(x), f'(x)).  Stops when |f| <= tol (1 + |x|) or x no
    longer decreases; returns the last x and f(x)."""
    f, df = fg(x)
    for _ in range(_MAX_STEPS):
        if abs(f) <= tol * (1.0 + abs(x)):
            break
        step = x - f / df
        if not step < x:
            break
        x = step
        f, df = fg(x)
    return x, f


def line_min(f, grid, values, xatol: float):
    """(min f, argmin) over the span of grid: the argmin of the sampled
    values, refined by bounded Brent between its neighbouring grid points."""
    i = int(np.argmin(values))
    res = minimize_scalar(f, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
                          method="bounded", options={"xatol": xatol})
    return float(res.fun), float(res.x)
