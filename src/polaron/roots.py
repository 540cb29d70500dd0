"""One-dimensional searches shared by the branch and Friedrichs solvers:
Brent's root at the package's fixed tolerances, on a given bracket or
outward from a point by doubling steps, the doubling bracket itself,
Brent's bounded minimum, on a given interval or on the doubling bracket
on each side of a point, and monotone Newton.

`root` and `minimize` are Brent's algorithms (Brent 1973, *Algorithms for
Minimization without Derivatives*) ported step for step, with the same
arithmetic order, from scipy's C Brent root and its bounded scalar
minimizer: both give scipy's results bit for bit, and importing them costs
nothing beyond numpy."""

from __future__ import annotations

import math
import sys

from .errors import NumericError

__all__ = ["Counted", "root", "bracket_beyond", "root_beyond", "minimize",
           "min_beyond", "monotone_newton"]

XTOL = 1e-14
RTOL = 4 * sys.float_info.epsilon
# argmin tolerance of the package's minimizations, which return the minimum
# value only.  Near a smooth minimum the value error is about f''/2 xatol^2,
# about 1e-12: a thousandth of the eigenvalue search's 1e-9 edge stand-off
# and below every solve tolerance.  A finer xatol reaches the floor where f
# ties in its last bit (argmin resolution about sqrt(eps); Brent 1973, ch. 5;
# Numerical Recipes, sec. 10.1): there the parabolic step fails and the
# golden-section steps close in by a factor 0.382 each.
MIN_XATOL = 1e-6
_MAX_STEPS = 200
_BRENT_STEPS = 100          # scipy's default for the Brent root
_MAX_EVALS = 500            # and for the bounded minimum
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


class Counted:
    """Scalar function that keeps each value by its argument, so that a
    search evaluates no point twice; `calls` counts the evaluations."""

    def __init__(self, f):
        self.f = f
        self.values = {}

    @property
    def calls(self) -> int:
        return len(self.values)

    def __call__(self, x):
        if x not in self.values:
            self.values[x] = self.f(x)
        return self.values[x]


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NumericError(f"the function value at x={x} is NaN")
    return fx


def root(f, a: float, b: float) -> float:
    """Brent's root of f on a sign-changing bracket [a, b], to XTOL + RTOL |x|.
    Raises NumericError when f(a) and f(b) have the same sign, when f is
    NaN, or after _BRENT_STEPS steps."""
    xpre, xcur = float(a), float(b)
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericError(f"f({a}) and f({b}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_STEPS):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # where C divides by zero, its inf or NaN step bisects too
                stry = math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise NumericError(f"Brent's root on [{a}, {b}] did not converge in {_BRENT_STEPS} steps")


def bracket_beyond(f, x0: float, x1: float):
    """(inside, outside) outward from x0, where f(x0) < 0: f is sampled at
    x0 + 2^k (x1 - x0), k = 0, 1, ..., until f(outside) >= 0; inside is the
    sample before it (x0 before the first), where f < 0."""
    inside, x = x0, x1
    for _ in range(_MAX_STEPS):
        if f(x) >= 0.0:
            return inside, x
        inside, x = x, x0 + 2.0 * (x - x0)
    raise NumericError(f"no sign change found in {_MAX_STEPS} doublings away from {x0}")


def root_beyond(f, x0: float, x1: float) -> float:
    """Brent's root of f outward from x0, where f(x0) < 0, on the bracket
    of `bracket_beyond`."""
    return root(f, *bracket_beyond(f, x0, x1))


def _sign(r: float) -> float:
    """np.sign(r) + (r == 0): 1 at r = +-0, and NaN at NaN."""
    return -1.0 if r < 0.0 else 1.0 if r >= 0.0 else r


def minimize(f, a: float, b: float, xatol: float):
    """(min f, argmin) on [a, b] by Brent's bounded minimum: golden-section
    and parabolic steps until the argmin is known to sqrt(eps) |x| + xatol/3.
    Raises NumericError on a bad interval, after _MAX_EVALS evaluations of
    f, or when f is NaN."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise NumericError(f"bad minimization interval [{a}, {b}]")
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = f(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabolic fit through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            raise NumericError(f"bounded minimum not found in {_MAX_EVALS} evaluations")

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise NumericError(f"the function value near x={xf} is NaN")
    return float(fx), xf


def min_beyond(f, x0: float, level: float, xatol: float):
    """(min f, argmin) by `minimize` on [lo, hi], the first samples
    x0 - 2^k and x0 + 2^k, k = 0, 1, ..., where f >= level, each found by
    `bracket_beyond`."""
    def excess(x):
        return f(x) - level

    hi = bracket_beyond(excess, x0, x0 + 1.0)[1]
    lo = bracket_beyond(excess, x0, x0 - 1.0)[1]
    return minimize(f, lo, hi, xatol)


def monotone_newton(f, slope, x: float, tol: float):
    """Newton's root of a decreasing concave f from an x with f(x) < 0: the
    iterates fall onto the root without crossing it (Ortega & Rheinboldt
    1970).  Returns (x, f(x), evaluations of f) at the first x where
    |f| <= tol (1 + |x|), f(x) >= 0 or the step no longer decreases x.
    slope(x) = f'(x) < 0 is called right after f(x), and only where neither
    of the first two stops holds: at an x that the search steps from, or,
    at a rounding stop, the x where x - f/f' rounds to x.  So a start with
    f(x) >= 0 returns (x, f(x), 1), which is how
    `branches._dispersion_solve` reads g(kappa) >= 0 at a non-member."""
    fx = f(x)
    calls = 1
    for _ in range(_MAX_STEPS):
        if abs(fx) <= tol * (1.0 + abs(x)) or not fx < 0.0:
            break
        step = x - fx / slope(x)
        if not step < x:
            break
        x = step
        fx = f(x)
        calls += 1
    return x, fx, calls

