import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from polaron import NumericError
from polaron import roots


def traced(f):
    """f that also records, as floats, the points it is evaluated at."""
    seen = []

    def g(x):
        seen.append(float(x))
        return f(x)

    return g, seen


def step(c):
    """The predicate of TestBisect as a function: -1 below c, 1 from c on."""
    return lambda x: -1.0 if x < c else 1.0


class TestBracketBeyond:
    @pytest.mark.parametrize("c, x0, x1", [
        (5.3, 0.0, 0.5),      # outward to the right: samples 0.5, 1, 2, 4, 8
        (-6.0, 1.0, 0.0),     # to the left: 0, -1, -3, -7
        (0.25, 0.0, 1.0),     # the first sample is already outside
    ])
    def test_samples_double_until_outside(self, c, x0, x1):
        sign = 1.0 if x1 > x0 else -1.0
        f, seen = traced(lambda x: sign * (x - c))
        inside, outside = roots.bracket_beyond(f, x0, x1)
        assert f(inside) < 0.0 <= f(outside)
        # the samples are x0 + 2^k (x1 - x0), k = 0, 1, ..., and stop at the
        # first one outside; inside is the one before it, or x0
        k = len(seen) - 2    # the two calls above are not samples
        assert seen[:k] == [x0 + 2.0**j * (x1 - x0) for j in range(k)]
        assert outside == seen[k - 1]
        assert inside == (seen[k - 2] if k >= 2 else x0)

    def test_no_sign_change_raises(self):
        with pytest.raises(NumericError):
            roots.bracket_beyond(lambda x: -1.0, 0.0, 1.0)


class TestRootBeyond:
    def test_doubles_distance_from_x0(self):
        seen = []

        def f(x):
            seen.append(x)
            return -6.0 - x

        assert roots.root_beyond(f, 1.0, 0.0) == pytest.approx(-6.0, abs=1e-14)
        # samples at x0 + 2^k (x1 - x0) until f >= 0, then Brent's root
        # between the last two samples
        assert seen[:4] == [0.0, -1.0, -3.0, -7.0]
        assert all(-7.0 <= x <= -3.0 for x in seen[4:])

    def test_bracketing_failure_raises(self):
        with pytest.raises(NumericError):
            roots.root_beyond(lambda x: -1.0, 0.0, 1.0)

    def test_root_meets_tolerance(self):
        c = 1000.0 / 3.0
        calls = []

        def f(x):
            calls.append(x)
            return x - c

        x = roots.root_beyond(f, 0.0, 1000.0)
        # the first sample brackets the root, and Brent stays inside
        assert calls[0] == 1000.0
        assert all(0.0 <= t <= 1000.0 for t in calls)
        assert abs(x - c) <= roots.XTOL + roots.RTOL * c

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(-10.0, 10.0), offset=st.floats(1e-6, 100.0),
           step=st.floats(1e-6, 10.0), b=st.floats(0.0, 1.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_root_of_random_monotone_f(self, c, offset, step, b, sign):
        # f = sign (g(x) - g(c)) with g(x) = x + b x^3, factored so that
        # f(c) = 0 exactly; f increases in the step direction from x0
        def f(x):
            return sign * (x - c) * (1.0 + b * (x * x + x * c + c * c))

        x0 = c - sign * offset
        x = roots.root_beyond(f, x0, x0 + sign * step)
        assert abs(x - c) <= 1e-12 * (1.0 + abs(c))


class TestBisect:
    @pytest.mark.parametrize("xtol", [1e-9, 1e-12])
    def test_width_meets_tolerance(self, xtol):
        # a predicate's sign change is a jump, not a smooth root: Brent's
        # bisection steps must still close the bracket on it to xtol
        c = 1000.0 / 3.0
        calls = []

        def holds(x):
            calls.append(x)
            return x < c

        x = roots.root(lambda t: -1.0 if holds(t) else 1.0, 0.0, 1000.0)
        assert all(0.0 <= t <= 1000.0 for t in calls)
        assert abs(x - c) <= xtol
        # at most one Brent step per halving of the bracket, and one more
        # interpolation step between halvings
        assert len(calls) <= 2 * math.ceil(math.log2(1000.0 / roots.XTOL)) + 2


class TestRoot:
    def test_fixed_tolerance(self):
        assert roots.root(math.cos, 0.0, 3.0) == pytest.approx(0.5 * math.pi, abs=1e-14)

    def test_same_sign_raises_numeric_error(self):
        with pytest.raises(NumericError, match="same sign"):
            roots.root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_no_convergence_raises_numeric_error(self):
        # a jump on a bracket 2e300 wide: 100 halvings leave it ~1e270 wide
        with pytest.raises(NumericError, match="did not converge"):
            roots.root(step(1.0 / 3.0), -1e300, 1e300)

    def test_nan_raises_numeric_error(self):
        with pytest.raises(NumericError, match="NaN"):
            roots.root(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(c=st.floats(-10.0, 10.0), left=st.floats(1e-6, 100.0),
           right=st.floats(1e-6, 100.0), b=st.floats(0.0, 1.0),
           sign=st.sampled_from([-1.0, 1.0]), flip=st.booleans(),
           scale=st.sampled_from([1.0, 1e-120]))
    def test_equals_scipy_on_monotone_cubics(self, c, left, right, b, sign, flip, scale):
        # the same root, bit for bit, from the same evaluation points; at
        # scale 1e-120 the extrapolation's denominator underflows to 0
        def f(x):
            return scale * sign * (x - c) * (1.0 + b * (x * x + x * c + c * c))

        lo, hi = (c + right, c - left) if flip else (c - left, c + right)
        ours, seen = traced(f)
        theirs, ref_seen = traced(f)
        x = roots.root(ours, lo, hi)
        ref = brentq(theirs, lo, hi, xtol=roots.XTOL, rtol=roots.RTOL)
        assert x.hex() == ref.hex()
        assert seen == ref_seen

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(1e-3, 1000.0, exclude_max=True))
    def test_equals_scipy_on_step(self, c):
        ours, seen = traced(step(c))
        theirs, ref_seen = traced(step(c))
        x = roots.root(ours, 0.0, 1000.0)
        ref = brentq(theirs, 0.0, 1000.0, xtol=roots.XTOL, rtol=roots.RTOL)
        assert x.hex() == ref.hex()
        assert seen == ref_seen

    def test_releases_f_on_return(self):
        # without the cyclic collector, nothing may keep f (and what it
        # refers to) alive once root returns
        class Payload:
            pass

        payload = Payload()
        alive = weakref.ref(payload)

        def f(x, payload=payload):
            return x - 0.5

        gc.disable()
        try:
            assert roots.root(f, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)
            del f, payload
            assert alive() is None
        finally:
            gc.enable()


class TestMinimize:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-10.0, 10.0), width=st.floats(1e-3, 20.0),
           at=st.floats(-0.5, 1.5), k=st.floats(0.0, 2.0), m=st.floats(0.0, 2.0),
           f0=st.floats(-5.0, 5.0), xatol=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-5]))
    def test_equals_scipy(self, a, width, at, k, m, f0, xatol):
        # shifted quartics k u^4 + m u^2 + f0, u = x - c, parabolas at
        # k = 0; with `at` outside [0, 1] the minimum is at a bound
        b = a + width
        c = a + at * width

        def f(x):
            u = x - c
            u2 = u * u
            return k * u2 * u2 + m * u2 + f0

        ours = roots.Counted(f)
        fun, x = roots.minimize(ours, a, b, xatol)
        ref = minimize_scalar(f, bounds=(a, b), method="bounded",
                              options={"xatol": xatol})
        assert ref.success
        assert x.hex() == float(ref.x).hex()
        assert fun.hex() == float(ref.fun).hex()
        assert ours.calls == ref.nfev

    def test_nan_raises_numeric_error(self):
        with pytest.raises(NumericError, match="NaN"):
            roots.minimize(lambda x: math.nan, 0.0, 1.0, 1e-8)

    def test_evaluation_budget_raises_numeric_error(self):
        # a kink on a huge interval: the parabolic steps fail and golden
        # sections cannot close the interval within the budget
        f = roots.Counted(lambda x: abs(x - 1.0 / 3.0))
        with pytest.raises(NumericError, match="evaluations"):
            roots.minimize(f, -1e300, 1e300, 1e-300)
        assert f.calls == roots._MAX_EVALS

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_interval_raises_numeric_error(self, a, b):
        with pytest.raises(NumericError, match="interval"):
            roots.minimize(lambda x: x * x, a, b, 1e-8)


class TestMinBeyond:
    # bounded Brent stops within sqrt(eps) |t| + xatol / 3 of the minimum
    def test_parabola_between_steps(self):
        def f(t):
            return (t - 0.3) ** 2 + 2.0

        f_min, t_min = roots.min_beyond(f, 0.0, f(0.0), 1e-10)
        assert t_min == pytest.approx(0.3, abs=1e-6)
        assert f_min == pytest.approx(2.0, abs=1e-6)

    def test_start_at_the_minimum(self):
        f = roots.Counted(lambda t: (t - 1.5) ** 2 + 1.0)
        f_min, t_min = roots.min_beyond(f, 1.5, 1.0, 1e-10)
        assert t_min == pytest.approx(1.5, abs=1e-6)
        assert f_min == pytest.approx(1.0, abs=1e-12)
        # the bracket is the first step on each side, and every sample in it
        assert min(f.values) == 0.5 and max(f.values) == 2.5

    def test_minimum_several_doublings_away(self):
        bare, seen = traced(lambda t: (t - 20.0) ** 2)
        f_min, t_min = roots.min_beyond(roots.Counted(bare), 0.0, 400.0, 1e-10)
        assert t_min == pytest.approx(20.0, abs=1e-6)
        assert f_min == pytest.approx(0.0, abs=1e-10)
        # f(64) = 1936 is the first sample on the right at the level, f(-1)
        # = 441 the first on the left; the minimum searches only between
        assert seen[:8] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, -1.0]
        assert all(-1.0 <= t <= 64.0 for t in seen)

    def test_level_below_the_start(self):
        # lambda1's use: the bracket ends where f first reaches a level
        # above f(x0), here at 34 (f = 196) and 10 (f = 100)
        bare, seen = traced(lambda t: (t - 20.0) ** 2)
        f_min, t_min = roots.min_beyond(roots.Counted(bare), 18.0, 50.0, 1e-10)
        assert t_min == pytest.approx(20.0, abs=1e-6)
        assert seen[:8] == [19.0, 20.0, 22.0, 26.0, 34.0, 17.0, 16.0, 14.0]
        assert seen[8] == 10.0
        assert all(10.0 <= t <= 34.0 for t in seen)

    def test_flat_function(self):
        # the level is met at the first step on each side
        f = roots.Counted(lambda t: 1.0)
        f_min, t_min = roots.min_beyond(f, 0.5, 1.0, 1e-10)
        assert f_min == 1.0
        assert -0.5 <= t_min <= 1.5
        assert min(f.values) == -0.5 and max(f.values) == 1.5


class TestCounted:
    def test_counts_calls(self):
        f = roots.Counted(lambda x: 2.0 * x)
        assert [f(1.0), f(2.0)] == [2.0, 4.0]
        assert f.calls == 2

    def test_calls_f_once_per_distinct_x(self):
        bare, seen = traced(lambda x: 2.0 * x)
        f = roots.Counted(bare)
        assert [f(x) for x in (1.0, 2.0, 1.0, 2.0, 3.0, 1.0)] == \
            [2.0, 4.0, 2.0, 4.0, 6.0, 2.0]
        assert seen == [1.0, 2.0, 3.0]
        assert f.calls == 3

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(-10.0, 10.0), left=st.floats(1e-6, 100.0),
           right=st.floats(1e-6, 100.0), b=st.floats(0.0, 1.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_searches_agree_with_bare_f(self, c, left, right, b, sign):
        # the same root bit for bit, with f called once at each distinct
        # point that the bare search evaluates
        def f(x):
            return sign * (x - c) * (1.0 + b * (x * x + x * c + c * c))

        lo, hi = c - left, c + right
        x0 = c - sign * left
        for search, args in ((roots.root, (lo, hi)),
                             (roots.root_beyond, (x0, x0 + sign * right))):
            bare, bare_seen = traced(f)
            inner, seen = traced(f)
            counted = roots.Counted(inner)
            assert search(counted, *args).hex() == search(bare, *args).hex()
            assert seen == list(dict.fromkeys(bare_seen))
            assert counted.calls == len(set(bare_seen))


class TestMonotoneNewton:
    @staticmethod
    def f(x):
        """f(x) = 2 - e^x, decreasing and concave; root ln 2."""
        return 2.0 - math.exp(x)

    @staticmethod
    def slope(x):
        return -math.exp(x)

    @pytest.mark.parametrize("tol", [1e-12, 0.0])
    @pytest.mark.parametrize("x0", [0.0, -3.0])
    def test_start_with_f_not_negative_returns_start(self, x0, tol):
        # f(x0) > 0: the Newton step from x0 does not decrease x, so the
        # search returns the start after one evaluation, and needs no slope
        f, seen = traced(self.f)
        slope, slopes = traced(self.slope)
        assert roots.monotone_newton(f, slope, x0, tol) == (x0, self.f(x0), 1)
        assert seen == [x0]
        assert slopes == []

    def test_iterates_fall_onto_the_root(self):
        f, seen = traced(self.f)
        tol = 1e-10
        x, fx, calls = roots.monotone_newton(f, self.slope, 3.0, tol)
        assert seen[0] == 3.0 and seen[-1] == x and len(seen) > 2
        assert calls == len(seen)
        assert all(b < a for a, b in zip(seen, seen[1:]))
        assert min(seen) >= math.log(2.0) - 1e-15
        assert fx == self.f(x)
        # the search stops at the first iterate within tol (1 + |x|)
        assert abs(fx) <= tol * (1.0 + abs(x))
        assert all(abs(self.f(s)) > tol * (1.0 + abs(s)) for s in seen[:-1])

    def test_slope_only_where_it_steps(self):
        # slope(x) right after f(x) at every iterate but the last, where
        # the tolerance stops the search: never at the returned x
        order = []

        def f(t):
            order.append(("f", t))
            return self.f(t)

        def slope(t):
            order.append(("slope", t))
            return self.slope(t)

        x, fx, calls = roots.monotone_newton(f, slope, 3.0, 1e-10)
        fs = [t for name, t in order if name == "f"]
        assert len(fs) == calls > 2
        assert order[-1] == ("f", x)
        assert order[:-1] == [(name, t) for t in fs[:-1] for name in ("f", "slope")]
        assert ("slope", x) not in order

    def test_zero_tol_stops_when_x_stops_falling(self):
        # as oracle._least_free calls it: no tolerance stop, so the search
        # runs until the Newton step no longer decreases x
        f, seen = traced(self.f)
        x, fx, calls = roots.monotone_newton(f, self.slope, 3.0, 0.0)
        assert seen[-1] == x and calls == len(seen)
        assert all(b < a for a, b in zip(seen, seen[1:]))
        assert fx == self.f(x)
        assert not x - fx / self.slope(x) < x
        assert x == pytest.approx(math.log(2.0), rel=1e-15, abs=0.0)
