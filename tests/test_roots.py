import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron import NumericError
from polaron import roots


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


class TestLineMin:
    @pytest.mark.parametrize("t0, f0, expect", [
        (0.3, 2.0, 0.3),     # between grid points
        (-6.0, 1.0, -5.0),   # left of the grid: the minimum is its first point
    ])
    def test_parabola(self, t0, f0, expect):
        def f(t):
            return (t - t0) ** 2 + f0

        grid = np.linspace(-5.0, 5.0, 81)
        f_min, t_min = roots.line_min(f, grid, [f(t) for t in grid], 1e-10)
        # bounded Brent stops within sqrt(eps) |t| + xatol / 3 of the minimum
        assert t_min == pytest.approx(expect, abs=1e-6)
        assert f_min == pytest.approx(f(expect), abs=1e-6)


class TestCounted:
    def test_counts_calls(self):
        f = roots.Counted(lambda x: 2.0 * x)
        assert [f(1.0), f(2.0)] == [2.0, 4.0]
        assert f.calls == 2
