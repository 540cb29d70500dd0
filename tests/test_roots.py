import gc
import math
import weakref

import numpy as np
import pytest

from polaron import NumericError
from polaron import roots


class TestExpand:
    def test_doubles_distance_from_anchor(self):
        seen = []

        def is_out(x):
            seen.append(x)
            return x <= -7.0

        assert roots.expand(is_out, 1.0, 0.0) == (-3.0, -7.0)
        assert seen == [0.0, -1.0, -3.0, -7.0]

    def test_bracketing_failure_raises(self):
        with pytest.raises(NumericError):
            roots.expand(lambda x: False, 0.0, 1.0)


class TestBisect:
    @pytest.mark.parametrize("xtol", [1e-9, 1e-12])
    def test_width_meets_tolerance(self, xtol):
        c = 1000.0 / 3.0
        calls = []

        def holds(x):
            calls.append(x)
            return x < c

        mid = roots.bisect(holds, 0.0, 1000.0, xtol)
        # each call halves the bracket, which keeps c inside
        width = 1000.0 / 2 ** len(calls)
        assert width <= xtol
        assert abs(mid - c) <= 0.5 * width
        # and it stops at the first width that meets the tolerance
        assert 2.0 * width > xtol


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
