import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad


from polaron import (
    CouplingSpec,
    EpsilonSpec,
    InputError,
    ModelParams,
    QuadratureSpec,
    free_energy,
    threshold,
    validate_model,
)
from polaron.model import collinear_minimizer
from polaron.selfenergy import NewtonRow


def make_params(d=3, alpha=0.1, eps=None, coupling=None, c0=0.5):
    return ModelParams(
        d=d,
        alpha=alpha,
        eps=eps or EpsilonSpec.constant(1.0),
        coupling=coupling or CouplingSpec(amplitude=1.0, width=1.0),
        c0=c0,
    )


class TestEpsilon:
    def test_constant(self):
        eps = EpsilonSpec.constant(1.5)
        assert eps.radial(0.0) == 1.5
        assert eps(np.array([2.0, 0.0, 0.0])) == 1.5

    @pytest.mark.parametrize("eps0", [1.5, 1, 0.1])
    @pytest.mark.parametrize("shape", [(3,), (7, 3), (2, 5, 3)])
    def test_constant_skips_norms(self, eps0, shape):
        # the same values, dtype and shape as radial on the norms, down to
        # the 0-d array of one point
        eps = EpsilonSpec(kind="constant", eps0=eps0)
        q = np.random.default_rng(0).normal(size=shape)
        got = eps(q)
        expect = eps.radial(np.sqrt(np.add.reduce(q * q, axis=-1)))
        assert type(got) is type(expect) is np.ndarray
        assert got.shape == expect.shape == shape[:-1]
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)

    def test_relativistic(self):
        eps = EpsilonSpec.relativistic(1.0, 0.5)
        assert eps.radial(0.0) == pytest.approx(1.5, abs=1e-15)
        q = np.array([3.0, 4.0, 0.0])
        assert eps(q) == pytest.approx(math.sqrt(26.0) + 0.5, rel=1e-14)

    def test_tabulated_matches_knots(self):
        r = np.linspace(0.0, 5.0, 40)
        vals = np.sqrt(r * r + 1.0)
        eps = EpsilonSpec.tabulated(r, vals)
        assert eps.radial(r) == pytest.approx(vals, abs=1e-14)
        # interpolation error for a smooth convex profile stays small
        mid = 0.5 * (r[:-1] + r[1:])
        assert np.max(np.abs(eps.radial(mid) - np.sqrt(mid * mid + 1.0))) < 1e-3

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            EpsilonSpec.tabulated([0.0, 1.0], [1.0])
        with pytest.raises(InputError):
            EpsilonSpec.tabulated([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InputError, match="at least 2 knots"):
            EpsilonSpec.tabulated([0.0], [1.0])
        with pytest.raises(InputError, match="finite"):
            EpsilonSpec.tabulated([0.0, math.nan], [1.0, 2.0])
        with pytest.raises(InputError, match="finite"):
            EpsilonSpec.tabulated([0.0, 1.0], [1.0, math.inf])
        with pytest.raises(InputError, match="eps0 must be finite"):
            EpsilonSpec.constant(math.nan)
        with pytest.raises(InputError, match="mass must be finite"):
            EpsilonSpec.relativistic(math.nan, 0.0)
        with pytest.raises(InputError, match="shift must be finite"):
            EpsilonSpec.relativistic(1.0, math.inf)

    def test_table_changed_in_place(self):
        # the interpolator is rebuilt from the table's current bytes: every
        # reader equals a spec built afresh from the changed table
        eps = EpsilonSpec.tabulated([0.0, 1.0, 2.0, 4.0], [1.0, 1.2, 1.7, 3.0])
        params = ModelParams(d=1, alpha=0.1, eps=eps, coupling=CouplingSpec(), c0=0.5)
        quad = QuadratureSpec.continuum(24, 9, r_max=6.0)
        p, q = np.array([2.5]), np.array([0.7])
        r = np.linspace(0.0, 5.0, 21)
        for arr, i, value in ((eps.values, 1, 1.25), (eps.knots, 2, 2.5)):
            # build the interpolator and the node terms before the change
            eps.radial(r)
            NewtonRow(params, p, quad, q, 0.0)
            arr[i] = value
            fresh = EpsilonSpec.tabulated(eps.knots.copy(), eps.values.copy())
            assert eps.radial(r).tobytes() == fresh.radial(r).tobytes()
            for x in r:
                assert eps.radial_slope(x).hex() == fresh.radial_slope(x).hex()
            fresh_params = replace(params, eps=fresh)
            assert threshold(params, 1, p).hex() == threshold(fresh_params, 1, p).hex()
            row = NewtonRow(params, p, quad, q, 0.0)
            assert row.e2.tobytes() == NewtonRow(fresh_params, p, quad, q, 0.0).e2.tobytes()

    @pytest.mark.parametrize("name, i, value, message", [
        ("knots", 2, 0.5, "strictly increasing"), ("values", 1, math.nan, "finite")])
    def test_table_made_invalid_in_place(self, name, i, value, message):
        # the rebuild runs the construction's table checks: a table changed
        # in place into one the constructor refuses raises InputError on
        # every reader, until the table is valid again
        eps = EpsilonSpec.tabulated([0.0, 1.0, 2.0, 4.0], [1.0, 1.2, 1.7, 3.0])
        before = eps.radial(np.array([1.5]))
        arr = getattr(eps, name)
        old, arr[i] = arr[i], value
        with pytest.raises(InputError, match=message):
            EpsilonSpec.tabulated(eps.knots.copy(), eps.values.copy())
        for read in (lambda: eps.radial(np.array([1.5])), lambda: eps.radial_slope(1.5),
                     lambda: eps.radial_value(1.5)):
            with pytest.raises(InputError, match=message):
                read()
        arr[i] = old
        assert eps.radial(np.array([1.5])).tobytes() == before.tobytes()


class TestRadialSlope:
    def test_against_central_difference(self):
        knots = np.linspace(0.5, 3.0, 12)
        tab = EpsilonSpec.tabulated(knots, np.sqrt(knots * knots + 1.0))
        # below the first knot, between knots and beyond the last knot
        cases = [
            (EpsilonSpec.constant(1.5), (0.3, 1.7, 4.0)),
            (EpsilonSpec.relativistic(0.7, 0.2), (0.3, 1.7, 4.0)),
            (EpsilonSpec.relativistic(0.0, 0.2), (0.3, 1.7)),
            (tab, (0.2, 0.45, 0.61, 1.13, 2.0, 2.9, 3.4, 6.0)),
        ]
        h = 1e-6
        for eps, rs in cases:
            for r in rs:
                diff = float(eps.radial(r + h) - eps.radial(r - h)) / (2.0 * h)
                assert eps.radial_slope(r) == pytest.approx(diff, abs=1e-8)

    def test_flat_and_end_values(self):
        knots = np.linspace(0.5, 3.0, 12)
        values = np.sqrt(knots * knots + 1.0)
        tab = EpsilonSpec.tabulated(knots, values)
        assert tab.radial_slope(0.0) == 0.0
        assert tab.radial_slope(10.0) == tab.radial_slope(3.0)
        assert tab.radial_slope(10.0) == pytest.approx(3.0 / math.sqrt(10.0), rel=0.05)
        assert EpsilonSpec.constant(2.0).radial_slope(1.0) == 0.0
        # at r = 0 the one-sided slope: 0 with a mass, 1 for eps = r + shift
        assert EpsilonSpec.relativistic(0.7, 0.0).radial_slope(0.0) == 0.0
        assert EpsilonSpec.relativistic(0.0, 0.0).radial_slope(0.0) == 1.0

    def test_fresh_table_values(self):
        # a fresh table builds its interpolant on first use; its values and
        # slopes below, between and beyond the knots equal these recorded
        # ones bit for bit
        knots = np.linspace(0.5, 3.0, 12)
        tab = EpsilonSpec.tabulated(knots, np.sqrt(knots * knots + 1.0))
        rs = (0.2, 0.45, 0.61, 1.13, 2.0, 2.9, 3.4, 6.0)
        radial = ["0x1.1e3779b97f4a8p+0", "0x1.1e3779b97f4a8p+0", "0x1.2c0f736ffdc55p+0",
                  "0x1.824eb2788cc07p+0", "0x1.1e37797b69bc2p+1", "0x1.88a54d641f585p+1",
                  "0x1.c560044d8e9ccp+1", "0x1.80a6242e7c3f2p+2"]
        slope = ["0x0.0p+0", "0x0.0p+0", "0x1.0abcafdfc3227p-1", "0x1.800ad0d3b7ee4p-1",
                 "0x1.ca38b969d38cdp-1", "0x1.e407674e94ebbp-1", "0x1.e609063f190c1p-1",
                 "0x1.e609063f190c1p-1"]
        assert [float(tab.radial(r)).hex() for r in rs] == radial
        assert [float(tab.radial_slope(r)).hex() for r in rs] == slope


class TestCoupling:
    def test_h_norm_against_quadrature(self):
        c = CouplingSpec(amplitude=0.7, width=1.3)
        for d in (1, 2, 3):
            area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
            ref, _ = scipy_quad(
                lambda r: r ** (d - 1) * c.envelope(r) ** 2, 0.0, 40.0
            )
            assert c.h_norm_sq(d) == pytest.approx(area * ref, rel=1e-10)

    def test_envelope_dominates(self):
        c = CouplingSpec(kind="p-modulated", amplitude=1.0, width=1.0, p_width=2.0)
        rng = np.random.default_rng(1)
        p = rng.normal(size=(50, 3))
        q = rng.normal(size=(50, 3))
        assert np.all(np.abs(c.evaluate(p, q)) <= c.envelope(np.linalg.norm(q, axis=-1)) + 1e-15)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["separable", "p-modulated"]),
           d=st.integers(1, 3),
           p=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
           q=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
           amplitude=st.floats(-2.0, 2.0), width=st.floats(0.2, 3.0),
           p_width=st.floats(0.2, 3.0))
    def test_evaluate_is_from_sq_of_the_norms(self, kind, d, p, q, amplitude,
                                              width, p_width):
        c = CouplingSpec(kind=kind, amplitude=amplitude, width=width,
                         p_width=p_width)
        p, q = np.array(p[:d]), np.array(q[:d])
        # the same squared norms as evaluate(): exp(-x) turns a one-ulp
        # difference in x (p @ p against sum(p * p)) into |x| ulps of c
        p_sq, q_sq = float(np.sum(p * p)), float(np.sum(q * q))
        value = c.evaluate(p, q)
        assert value == c.from_sq(p_sq, q_sq)
        chi = math.exp(-p_sq / (2 * p_width**2)) if kind == "p-modulated" else 1.0
        expect = amplitude * math.exp(-q_sq / (2 * width**2)) * chi
        assert value == pytest.approx(expect, rel=1e-14, abs=1e-300)

    def test_invalid(self):
        with pytest.raises(InputError):
            CouplingSpec(kind="other")
        with pytest.raises(InputError):
            CouplingSpec(width=0.0)
        with pytest.raises(InputError, match="width must be finite"):
            CouplingSpec(width=math.nan)
        with pytest.raises(InputError, match="amplitude must be finite"):
            CouplingSpec(amplitude=math.nan)
        with pytest.raises(InputError, match="p_width"):
            CouplingSpec(kind="p-modulated", p_width=math.inf)


class TestFreeEnergy:
    def test_zero_bosons(self):
        params = make_params()
        p = np.array([1.0, 2.0, 0.0])
        assert free_energy(params, 0, p) == pytest.approx(2.5, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=6))
    def test_permutation_invariance(self, seed):
        params = make_params(eps=EpsilonSpec.relativistic(1.0, 0.5))
        rng = np.random.default_rng(seed)
        p = rng.normal(size=3)
        qs = rng.normal(size=(3, 3))
        base = free_energy(params, 3, p, qs)
        perm = rng.permutation(3)
        assert free_energy(params, 3, p, qs[perm]) == pytest.approx(base, rel=1e-14)

    def test_explicit_value(self):
        params = make_params()
        p = np.array([1.0, 0.0, 0.0])
        qs = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        expect = 0.5 * (0.25 + 0.25) + 2.0
        assert free_energy(params, 2, p, qs) == pytest.approx(expect, abs=1e-15)


class TestThreshold:
    def test_constant_dispersion_closed_form(self):
        # collinear reduction: min over t of (|p| - n t)^2 / 2 + n eps0
        params = make_params()
        p = np.array([1.2, 0.0, 0.0])
        for n in (1, 2, 3):
            assert threshold(params, n, p) == pytest.approx(float(n), abs=1e-10)

    def test_zero_momentum(self):
        params = make_params(eps=EpsilonSpec.relativistic(1.0, 0.5))
        assert threshold(params, 2, np.zeros(3)) == pytest.approx(3.0, abs=1e-12)

    def test_against_dense_scan(self):
        # independent oracle: brute-force scan of the collinear reduction
        params = make_params(eps=EpsilonSpec.relativistic(1.0, 0.5))
        p = np.array([2.0, 1.0, 0.0])
        pmag = np.linalg.norm(p)
        for n in (1, 2, 3):
            t = np.linspace(0.0, pmag / n, 200001)
            vals = 0.5 * (pmag - n * t) ** 2 + n * params.eps.radial(t)
            assert threshold(params, n, p) == pytest.approx(
                float(vals.min()), abs=1e-9
            )

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_gap_property(self, pmag):
        params = make_params(eps=EpsilonSpec.relativistic(1.0, 0.5), c0=0.5)
        p = np.array([pmag, 0.0, 0.0])
        lams = [threshold(params, n, p) for n in (1, 2, 3)]
        assert lams[1] - lams[0] >= params.c0 - 1e-8
        assert lams[2] - lams[1] >= params.c0 - 1e-8


    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["constant", "relativistic", "tabulated"]),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_equals_dense_scan_minimum(self, kind, mass, shift, n, pmag):
        if kind == "constant":
            eps = EpsilonSpec.constant(mass)
        elif kind == "relativistic":
            eps = EpsilonSpec.relativistic(mass, shift)
        else:
            # convex table; |p|/n runs past its last knot at 3
            knots = np.linspace(0.0, 3.0, 25)
            eps = EpsilonSpec.tabulated(knots, np.sqrt(knots * knots + mass**2) + shift)
        params = make_params(eps=eps)
        p = np.array([0.0, pmag, 0.0])
        t = np.linspace(0.0, pmag / n, 200001)
        scan = float(np.min(0.5 * (pmag - n * t) ** 2 + n * eps.radial(t)))
        lam = threshold(params, n, p)
        assert lam == pytest.approx(scan, abs=1e-9)
        assert lam <= scan + 1e-14

    def test_constant_takes_the_far_end(self):
        for eps0 in (1.0, 0.7, 2.3):
            params = make_params(eps=EpsilonSpec.constant(eps0))
            for n in (1, 2, 3):
                for pmag in (0.3, 1.2, 3.7):
                    assert collinear_minimizer(params, n, pmag) == pmag / n
                    assert threshold(params, n, np.array([pmag, 0.0, 0.0])) == n * eps0

    def test_steep_table_takes_zero(self):
        # slope 2 at |q| = 0 exceeds |p| = 1.5: no boson momentum pays
        eps = EpsilonSpec.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        params = make_params(eps=eps)
        pmag = 1.5
        for n in (1, 2, 3):
            assert collinear_minimizer(params, n, pmag) == 0.0
            lam = threshold(params, n, np.array([pmag, 0.0, 0.0]))
            assert lam == 0.5 * pmag**2 + n * float(eps.radial(0.0))


class TestValidate:
    def test_good_model_passes(self):
        report = validate_model(make_params(eps=EpsilonSpec.relativistic(1.0, 0.5)))
        assert report.all_passed
        assert len(report.checks) >= 5

    def test_bad_gap_fails(self):
        # eps(0) = 1 gives subadditivity slack exactly 1; c0 = 1.5 must fail
        report = validate_model(make_params(c0=1.5))
        assert not report.all_passed

    def test_report_str_mentions_checks(self):
        text = str(validate_model(make_params()))
        assert "PASS" in text


class TestParams:
    def test_dimension_check(self):
        with pytest.raises(InputError):
            make_params(d=0)
        with pytest.raises(InputError):
            make_params(alpha=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("alpha", math.inf), ("c0", math.nan), ("c0", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be finite"):
            make_params(**{field: value})

    def test_vector_check(self):
        params = make_params(d=3)
        with pytest.raises(InputError):
            threshold(params, 1, np.zeros(2))
