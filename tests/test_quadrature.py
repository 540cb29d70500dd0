import math

import numpy as np
import pytest

from polaron import EpsilonSpec, InputError, QuadratureSpec, grid_measure, integrate
from polaron import quadrature
from polaron.errors import ResourceError
from polaron.quadrature import node_system


def gauss(points):
    points = np.asarray(points)
    return np.exp(-np.sum(points * points, axis=-1))


class TestGridMeasure:
    def test_weights_sum_to_volume(self):
        for d in (1, 2, 3):
            m = grid_measure(3.0, 5, d)
            assert m.total_weight() == pytest.approx(6.0**d, rel=1e-13)
            assert m.points.shape == (5**d, d)

    def test_cell_centers(self):
        m = grid_measure(1.0, 2, 1)
        assert m.points[:, 0] == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_budget(self):
        with pytest.raises(ResourceError):
            grid_measure(3.0, 200, 3)

    def test_invalid(self):
        with pytest.raises(InputError):
            grid_measure(-1.0, 5, 1)
        with pytest.raises(InputError):
            grid_measure(1.0, 0, 1)


class TestContinuum:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_integral(self, d):
        spec = QuadratureSpec.continuum(48, 13, r_max=8.0)
        value, err = integrate(gauss, spec, d)
        assert value == pytest.approx(math.pi ** (d / 2.0), rel=1e-10)
        assert err < 1e-8

    def test_polynomial_times_gaussian(self):
        # int x^2 e^{-|x|^2} over R^3 = (3/2) pi^{3/2}
        spec = QuadratureSpec.continuum(48, 13, r_max=8.0)
        f = lambda pts: pts[..., 0] ** 2 * gauss(pts)
        value, _ = integrate(f, spec, 3)
        assert value == pytest.approx(0.5 * math.pi**1.5, rel=1e-9)

    def test_error_estimate_brackets_truth(self):
        spec = QuadratureSpec.continuum(12, 7, r_max=6.0)
        value, err = integrate(gauss, spec, 3)
        assert abs(value - math.pi**1.5) <= max(10 * err, 1e-9)

    def test_unsupported_dimension(self):
        spec = QuadratureSpec.continuum(16, 7)
        with pytest.raises(InputError):
            integrate(gauss, spec, 4)


class TestNodeSystem:
    def test_axial_reduction_consistency(self):
        # axisymmetric integrand: reduced sum equals the full tensor sum
        spec = QuadratureSpec.continuum(20, 9, r_max=6.0)
        axis = np.array([1.0, 2.0, 2.0]) / 3.0

        def f(pts):
            t = pts @ axis
            r2 = np.sum(pts * pts, axis=-1)
            return np.exp(-r2) * (1.0 + t + t * t)

        full = node_system(spec, 3, axis=None)
        red = node_system(spec, 3, axis=axis)
        s_full = float(np.dot(full.full_weights, f(full.full_points)))
        s_red = float(np.dot(red.out_weights, f(red.out_points)))
        assert s_red == pytest.approx(s_full, rel=1e-12)

    def test_out_index_maps_full_to_out(self):
        spec = QuadratureSpec.continuum(12, 7)
        axis = np.array([0.0, 0.0, 1.0])
        ns = node_system(spec, 3, axis=axis)
        assert ns.out_index.shape == (ns.full_points.shape[0],)
        # (r, axis component) of a full node matches its reduced image
        t_full = ns.full_points @ axis
        t_out = ns.out_points @ axis
        r_full = np.linalg.norm(ns.full_points, axis=-1)
        r_out = np.linalg.norm(ns.out_points, axis=-1)
        assert t_full == pytest.approx(t_out[ns.out_index], abs=1e-12)
        assert r_full == pytest.approx(r_out[ns.out_index], abs=1e-12)

    def test_weights_positive(self):
        for d in (1, 2, 3):
            ns = node_system(QuadratureSpec.continuum(16, 9), d)
            assert np.all(ns.full_weights > 0)
            assert np.all(ns.out_weights > 0)


class TestNodeCache:
    SPEC = QuadratureSpec.continuum(24, 9, r_max=6.0)

    @staticmethod
    def fields(ns):
        return (ns.full_points, ns.full_weights, ns.out_points,
                ns.out_weights, ns.out_index, ns.full_sq)

    @pytest.mark.parametrize("d, axis", [(1, None), (2, None), (3, None),
                                         (3, (0.6, 0.0, 0.8))])
    def test_repeated_call_is_cached_and_exact(self, d, axis):
        ns = node_system(self.SPEC, d, axis=axis)
        # an equal rule built anew hits the same entry
        again = node_system(QuadratureSpec.continuum(24, 9, r_max=6.0), d,
                            axis=None if axis is None else np.array(axis))
        assert again is ns
        fresh = quadrature._build_continuum(self.SPEC, d, axis)
        for cached, built in zip(self.fields(ns), self.fields(fresh)):
            assert cached.dtype == built.dtype
            assert np.array_equal(cached, built)
            assert cached.tobytes() == built.tobytes()

    @pytest.mark.parametrize("d, axis", [(1, None), (3, None), (3, (0.0, 0.0, 1.0))])
    def test_cached_arrays_are_read_only(self, d, axis):
        ns = node_system(self.SPEC, d, axis=axis)
        for arr in self.fields(ns):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    @pytest.mark.parametrize("d, axis", [(1, None), (3, (0.6, 0.0, 0.8))])
    def test_squared_norms_give_the_node_dispersion(self, d, axis):
        # sqrt(full_sq) is the |q'| that EpsilonSpec takes from np.linalg.norm
        ns = node_system(self.SPEC, d, axis=axis)
        assert np.array_equal(np.sqrt(ns.full_sq),
                              np.linalg.norm(ns.full_points, axis=-1))
        eps = EpsilonSpec.relativistic(1.0, 0.0)
        assert np.array_equal(eps.radial(np.sqrt(ns.full_sq)), eps(ns.full_points))

    def test_cache_stays_at_its_bound(self):
        bound = quadrature._continuum_system.cache_info().maxsize
        rng = np.random.default_rng(5)
        for _ in range(bound + 5):
            axis = rng.normal(size=3)
            node_system(self.SPEC, 3, axis=axis / np.linalg.norm(axis))
        assert quadrature._continuum_system.cache_info().currsize == bound

    @pytest.mark.parametrize("d", [1, 3])
    def test_lattice_system_is_built_once_and_exact(self, d):
        m = grid_measure(2.0, 5, d)
        ns = node_system(QuadratureSpec.discrete(m), d)
        assert node_system(QuadratureSpec.discrete(m), d) is ns
        w = np.full(m.points.shape[0], m.weight)
        fresh = quadrature.NodeSystem(m.points, w, m.points, w, np.arange(w.shape[0]))
        for cached, built in zip(self.fields(ns), self.fields(fresh)):
            assert cached.dtype == built.dtype
            assert np.array_equal(cached, built)
            assert cached.tobytes() == built.tobytes()
        for arr in self.fields(ns):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_lattice_rules_reuse_the_measure(self):
        # lattice rules bypass the continuum cache: their points are the
        # measure's
        before = quadrature._continuum_system.cache_info()
        m = grid_measure(2.0, 3, 3)
        ns = node_system(QuadratureSpec.discrete(m), 3)
        assert ns.full_points is m.points
        assert quadrature._continuum_system.cache_info() == before


class TestDiscreteSpec:
    def test_discrete_nodes_are_the_lattice(self):
        m = grid_measure(2.0, 3, 2)
        spec = QuadratureSpec.discrete(m)
        assert spec.is_discrete
        value, err = integrate(gauss, spec, 2)
        expect = m.weight * float(gauss(m.points).sum())
        assert value == pytest.approx(expect, rel=1e-15)
        assert err == 0.0

    def test_dimension_mismatch(self):
        m = grid_measure(2.0, 3, 2)
        with pytest.raises(InputError):
            integrate(gauss, QuadratureSpec.discrete(m), 3)
