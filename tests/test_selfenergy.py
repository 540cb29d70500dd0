import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad as scipy_quad

from polaron import (CouplingSpec, DomainError, EpsilonSpec, ModelParams, QuadratureSpec,
                     threshold)
from polaron import branches as br
from polaron import quadrature
from polaron import selfenergy as se
from polaron.errors import ResourceError
from polaron.quadrature import grid_measure, node_system
from references import d2_leading


def make_params(d=3, alpha=0.1, eps0=1.0, c0=0.5, width=1.0, amplitude=1.0):
    return ModelParams(
        d=d,
        alpha=alpha,
        eps=EpsilonSpec.constant(eps0),
        coupling=CouplingSpec(amplitude=amplitude, width=width),
        c0=c0,
    )


QUAD = QuadratureSpec.continuum(32, 11, r_max=7.0)


class TestM2Oracles:
    def test_radial_reference_centered(self):
        # p = q = 0: the angular integral is trivial and the value reduces
        # to a 1-d radial integral evaluated with adaptive quadrature
        params = make_params()
        xi = 0.4
        ref, ref_err = scipy_quad(
            lambda r: r * r * math.exp(-r * r) / (0.5 * r * r + 2.0 - xi),
            0.0, 30.0,
        )
        expect = -params.alpha**2 * 4.0 * math.pi * ref
        point = se.m2(params, np.zeros(3), xi, np.zeros(3), QUAD)
        assert point.m == pytest.approx(expect, rel=1e-11)
        assert point.quad_error < 1e-12

    def test_dblquad_reference_offset(self):
        # p != q: full (r, cos theta) reference via adaptive 2-d quadrature
        params = make_params()
        p = np.array([0.7, 0.0, 0.0])
        q = np.array([-0.2, 0.0, 0.0])
        xi = 0.3
        k = p - q
        kk = float(k @ k)
        kmag = math.sqrt(kk)

        def integrand(u, r):
            num = math.exp(-(r * r))
            den = 0.5 * (kk - 2.0 * kmag * r * u + r * r) + 2.0 - xi
            return r * r * num / den

        ref, _ = dblquad(integrand, 0.0, 25.0, -1.0, 1.0, epsabs=1e-13)
        expect = -params.alpha**2 * 2.0 * math.pi * ref
        point = se.m2(params, p, xi, q, QUAD)
        assert point.m == pytest.approx(expect, rel=1e-10)

    def test_d1_reference(self):
        params = make_params(d=1)
        xi = 0.2
        ref, _ = scipy_quad(
            lambda t: math.exp(-t * t) / (0.5 * t * t + 2.0 - xi),
            -30.0, 30.0,
        )
        point = se.m2(params, np.zeros(1), xi, np.zeros(1),
                      QuadratureSpec.continuum(48, 11, r_max=7.0))
        assert point.m == pytest.approx(-params.alpha**2 * ref, rel=1e-11)


class TestM2Properties:
    def test_nonpositive_and_decreasing_in_xi(self):
        params = make_params()
        p = np.array([0.5, 0.0, 0.0])
        q = np.array([0.1, 0.2, 0.0])
        xis = [0.0, 0.3, 0.6, 0.9]
        vals = [se.m2(params, p, xi, q, QUAD).m for xi in xis]
        assert all(v < 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_a_values_strictly_decreasing(self):
        # on the refined rule, which m2 reads its value from
        params = make_params()
        p = np.zeros(3)
        q = np.array([0.3, 0.0, 0.0])
        fine = replace(QUAD, n_radial=2 * QUAD.n_radial,
                       angular_degree=2 * QUAD.angular_degree + 1)
        row = se.SelfEnergyTables(params, p, fine, q[None, :])
        a_lo = float(row.a_values(0.1)[0])
        a_hi = float(row.a_values(0.8)[0])
        assert a_hi < a_lo

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 3]),
           q=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           alpha=st.floats(0.01, 0.3), gap=st.floats(0.0, 3.0),
           h=st.floats(0.01, 0.5))
    @example(d=1, q=[-0.779296875, 0.0, 0.0], alpha=0.25, gap=0.0, h=0.5)
    def test_g_strictly_decreasing_and_concave(self, d, q, alpha, gap, h):
        # g(xi) = a(xi; q) - xi; the monotone root solves and bracketing
        # read its sign and rely on one root below the two-boson edge.
        # The example has min_e2 - (min_e2 - DENOM_MARGIN) < DENOM_MARGIN
        # in floating point: the cap itself must be admitted
        params = make_params(d=d, alpha=alpha)
        p = np.array([0.4, 0.0, 0.0])[:d]
        row = se.SelfEnergyTables(params, p, QUAD, np.array(q[:d])[None, :])
        top = row.min_e2 - se.DENOM_MARGIN - gap
        g = [float(row.a_values(xi)[0]) - xi for xi in (top - 2 * h, top - h, top)]
        assert g[0] > g[1] > g[2]
        assert g[0] - 2.0 * g[1] + g[2] < 0.0

    def test_covariance_in_p_minus_q(self):
        # m depends on (p - q, xi - eps(q)) only
        params = make_params()
        p = np.array([0.9, 0.1, 0.0])
        q = np.array([0.4, -0.2, 0.3])
        xi = 0.5
        direct = se.m2(params, p, xi, q, QUAD).m
        shifted = se.m2(params, p - q, xi - float(params.eps(q)) + 1.0,
                        np.zeros(3), QUAD).m
        assert direct == pytest.approx(shifted, rel=1e-13)

    def test_exact_alpha_scaling(self):
        params = make_params(alpha=0.07)
        doubled = replace(params, alpha=0.14)
        p = np.array([0.3, 0.0, 0.0])
        q = np.array([0.0, 0.2, 0.0])
        m1 = se.m2(params, p, 0.4, q, QUAD).m
        m2 = se.m2(doubled, p, 0.4, q, QUAD).m
        assert m2 == 4.0 * m1  # bit-for-bit: (2 alpha)^2 = 4 alpha^2 exactly

    def test_cap_enforced(self):
        params = make_params()
        with pytest.raises(DomainError):
            se.m2(params, np.zeros(3), 1.5, np.zeros(3), QUAD, kappa=1.0)

    def test_denominator_guard(self):
        params = make_params()
        tab = se.SelfEnergyTables(params, np.zeros(3), QUAD)
        with pytest.raises(DomainError):
            tab.m_values(tab.min_e2)


class TestKernels:
    def test_d2_symmetric(self):
        params = make_params()
        p = np.array([0.4, 0.2, 0.0])
        q = np.array([0.1, 0.0, 0.3])
        qp = np.array([-0.2, 0.5, 0.0])
        assert d2_leading(params, p, 0.3, q, qp) == pytest.approx(
            d2_leading(params, p, 0.3, qp, q), rel=1e-15
        )

    def test_d2_sign_and_value(self):
        params = make_params()
        p = np.zeros(3)
        q = np.array([0.5, 0.0, 0.0])
        qp = np.array([0.0, 0.5, 0.0])
        val = d2_leading(params, p, 0.0, q, qp)
        arg = -q - qp
        num = params.coupling.evaluate(arg, qp) * params.coupling.evaluate(arg, q)
        den = 0.5 * float(arg @ arg) + 2.0
        assert val == pytest.approx(-num / den, rel=1e-14)
        assert val < 0

    def test_b2_guard(self):
        params = make_params()
        with pytest.raises(DomainError):
            se.b2_leading(params, np.zeros(3), 10.0, np.zeros(3), np.zeros(3))


class TestTables:
    def test_matches_pointwise_m2(self):
        params = make_params()
        p = np.array([0.6, 0.0, 0.0])
        tab = se.SelfEnergyTables(params, p, QUAD)
        xi = 0.45
        mvals = tab.m_values(xi)
        for i in (0, len(mvals) // 2, len(mvals) - 1):
            q = tab.ns.out_points[i]
            direct = se.m2(params, p, xi, q, QUAD)
            # tables use the coarse rule; compare within its own estimate
            assert mvals[i] == pytest.approx(
                direct.m, abs=max(10 * direct.quad_error, 1e-12), rel=1e-6
            )

    def test_discrete_tables_match_lattice_sum(self):
        params = make_params(d=1)
        m = grid_measure(3.0, 15, 1)
        tab = se.SelfEnergyTables(params, np.zeros(1), QuadratureSpec.discrete(m))
        xi = 0.2
        i = 7
        q = tab.ns.out_points[i]
        k = -q
        diff = k[None, :] - m.points
        num = params.coupling.evaluate(diff, m.points) ** 2
        e2 = 0.5 * np.sum(diff * diff, axis=-1) + 2.0
        expect = -params.alpha**2 * m.weight * float((num / (e2 - xi)).sum())
        assert tab.m_values(xi)[i] == pytest.approx(expect, rel=1e-13)

    def test_one_row_tables_are_rows_of_the_table(self):
        # the pointwise path and the tabled path on one lattice rule
        params = make_params()
        p = np.array([0.4, -0.2, 0.1])
        quad = QuadratureSpec.discrete(grid_measure(3.0, 5, 3))
        tab = se.SelfEnergyTables(params, p, quad)
        xi = 0.35
        m_all, a_all, d_all = tab.m_values(xi), tab.a_values(xi), tab.d_matrix(xi)
        for i in (0, 31, 62, 124):
            q = tab.ns.out_points[i]
            row = se.SelfEnergyTables(params, p, quad, q[None, :])
            assert row.m_values(xi)[0] == pytest.approx(m_all[i], rel=1e-15, abs=0)
            assert row.a_values(xi)[0] == pytest.approx(a_all[i], rel=1e-15, abs=0)
            np.testing.assert_allclose(row.d_matrix(xi)[0], d_all[i], rtol=1e-15, atol=0)
            assert row.v_out[0] == pytest.approx(tab.v_out[i], rel=1e-15, abs=0)
            point = se.m2(params, p, xi, q, quad)
            assert point.m == pytest.approx(m_all[i], rel=1e-15, abs=0)
            assert point.quad_error == 0.0
            # e1 plus m2's value is the table's effective energy
            assert float(row.e1[0]) + point.m == pytest.approx(
                a_all[i], rel=1e-15, abs=0)

    @pytest.mark.parametrize("kind", ["separable", "p-modulated"])
    def test_budget(self, kind):
        # the 128 x 23 rule in d = 3 pairs 1,536 evaluation points with
        # 36,864 nodes: 2.3 GB (2.7 GB p-modulated) of pair arrays at a
        # ground solve's peak, refused before any is allocated.  The node
        # system, the rule's and not the table's, is built untraced first
        quad = QuadratureSpec.continuum(128, 23, r_max=6.0)
        coupling = CouplingSpec(kind=kind, amplitude=1.0, width=1.0,
                                p_width=0.8 if kind == "p-modulated" else None)
        params = replace(make_params(), coupling=coupling)
        p = np.array([0.0, 0.0, 0.3])
        node_system(quad, 3, axis=quadrature.axis_of(p))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="budget"):
                br.ground_state(params, p, 1.0, 1, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_d_matrix_is_d2_leading(self):
        params = make_params()
        p = np.zeros(3)
        tab = se.SelfEnergyTables(params, p, QUAD)
        xi = 0.1
        dm = tab.d_matrix(xi)
        i, j = 3, 11
        q = tab.ns.out_points[i]
        qp = tab.ns.full_points[j]
        # kernel tables carry no alpha; d2_leading includes no alpha either
        assert dm[i, j] == pytest.approx(
            d2_leading(params, p, xi, q, qp), rel=1e-12
        )


class TestContraction:
    def test_closed_forms(self):
        params = make_params(alpha=0.12)
        p = np.zeros(3)
        lam2 = br.lambda2_proxy_value(params, p)
        kappa = 1.1
        rep = se.contraction_bounds(params, p, kappa, lam2)
        hsq = math.pi**1.5
        gap = lam2 - kappa
        expect_g = params.alpha * (3.0 + hsq) / gap
        expect_q = params.alpha * math.sqrt(3.0 * hsq) * (
            1.0 / (params.c0 + gap) + 1.0 / gap
        )
        assert rep.bound_Gamma == pytest.approx(expect_g, rel=1e-14)
        assert rep.bound_Q == pytest.approx(expect_q, rel=1e-14)
        assert rep.alpha0_Gamma * expect_g / params.alpha == pytest.approx(0.5, rel=1e-14)

    def test_proxy_margin_floor(self):
        params = make_params(alpha=1e-4)
        p = np.zeros(3)
        assert br.lambda2_proxy_value(params, p) == threshold(params, 2, p) - 1e-3

    def test_cap_above_proxy_raises(self):
        params = make_params()
        with pytest.raises(DomainError):
            se.contraction_bounds(params, np.zeros(3), 5.0,
                                  br.lambda2_proxy_value(params, np.zeros(3)))


def make_modulated():
    return ModelParams(
        d=3,
        alpha=0.1,
        eps=EpsilonSpec.relativistic(1.0, 0.0),
        coupling=CouplingSpec(kind="p-modulated", amplitude=0.9, width=1.1,
                              p_width=1.3),
        c0=0.5,
    )


class TestSquaredNorms:
    RULES = [QuadratureSpec.discrete(grid_measure(3.0, 5, 3)),
             QuadratureSpec.continuum(24, 9, r_max=6.0)]

    @pytest.mark.parametrize("quad", RULES, ids=["lattice-5^3", "rule-24x9"])
    def test_p_modulated_rows_kernel_and_direct_sum(self, quad):
        params = make_modulated()
        p = np.array([0.4, -0.2, 0.3])
        xi = 0.6
        tab = se.SelfEnergyTables(params, p, quad)
        m_all, a_all, d_all = tab.m_values(xi), tab.a_values(xi), tab.d_matrix(xi)
        S, w = tab.ns.full_points, tab.ns.full_weights
        c = params.coupling.evaluate
        rows = (0, 31, 62, tab.points.shape[0] - 1)
        for i in rows:
            # a one-row table on the same nodes is the row, bit for bit
            q = tab.points[i]
            row = se.SelfEnergyTables(params, p, tab.ns, q[None, :])
            assert row.m_values(xi)[0] == m_all[i]
            assert row.a_values(xi)[0] == a_all[i]
            assert np.array_equal(row.d_matrix(xi)[0], d_all[i])
            assert row.v_out[0] == tab.v_out[i]
            # m from a direct node sum of c(p - q - q'; q')^2
            diff = (p - q)[None, :] - S
            e2 = 0.5 * np.sum(diff * diff, axis=-1) + params.eps(q) + params.eps(S)
            direct = -params.alpha**2 * float(np.sum(c(diff, S) ** 2 * w / (e2 - xi)))
            assert m_all[i] == pytest.approx(direct, rel=1e-13)
            for j in (0, 7, S.shape[0] // 2, S.shape[0] - 1):
                assert d_all[i, j] == pytest.approx(
                    d2_leading(params, p, xi, q, S[j]), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), n_rows=st.integers(2, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_do_not_depend_on_the_row_count(self, d, n_rows, seed):
        # k.q' must not be a BLAS product, whose rounding may follow the shape
        params = replace(make_modulated(), d=d)
        rng = np.random.default_rng(seed)
        p = rng.uniform(-1.0, 1.0, d)
        points = rng.uniform(-2.0, 2.0, (n_rows, d))
        tab = se.SelfEnergyTables(params, p, QUAD, points)
        for i in (0, n_rows - 1):
            row = se.SelfEnergyTables(params, p, QUAD, points[i:i + 1])
            assert np.array_equal(row.e2[0], tab.e2[i])
            assert np.array_equal(row.num_m[0], tab.num_m[i])
            assert np.array_equal(row.num_d[0], tab.num_d[i])

    def test_cancellation_when_p_minus_q_is_a_node(self):
        # k = p - q equal to a node q' makes |k|^2 - 2 k.q' + |q'|^2 cancel
        params = make_modulated()
        quad = QuadratureSpec.continuum(24, 9, r_max=6.0)
        nodes = node_system(quad, 3).full_points
        q = np.array([0.25, -0.5, 0.125])
        hits = 0
        for n in range(0, nodes.shape[0], 37):
            p = q + nodes[n]
            if not np.array_equal(p - q, nodes[n]):
                continue
            hits += 1
            row = se.SelfEnergyTables(params, p, quad, q[None, :])
            diff = (p - q)[None, :] - nodes
            direct = (0.5 * np.sum(diff * diff, axis=-1) + float(params.eps(q))
                      + params.eps(nodes))
            assert direct[n] == float(params.eps(q)) + float(params.eps(nodes[n]))
            tol = 1e-14 * (1.0 + np.abs(row.e2[0]))
            assert abs(row.e2[0, n] - direct[n]) <= tol[n]
            assert np.all(np.abs(row.e2[0] - direct) <= tol)
        assert hits >= 20

    def test_bounded_memory_of_a_full_table(self):
        # ROADMAP aim 3: the build keeps few (rows, Nf) arrays alive at once
        params = replace(make_params(), eps=EpsilonSpec.relativistic(1.0, 0.0))
        quad = QuadratureSpec.continuum(48, 15, r_max=6.0)
        p = np.array([0.0, 0.3, 0.4])
        se.SelfEnergyTables(params, p, quad)  # node system into the cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tab = se.SelfEnergyTables(params, p, quad)
            build_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tab.num_d
            num_d_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tab.e2.shape == (384, 6144)
        assert build_peak <= 5 * tab.e2.nbytes
        assert num_d_peak <= 2 * tab.e2.nbytes

    def test_bounded_memory_of_a_ground_solve(self):
        # a ground solve holds one kernel matrix at a time: the operator at
        # hi goes once F(hi) is known, and d_matrix drops the per-xi pass's
        # two buffers, so the peak holds e2, num_d, the kernel and e2 - xi,
        # under the _PAIR_ARRAYS = 5 arrays the budget counts
        params = replace(make_params(), eps=EpsilonSpec.relativistic(1.0, 0.0))
        quad = QuadratureSpec.continuum(48, 15, r_max=6.0)
        p = np.array([0.0, 0.3, 0.4])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, quad)
        e2_bytes = se.SelfEnergyTables(params, p, quad).e2.nbytes  # caches the nodes
        tracemalloc.start()
        try:
            bp = br.ground_state(params, p, lam1, 1, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bp.status == "converged"
        assert e2_bytes == 384 * 6144 * 8
        assert peak <= se._PAIR_ARRAYS * e2_bytes
        assert peak <= 4.5 * e2_bytes


class TestNodeTerms:
    """h(q') = |q'|^2 / 2 + eps(q'), c(q') and w|c(q')|^2 are kept on the
    node system per model."""

    QUAD = QuadratureSpec.continuum(24, 9, r_max=6.0)
    P = np.array([0.3, -0.1, 0.2])
    POINTS = np.array([[0.1, 0.2, -0.3], [0.5, 0.0, 0.4], [-0.7, 0.3, 0.1]])

    @staticmethod
    def models():
        # pairs that differ only in eps or only in the coupling
        base = make_params()
        return [
            base,
            replace(base, eps=EpsilonSpec.relativistic(1.0, 0.0)),
            replace(base, eps=EpsilonSpec.relativistic(1.0, 0.2)),
            replace(base, eps=EpsilonSpec.constant(1.5)),
            replace(base, coupling=CouplingSpec(width=1.3)),
            replace(base, eps=EpsilonSpec.tabulated([0.0, 1.0, 2.0, 4.0],
                                                    [1.0, 1.2, 1.7, 3.0])),
            make_modulated(),
        ]

    def assert_uncached(self, params, tab):
        # the same nodes in a fresh system, whose cache is empty
        fresh = quadrature._build_continuum(self.QUAD, 3, (0.0, 0.0, 1.0))
        ref = se.SelfEnergyTables(params, self.P, fresh, self.POINTS)
        for name in ("e2", "num_m", "num_d"):
            assert getattr(tab, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_models_on_one_rule_match_an_uncached_build(self):
        ns = node_system(self.QUAD, 3)
        for _ in range(2):            # cold, then whatever the cache still holds
            for params in self.models():
                self.assert_uncached(
                    params, se.SelfEnergyTables(params, self.P, ns, self.POINTS))

    def test_equal_spec_built_anew_hits_the_entry(self):
        ns = node_system(self.QUAD, 3)
        first = se.SelfEnergyTables(make_params(), self.P, ns, self.POINTS)
        again = se.SelfEnergyTables(make_params(), self.P, ns, self.POINTS)
        assert again.num_m is first.num_m
        self.assert_uncached(make_params(), again)

    def test_changed_spec_misses_the_entry(self):
        # keyed by value: a spec changed in place is a new model
        params = make_params()
        ns = node_system(self.QUAD, 3)
        first = se.SelfEnergyTables(params, self.P, ns, self.POINTS)
        params.eps.eps0 = 1.25
        params.coupling.width = 0.9
        tab = se.SelfEnergyTables(params, self.P, ns, self.POINTS)
        assert tab.num_m is not first.num_m
        assert not np.array_equal(tab.e2, first.e2)
        self.assert_uncached(params, tab)

    def test_key_is_exact(self):
        # equal field values share a key, also where fields share one
        # object; -0.0 and 0.0, 1 and 1.0, and a table changed in place do not
        base = make_params()
        key = se._model_key
        assert key(base) == key(make_params())
        shared = float("1.3")
        assert key(replace(base, coupling=CouplingSpec(amplitude=shared, width=shared))) == key(
            replace(base, coupling=CouplingSpec(amplitude=float("1.3"), width=float("1.3"))))
        for a, b in ((0.0, -0.0), (1, 1.0), (1.0, np.int64(1))):
            assert key(replace(base, coupling=CouplingSpec(amplitude=a))) != key(
                replace(base, coupling=CouplingSpec(amplitude=b)))
        table = replace(base, eps=EpsilonSpec.tabulated([0.0, 1.0, 2.0], [1.0, 1.2, 1.7]))
        before = key(table)
        assert before == key(replace(base, eps=EpsilonSpec.tabulated(
            [0.0, 1.0, 2.0], [1.0, 1.2, 1.7])))
        table.eps.values[1] = 1.25
        assert key(table) != before

    def test_cached_arrays_are_read_only(self):
        ns = quadrature._build_continuum(self.QUAD, 3, (0.0, 0.0, 1.0))
        for params in self.models():
            tab = se.SelfEnergyTables(params, self.P, ns, self.POINTS)
            h, c, num = se._node_terms(params, ns)
            separable = params.coupling.kind == "separable"
            assert (c is not None) == (num is tab.num_m) == separable
            for arr in (h, c, num) if separable else (h,):
                assert arr.shape == ns.full_sq.shape
                with pytest.raises(ValueError):
                    arr[0] = arr[0]

    def test_cache_stays_at_its_bound(self):
        ns = quadrature._build_continuum(self.QUAD, 3, (0.0, 0.0, 1.0))
        for i in range(20):
            params = replace(make_params(), coupling=CouplingSpec(width=1.0 + 0.05 * i))
            se.SelfEnergyTables(params, self.P, ns, self.POINTS)
            assert len(ns.terms) == min(i + 1, se._TERMS_BOUND)
