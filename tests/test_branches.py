import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from polaron import (
    CouplingSpec,
    DomainError,
    EpsilonSpec,
    ModelParams,
    QuadratureSpec,
    threshold,
)
from polaron import branches as br
from polaron import model
from polaron import quadrature
from polaron import selfenergy as se
from polaron.friedrichs import FriedrichsSolver


def make_params(d=3, alpha=0.1, eps0=1.0, c0=0.5, eps=None):
    return ModelParams(
        d=d,
        alpha=alpha,
        eps=EpsilonSpec.constant(eps0) if eps is None else eps,
        coupling=CouplingSpec(amplitude=1.0, width=1.0),
        c0=c0,
    )


QUAD = QuadratureSpec.continuum(24, 9, r_max=6.0)


def direct_a(params, p, q, xi):
    """a_p(xi; q) by a direct weighted sum over the rule's full nodes."""
    pts, w = quadrature.nodes(QUAD, params.d)
    k = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    diff = k[None, :] - pts
    eps_q = float(params.eps(np.asarray(q, dtype=float)))
    den = 0.5 * np.einsum("ij,ij->i", diff, diff) + eps_q + params.eps(pts) - xi
    num = params.coupling.evaluate(diff, pts) ** 2
    return 0.5 * float(k @ k) + eps_q - params.alpha**2 * float(np.dot(num / den, w))


coords = st.floats(-0.8, 0.8)


class TestCapRules:
    def test_proxy_matches_threshold_minus_margin(self):
        params = make_params()
        p = np.array([0.4, 0.0, 0.0])
        proxy = se.lambda2_proxy_value(params, p)
        margin = se.default_proxy_margin(params)
        assert proxy == pytest.approx(
            threshold(params, 2, p) - margin, abs=1e-12
        )

    def test_fraction_rule_between_thresholds(self):
        params = make_params()
        p = np.zeros(3)
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = threshold(params, 1, p)
        proxy = se.lambda2_proxy_value(params, p)
        assert kappa == pytest.approx(lam1 + 0.9 * (proxy - lam1), abs=1e-12)

    def test_absolute_rule(self):
        params = make_params()
        assert br.kappa_from_rule(params, np.zeros(3), "absolute", 1.2) == 1.2

    def test_cap_above_proxy_rejected(self):
        params = make_params()
        with pytest.raises(DomainError):
            br.dispersion_point(params, np.zeros(3), np.zeros(3), 3.0, QUAD)


class TestDispersion:
    def test_residual_and_free_bound(self):
        params = make_params()
        rng = np.random.default_rng(7)
        p_base = np.zeros(3)
        kappa = br.kappa_from_rule(params, p_base, "fraction", 0.9)
        for _ in range(10):
            p = 0.3 * rng.normal(size=3)
            q = 0.4 * rng.normal(size=3)
            bp = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
            if bp.status == "none":
                continue
            assert bp.residual <= 1e-9 * (1.0 + abs(bp.xi))
            e1 = 0.5 * float((p - q) @ (p - q)) + 1.0
            assert bp.xi <= e1

    def test_rotation_invariance(self):
        params = make_params()
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        p = np.array([0.5, 0.0, 0.0])
        q = np.array([0.2, 0.3, 0.0])
        rot = Rotation.from_euler("zyx", [0.7, -0.4, 1.1]).as_matrix()
        a = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        b = br.dispersion_point(params, rot @ p, rot @ q, kappa, QUAD, 1e-10)
        assert a.xi == pytest.approx(b.xi, abs=1e-10)

    def test_parity_symmetry(self):
        params = make_params()
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        p = np.array([0.4, 0.1, 0.0])
        q = np.array([-0.2, 0.3, 0.1])
        a = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        b = br.dispersion_point(params, -p, -q, kappa, QUAD, 1e-10)
        assert a.xi == pytest.approx(b.xi, abs=1e-12)

    def test_free_limit(self):
        params = make_params(alpha=0.0)
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        q = np.array([0.3, 0.0, 0.0])
        bp = br.dispersion_point(params, np.zeros(3), q, kappa, QUAD, 1e-12)
        assert bp.xi == pytest.approx(0.5 * 0.09 + 1.0, abs=1e-12)

    def test_cap_consistency_and_nesting(self):
        params = make_params()
        p = np.array([0.3, 0.0, 0.0])
        k1 = br.kappa_from_rule(params, p, "fraction", 0.7)
        k2 = br.kappa_from_rule(params, p, "fraction", 0.9)
        rng = np.random.default_rng(3)
        for _ in range(8):
            q = 0.6 * rng.normal(size=3)
            a = br.dispersion_point(params, p, q, k1, QUAD, 1e-10)
            b = br.dispersion_point(params, p, q, k2, QUAD, 1e-10)
            if a.status != "none":
                assert b.status != "none"  # membership nested in kappa
                assert a.xi == pytest.approx(b.xi, abs=1e-9)


class TestDispersionProperties:
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 3]), p=st.lists(coords, min_size=3, max_size=3),
           k=st.lists(coords, min_size=3, max_size=3),
           alpha=st.floats(0.0, 0.12), fraction=st.floats(0.3, 0.95),
           relativistic=st.booleans())
    def test_newton_iterates_fall_onto_the_root(self, d, p, k, alpha, fraction,
                                                relativistic):
        # g = a - xi is decreasing and concave, so from kappa every Newton
        # iterate falls and stays on the g <= 0 side of the root, up to the
        # rounding of one evaluation of g
        eps = EpsilonSpec.relativistic(1.0, 0.5) if relativistic else None
        params = make_params(d=d, alpha=alpha, eps=eps)
        p = np.array(p[:d])
        q = p - np.array(k[:d])
        kappa = br.kappa_from_rule(params, p, "fraction", fraction)
        seen = []
        m_slopes = se.SelfEnergyTables.m_slopes

        def recorded(self, xi):
            m, slope = m_slopes(self, xi)
            seen.append((xi, float(self.e1_out[0] + m[0]) - xi))
            return m, slope

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(se.SelfEnergyTables, "m_slopes", recorded)
            bp = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        assume(bp.status != "none")
        assert bp.status == "converged"
        assert len(seen) == bp.iterations
        assert seen[0][0] == kappa and seen[-1][0] == bp.xi
        xs = [xi for xi, _ in seen]
        assert all(b < a for a, b in zip(xs, xs[1:]))
        for xi, g in seen:
            assert g <= 4 * np.finfo(float).eps * (1.0 + abs(xi))

    @settings(max_examples=30, deadline=None)
    @given(p=st.lists(coords, min_size=3, max_size=3),
           k=st.lists(coords, min_size=3, max_size=3),
           turns=st.integers(0, QUAD.angular_degree), flip=st.booleans(),
           invert=st.booleans())
    def test_node_symmetries_d3(self, p, k, turns, flip, invert):
        # turns by 2 pi / n_phi about z, the half turn about x and the
        # inversion map the d=3 rule's nodes onto themselves
        params = make_params()
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        p = np.array(p)
        q = p - np.array(k)
        angle = 2.0 * math.pi * turns / (QUAD.angular_degree + 1)
        rot = Rotation.from_euler("z", angle).as_matrix()
        if flip:
            rot = rot @ np.diag([1.0, -1.0, -1.0])
        if invert:
            rot = -rot
        a = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        b = br.dispersion_point(params, rot @ p, rot @ q, kappa, QUAD, 1e-10)
        assert a.status == b.status
        if a.xi is not None:
            assert b.xi == pytest.approx(a.xi, rel=1e-12, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(p=coords, k=st.floats(-1.5, 1.5), alpha=st.floats(0.0, 0.2))
    def test_parity_d1(self, p, k, alpha):
        params = make_params(d=1, alpha=alpha)
        kappa = br.kappa_from_rule(params, np.zeros(1), "fraction", 0.9)
        p, q = np.array([p]), np.array([p - k])
        a = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        b = br.dispersion_point(params, -p, -q, kappa, QUAD, 1e-10)
        assert a.status == b.status
        if a.xi is not None:
            assert b.xi == pytest.approx(a.xi, rel=1e-12, abs=0)


class TestDomain:
    def test_membership_and_boundary(self):
        params = make_params()
        p = np.zeros(3)
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        probes = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        dm = br.one_boson_domain(params, p, kappa, probes, QUAD, 1e-10)
        assert dm.membership[0]
        assert not dm.membership[1]
        for ray, radius in dm.boundary:
            assert radius is not None
            inside = br.dispersion_point(params, p, 0.99 * radius * ray,
                                         kappa, QUAD, 1e-10)
            outside = br.dispersion_point(params, p, 1.01 * radius * ray,
                                          kappa, QUAD, 1e-10)
            assert inside.status != "none"
            assert outside.status == "none"

    def test_boundary_symmetric_at_p0(self):
        params = make_params()
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        dm = br.one_boson_domain(params, np.zeros(3), kappa,
                                 np.zeros((1, 3)), QUAD, 1e-10)
        radii = [r for _, r in dm.boundary]
        assert radii[0] == pytest.approx(radii[1], abs=1e-6)

    @pytest.mark.parametrize("p, ray", [
        ([0.61, -0.77, 0.13], [0.99, 0.07, -0.11]),
        ([0.32, 0.53, -0.77], [0.39, 0.90, 0.17]),
        ([0.32, 0.53, -0.77], [-0.77, 0.35, -0.53]),
    ])
    def test_boundary_on_off_axis_ray(self, p, ray):
        # off-axis rays that cross the boundary, where the on-axis free
        # minimizer t_seed lies outside the domain at t_seed * ray
        params = make_params()
        p = np.array(p)
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        dm = br.one_boson_domain(params, p, kappa, np.zeros((1, 3)), QUAD,
                                 1e-10, rays=[np.array(ray)])
        (unit, radius), = dm.boundary
        assert radius is not None
        inside = br.dispersion_point(params, p, 0.99 * radius * unit,
                                     kappa, QUAD, 1e-10)
        outside = br.dispersion_point(params, p, 1.01 * radius * unit,
                                      kappa, QUAD, 1e-10)
        assert inside.status != "none"
        assert outside.status == "none"

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cap_gap_changes_sign_at_the_radius(self, seed):
        # seeded off-axis rays: a(kappa; r u) - kappa, summed directly over
        # the rule's nodes, changes sign across the returned radius
        rng = np.random.default_rng(seed)
        params = make_params(eps=EpsilonSpec.relativistic(1.0, 0.5))
        p = 0.5 * rng.uniform() * rng.normal(size=3)
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        rays = [rng.normal(size=3) for _ in range(3)]
        dm = br.one_boson_domain(params, p, kappa, np.zeros((1, 3)), QUAD,
                                 1e-10, rays=rays)
        for unit, r in dm.boundary:
            assert r is not None
            assert direct_a(params, p, (r - 1e-7) * unit, kappa) - kappa < 0.0
            assert direct_a(params, p, (r + 1e-7) * unit, kappa) - kappa > 0.0


class TestLambda1:
    def test_matches_dense_scan(self):
        params = make_params()
        p = np.array([0.4, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        # oracle: solve the dispersion on a dense on-axis grid and take
        # the smallest solved value
        best = math.inf
        for t in np.linspace(-1.5, 2.0, 141):
            bp = br.dispersion_point(params, p, np.array([t, 0.0, 0.0]),
                                     kappa, QUAD, 1e-10)
            if bp.status != "none":
                best = min(best, bp.xi)
        assert lam1 <= best + 1e-10
        assert lam1 == pytest.approx(best, abs=1e-3)

    @pytest.mark.parametrize("alpha, eps, pmag", [
        (0.0, None, 1.4),                                  # criterion 9's setup
        (0.1, EpsilonSpec.relativistic(1.0, 0.5), 2.0),
    ])
    def test_inner_edge_when_zero_is_outside(self, alpha, eps, pmag):
        # q = 0 outside the domain: the on-axis search starts at the inner
        # edge, and lambda1 is the minimum of a fine scan of solves
        params = make_params(alpha=alpha, eps=eps)
        p = np.array([pmag, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        assert br.dispersion_point(params, p, np.zeros(3), kappa, QUAD,
                                   1e-10).status == "none"
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)

        def xi(t):
            bp = br.dispersion_point(params, p, np.array([t, 0.0, 0.0]),
                                     kappa, QUAD, 1e-10)
            return math.inf if bp.xi is None else bp.xi

        coarse = np.linspace(0.0, 2.0 * pmag, 161)
        i = int(np.argmin([xi(t) for t in coarse]))
        best = min(xi(t) for t in np.linspace(coarse[i - 1], coarse[i + 1], 401))
        assert lam1 <= best + 1e-12
        assert lam1 == pytest.approx(best, abs=1e-8)

    def test_free_limit_equals_threshold(self):
        params = make_params(alpha=0.0)
        p = np.array([0.6, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-12)
        assert lam1 == pytest.approx(threshold(params, 1, p), abs=1e-10)


class TestFreeSeed:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("eps", [EpsilonSpec.constant(1.0),
                                     EpsilonSpec.relativistic(1.0, 0.5),
                                     EpsilonSpec.relativistic(0.3, 0.0)])
    def test_collinear_minimizer_is_the_wide_argmin(self, d, eps):
        # the seeds of lambda1 and the domain rays: the n = 1 collinear
        # minimizer on [0, |p|] is the argmin of the on-axis free energy
        # over the wide interval [-P - 5, P + 5], P = p . axis
        params = make_params(d=d, eps=eps)
        rng = np.random.default_rng(d)
        for pmag in (0.0, 0.15, 0.6, 1.2, 3.0):
            v = rng.normal(size=d)
            p = pmag * v / np.linalg.norm(v)
            big_p = float(p @ quadrature.axis_of(p))
            t = np.linspace(-big_p - 5.0, big_p + 5.0, 200001)
            f = 0.5 * (big_p - t) ** 2 + eps.radial(np.abs(t))
            t_min = model.collinear_minimizer(params, 1, float(np.linalg.norm(p)))
            assert abs(t_min - t[int(np.argmin(f))]) <= t[1] - t[0]


class TestGround:
    def test_free_limit(self):
        params = make_params(alpha=0.0)
        for pmag in (0.0, 0.5, 1.0):
            p = np.array([pmag, 0.0, 0.0])
            kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
            bp = br.ground_state(params, p, kappa, 1, QUAD, 1e-10)
            assert bp.status == "converged"
            assert bp.xi == pytest.approx(0.5 * pmag * pmag, abs=1e-10)

    def test_below_free_energy(self):
        params = make_params(alpha=0.1)
        p = np.array([0.5, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        bp = br.ground_state(params, p, kappa, 1, QUAD, 1e-10)
        assert bp.status == "converged"
        assert bp.xi < 0.125 - 1e-12

    def test_none_outside_domain(self):
        params = make_params(alpha=0.01)
        p = np.array([2.5, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        bp = br.ground_state(params, p, kappa, 1, QUAD, 1e-10)
        assert bp.status == "none"

    def test_boundary_free_closed_form(self):
        # alpha = 0: the domain edge is |p| = sqrt(2) and the gap at
        # distance delta inside is sqrt(2) delta - delta^2 / 2
        params = make_params(alpha=0.0)
        res = br.g0_boundary(params, np.array([1.0, 0.0, 0.0]), QUAD,
                             1e-10, deltas=(0.1, 0.03))
        assert res.status == "converged"
        assert res.r_star == pytest.approx(math.sqrt(2.0), abs=1e-7)
        # the sign change of F_r(hi) = r^2 / 2 - (1 - 1e-9)
        assert res.r_star == pytest.approx(math.sqrt(2.0 * (1.0 - 1e-9)), abs=1e-13)
        for dlt, gap in res.ladder:
            assert gap == pytest.approx(math.sqrt(2.0) * dlt - 0.5 * dlt * dlt,
                                        abs=1e-7)


# (d, p) pairs of the ground-branch property tests
GROUND_CASES = [(1, [0.0]), (1, [0.6]), (3, [0.0, 0.0, 0.0]), (3, [0.3, 0.2, 0.0])]


class TestGroundProperties:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("d, p", GROUND_CASES)
    def test_determinant_strictly_decreasing(self, d, p, order):
        # the none rule reads F(lambda1 - tol) >= 0 as "no root below", which
        # needs F(xi) = Delta_xi(xi) to decrease on the whole search range
        params = make_params(d=d)
        p = np.array(p)
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        tables = se.SelfEnergyTables(params, p, QUAD)
        e0 = 0.5 * float(p @ p)

        def f(xi):
            return FriedrichsSolver.from_tables(tables, xi, e0, order).delta(xi, order)

        values = [f(xi) for xi in np.linspace(lam1 - 1.0, lam1 - 1e-10, 41)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d, p", GROUND_CASES)
    def test_converged_below_lambda1_below_cap(self, d, p):
        params = make_params(d=d)
        p = np.array(p)
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        assert lam1 <= kappa
        for order in (0, 1, 2):
            bp = br.ground_state(params, p, kappa, order, QUAD, 1e-10, lam1=lam1)
            assert bp.status == "converged"
            assert bp.xi < lam1


    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([1, 3]), p=st.lists(coords, min_size=3, max_size=3),
           alpha=st.floats(0.0, 0.12), order=st.integers(0, 2),
           relativistic=st.booleans())
    def test_random_points(self, d, p, alpha, order, relativistic):
        # F decreases on ground_state's first search range below hi, and
        # the solved xi0 < lambda1 <= kappa
        eps = EpsilonSpec.relativistic(1.0, 0.5) if relativistic else None
        params = make_params(d=d, alpha=alpha, eps=eps)
        p = np.array(p[:d])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        assert lam1 <= kappa
        tables = se.SelfEnergyTables(params, p, QUAD)
        e0 = 0.5 * float(p @ p)
        hi = lam1 - 1e-9

        def f(xi):
            return FriedrichsSolver.from_tables(tables, xi, e0, order).delta(xi, order)

        values = [f(xi) for xi in np.linspace(min(e0, hi) - 1.0, hi, 41)]
        assert all(b < a for a, b in zip(values, values[1:]))
        bp = br.ground_state(params, p, kappa, order, QUAD, 1e-10, lam1=lam1)
        assert bp.status == "converged"
        assert bp.xi < lam1


class TestIterations:
    def test_count_every_evaluation(self, monkeypatch):
        # iterations = evaluations of the solved scalar function; in a
        # dispersion solve each is one Newton row evaluation of g and g'
        # (an m_slopes call on the point's one-row table), the membership
        # test at kappa included; in a ground solve one determinant
        # F(xi) = Delta_xi(xi), with the bracketing and the final residual
        calls = {"g": 0, "delta": 0}
        m_slopes, delta = se.SelfEnergyTables.m_slopes, FriedrichsSolver.delta

        def counted_g(self, xi):
            calls["g"] += 1
            return m_slopes(self, xi)

        def counted_delta(self, z, order=1):
            calls["delta"] += 1
            return delta(self, z, order)

        monkeypatch.setattr(se.SelfEnergyTables, "m_slopes", counted_g)
        monkeypatch.setattr(FriedrichsSolver, "delta", counted_delta)
        params = make_params(d=1)
        p = np.array([0.3])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        for q, status in ((0.2, "converged"), (3.0, "none")):
            calls["g"] = 0
            bp = br.dispersion_point(params, p, np.array([q]), kappa, QUAD, 1e-10)
            assert bp.status == status
            assert bp.iterations == calls["g"]
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        bp = br.ground_state(params, p, kappa, 1, QUAD, 1e-10, lam1=lam1)
        assert bp.status == "converged"
        assert bp.iterations == calls["delta"]

    @pytest.mark.parametrize("d, p", [(1, [0.3]), (3, [0.3, 0.2, 0.0])])
    def test_ground_state_builds_nodes_once(self, monkeypatch, d, p):
        # the tables and the edge line share one node system, so the outer
        # loop never rebuilds it
        params = make_params(d=d)
        p = np.array(p)
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        builds = []
        node_system = quadrature.node_system

        def counted(*args, **kwargs):
            builds.append(args)
            return node_system(*args, **kwargs)

        monkeypatch.setattr(quadrature, "node_system", counted)
        bp = br.ground_state(params, p, kappa, 1, QUAD, 1e-10, lam1=lam1)
        assert bp.status == "converged"
        assert bp.iterations > 10
        assert len(builds) <= 2


class TestGamma:
    def test_factorization_residual(self):
        params = make_params()
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        p = np.array([0.4, 0.2, 0.0])
        q = np.array([0.1, 0.0, 0.1])
        res = br.gamma_factor(params, p, q, kappa, QUAD, 1e-10)
        assert res.residual is not None
        assert res.residual <= 1e-7

    def test_gamma_at_zero(self):
        # gamma(0) is the dispersion at q = p minus eps(p): the dressed
        # particle at rest
        params = make_params()
        p = np.array([0.3, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        res = br.gamma_factor(params, p, p, kappa, QUAD, 1e-10)
        assert np.linalg.norm(res.k) == 0.0
        assert res.gamma < 0.0  # self-energy pulls below the free value 0
