import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from polaron import (
    CouplingSpec,
    DomainError,
    EpsilonSpec,
    InputError,
    ModelParams,
    QuadratureSpec,
    threshold,
)
from polaron import branches as br
from polaron import model
from polaron import quadrature
from polaron import roots
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
        proxy = br.lambda2_proxy_value(params, p)
        margin = max(10.0 * params.alpha**2 * params.coupling.h_norm_sq(3), 1e-3)
        assert proxy == pytest.approx(
            threshold(params, 2, p) - margin, abs=1e-12
        )

    def test_fraction_rule_between_thresholds(self):
        params = make_params()
        p = np.zeros(3)
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = threshold(params, 1, p)
        proxy = br.lambda2_proxy_value(params, p)
        assert kappa == pytest.approx(lam1 + 0.9 * (proxy - lam1), abs=1e-12)

    def test_absolute_rule(self):
        params = make_params()
        assert br.kappa_from_rule(params, np.zeros(3), "absolute", 1.2) == 1.2

    def test_cap_above_proxy_rejected(self):
        params = make_params()
        p = np.zeros(3)
        with pytest.raises(DomainError):
            br.dispersion_point(params, p, np.zeros(3), 3.0, QUAD)
        with pytest.raises(DomainError):
            br.one_boson_domain(params, p, 3.0, np.zeros((1, 3)), QUAD)
        with pytest.raises(DomainError):
            br.lambda1(params, p, 3.0, QUAD)

    def test_nan_cap_rejected(self):
        # NaN is not <= the proxy, so no check lets it through
        params = make_params()
        p = np.zeros(3)
        with pytest.raises(DomainError):
            br.kappa_from_rule(params, p, "absolute", math.nan)
        with pytest.raises(DomainError):
            br.dispersion_point(params, p, np.zeros(3), math.nan, QUAD)
        with pytest.raises(DomainError):
            br.one_boson_domain(params, p, math.nan, np.zeros((1, 3)), QUAD)
        with pytest.raises(DomainError):
            br.lambda1(params, p, math.nan, QUAD)

    @pytest.mark.parametrize("clipped", [False, True])
    def test_cap_is_kappa_and_its_proxy(self, clipped):
        params = make_params(alpha=0.15, eps=EpsilonSpec.relativistic(1.0, 0.5))
        p = np.array([0.4, 0.0, 0.0])
        cap = br.cap(params, p, "fraction", 0.7, clipped)
        assert cap == (br.kappa_from_rule(params, p, "fraction", 0.7, clipped),
                       br.lambda2_proxy_value(params, p, clipped),
                       threshold(params, 2, p))
        assert br.cap(params, p, "absolute", cap.kappa, clipped) == cap
        lam1_0, lam2_0 = threshold(params, 1, p), threshold(params, 2, p)
        margin = max(10.0 * params.alpha**2 * params.coupling.h_norm_sq(3), 1e-3)
        # 10 alpha^2 ||h||^2 = 1.25 lies inside the free gap, above its half
        assert 0.5 * (lam2_0 - lam1_0) < margin < lam2_0 - lam1_0
        if clipped:
            margin = 0.5 * (lam2_0 - lam1_0)
        assert cap.proxy == lam2_0 - margin

    def test_fraction_above_one_rejected(self):
        params = make_params()
        with pytest.raises(DomainError, match="exceeds the two-boson proxy"):
            br.cap(params, np.zeros(3), "fraction", 1.5)

    def test_unknown_rule_rejected(self):
        with pytest.raises(InputError, match="unknown kappa rule"):
            br.cap(make_params(), np.zeros(3), "relative", 0.9)


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
        # g = a - xi is decreasing and concave, so from min(e1, kappa) every
        # Newton iterate falls and stays on the g <= 0 side of the root, up
        # to the rounding of one evaluation of g
        eps = EpsilonSpec.relativistic(1.0, 0.5) if relativistic else None
        params = make_params(d=d, alpha=alpha, eps=eps)
        p = np.array(p[:d])
        q = p - np.array(k[:d])
        kappa = br.kappa_from_rule(params, p, "fraction", fraction)
        seen, e1 = [], []
        g = se.SelfEnergyTables.g

        def recorded(self, xi):
            value = g(self, xi)
            seen.append((xi, value))
            e1.append(float(self.e1))
            return value

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(se.SelfEnergyTables, "g", recorded)
            bp = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        assume(bp.status != "none")
        assert bp.status == "converged"
        assert len(seen) == bp.iterations
        assert seen[0][0] == min(e1[0], kappa) and seen[-1][0] == bp.xi
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


def row_model(d, eps_kind, modulated):
    eps = {"constant": EpsilonSpec.constant(1.0),
           "relativistic": EpsilonSpec.relativistic(1.0, 0.5),
           "tabulated": EpsilonSpec.tabulated(
               np.linspace(0.0, 4.0, 9),
               np.sqrt(np.linspace(0.0, 4.0, 9) ** 2 + 1.0) + 0.25)}[eps_kind]
    coupling = (CouplingSpec(kind="p-modulated", amplitude=1.0, width=1.0, p_width=1.5)
                if modulated else CouplingSpec(amplitude=1.0, width=1.0))
    return ModelParams(d=d, alpha=0.1, eps=eps, coupling=coupling, c0=0.5)


ROW_RULES = {"continuum": lambda d: QUAD,
             "lattice": lambda d: QuadratureSpec.discrete(
                 quadrature.grid_measure(2.0, 5, d))}


def reference_slope(tables, xi, i=0):
    """g'(xi) on the table's row i: -alpha^2 sum w|c|^2 / (e2 - xi)^2 - 1."""
    den = tables.e2 - xi
    return float(-(tables.params.alpha**2) * ((tables.num_m / den) / den).sum(axis=1)[i]) - 1.0


def reference_solve(params, p, q, kappa, quad, tol):
    """(xi, residual, status, iterations) of the dispersion solve, written
    from the table's m_values (through a_values) and `reference_slope`:
    Newton on g(xi) = a(xi) - xi from min(e1, kappa), each g counted."""
    row = se.SelfEnergyTables(params, p, quad, q[None, :])
    row.m_values(kappa)  # refuses a cap too near the two-boson edge

    def g(xi):
        return float(row.a_values(xi)[0]) - xi

    x = min(float(row.e1[0]), kappa)
    gx, calls = g(x), 1
    while abs(gx) > tol * (1.0 + abs(x)):
        step = x - gx / reference_slope(row, x)
        if not step < x:
            break
        x, gx, calls = step, g(step), calls + 1
    if x == kappa and gx >= 0.0:
        return None, abs(gx), "none", calls
    status = "converged" if abs(gx) <= tol * (1.0 + abs(x)) else "capped"
    return x, abs(gx), status, calls


class TestRowBits:
    """The dispersion solve on the point's own one-point table gives what
    the same Newton search gives on a one-row table's m_values, bit for
    bit."""

    @settings(max_examples=120, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]),
           eps_kind=st.sampled_from(["constant", "relativistic", "tabulated"]),
           modulated=st.booleans(), rule=st.sampled_from(sorted(ROW_RULES)),
           p=st.lists(coords, min_size=3, max_size=3),
           k=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
           fraction=st.floats(0.3, 0.95), tol=st.sampled_from([1e-10, 1e-13, 0.0]))
    def test_solve_matches_reference(self, d, eps_kind, modulated, rule, p, k,
                                     fraction, tol):
        params = row_model(d, eps_kind, modulated)
        quad = ROW_RULES[rule](d)
        p = np.array(p[:d])
        q = p - np.array(k[:d])
        kappa = br.kappa_from_rule(params, p, "fraction", fraction)
        try:
            ref = reference_solve(params, p, q, kappa, quad, tol)
        except DomainError:
            with pytest.raises(DomainError):
                br.dispersion_point(params, p, q, kappa, quad, tol)
            return
        bp = br.dispersion_point(params, p, q, kappa, quad, tol)
        xi, resid, status, calls = ref
        assert (bp.xi is None) == (xi is None)
        if xi is not None:
            assert bp.xi.hex() == xi.hex()
        assert bp.residual.hex() == resid.hex()
        assert bp.status == status
        assert bp.iterations == calls

    @settings(max_examples=120, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]),
           eps_kind=st.sampled_from(["constant", "relativistic", "tabulated"]),
           modulated=st.booleans(), rule=st.sampled_from(sorted(ROW_RULES)),
           p=st.lists(coords, min_size=3, max_size=3),
           k=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
           below=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4))
    def test_g_is_a_minus_xi(self, d, eps_kind, modulated, rule, p, k, below):
        # on the one-point table, g(xi) == float(a_values(xi)[0]) - xi of
        # the one-row table at each xi at or below the cap, in any order,
        # and the slope after it is the table's
        # -alpha^2 sum w|c|^2 / (e2 - xi)^2 - 1; g again gives its value
        params = row_model(d, eps_kind, modulated)
        quad = ROW_RULES[rule](d)
        p = np.array(p[:d])
        q = p - np.array(k[:d])
        tables = se.SelfEnergyTables(params, p, quad, q[None, :])
        cap = tables.min_e2 - se.DENOM_MARGIN
        row = se.SelfEnergyTables(params, p, quad, q)
        row.check(cap)
        assert row.e1 == float(tables.e1[0])
        for xi in (cap - b for b in below):
            g = row.g(xi)
            assert g.hex() == (float(tables.a_values(xi)[0]) - xi).hex()
            assert row.slope(xi).hex() == reference_slope(tables, xi).hex()
            assert row.g(xi).hex() == g.hex()

    @settings(max_examples=150, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]),
           eps_kind=st.sampled_from(["constant", "relativistic", "tabulated"]),
           modulated=st.booleans(), rule=st.sampled_from(sorted(ROW_RULES)),
           p=st.lists(coords, min_size=3, max_size=3),
           ks=st.lists(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
                       min_size=2, max_size=5),
           i=st.integers(0, 4), below=st.floats(0.0, 3.0),
           tol=st.sampled_from([1e-10, 0.0]))
    def test_row_is_its_table_row(self, d, eps_kind, modulated, rule, p, ks, i,
                                  below, tol):
        # the one-point table equals row i of a table over several points:
        # e1, e2, min_e2, the numerators, g and the slope, and a Newton
        # search on each gives the same iterates
        params = row_model(d, eps_kind, modulated)
        quad = ROW_RULES[rule](d)
        p = np.array(p[:d])
        qs = p - np.array(ks)[:, :d]
        i %= len(qs)
        tables = se.SelfEnergyTables(params, p, quad, qs)
        cap = tables.min_e2 - se.DENOM_MARGIN
        row = se.SelfEnergyTables(params, p, quad, qs[i])
        assert row.e1.shape == () and row.e2.shape == tables.e2.shape[1:]
        assert float(row.e1).hex() == float(tables.e1[i]).hex()
        assert row.e2.tobytes() == tables.e2[i].tobytes()
        assert row.min_e2.hex() == float(np.minimum.reduce(tables.e2[i])).hex()
        num_m = np.broadcast_to(tables.num_m, tables.e2.shape)[i]  # shared if separable
        assert row.num_m.tobytes() == num_m.tobytes()
        xi = cap - below
        assert row.g(xi).hex() == (float(tables.a_values(xi)[i]) - xi).hex()
        assert row.slope(xi).hex() == reference_slope(tables, xi, i).hex()

        def table_g(x):
            return float(tables.a_values(x)[i]) - x

        start = min(float(row.e1), cap)
        solved = roots.monotone_newton(row.g, row.slope, start, tol)
        reference = roots.monotone_newton(
            table_g, lambda x: reference_slope(tables, x, i), start, tol)
        assert [v.hex() for v in solved[:2]] == [v.hex() for v in reference[:2]]
        assert solved[2] == reference[2]

    def test_cap_near_the_edge_refused(self):
        params = row_model(1, "constant", False)
        p, q = np.array([0.3]), np.array([0.1])
        tables = se.SelfEnergyTables(params, p, QUAD, q[None, :])
        row = se.SelfEnergyTables(params, p, QUAD, q)
        with pytest.raises(DomainError, match="two-boson edge"):
            row.check(tables.min_e2)
        with pytest.raises(DomainError, match="two-boson edge"):
            br._dispersion_solve(params, p, q, tables.min_e2, QUAD, 1e-10)


class TestNewtonStart:
    """The dispersion solve starts at min(e1, kappa), e1 the free energy."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 3]), p=st.lists(coords, min_size=3, max_size=3),
           k=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.12)),
           fraction=st.floats(0.3, 0.95), relativistic=st.booleans())
    def test_member_iff_gap_at_kappa_negative(self, d, p, k, alpha, fraction,
                                              relativistic):
        # starting below kappa must not change membership: q is in the
        # domain iff g(kappa) = a_p(kappa; q) - kappa < 0 on its one-point
        # table
        eps = EpsilonSpec.relativistic(1.0, 0.5) if relativistic else None
        params = make_params(d=d, alpha=alpha, eps=eps)
        p = np.array(p[:d])
        q = p - np.array(k[:d])
        kappa = br.kappa_from_rule(params, p, "fraction", fraction)
        bp = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        row = se.SelfEnergyTables(params, p, QUAD, q)
        assert (bp.status != "none") == (row.g(kappa) < 0)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("relativistic", [False, True])
    def test_free_root_is_e1_in_one_evaluation(self, d, relativistic):
        # at alpha = 0, g(e1) = m(e1) = 0: the start is the root
        eps = EpsilonSpec.relativistic(1.0, 0.5) if relativistic else None
        params = make_params(d=d, alpha=0.0, eps=eps)
        p = np.array([0.3, -0.2, 0.1][:d])
        q = np.array([-0.1, 0.2, 0.4][:d])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        e1 = float(se.SelfEnergyTables(params, p, QUAD, q).e1)
        assert e1 < kappa
        bp = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
        assert bp.status == "converged"
        assert bp.xi == e1
        assert bp.iterations == 1

    def test_cap_near_the_edge_refused_below_it(self):
        # e1 < kappa, so Newton never evaluates g at kappa; the cap is still
        # checked against the row's two-boson edge
        params = make_params()
        p = q = np.zeros(3)
        row = se.SelfEnergyTables(params, p, QUAD, q)
        kappa = row.min_e2 - 0.5 * se.DENOM_MARGIN
        assert float(row.e1) < kappa
        with pytest.raises(DomainError):
            br._dispersion_solve(params, p, q, kappa, QUAD, 1e-10)


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

    def test_one_point_per_probe(self):
        # members and non-members alike, in probe order, each the solve
        # that dispersion_point gives at that probe
        params = make_params()
        p = np.array([0.2, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        probes = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.3, -0.2],
                           [0.0, 4.0, 0.0]])
        dm = br.one_boson_domain(params, p, kappa, probes, QUAD, 1e-10, rays=[])
        assert len(dm.points) == len(probes)
        assert dm.boundary == []
        for q, member, bp in zip(probes, dm.membership, dm.points):
            ref = br.dispersion_point(params, p, q, kappa, QUAD, 1e-10)
            np.testing.assert_array_equal(bp.q, q)
            assert (bp.xi, bp.residual, bp.status, bp.iterations) == \
                (ref.xi, ref.residual, ref.status, ref.iterations)
            assert member == (bp.status != "none")
        assert [bp.status != "none" for bp in dm.points] == [False, True, True, False]

    @pytest.mark.parametrize("rays, solves", [([], 0), (None, 1)],
                             ids=["no-rays", "default-rays"])
    def test_ray_seed_solved_only_with_rays(self, monkeypatch, rays, solves):
        # the one-boson free minimizer only seeds the boundary rays; the
        # cap check still solves the two-boson one inside `threshold`
        params = make_params(d=1, eps=EpsilonSpec.relativistic(1.0, 0.5))
        p = np.array([0.3])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        calls = []
        collinear_minimizer = model.collinear_minimizer

        def counted(params, n, pmag):
            if n == 1:
                calls.append(pmag)
            return collinear_minimizer(params, n, pmag)

        monkeypatch.setattr(model, "collinear_minimizer", counted)
        dm = br.one_boson_domain(params, p, kappa, np.zeros((1, 1)), QUAD,
                                 1e-10, rays=rays)
        assert len(calls) == solves
        assert len(dm.boundary) == 2 * solves

    @pytest.mark.parametrize("ray", [[0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]],
                             ids=["zero", "infinite"])
    def test_ray_without_direction_rejected(self, ray):
        params = make_params()
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        with pytest.raises(InputError):
            br.one_boson_domain(params, np.zeros(3), kappa, np.zeros((1, 3)),
                                QUAD, 1e-10, rays=[np.array([1.0, 0.0, 0.0]), ray])

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

    @pytest.mark.parametrize("eps", [EpsilonSpec.constant(1.0),
                                     EpsilonSpec.relativistic(1.0, 0.5)])
    @pytest.mark.parametrize("above", [1e-2, 1e-3, 1e-4])
    def test_narrow_domain_keeps_the_minimum(self, eps, above):
        # a cap just above lambda1 leaves a narrow on-axis domain between
        # wide outside samples; the search must not settle on kappa there
        params = make_params(eps=eps)
        p = np.array([0.0, 0.0, 0.4])
        wide = br.lambda1(params, p, br.kappa_from_rule(params, p, "fraction", 0.9),
                          QUAD, 1e-10)
        kappa = br.kappa_from_rule(params, p, "absolute", wide + above)
        assert br.lambda1(params, p, kappa, QUAD, 1e-10) == pytest.approx(wide, abs=1e-9)

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
            lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
            bp = br.ground_state(params, p, lam1, 1, QUAD, 1e-10)
            assert bp.status == "converged"
            assert bp.xi == pytest.approx(0.5 * pmag * pmag, abs=1e-10)

    def test_below_free_energy(self):
        params = make_params(alpha=0.1)
        p = np.array([0.5, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        bp = br.ground_state(params, p, lam1, 1, QUAD, 1e-10)
        assert bp.status == "converged"
        assert bp.xi < 0.125 - 1e-12

    def test_none_outside_domain(self):
        params = make_params(alpha=0.01)
        p = np.array([2.5, 0.0, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        bp = br.ground_state(params, p, lam1, 1, QUAD, 1e-10)
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

    def test_boundary_zero_direction_rejected(self):
        with pytest.raises(InputError):
            br.g0_boundary(make_params(), np.zeros(3), QUAD)


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
            return FriedrichsSolver.from_tables(tables, xi, e0).delta(xi, order)

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
            bp = br.ground_state(params, p, lam1, order, QUAD, 1e-10)
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
            return FriedrichsSolver.from_tables(tables, xi, e0).delta(xi, order)

        values = [f(xi) for xi in np.linspace(min(e0, hi) - 1.0, hi, 41)]
        assert all(b < a for a, b in zip(values, values[1:]))
        bp = br.ground_state(params, p, lam1, order, QUAD, 1e-10)
        assert bp.status == "converged"
        assert bp.xi < lam1


def record_calls(monkeypatch, owner, name, arg):
    """Patch owner.name to record arg(*call args) of every call."""
    seen = []
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(arg(*args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return seen


def keep_counted(monkeypatch, name):
    """The roots.Counted wrappers of functions called `name`, as made."""
    kept = []

    class Kept(roots.Counted):
        def __init__(self, f):
            super().__init__(f)
            if f.__qualname__.endswith(name):
                kept.append(self)

    monkeypatch.setattr(roots, "Counted", Kept)
    return kept


def ground_solve(d, p, quad=QUAD):
    """F's points (xi of each delta call) and iterations of one ground solve."""
    def run(monkeypatch):
        params = make_params(d=d)
        p_vec = np.array(p)
        kappa = br.kappa_from_rule(params, p_vec, "fraction", 0.9)
        lam1 = br.lambda1(params, p_vec, kappa, quad, 1e-10)
        seen = record_calls(monkeypatch, FriedrichsSolver, "delta",
                            lambda self, z, *_: z)
        bp = br.ground_state(params, p_vec, lam1, 1, quad, 1e-10)
        assert bp.status == "converged"
        return seen, bp.iterations
    return run


def cap_gap_rays(solve):
    """Each one-point table's point (r u) on the cap-gap rays of one solve,
    and the calls of their counted ray functions."""
    def run(monkeypatch):
        params = make_params()
        p = np.array([0.3, 0.2, 0.0])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        seen = record_calls(monkeypatch, se.SelfEnergyTables, "__init__",
                            lambda self, params, p, quad, q: tuple(np.ravel(q)))
        gaps = keep_counted(monkeypatch, "_cap_gap.<locals>.gap")
        solve(params, p, kappa)
        # the probe q = 0 is solved on its own point; the ray points are at
        # r u with r > 0
        return [q for q in seen if any(q)], sum(g.calls for g in gaps)
    return run


def lambda1_solves(monkeypatch):
    """q = t u of each dispersion solve that lambda1 makes, and xi_at's
    calls, which are exactly 9 here."""
    params = make_params()
    p = np.array([0.3, 0.2, 0.0])
    kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
    seen = record_calls(monkeypatch, br, "_dispersion_solve",
                        lambda params, p, q, *_: tuple(q))
    xis = keep_counted(monkeypatch, "lambda1.<locals>.xi_at")
    br.lambda1(params, p, kappa, QUAD, 1e-10)
    calls = sum(f.calls for f in xis)
    assert calls == 9
    return seen, calls


def eigenvalue_points(monkeypatch):
    """z of each delta call in ground_eigenvalue, and det's calls."""
    params = make_params(d=1)
    p = np.array([0.3])
    kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
    xi = br.lambda1(params, p, kappa, QUAD, 1e-10) - 0.01
    solver = FriedrichsSolver.from_tables(se.SelfEnergyTables(params, p, QUAD),
                                          xi, 0.5 * float(p @ p))
    seen = record_calls(monkeypatch, FriedrichsSolver, "delta",
                        lambda self, z, *_: z)
    dets = keep_counted(monkeypatch, "ground_eigenvalue.<locals>.det")
    assert solver.ground_eigenvalue(1) is not None
    return seen, sum(f.calls for f in dets)


def boundary_radii(monkeypatch):
    """r of each ground-domain test in g0_boundary's scan and root (no
    ladder), and f_top's calls."""
    params = make_params(d=1)
    seen = record_calls(monkeypatch, br, "_ground_determinant",
                        lambda params, p, *_: float(np.linalg.norm(p)))
    tops = keep_counted(monkeypatch, "g0_boundary.<locals>.f_top")
    res = br.g0_boundary(params, np.array([1.0]), QUAD, 1e-10, deltas=())
    assert res.status == "converged"
    return seen, sum(f.calls for f in tops)


NO_REPEAT_CASES = {
    "ground-d1": ground_solve(1, [0.3]),
    "ground-d3": ground_solve(3, [0.3, 0.2, 0.0]),
    "ground-lattice": ground_solve(3, [0.0, 0.0, 0.3], QuadratureSpec.discrete(
        quadrature.grid_measure(2.0, 4, 3))),
    "lambda1": lambda1_solves,
    "one_boson_domain": cap_gap_rays(lambda params, p, kappa: br.one_boson_domain(
        params, p, kappa, np.zeros((1, 3)), QUAD, 1e-10,
        rays=[quadrature.axis_of(p), -quadrature.axis_of(p), [0.0, 0.6, 0.8]])),
    "ground_eigenvalue": eigenvalue_points,
    "g0_boundary": boundary_radii,
}


class TestIterations:
    @pytest.mark.parametrize("case", NO_REPEAT_CASES)
    def test_no_point_evaluated_twice(self, monkeypatch, case):
        # every real evaluation of a searched function records its
        # argument: all differ, and the search counts each of them once
        seen, count = NO_REPEAT_CASES[case](monkeypatch)
        assert seen
        assert len(set(seen)) == len(seen) == count

    def test_count_every_evaluation(self, monkeypatch):
        # iterations = evaluations of the solved scalar function; in a
        # dispersion solve each is one evaluation of g on the point's
        # one-point table (SelfEnergyTables.g), the membership test at kappa
        # included, and no xi is evaluated twice; in a ground solve one
        # determinant F(xi) = Delta_xi(xi), with the bracketing and the
        # final residual
        calls = {"g": [], "delta": 0}
        g, delta = se.SelfEnergyTables.g, FriedrichsSolver.delta

        def counted_g(self, xi):
            calls["g"].append(xi)
            return g(self, xi)

        def counted_delta(self, z, order=1):
            calls["delta"] += 1
            return delta(self, z, order)

        monkeypatch.setattr(se.SelfEnergyTables, "g", counted_g)
        monkeypatch.setattr(FriedrichsSolver, "delta", counted_delta)
        params = make_params(d=1)
        p = np.array([0.3])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        for q, status in ((0.2, "converged"), (3.0, "none")):
            calls["g"] = []
            bp = br.dispersion_point(params, p, np.array([q]), kappa, QUAD, 1e-10)
            assert bp.status == status
            assert bp.iterations == len(calls["g"]) == len(set(calls["g"]))
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        bp = br.ground_state(params, p, lam1, 1, QUAD, 1e-10)
        assert bp.status == "converged"
        assert bp.iterations == calls["delta"]

    @pytest.mark.parametrize("d, p", [(1, [0.3]), (3, [0.3, 0.2, 0.0])])
    def test_ground_state_builds_nodes_once(self, monkeypatch, d, p):
        # the tables and the edge's on-axis rows share one node system, so
        # the outer loop never rebuilds it
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
        bp = br.ground_state(params, p, lam1, 1, QUAD, 1e-10)
        assert bp.status == "converged"
        # the same solve's F evaluations, none of them at a point twice
        assert bp.iterations == {1: 10, 3: 8}[d]
        assert len(builds) <= 2

    def test_ground_state_builds_d_matrix_once_per_evaluation(self, monkeypatch):
        # an operator builds its kernel matrix on its first determinant of
        # order >= 1, never for the edge check: one d_matrix per evaluation
        # of F, and none at order 0
        params = make_params()
        p = np.array([0.0, 0.0, 0.3])
        kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
        lam1 = br.lambda1(params, p, kappa, QUAD, 1e-10)
        builds = []
        d_matrix = se.SelfEnergyTables.d_matrix

        def counted(self, xi):
            builds.append(xi)
            return d_matrix(self, xi)

        monkeypatch.setattr(se.SelfEnergyTables, "d_matrix", counted)
        bp = br.ground_state(params, p, lam1, 1, QUAD, 1e-10)
        assert bp.status == "converged"
        assert len(builds) == bp.iterations
        builds.clear()
        assert br.ground_state(params, p, lam1, 0, QUAD, 1e-10).status == "converged"
        assert builds == []


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

    def test_second_pair_must_preserve_p_minus_q(self):
        # a relative mismatch of 5e-6 is inside np.allclose's default rtol,
        # yet such a pair measures no factorization
        params = make_params()
        kappa = br.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)
        p = np.array([0.3, 0.0, 0.0])
        q = np.array([-0.2, 0.1, 0.0])
        shift = np.array([0.1, 0.0, 0.0])
        off = (p + shift, q + shift - 5e-6 * (p - q))
        with pytest.raises(InputError):
            br.gamma_factor(params, p, q, kappa, QUAD, 1e-10, second_pair=off)
        res = br.gamma_factor(params, p, q, kappa, QUAD, 1e-10,
                              second_pair=(p + shift, q + shift))
        assert res.residual is not None
        assert res.residual <= 1e-7


class TestFactorizationAlpha4:
    """The one-boson level at p = k + q is the polaron at k plus a free boson
    of momentum q, up to O(alpha^4): gamma(k) = xi_p(q) - eps(q) solves the
    second-order polaron equation at k, and the ground branch xi0(k) adds
    the one-boson dressing of a and the kernel D, both O(alpha^4).  So the
    gap gamma - xi0 falls by 2^4 = 16 per halving of alpha."""

    # the ratio at a ladder's first halving deviates from 16 by at most
    # 0.36 (d = 3, relativistic, order 0), at the second by at most 0.09;
    # the deviation is O(alpha^2), so it falls about 4x per halving
    RATIO_TOL = 0.5
    LADDERS = {"relativistic": (0.1, 0.05, 0.025), "constant": (0.05, 0.025, 0.0125)}

    @staticmethod
    def gap(params, kmag, order):
        axis = np.zeros(params.d)
        axis[-1] = 1.0
        q, k = 0.3 * axis, kmag * axis
        p = k + q
        bp = br.dispersion_point(params, p, q, br.cap(params, p).kappa, QUAD, 1e-12)
        lam1 = br.lambda1(params, k, br.cap(params, k).kappa, QUAD, 1e-12)
        ground = br.ground_state(params, k, lam1, order, QUAD, 1e-12)
        assert (bp.status, ground.status) == ("converged", "converged")
        return bp.xi - float(params.eps(q)) - ground.xi

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("kmag", [0.0, 0.4])
    @pytest.mark.parametrize("modulated", [False, True], ids=["separable", "p-modulated"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("eps_kind", ["relativistic", "constant"])
    def test_gap_falls_by_sixteen_per_halving(self, eps_kind, d, modulated, kmag, order):
        base = row_model(d, eps_kind, modulated)
        gaps = [self.gap(replace(base, alpha=a), kmag, order)
                for a in self.LADDERS[eps_kind]]
        assert all(g > 0.0 for g in gaps)       # the ground branch is the lower
        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        assert all(abs(r - 16.0) <= self.RATIO_TOL for r in ratios)
        assert abs(ratios[1] - 16.0) <= abs(ratios[0] - 16.0) / 3.0
