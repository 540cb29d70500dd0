import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq

from polaron import (CouplingSpec, DomainError, EpsilonSpec, ModelParams, QuadratureSpec,
                     threshold)
from polaron import roots
from polaron.friedrichs import FriedrichsSolver
from polaron.quadrature import axis_of, grid_measure, node_system
from polaron.selfenergy import SelfEnergyTables

QUAD = QuadratureSpec.continuum(48, 13, r_max=7.0)


def radial_solver(e0=0.0, alpha=0.1, d=3, dker=None, quad=QUAD):
    # a(q) = |q|^2 / 2 + 1, v(q) = e^{-|q|^2 / 2}
    def a(pts):
        pts = np.asarray(pts, dtype=float)
        return 0.5 * np.sum(pts * pts, axis=-1) + 1.0

    def v(pts):
        pts = np.asarray(pts, dtype=float)
        return np.exp(-0.5 * np.sum(pts * pts, axis=-1))

    return FriedrichsSolver.from_functions(e0, alpha, v, a, quad, d, dker=dker)


def rank_one_reference(data, z, d):
    # independent adaptive-quadrature evaluation of the determinant
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    integral, _ = scipy_quad(
        lambda r: r ** (d - 1) * math.exp(-r * r) / (0.5 * r * r + 1.0 - z),
        0.0, 35.0, epsabs=1e-14, limit=200,
    )
    if d == 1:
        integral, _ = scipy_quad(
            lambda t: math.exp(-t * t) / (0.5 * t * t + 1.0 - z),
            -35.0, 35.0, epsabs=1e-14, limit=200,
        )
        area = 1.0
    return data.e0 - z - data.alpha**2 * area * integral


class TestEdge:
    def test_edge_of_radial_a(self):
        a_bar, q_bar0 = radial_solver().edge()
        assert a_bar == pytest.approx(1.0, abs=1e-10)
        assert q_bar0 == pytest.approx(0.0, abs=1e-5)


def scan_line_min(tables, xi, axis, span):
    """Least a on the line t * axis, |t| <= span, by nested grids of
    multi-row tables: 161 points, then 21 points over the two cells about
    the least sample, nine times."""
    def a(ts):
        return SelfEnergyTables(tables.params, tables.p, tables.ns,
                                np.outer(ts, axis)).a_values(xi)

    ts = np.linspace(-span, span, 161)
    for _ in range(9):
        i = int(np.argmin(a(ts)))
        h = ts[1] - ts[0]
        ts = np.linspace(ts[i] - h, ts[i] + h, 21)
    return float(a(ts).min())


class TestEdgeOfTables:
    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), rule=st.sampled_from(["24x9", "4^d", "5^d"]),
           relativistic=st.booleans(), modulated=st.booleans(),
           alpha=st.floats(0.0, 0.2), p=st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3),
           below=st.floats(0.01, 1.0))
    def test_edge_is_the_least_a_on_the_axis(self, d, rule, relativistic, modulated,
                                             alpha, p, below):
        # the edge, refined from the evaluation set's argmin, is the least
        # of a over a fine scan of the whole axis, to the value error of
        # the argmin tolerance, and never above a on the evaluation set
        quad = QuadratureSpec.continuum(24, 9, r_max=6.0) if rule == "24x9" else \
            QuadratureSpec.discrete(grid_measure(3.0, int(rule[0]), d))
        params = ModelParams(
            d=d, alpha=alpha, c0=0.5,
            eps=EpsilonSpec.relativistic(1.0, 0.5) if relativistic else EpsilonSpec.constant(1.0),
            coupling=CouplingSpec(kind="p-modulated" if modulated else "separable",
                                  amplitude=1.0, width=1.0,
                                  p_width=0.8 if modulated else None))
        p = np.array(p[:d])
        xi = threshold(params, 1, p) - below
        tables = SelfEnergyTables(params, p, quad)
        op = FriedrichsSolver.from_tables(tables, xi, 0.5 * float(p @ p))
        a_bar = op.edge()[0]
        ref = min(scan_line_min(tables, xi, axis_of(p), 10.0 + float(np.linalg.norm(p))),
                  float(op.a.min()))
        assert a_bar == pytest.approx(ref, abs=10.0 * roots.MIN_XATOL**2, rel=0.0)
        assert a_bar <= op.a.min()


class TestDelta:
    @pytest.mark.parametrize("d", [1, 3])
    def test_against_adaptive_quadrature(self, d):
        data = radial_solver(d=d)
        for z in (-1.0, 0.0, 0.7):
            got = data.delta(z, 0)
            assert got == pytest.approx(rank_one_reference(data, z, d), rel=1e-9)

    def test_strictly_decreasing(self):
        data = radial_solver()
        zs = np.linspace(-3.0, 0.9, 25)
        vals = [data.delta(z, 0) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_guard(self):
        solver = radial_solver()
        with pytest.raises(DomainError):
            solver.delta(2.0)


class TestGroundEigenvalue:
    def test_against_double_bisection_oracle(self):
        # independent oracle: brentq on the adaptive-quadrature determinant
        data = radial_solver(e0=0.2, alpha=0.15)
        ref = brentq(lambda z: rank_one_reference(data, z, 3), -2.0, 0.999,
                     xtol=1e-14)
        got = data.ground_eigenvalue(0, tol=1e-9)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_none_when_level_above_edge_weak_coupling(self):
        data = radial_solver(e0=1.5, alpha=1e-4)
        assert data.ground_eigenvalue(0) is None

    def test_exists_when_level_below_edge(self):
        data = radial_solver(e0=0.3, alpha=1e-3)
        root = data.ground_eigenvalue(0)
        assert root is not None
        assert root < 0.3
        assert root == pytest.approx(0.3, abs=1e-4)

    def test_single_mode_closed_form(self):
        # one lattice mode: the operator is a 2x2 matrix with eigenvalue
        # (1 - sqrt(1 + 8 L alpha^2)) / 2 for a(0)=1, v(0)=1, weight 2L
        half_width = 3.0
        m = grid_measure(half_width, 1, 1)
        quad = QuadratureSpec.discrete(m)
        for alpha in (0.1, 0.5):
            data = radial_solver(e0=0.0, alpha=alpha, d=1, quad=quad)
            root = data.ground_eigenvalue(0, tol=1e-12)
            expect = 0.5 * (1.0 - math.sqrt(1.0 + 8.0 * half_width * alpha**2))
            assert root == pytest.approx(expect, abs=1e-12)


class TestNeumannKernels:
    @staticmethod
    def solver_with_kernel(alpha=0.1):
        def dker(P, Q):
            P = np.atleast_2d(np.asarray(P, dtype=float))
            Q = np.atleast_2d(np.asarray(Q, dtype=float))
            pp = np.sum(P * P, axis=-1)
            qq = np.sum(Q * Q, axis=-1)
            return -np.exp(-0.5 * (pp[:, None] + qq[None, :]))

        return radial_solver(alpha=alpha, dker=dker)

    @staticmethod
    def h(r):
        return np.exp(-0.5 * np.asarray(r) ** 2)

    def test_order1_is_alpha2_kernel(self):
        data = self.solver_with_kernel()
        ker = data.neumann_kernel(0.0, 1)
        q = np.array([[0.3, 0.0, 0.0]])
        qp = np.array([[0.0, 0.4, 0.0]])
        assert ker(q, qp) == pytest.approx(
            data.alpha**2 * float(data.dker(q, qp)[0, 0]), rel=1e-14
        )

    def test_order2_separable_closed_form(self):
        # for the separable kernel -v(q)v(q') the iterated integral
        # factorizes: L2 = alpha^4 v(q) v(q') * I(z), I = int v^2/(a - z)
        data = self.solver_with_kernel()
        z = 0.0
        ker2 = data.neumann_kernel(z, 2)
        integral, _ = scipy_quad(
            lambda r: 4.0 * math.pi * r * r * math.exp(-r * r)
            / (0.5 * r * r + 1.0 - z),
            0.0, 35.0, epsabs=1e-14,
        )
        q = np.array([[0.5, 0.0, 0.0]])
        qp = np.array([[0.0, 0.0, 0.7]])
        expect = data.alpha**4 * math.exp(-0.5 * (0.25 + 0.49)) * integral
        assert ker2(q, qp) == pytest.approx(expect, rel=1e-8)

    def test_geometric_decay_of_norms(self):
        data = self.solver_with_kernel(alpha=0.1)
        norms = [data.neumann_kernel(0.0, n, h=self.h).norm_sample
                 for n in (1, 2, 3)]
        r21 = norms[1] / norms[0]
        r32 = norms[2] / norms[1]
        assert max(r21 / r32, r32 / r21) < 3.0

    def test_off_axis_q_rejected_on_reduced_set(self):
        # the d=3 continuum evaluation set is reduced about the axis, where
        # D(., Q) is a function on it only for Q on the axis
        ker = self.solver_with_kernel().neumann_kernel(0.0, 2)
        with pytest.raises(DomainError):
            ker([[0.0, 0.0, 0.5]], [[0.3, 0.0, 0.0]])

    def test_rank_one_model_has_zero_kernel(self):
        data = radial_solver()
        assert data.neumann_kernel(0.0, 2).norm_sample == 0.0


class TestImDelta:
    def test_radial_closed_form(self):
        # a(r) = r^2/2 + 1, a'(r) = r, level r(x) = sqrt(2(x - 1))
        data = radial_solver(alpha=0.2)
        x = 1.3
        r = math.sqrt(2.0 * (x - 1.0))
        expect = data.alpha**2 * math.pi * 4.0 * math.pi * r * r \
            * math.exp(-r * r) / r
        assert data.im_delta_edge(x) == pytest.approx(expect, rel=1e-6)

    def test_below_edge_raises(self):
        with pytest.raises(DomainError):
            radial_solver().im_delta_edge(0.5)


class TestConstructorsAgree:
    # one operator from the self-energy tables and one from hand-written
    # callables, on the same node system, must be the same operator
    QUADS = [
        QuadratureSpec.discrete(grid_measure(3.0, 4, 3)),
        QuadratureSpec.discrete(grid_measure(3.0, 5, 3)),
        QuadratureSpec.continuum(24, 9, r_max=6.0),
    ]

    @staticmethod
    def from_callables(params, p, xi, quad):
        ns = node_system(quad, 3, axis=np.array([0.0, 0.0, 1.0]))
        S, w = ns.full_points, ns.full_weights
        c = params.coupling.evaluate

        def e2(P, Q):
            k = p - P[:, None, :] - Q[None, :, :]
            return (0.5 * np.sum(k * k, axis=-1)
                    + params.eps(P)[:, None] + params.eps(Q)[None, :])

        def a(P):
            k = p - P
            e1 = 0.5 * np.sum(k * k, axis=-1) + params.eps(P)
            diff = p - P[:, None, :] - S[None, :, :]
            m = -params.alpha**2 * ((c(diff, S[None, :, :]) ** 2 / (e2(P, S) - xi)) @ w)
            return e1 + m

        def v(P):
            return c(p - P, P)

        def dker(P, Q):
            diff = p - P[:, None, :] - Q[None, :, :]
            return -c(diff, Q[None, :, :]) * c(diff, P[:, None, :]) / (e2(P, Q) - xi)

        return FriedrichsSolver.from_functions(0.5 * float(p @ p), params.alpha,
                                               v, a, quad, 3, dker=dker)

    @pytest.mark.parametrize("p", [[0.0, 0.0, 0.3], [0.0, 0.0, 0.0]])
    @pytest.mark.parametrize("quad", QUADS, ids=["4^3", "5^3", "24x9"])
    def test_tables_and_callables_give_one_operator(self, quad, p):
        params = ModelParams(d=3, alpha=0.1, eps=EpsilonSpec.constant(1.0),
                             coupling=CouplingSpec(amplitude=1.0, width=1.0), c0=0.5)
        p = np.array(p)
        e0 = 0.5 * float(p @ p)
        xi = e0 - 0.05
        tables = SelfEnergyTables(params, p, quad)
        ops = [FriedrichsSolver.from_tables(tables, xi, e0),
               self.from_callables(params, p, xi, quad)]
        for n in (0, 1, 2):
            for z in (xi, xi - 0.5):
                got, ref = (op.delta(z, n) for op in ops)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
        got, ref = (op.ground_eigenvalue(2) for op in ops)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
