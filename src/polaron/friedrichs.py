"""Spectral analysis of the generalized Friedrichs operator: perturbation
determinant, truncated Neumann resolvent kernels, discrete eigenvalue
below the continuum edge, and the leading-order imaginary part of the
determinant on the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad_mod
from . import roots
from .errors import DomainError, NumericError
from .quadrature import QuadratureSpec
from .selfenergy import SelfEnergyTables

__all__ = [
    "FriedrichsSolver",
    "NeumannKernel",
]

EDGE_MARGIN = 1e-9     # stand-off of the eigenvalue search from the continuum edge
_EDGE_SPAN = 10.0      # half-width of the 81-point on-axis edge grid beyond |p|


@dataclass
class NeumannKernel:
    order: int
    evaluate: object          # (P (N,d), Q (M,d)) -> (N, M)
    norm_sample: float

    def __call__(self, q, qp) -> float:
        q = np.atleast_2d(np.asarray(q, dtype=float))
        qp = np.atleast_2d(np.asarray(qp, dtype=float))
        return float(self.evaluate(q, qp)[0, 0])


_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class FriedrichsSolver:
    """Generalized Friedrichs operator on C + L^2(R^d), discretized on a
    quadrature node system: the level e0, the coupling alpha, the channel
    function v and the multiplication operator a on the evaluation set,
    and the kernel matrix between the evaluation set and the integration
    nodes (None for the rank-one model).

    a_at and v_at evaluate a and v at any points (N, d); the continuum
    edge is searched on the line t -> t * axis, |t| <= span.  dker is the
    two-point kernel the matrix samples, which the Neumann kernels need
    off the nodes; operators from tables have none.
    """

    def __init__(self, e0, alpha, ns, v_out, a_out, dmat, a_at, v_at, axis,
                 span, dker=None):
        self.e0 = float(e0)
        self.alpha = float(alpha)
        self.ns = ns
        self.v = np.asarray(v_out, dtype=float)
        self.a = np.asarray(a_out, dtype=float)
        self.dmat = dmat
        self.a_at = a_at
        self.v_at = v_at
        self.axis = axis
        self.span = float(span)
        self.dker = dker
        self._edge = None

    @classmethod
    def from_tables(cls, tables: SelfEnergyTables, xi: float, e0: float,
                    order: int) -> "FriedrichsSolver":
        """The reduced operator at trial energy xi, read from the tables;
        off the evaluation set a and v come from one-row tables on the
        same node system.  The kernel matrix is built for order >= 1."""
        params, p, ns = tables.params, tables.p, tables.ns

        def row(points):
            return SelfEnergyTables(params, p, ns, points)

        return cls(e0, params.alpha, ns, tables.v_out, tables.a_values(xi),
                   tables.d_matrix(xi) if order >= 1 else None,
                   a_at=lambda pts: row(pts).a_values(xi),
                   v_at=lambda pts: row(pts).v_out,
                   axis=quad_mod.axis_of(p),
                   span=_EDGE_SPAN + float(np.linalg.norm(p)))

    @classmethod
    def from_functions(cls, e0, alpha, v, a, quad: QuadratureSpec, d: int,
                       dker=None, axis=None) -> "FriedrichsSolver":
        """Sample v and a, callable on (N, d) point arrays, and the kernel
        dker (P (N, d), Q (M, d)) -> (N, M) on the node system of the rule.
        axis (default: the last coordinate axis) is the axis of symmetry
        of v, a and dker, about which a d=3 continuum rule is reduced."""
        if axis is None:
            axis = np.zeros(d)
            axis[-1] = 1.0
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        ns = quad_mod.node_system(quad, d, axis=axis)

        def a_at(pts):
            return np.asarray(a(pts), dtype=float)

        def v_at(pts):
            return np.asarray(v(pts), dtype=float)

        dmat = None
        if dker is not None:
            dmat = np.asarray(dker(ns.out_points, ns.full_points), dtype=float)
        return cls(e0, alpha, ns, v_at(ns.out_points), a_at(ns.out_points),
                   dmat, a_at, v_at, axis, _EDGE_SPAN, dker=dker)

    @property
    def d(self) -> int:
        return self.ns.full_points.shape[1]

    def _a_line(self, t) -> np.ndarray:
        return self.a_at(np.outer(np.atleast_1d(t), self.axis))

    def edge(self):
        """(a_bar, t_bar): the continuum edge, the least of a over the
        evaluation set and over the on-axis line, whose grid minimum is
        refined between its neighbours; and the on-axis argmin.  Found on
        first use."""
        if self._edge is None:
            grid = np.linspace(-self.span, self.span, 81)
            a_min, t_bar = roots.line_min(lambda t: float(self._a_line(t)[0]),
                                          grid, self._a_line(grid), 1e-10)
            self._edge = (min(a_min, float(self.a.min())), t_bar)
        return self._edge

    def _dw(self, x):
        """D W x for x on the evaluation set (one column per function),
        summed over the integration nodes."""
        w = self.ns.full_weights.reshape((-1,) + (1,) * (x.ndim - 1))
        return self.dmat @ (w * x[self.ns.out_index])

    def delta(self, z: float, order: int = 1) -> float:
        """Perturbation determinant with the Neumann expansion of the
        resolvent truncated at the given kernel order.  z must lie below
        a on the evaluation set."""
        if z >= self.a.min():
            raise DomainError(f"z={z} is not below a on the evaluation set")
        den = self.a - z
        s = float((self.ns.out_weights * self.v * self.v / den).sum())
        corr = 0.0
        if self.dmat is not None and order >= 1:
            a2 = self.alpha**2
            phi = self.v / den
            x = phi
            sign = -1.0
            scale = 1.0
            for _ in range(order):
                scale *= a2
                y = self._dw(x)
                corr += sign * scale * float((self.ns.out_weights * phi * y).sum())
                x = y / den
                sign = -sign
        return self.e0 - z - self.alpha**2 * (s + corr)

    def ground_eigenvalue(self, order: int = 1, tol: float = 1e-12):
        """Unique root of the determinant below the edge, or None when
        the determinant is still positive at the edge."""
        def det(z):
            return self.delta(z, order)

        z_edge = self.edge()[0] - EDGE_MARGIN
        if det(z_edge) >= 0.0:
            return None
        root = roots.root_beyond(det, z_edge, min(self.e0 - 1.0, z_edge - 1.0))
        resid = abs(det(root))
        if resid > tol * (1.0 + abs(root)):
            raise NumericError(
                f"determinant residual {resid:.3g} exceeds tolerance at z={root}"
            )
        return float(root)

    def neumann_kernel(self, z: float, n: int, probes=None,
                       h=None) -> NeumannKernel:
        """Order-n resolvent kernel alpha^(2n) D (W (a - z)^-1 D)^(n-1),
        an (n-1)-fold iterated sum over the nodes.  The columns D(., Q)
        take the D W step of `delta`, so on an axially reduced evaluation
        set the points Q must lie on the axis.

        norm_sample is the maximum of |L_n(q, q')| / (h(|q|) h(|q'|)) over
        the probe pairs (default: on the axis, |q| = 0, 0.5, ..., 2), with
        h = 1 when no envelope is given.
        """
        if n < 1:
            raise DomainError("kernel order must be >= 1")
        if self.dmat is None:
            evaluate = lambda P, Q: np.zeros((np.atleast_2d(P).shape[0],
                                              np.atleast_2d(Q).shape[0]))
            return NeumannKernel(order=n, evaluate=evaluate, norm_sample=0.0)
        if self.dker is None:
            raise DomainError("Neumann kernels need the kernel function")
        if z >= self.edge()[0]:
            raise DomainError(f"z={z} is not below the continuum edge")
        alpha2n = self.alpha ** (2 * n)
        ns, dker = self.ns, self.dker
        den = (self.a - z)[:, None]
        reduced = ns.out_points.shape[0] != ns.full_points.shape[0]

        def evaluate(P, Q):
            if n == 1:
                return alpha2n * np.asarray(dker(P, Q), dtype=float)
            Q = np.atleast_2d(np.asarray(Q, dtype=float))
            if reduced and np.abs(Q - np.outer(Q @ self.axis, self.axis)).max() > 1e-12:
                raise DomainError("on a reduced evaluation set Q must lie on the axis")
            x = np.asarray(dker(ns.out_points, Q), dtype=float) / den
            for _ in range(n - 2):
                x = self._dw(x) / den
            left = np.asarray(dker(P, ns.full_points), dtype=float)
            return alpha2n * (left @ (ns.full_weights[:, None] * x[ns.out_index]))

        if probes is None:
            probes = np.array([0.0, 0.5, 1.0, 1.5, 2.0])[:, None] * self.axis[None, :]
        probes = np.atleast_2d(np.asarray(probes, dtype=float))
        vals = np.abs(evaluate(probes, probes))
        if h is not None:
            hvals = np.asarray(h(np.linalg.norm(probes, axis=-1)), dtype=float)
            vals = vals / (hvals[:, None] * hvals[None, :])
        return NeumannKernel(order=n, evaluate=evaluate, norm_sample=float(vals.max()))

    def im_delta_edge(self, x: float, grad_margin: float = 1e-10) -> float:
        """Leading-order +/- Im Delta on the cut at energy x > a_bar:
        alpha^2 pi times the level-set integral of |v|^2 with weight 1/|a'|.
        Radial case: alpha^2 pi |S^{d-1}| r^{d-1} |v(r)|^2 / |a'(r)|."""
        a_bar, t_bar = self.edge()
        if x <= a_bar:
            raise DomainError(f"x={x} is not above the continuum edge {a_bar}")
        if self.d not in _SPHERE_AREA:
            raise DomainError("im_delta_edge supports d in {1, 2, 3}")

        def a_at(t):
            return float(self._a_line(t)[0])

        r_lo = max(t_bar, 0.0)
        try:
            r = roots.root_beyond(lambda t: a_at(t) - x, r_lo, r_lo + 1.0)
        except NumericError as exc:
            raise DomainError(f"level a(r)=x={x} not reached within the search range") from exc
        step = 1e-7 * (1.0 + abs(r))
        aprime = a_at(r + step) - a_at(max(r - step, 0.0))
        aprime /= (r + step - max(r - step, 0.0))
        if abs(aprime) < grad_margin:
            raise DomainError(f"|a'({r})| = {abs(aprime):.3g} too small; x is too close to the edge")
        v_r = float(self.v_at(np.outer([r], self.axis))[0])
        area = _SPHERE_AREA[self.d] * r ** (self.d - 1) if self.d > 1 else _SPHERE_AREA[1]
        return self.alpha**2 * math.pi * area * v_r * v_r / abs(aprime)

    def check_minimum(self, step: float = 1e-4) -> bool:
        """Sampled nondegeneracy of the edge minimum: positive second
        difference along the axis and along a transverse direction."""
        _, t_bar = self.edge()
        along = self._a_line([t_bar - step, t_bar, t_bar + step])
        ok = along[0] + along[2] - 2.0 * along[1] > 0.0
        if self.d > 1:
            perp = np.zeros(self.d)
            perp[0] = 1.0 if abs(self.axis[0]) < 0.9 else 0.0
            if not perp.any():
                perp[1] = 1.0
            base = t_bar * self.axis
            pts = np.stack([base - step * perp, base, base + step * perp])
            tv = self.a_at(pts)
            ok = ok and (tv[0] + tv[2] - 2.0 * tv[1] > 0.0)
        return bool(ok)
