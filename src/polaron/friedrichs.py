"""Spectral analysis of the generalized Friedrichs operator: perturbation
determinant, truncated Neumann resolvent kernels, discrete eigenvalue
below the continuum edge, and the leading-order imaginary part of the
determinant on the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature as quad_mod
from . import roots
from .errors import DomainError, NumericError
from .quadrature import QuadratureSpec
from .selfenergy import NewtonRow, SelfEnergyTables

__all__ = [
    "FriedrichsSolver",
    "NeumannKernel",
]

EDGE_MARGIN = 1e-9     # stand-off of the eigenvalue search from the continuum edge
NORM_PROBES = (0.0, 0.5, 1.0, 1.5, 2.0)  # on-axis |q| of the kernel norm sample
GRAD_MARGIN = 1e-10    # least |a'| at the level set of im_delta_edge


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
    nodes, built by `kernel()` on first use (kernel None: the rank-one
    model).

    a_line(t) and v_line(t) evaluate a and v at the one point t * axis,
    the line on which the continuum edge is refined.  dker is the
    two-point kernel the matrix samples, which the Neumann kernels need
    off the nodes; operators from tables have none.
    """

    def __init__(self, e0, alpha, ns, v_out, a_out, kernel, a_line, v_line, axis,
                 dker=None):
        self.e0 = float(e0)
        self.alpha = float(alpha)
        self.ns = ns
        self.v = np.asarray(v_out, dtype=float)
        self.a = np.asarray(a_out, dtype=float)
        self._kernel = kernel
        self.a_line = a_line
        self.v_line = v_line
        self.axis = axis
        self.dker = dker
        self._edge = None

    @classmethod
    def from_tables(cls, tables: SelfEnergyTables, xi: float,
                    e0: float) -> "FriedrichsSolver":
        """The reduced operator at trial energy xi, read from the tables.
        On the p axis, a is read from the point's own `NewtonRow` (its row
        of a table, bit for bit) and v from the coupling; the kernel
        matrix is the tables' `d_matrix(xi)`."""
        params, p, ns = tables.params, tables.p, tables.ns
        axis = quad_mod.axis_of(p)
        return cls(e0, params.alpha, ns, tables.v_out, tables.a_values(xi),
                   lambda: tables.d_matrix(xi),
                   lambda t: NewtonRow(params, p, ns, t * axis, xi).a(xi),
                   lambda t: float(params.coupling.evaluate(p - t * axis, t * axis)),
                   axis)

    @classmethod
    def from_functions(cls, e0, alpha, v, a, quad: QuadratureSpec, d: int,
                       dker=None) -> "FriedrichsSolver":
        """Sample v and a, callable on (N, d) point arrays, and the kernel
        dker (P (N, d), Q (M, d)) -> (N, M) on the node system of the rule.
        The last coordinate axis is the axis of symmetry of v, a and dker,
        about which a d=3 continuum rule is reduced."""
        axis = np.eye(d)[-1]
        ns = quad_mod.node_system(quad, d, axis=axis)
        kernel = None if dker is None else \
            lambda: np.asarray(dker(ns.out_points, ns.full_points), dtype=float)
        return cls(e0, alpha, ns, v(ns.out_points), a(ns.out_points), kernel,
                   lambda t: float(a(np.outer([t], axis))[0]),
                   lambda t: float(v(np.outer([t], axis))[0]), axis, dker=dker)

    @property
    def d(self) -> int:
        return self.ns.full_points.shape[1]

    @cached_property
    def dmat(self):
        """The kernel matrix, built on first use."""
        return None if self._kernel is None else self._kernel()

    def edge(self):
        """(a_bar, t_bar): the continuum edge, the least of a over the
        evaluation set and over the on-axis line, and the on-axis argmin.
        The line minimum is refined by `roots.min_beyond` from t0, the
        projection onto the axis of the evaluation set's argmin, at level
        a_line(t0), to the argmin tolerance roots.MIN_XATOL.  Found on
        first use."""
        if self._edge is None:
            t0 = float(self.ns.out_points[np.argmin(self.a)] @ self.axis)
            a_min, t_bar = roots.min_beyond(self.a_line, t0, self.a_line(t0),
                                            roots.MIN_XATOL)
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
        if order >= 1 and self.dmat is not None:
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
        @roots.Counted
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

    def neumann_kernel(self, z: float, n: int, h=None) -> NeumannKernel:
        """Order-n resolvent kernel alpha^(2n) D (W (a - z)^-1 D)^(n-1),
        an (n-1)-fold iterated sum over the nodes.  The columns D(., Q)
        take the D W step of `delta`, so on an axially reduced evaluation
        set the points Q must lie on the axis.

        norm_sample is the maximum of |L_n(q, q')| / (h(|q|) h(|q'|)) over
        the pairs of on-axis probes at |q| in NORM_PROBES, with h = 1 when
        no envelope is given.
        """
        if n < 1:
            raise DomainError("kernel order must be >= 1")
        if self._kernel is None:
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

        probes = np.array(NORM_PROBES)[:, None] * self.axis[None, :]
        vals = np.abs(evaluate(probes, probes))
        if h is not None:
            hvals = np.asarray(h(np.linalg.norm(probes, axis=-1)), dtype=float)
            vals = vals / (hvals[:, None] * hvals[None, :])
        return NeumannKernel(order=n, evaluate=evaluate, norm_sample=float(vals.max()))

    def im_delta_edge(self, x: float) -> float:
        """Leading-order +/- Im Delta on the cut at energy x > a_bar:
        alpha^2 pi times the level-set integral of |v|^2 with weight 1/|a'|.
        Radial case: alpha^2 pi |S^{d-1}| r^{d-1} |v(r)|^2 / |a'(r)|."""
        a_bar, t_bar = self.edge()
        if x <= a_bar:
            raise DomainError(f"x={x} is not above the continuum edge {a_bar}")
        if self.d not in _SPHERE_AREA:
            raise DomainError("im_delta_edge supports d in {1, 2, 3}")

        r_lo = max(t_bar, 0.0)
        try:
            r = roots.root_beyond(roots.Counted(lambda t: self.a_line(t) - x),
                                  r_lo, r_lo + 1.0)
        except NumericError as exc:
            raise DomainError(f"level a(r)=x={x} not reached within the search range") from exc
        step = 1e-7 * (1.0 + abs(r))
        aprime = self.a_line(r + step) - self.a_line(max(r - step, 0.0))
        aprime /= (r + step - max(r - step, 0.0))
        if abs(aprime) < GRAD_MARGIN:
            raise DomainError(f"|a'({r})| = {abs(aprime):.3g} too small; x is too close to the edge")
        v_r = self.v_line(r)
        area = _SPHERE_AREA[self.d] * r ** (self.d - 1) if self.d > 1 else _SPHERE_AREA[1]
        return self.alpha**2 * math.pi * area * v_r * v_r / abs(aprime)
