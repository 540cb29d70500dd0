"""Spectral analysis of the generalized Friedrichs operator: perturbation
determinant, truncated Neumann resolvent kernels, discrete eigenvalue
below the continuum edge, and the leading-order imaginary part of the
determinant on the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad_mod
from . import roots
from .errors import DomainError, NumericError, ResourceError
from .quadrature import QuadratureSpec

__all__ = [
    "FriedrichsData",
    "FriedrichsSolver",
    "NeumannKernel",
    "build_solver",
    "delta",
    "ground_eigenvalue",
    "neumann_kernel",
    "im_delta_edge",
    "check_minimum",
]

EDGE_MARGIN = 1e-9     # default stand-off from the continuum edge
_EDGE_RADIUS = 30.0    # half-width of the on-axis edge search grid
_EDGE_POINTS = 513     # points of that grid
_KERNEL_BUDGET = 4e7   # max entries of the full-grid kernel matrix


@dataclass
class FriedrichsData:
    """Data of a generalized Friedrichs operator on C + L^2(R^d).

    e0      scalar level
    v       channel function, callable on (N, d) point arrays
    a       effective energy (multiplication operator), same signature
    dker    two-point kernel, callable (P (N,d), Q (M,d)) -> (N, M); None
            means the rank-one model
    alpha   coupling constant
    h       optional radial envelope used to normalize kernel norm samples
    axis    axis of axial symmetry of v, a and the kernel family
    """

    e0: float
    v: object
    a: object
    alpha: float
    d: int
    dker: object = None
    h: object = None
    axis: np.ndarray = None
    _edge: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.axis is None:
            ax = np.zeros(self.d)
            ax[-1] = 1.0
            self.axis = ax
        else:
            self.axis = np.asarray(self.axis, dtype=float)
            self.axis = self.axis / np.linalg.norm(self.axis)

    def a_line(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.asarray(self.a(t[:, None] * self.axis[None, :]), dtype=float)

    def v_line(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.asarray(self.v(t[:, None] * self.axis[None, :]), dtype=float)

    def edge(self):
        """(a_bar, t_bar): continuum edge min a and its on-axis argmin."""
        if self._edge is None:
            grid = np.linspace(-_EDGE_RADIUS, _EDGE_RADIUS, _EDGE_POINTS)
            self._edge = roots.line_min(lambda t: float(self.a_line(t)[0]),
                                        grid, self.a_line(grid), 1e-12)
        return self._edge

    @property
    def a_bar(self) -> float:
        return self.edge()[0]

    @property
    def q_bar0(self) -> float:
        return self.edge()[1]


def check_minimum(data: FriedrichsData, step: float = 1e-4) -> bool:
    """Sampled nondegeneracy of the edge minimum: positive second
    difference along the axis and along a transverse direction."""
    a_bar, t_bar = data.edge()
    along = data.a_line([t_bar - step, t_bar, t_bar + step])
    ok = along[0] + along[2] - 2.0 * along[1] > 0.0
    if data.d > 1:
        perp = np.zeros(data.d)
        perp[0] = 1.0 if abs(data.axis[0]) < 0.9 else 0.0
        if not perp.any():
            perp = np.zeros(data.d)
            perp[1] = 1.0
        base = t_bar * data.axis
        pts = np.stack([base - step * perp, base, base + step * perp])
        tv = np.asarray(data.a(pts), dtype=float)
        ok = ok and (tv[0] + tv[2] - 2.0 * tv[1] > 0.0)
    return bool(ok)


class FriedrichsSolver:
    """Discretized Friedrichs operator on a quadrature node system.

    Holds the sampled channel function, effective energy and kernel
    matrix; evaluates the perturbation determinant and locates the
    discrete eigenvalue below the continuum edge.
    """

    def __init__(self, e0, alpha, v_out, a_out, dmat, out_w, full_w,
                 out_index, a_bar, margin: float = EDGE_MARGIN):
        self.e0 = float(e0)
        self.alpha = float(alpha)
        self.v = np.asarray(v_out, dtype=float)
        self.a = np.asarray(a_out, dtype=float)
        self.dmat = dmat
        self.out_w = np.asarray(out_w, dtype=float)
        self.full_w = np.asarray(full_w, dtype=float)
        self.out_index = out_index
        self.a_bar = float(a_bar)
        self.margin = margin

    def delta(self, z: float, order: int = 1) -> float:
        """Perturbation determinant with the Neumann expansion of the
        resolvent truncated at the given kernel order."""
        if z >= self.a_bar:
            raise DomainError(f"z={z} is not below the continuum edge {self.a_bar}")
        den = self.a - z
        s = float((self.out_w * self.v * self.v / den).sum())
        corr = 0.0
        if self.dmat is not None and order >= 1:
            a2 = self.alpha**2
            phi = self.v / den
            x = phi
            sign = -1.0
            scale = 1.0
            for _ in range(order):
                scale *= a2
                y = self.dmat @ (self.full_w * x[self.out_index])
                corr += sign * scale * float((self.out_w * phi * y).sum())
                x = y / den
                sign = -sign
        return self.e0 - z - self.alpha**2 * (s + corr)

    def ground_eigenvalue(self, order: int = 1, tol: float = 1e-12):
        """Unique root of the determinant below the edge, or None when
        the determinant is still positive at the edge."""
        def det(z):
            return self.delta(z, order)

        z_edge = self.a_bar - self.margin
        if det(z_edge) >= 0.0:
            return None
        _, lo = roots.expand(lambda z: det(z) > 0.0, z_edge,
                             min(self.e0 - 1.0, z_edge - 1.0))
        root = roots.root(det, lo, z_edge)
        resid = abs(det(root))
        if resid > tol * (1.0 + abs(root)):
            raise NumericError(
                f"determinant residual {resid:.3g} exceeds tolerance at z={root}"
            )
        return float(root)


def build_solver(data: FriedrichsData, quad: QuadratureSpec,
                 margin: float = EDGE_MARGIN) -> FriedrichsSolver:
    """Sample the operator data on the node system of the rule."""
    axis = data.axis if (data.d == 3 and not quad.is_discrete) else None
    ns = quad_mod.node_system(quad, data.d, axis=axis)
    v_out = np.asarray(data.v(ns.out_points), dtype=float)
    a_out = np.asarray(data.a(ns.out_points), dtype=float)
    dmat = None
    if data.dker is not None:
        dmat = np.asarray(data.dker(ns.out_points, ns.full_points), dtype=float)
    a_bar = min(data.a_bar, float(a_out.min()))
    return FriedrichsSolver(data.e0, data.alpha, v_out, a_out, dmat,
                            ns.out_weights, ns.full_weights, ns.out_index,
                            a_bar, margin=margin)


def delta(data: FriedrichsData, z: float, neumann_order: int,
          quad: QuadratureSpec) -> float:
    return build_solver(data, quad).delta(z, neumann_order)


def ground_eigenvalue(data: FriedrichsData, neumann_order: int,
                      quad: QuadratureSpec, tol: float = 1e-12):
    return build_solver(data, quad).ground_eigenvalue(neumann_order, tol)


@dataclass
class NeumannKernel:
    order: int
    evaluate: object          # (P (N,d), Q (M,d)) -> (N, M)
    norm_sample: float

    def __call__(self, q, qp) -> float:
        q = np.atleast_2d(np.asarray(q, dtype=float))
        qp = np.atleast_2d(np.asarray(qp, dtype=float))
        return float(self.evaluate(q, qp)[0, 0])


def _default_probes(data: FriedrichsData):
    mags = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    return mags[:, None] * data.axis[None, :]


def neumann_kernel(data: FriedrichsData, z: float, n: int,
                   quad: QuadratureSpec, probes=None) -> NeumannKernel:
    """Order-n resolvent kernel as an (n-1)-fold iterated quadrature.

    norm_sample is the maximum of |L_n(q, q')| / (h(q) h(q')) over the
    probe pairs, with h the data envelope (or 1 when absent).
    """
    if n < 1:
        raise DomainError("kernel order must be >= 1")
    if data.dker is None:
        evaluate = lambda P, Q: np.zeros((np.atleast_2d(P).shape[0],
                                          np.atleast_2d(Q).shape[0]))
        return NeumannKernel(order=n, evaluate=evaluate, norm_sample=0.0)

    alpha2n = data.alpha ** (2 * n)
    if n == 1:
        evaluate = lambda P, Q: alpha2n * np.asarray(data.dker(P, Q), dtype=float)
    else:
        ns = quad_mod.node_system(quad, data.d)
        S, w = ns.full_points, ns.full_weights
        a_full = np.asarray(data.a(S), dtype=float)
        den = a_full - z
        if den.min() <= 0.0 or z >= data.a_bar:
            raise DomainError(f"z={z} is not below the continuum edge")
        wden = w / den
        chain = None
        if n >= 3:
            if S.shape[0] ** 2 > _KERNEL_BUDGET:
                raise ResourceError(
                    f"full kernel matrix of {S.shape[0]}^2 entries exceeds the budget"
                )
            chain = np.asarray(data.dker(S, S), dtype=float) * wden[None, :]

        def evaluate(P, Q, _S=S, _wden=wden, _chain=chain):
            left = np.asarray(data.dker(P, _S), dtype=float) * _wden[None, :]
            for _ in range(n - 2):
                left = left @ _chain
            return alpha2n * (left @ np.asarray(data.dker(_S, Q), dtype=float))

    if probes is None:
        probes = _default_probes(data)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    vals = np.abs(evaluate(probes, probes))
    if data.h is not None:
        hvals = np.asarray(data.h(np.linalg.norm(probes, axis=-1)), dtype=float)
        vals = vals / (hvals[:, None] * hvals[None, :])
    return NeumannKernel(order=n, evaluate=evaluate, norm_sample=float(vals.max()))


_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def im_delta_edge(data: FriedrichsData, x: float,
                  grad_margin: float = 1e-10) -> float:
    """Leading-order +/- Im Delta on the cut at energy x > a_bar:
    alpha^2 pi times the level-set integral of |v|^2 with weight 1/|a'|.
    Radial case: alpha^2 pi |S^{d-1}| r^{d-1} |v(r)|^2 / |a'(r)|."""
    a_bar, t_bar = data.edge()
    if x <= a_bar:
        raise DomainError(f"x={x} is not above the continuum edge {a_bar}")
    if data.d not in _SPHERE_AREA:
        raise DomainError("im_delta_edge supports d in {1, 2, 3}")

    def a_at(t):
        return float(data.a_line(t)[0])

    r_lo = max(t_bar, 0.0)
    try:
        _, r_hi = roots.expand(lambda t: a_at(t) > x, r_lo, r_lo + 1.0)
    except NumericError as exc:
        raise DomainError(f"level a(r)=x={x} not reached within the search range") from exc
    r = roots.root(lambda t: a_at(t) - x, r_lo, r_hi)
    step = 1e-7 * (1.0 + abs(r))
    aprime = float(data.a_line(r + step)[0] - data.a_line(max(r - step, 0.0))[0])
    aprime /= (r + step - max(r - step, 0.0))
    if abs(aprime) < grad_margin:
        raise DomainError(f"|a'({r})| = {abs(aprime):.3g} too small; x is too close to the edge")
    v_r = float(data.v_line(r)[0])
    area = _SPHERE_AREA[data.d] * r ** (data.d - 1) if data.d > 1 else _SPHERE_AREA[1]
    return data.alpha**2 * math.pi * area * v_r * v_r / abs(aprime)
