"""Second-order boson self-energy, effective one-boson energy, leading
interaction kernels and the explicit contraction-norm estimates that
bound the validity range of the perturbative elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from . import quadrature as quad_mod
from .errors import DomainError
from .model import ModelParams
from .quadrature import QuadratureSpec

__all__ = [
    "SelfEnergyPoint",
    "ContractionReport",
    "SelfEnergyTables",
    "PointSelfEnergy",
    "m2",
    "a_eff",
    "b2_leading",
    "d2_leading",
    "contraction_bounds",
    "lambda2_proxy_value",
    "default_proxy_margin",
    "clipped_proxy_margin",
]

DENOM_MARGIN = 1e-6  # minimum allowed distance of xi to the two-boson edge


@dataclass
class SelfEnergyPoint:
    p: np.ndarray
    q: np.ndarray
    xi: float
    m: float
    quad_error: float
    order: int = 2


@dataclass
class ContractionReport:
    """Sufficient-condition contraction estimates; not sharp thresholds."""

    kappa: float
    lam2: float
    h_norm: float
    bound_Q: float
    bound_Gamma: float
    alpha0_Q: float
    alpha0_Gamma: float


class PointSelfEnergy:
    """Self-energy at one (p, q) pair on a rule's nodes.  The node-pair
    energies do not depend on xi, so each evaluation in xi costs one
    vector division."""

    def __init__(self, params: ModelParams, p, q, quad: QuadratureSpec):
        self.params = params
        pts, w = quad_mod.nodes(quad, params.d)
        k = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
        diff = k[None, :] - pts
        self.num = params.coupling.evaluate(diff, pts) ** 2 * w
        self.den0 = 0.5 * np.einsum("ij,ij->i", diff, diff) \
            + float(params.eps(q)) + params.eps(pts)
        self.e1 = 0.5 * float(k @ k) + float(params.eps(q))

    def m(self, xi: float) -> float:
        """-alpha^2 sum_j w_j |c_j|^2 / (e2_j - xi)."""
        den = self.den0 - xi
        if den.min() < DENOM_MARGIN:
            raise DomainError(
                f"xi={xi} within {DENOM_MARGIN:.1g} of the two-boson edge"
            )
        return -(self.params.alpha**2) * float((self.num / den).sum())

    def a(self, xi: float) -> float:
        """Effective one-boson energy e1(q) + m(xi; q)."""
        return self.e1 + self.m(xi)

    def g(self, xi: float) -> float:
        """a(xi) - xi, strictly decreasing; its root is the dispersion."""
        return self.a(xi) - xi


def m2(params: ModelParams, p, xi: float, q, quad: QuadratureSpec,
       kappa: float | None = None) -> SelfEnergyPoint:
    """Leading self-energy
    -alpha^2 * Integral |c(p-q-q'; q')|^2 / (e2(q, q') - xi) dq'.

    Requires xi <= kappa (when a cap is supplied) and the two-boson
    denominator to stay above the safety margin on every node.  On a
    continuum rule the value comes from the refined rule and quad_error is
    its distance to the value on the given rule.
    """
    p = params._check_vec(p, "p")
    q = params._check_vec(q, "q")
    if kappa is not None and xi > kappa:
        raise DomainError(f"xi={xi} exceeds the cap kappa={kappa}")
    value = PointSelfEnergy(params, p, q, quad).m(xi)
    err = 0.0
    if not quad.is_discrete:
        fine = replace(quad, n_radial=2 * quad.n_radial,
                       angular_degree=2 * quad.angular_degree + 1)
        fine_value = PointSelfEnergy(params, p, q, fine).m(xi)
        err = abs(fine_value - value)
        value = fine_value
    return SelfEnergyPoint(p=p, q=q, xi=float(xi), m=value, quad_error=err)


def a_eff(params: ModelParams, p, xi: float, q, quad: QuadratureSpec,
          kappa: float | None = None) -> float:
    """Effective one-boson energy e1(q) + m(xi; q); strictly decreasing in xi."""
    point = m2(params, p, xi, q, quad, kappa=kappa)
    return PointSelfEnergy(params, point.p, point.q, quad).e1 + point.m


def _e2_scalar(params, p, q1, q2):
    total = np.asarray(p, float) - np.asarray(q1, float) - np.asarray(q2, float)
    return 0.5 * float(total @ total) + float(params.eps(q1)) + float(params.eps(q2))


def b2_leading(params: ModelParams, p, z: float, q1, q) -> float:
    """Leading two-boson coefficient -alpha c(p-q1-q; q1) / (e2(q1, q) - z)."""
    p = params._check_vec(p, "p")
    q1 = params._check_vec(q1, "q1")
    q = params._check_vec(q, "q")
    den = _e2_scalar(params, p, q1, q) - z
    if den < DENOM_MARGIN:
        raise DomainError(f"denominator {den:.3g} below safety margin {DENOM_MARGIN:.1g}")
    return -params.alpha * float(params.coupling.evaluate(p - q1 - q, q1)) / den


def d2_leading(params: ModelParams, p, xi: float, q, qp) -> float:
    """Leading two-point kernel
    -conj(c(p-q-q'; q')) c(p-q-q'; q) / (e2(q, q') - xi); self-adjoint at
    real xi (real for the real couplings supported here)."""
    p = params._check_vec(p, "p")
    q = params._check_vec(q, "q")
    qp = params._check_vec(qp, "qp")
    den = _e2_scalar(params, p, q, qp) - xi
    if den < DENOM_MARGIN:
        raise DomainError(f"denominator {den:.3g} below safety margin {DENOM_MARGIN:.1g}")
    arg = p - q - qp
    num = float(params.coupling.evaluate(arg, qp)) * float(params.coupling.evaluate(arg, q))
    return -num / den


def default_proxy_margin(params: ModelParams) -> float:
    """Margin keeping the cap below the true two-boson edge: the edge
    shift is O(alpha^2), so 10 alpha^2 ||h||^2 with a 1e-3 floor."""
    return max(10.0 * params.alpha**2 * params.coupling.h_norm_sq(params.d), 1e-3)


def clipped_proxy_margin(params: ModelParams, p) -> float:
    """Default margin clipped to half the free gap lambda2_0 - lambda1_0, so
    that the cap window stays open at the larger couplings of a ladder."""
    free_gap = model_mod.threshold(params, 2, p) - model_mod.threshold(params, 1, p)
    return min(default_proxy_margin(params), 0.5 * free_gap)


def lambda2_proxy_value(params: ModelParams, p, margin: float | None = None) -> float:
    """Computable stand-in lambda2_0(p) - margin for the variational
    two-boson edge, which has no closed expression."""
    if margin is None:
        margin = default_proxy_margin(params)
    return model_mod.threshold(params, 2, p) - margin


def contraction_bounds(params: ModelParams, p, kappa: float,
                       lam2: float | None = None) -> ContractionReport:
    """Explicit contraction estimates for the many-body elimination:

    bound_Q     = alpha ||h|| sqrt(3) [1/(c0 + lam2 - kappa) + 1/(lam2 - kappa)]
    bound_Gamma = alpha (3 + ||h||^2) / (lam2 - kappa)

    alpha0_* solve bound = 1/2.  lam2 defaults to the threshold proxy.
    """
    p = params._check_vec(p, "p")
    if lam2 is None:
        lam2 = lambda2_proxy_value(params, p)
    gap = lam2 - kappa
    if gap <= 0:
        raise DomainError(f"kappa={kappa} is not below the two-boson proxy {lam2}")
    hsq = params.coupling.h_norm_sq(params.d)
    h = math.sqrt(hsq)
    q_factor = h * math.sqrt(3.0) * (1.0 / (params.c0 + gap) + 1.0 / gap)
    g_factor = (3.0 + hsq) / gap
    return ContractionReport(
        kappa=float(kappa),
        lam2=float(lam2),
        h_norm=h,
        bound_Q=params.alpha * q_factor,
        bound_Gamma=params.alpha * g_factor,
        alpha0_Q=0.5 / q_factor,
        alpha0_Gamma=0.5 / g_factor,
    )


class SelfEnergyTables:
    """Cached pairwise arrays for evaluating the effective energy and the
    leading kernel on a fixed quadrature node system.

    The two-boson energies and coupling products between evaluation nodes
    and integration nodes do not depend on xi, so sweeping xi (dispersion
    and ground-branch solves) costs one elementwise division per sweep
    point.  For d=3 continuum rules the evaluation set is reduced to the
    azimuthal half-plane of the symmetry axis.
    """

    def __init__(self, params: ModelParams, p, quad: QuadratureSpec, axis=None):
        self.params = params
        self.p = params._check_vec(p, "p")
        self.quad = quad
        if axis is None and params.d == 3 and not quad.is_discrete:
            pmag = float(np.linalg.norm(self.p))
            axis = self.p / pmag if pmag > 0 else np.array([0.0, 0.0, 1.0])
        self.ns = quad_mod.node_system(quad, params.d, axis=axis)

        out = self.ns.out_points
        full = self.ns.full_points
        k = self.p[None, :] - out                      # (No, d)
        eps_out = params.eps(out)
        eps_full = params.eps(full)
        n_out, n_full = out.shape[0], full.shape[0]
        self.e2 = np.empty((n_out, n_full))
        self.num_m = np.empty((n_out, n_full))
        self.num_d = np.empty((n_out, n_full))
        # chunked over evaluation nodes to bound the (No, Nf, d) temporary
        chunk = max(1, int(2_000_000 / max(n_full, 1)))
        for lo in range(0, n_out, chunk):
            hi = min(lo + chunk, n_out)
            diff = k[lo:hi, None, :] - full[None, :, :]
            c_right = params.coupling.evaluate(diff, full[None, :, :])
            c_left = params.coupling.evaluate(diff, out[lo:hi, None, :])
            self.e2[lo:hi] = (
                0.5 * np.einsum("ijk,ijk->ij", diff, diff)
                + eps_out[lo:hi, None]
                + eps_full[None, :]
            )
            self.num_m[lo:hi] = c_right * c_right
            self.num_d[lo:hi] = c_right * c_left
        self.e1_out = 0.5 * np.einsum("ij,ij->i", k, k) + eps_out
        self.v_out = params.coupling.evaluate(self.p[None, :] - out, out)

    @property
    def out_weights(self):
        return self.ns.out_weights

    def min_e2(self) -> float:
        return float(self.e2.min())

    def _check_xi(self, xi):
        if self.min_e2() - xi < DENOM_MARGIN:
            raise DomainError(
                f"xi={xi} within {DENOM_MARGIN:.1g} of the two-boson edge "
                f"{self.min_e2():.6g} on this grid"
            )

    def m_values(self, xi: float) -> np.ndarray:
        """Self-energy at every evaluation node."""
        self._check_xi(xi)
        return -(self.params.alpha**2) * (
            (self.num_m / (self.e2 - xi)) @ self.ns.full_weights
        )

    def a_values(self, xi: float) -> np.ndarray:
        return self.e1_out + self.m_values(xi)

    def d_matrix(self, xi: float) -> np.ndarray:
        """Leading kernel between evaluation nodes and integration nodes."""
        self._check_xi(xi)
        return -self.num_d / (self.e2 - xi)
