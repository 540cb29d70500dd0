"""Second-order boson self-energy, effective one-boson energy, leading
interaction kernels and the explicit contraction-norm estimates that
bound the validity range of the perturbative elimination.
"""

from __future__ import annotations

import marshal
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import quadrature as quad_mod
from .errors import BYTE_BUDGET, DomainError, ResourceError
from .model import CouplingSpec, EpsilonSpec, ModelParams
from .quadrature import QuadratureSpec

try:  # the unoptimized np.einsum is this call behind a Python wrapper
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

__all__ = [
    "SelfEnergyPoint",
    "ContractionReport",
    "SelfEnergyTables",
    "m2",
    "b2_leading",
    "contraction_bounds",
]

DENOM_MARGIN = 1e-6  # minimum allowed distance of xi to the two-boson edge
# (rows, Nf) arrays a ground solve may hold: e2, the per-xi pass's den and
# terms, num_d and the kernel matrix at the current xi (d_matrix drops den and
# terms, so it holds four at its peak: e2, num_d, the kernel and e2 - xi); a
# p-modulated coupling adds num_m
_PAIR_ARRAYS = 5
_TERMS_BOUND = 4     # models whose node terms one node system keeps
_EPS_FIELDS = operator.attrgetter(*EpsilonSpec.__dataclass_fields__)
_COUPLING_FIELDS = operator.attrgetter(*CouplingSpec.__dataclass_fields__)
_MARSHAL_VERSION = 2  # binary floats; version 3 on writes back-references by object identity


@dataclass
class SelfEnergyPoint:
    p: np.ndarray
    q: np.ndarray
    xi: float
    m: float
    quad_error: float


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
    value = float(SelfEnergyTables(params, p, quad, q).m_values(xi))
    err = 0.0
    if not quad.is_discrete:
        fine = replace(quad, n_radial=2 * quad.n_radial,
                       angular_degree=2 * quad.angular_degree + 1)
        fine_value = float(SelfEnergyTables(params, p, fine, q).m_values(xi))
        err = abs(fine_value - value)
        value = fine_value
    return SelfEnergyPoint(p=p, q=q, xi=float(xi), m=value, quad_error=err)


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


def contraction_bounds(params: ModelParams, p, kappa: float,
                       lam2: float) -> ContractionReport:
    """Explicit contraction estimates for the many-body elimination:

    bound_Q     = alpha ||h|| sqrt(3) [1/(c0 + lam2 - kappa) + 1/(lam2 - kappa)]
    bound_Gamma = alpha (3 + ||h||^2) / (lam2 - kappa)

    alpha0_* solve bound = 1/2.  lam2 is `branches.lambda2_proxy_value`.
    """
    p = params._check_vec(p, "p")
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


def _marshallable(v):
    """v itself where marshal takes it; an array or a numpy scalar other
    than float64 as its dtype, shape and bytes."""
    if isinstance(v, (str, float, int, type(None))):
        return v
    a = np.asarray(v)
    return a.dtype.str, a.shape, a.tobytes()


def _model_key(params) -> bytes:
    """The values of the fields of eps and the coupling, marshalled: a
    float is kept as its 8 bytes, so -0.0 and 0.0 differ, and 1 and 1.0
    differ by type.  Marshal format 2 writes each value in full, so the key
    does not depend on which fields share one object.  Arrays (a tabulated
    eps) go through `_marshallable`."""
    values = _EPS_FIELDS(params.eps) + _COUPLING_FIELDS(params.coupling)
    try:
        return marshal.dumps(values, _MARSHAL_VERSION)
    except ValueError:
        return marshal.dumps(tuple(map(_marshallable, values)), _MARSHAL_VERSION)


def _node_terms(params, ns):
    """h(q') = |q'|^2 / 2 + eps(q') on the full nodes, and c(q') and
    w|c(q')|^2 for a separable coupling (None for a p-modulated one),
    read-only.  ns.terms keeps them for its _TERMS_BOUND latest models,
    keyed on `_model_key`: equal keys mean equal bits."""
    key = _model_key(params)
    if key not in ns.terms:
        if len(ns.terms) >= _TERMS_BOUND:
            del ns.terms[next(iter(ns.terms))]
        h = 0.5 * ns.full_sq + params.eps.radial(np.sqrt(ns.full_sq))
        c = num = None
        if params.coupling.kind == "separable":
            c = params.coupling.from_sq(0.0, ns.full_sq)
            num = c * c * ns.full_weights
            c.flags.writeable = num.flags.writeable = False
        h.flags.writeable = False
        ns.terms[key] = h, c, num
    return ns.terms[key]


def _sq_dist(kq, k_sq, ns):
    """|k - q'|^2 = |k|^2 - 2 k.q' + |q'|^2 on every pair, from the
    products kq = k.q' of shape (..., Nf) and |k|^2 of shape (...), in a
    new array."""
    s = np.multiply(kq, -2.0)
    np.add(s.T, k_sq, out=s.T)
    s += ns.full_sq
    return s


class SelfEnergyTables:
    """Self-energy, effective energy and leading kernel at a set of
    evaluation points, or at one point.

    Without `points` the evaluation set is the rule's own; for d=3
    continuum rules it is reduced to the azimuthal half-plane of the p
    axis.  Given points, shape (N, d), or one point q, shape (d,), are
    evaluated on the unrotated rule; one point's arrays drop the leading
    axis (e1 is a scalar, e2 has shape (Nf,)).  `quad` may also be the node
    system `ns` of another table, whose nodes are then shared.  A table
    whose pair arrays at a ground solve's peak (`_PAIR_ARRAYS`) would
    exceed BYTE_BUDGET is refused with ResourceError before the first of
    them is built.

    With k = p - q and e1 = |k|^2 / 2 + eps(q), the pair energies are
    e2 = (e1 - k.q') + h(q'), h(q') = |q'|^2 / 2 + eps(q'), with k.q'
    summed coordinate by coordinate over the (d, Nf) copy of the nodes by
    unoptimized einsum, NumPy's own loop, not BLAS.  The numerators
    num_m = w|c(p - q - q'; q')|^2 and c(q') are the node terms of a
    separable coupling (`_node_terms`); a p-modulated coupling reads them
    from `_sq_dist`.  Each entry comes from its own q and q' alone and each
    row is summed alone, so one point equals its row of any table holding
    q on the same nodes, bit for bit.

    Every a(xi) comes from one pass in two buffers the shape of e2,
    den = e2 - xi and terms = w|c|^2 / den, summed over each row;
    `d_matrix` drops them and the next pass allocates them again.  g and
    slope serve a monotone Newton search at one point: slope(xi) is taken
    at most once after g(xi), at the same xi, and divides g's terms by den
    once more, in place.
    """

    def __init__(self, params: ModelParams, p,
                 quad: QuadratureSpec | quad_mod.NodeSystem, points=None):
        self.params = params
        self.p = p = params._check_vec(p, "p")
        if isinstance(quad, quad_mod.NodeSystem):
            ns = quad
        else:
            axis = quad_mod.axis_of(p) if points is None else None
            ns = quad_mod.node_system(quad, params.d, axis=axis)
        self.ns = ns
        self.points = points = ns.out_points if points is None \
            else np.asarray(points, dtype=float)
        pairs = points.size // params.d * ns.full_sq.size
        need = 8 * pairs * (_PAIR_ARRAYS + (params.coupling.kind != "separable"))
        if need > BYTE_BUDGET:
            raise ResourceError(f"self-energy tables of {pairs} pairs need {need} B, "
                                f"over the budget of {BYTE_BUDGET} B")

        self._k = k = np.subtract(p, points)
        self._k_sq = k_sq = _einsum("...j,...j->...", k, k)
        # [()] takes one point's eps as a scalar, not a 0-d array
        self.e1 = e1 = 0.5 * k_sq + params.eps(points)[()]
        h, self._c_full, self.num_m = _node_terms(params, ns)
        kq = _einsum("...j,jn->...n", k, ns.full_points_t)
        if self._c_full is None:
            c_pq = params.coupling.from_sq(_sq_dist(kq, k_sq, ns), ns.full_sq)
            self.num_m = c_pq * c_pq * ns.full_weights
        # e1 - k.q' + h(q'), e1 subtracted along the transpose's last axis
        kq_t = kq.T
        np.subtract(e1, kq_t, out=kq_t)
        kq += h
        self.e2 = kq
        self.min_e2 = float(np.minimum.reduce(kq, None))
        self._scale = -(params.alpha**2)
        self._den = np.empty(kq.shape)
        self._terms = np.empty(kq.shape)

    @cached_property
    def num_d(self) -> np.ndarray:
        """Kernel numerators c(p-q-q'; q') c(p-q-q'; q), built on first use:
        the outer product c(q) c(q') for a separable coupling."""
        c = self.params.coupling
        q_sq = np.sum(self.points * self.points, axis=-1)[..., None]
        if self._c_full is not None:
            return np.multiply(self._c_full, c.from_sq(0.0, q_sq))
        s = _sq_dist(_einsum("...j,jn->...n", self._k, self.ns.full_points_t),
                     self._k_sq, self.ns)
        return np.multiply(c.from_sq(s, self.ns.full_sq), c.from_sq(s, q_sq), out=s)

    @cached_property
    def v_out(self) -> np.ndarray:
        """Channel function c(p - q; q) at the evaluation points."""
        return self.params.coupling.evaluate(self.p[None, :] - self.points,
                                             self.points)

    def check(self, xi: float):
        """Refuse xi within DENOM_MARGIN of the two-boson edge min_e2,
        against the cap min_e2 - DENOM_MARGIN as callers form it:
        min_e2 - xi may round below the margin at xi equal to that cap."""
        if xi > self.min_e2 - DENOM_MARGIN:
            raise DomainError(
                f"xi={xi} within {DENOM_MARGIN:.1g} of the two-boson edge "
                f"{self.min_e2:.6g} on this grid"
            )

    def m_values(self, xi: float):
        """Self-energy m(xi) = -alpha^2 sum w|c|^2 / (e2 - xi) at every
        evaluation point: the pass that fills den and terms."""
        if xi > self.min_e2 - DENOM_MARGIN:  # `check`'s test, inline on the Newton path
            self.check(xi)
        self._den = den = np.subtract(self.e2, xi, out=self._den)
        self._terms = terms = np.divide(self.num_m, den, out=self._terms)
        return self._scale * np.add.reduce(terms, -1)

    def a_values(self, xi: float):
        """Effective one-boson energy a(xi) = e1 + m(xi)."""
        return self.e1 + self.m_values(xi)

    def g(self, xi: float) -> float:
        """g(xi) = a(xi) - xi at one point, decreasing and concave."""
        return float(self.e1 + self.m_values(xi)) - xi

    def slope(self, xi: float) -> float:
        """g'(xi) = m'(xi) - 1 = -alpha^2 sum w|c|^2 / (e2 - xi)^2 - 1 at one
        point, right after g(xi) at the same xi."""
        terms = np.divide(self._terms, self._den, out=self._terms)
        return self._scale * float(np.add.reduce(terms, -1)) - 1.0

    def d_matrix(self, xi: float) -> np.ndarray:
        """Leading kernel -num_d / (e2 - xi) between evaluation points and
        integration nodes, in a new array.  It drops the pass's buffers,
        which the next pass allocates again, so that they are not held
        beside num_d and the kernel."""
        self.check(xi)
        self._den = self._terms = None
        return -self.num_d / (self.e2 - xi)
