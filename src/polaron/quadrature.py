"""Momentum-space integration.

Two modes share one interface: a continuum spherical product rule
(Gauss-Legendre radial x angular rule) for rapidly decreasing integrands,
and a discrete uniform lattice measure matched to the brute-force
diagonalization oracle.  Node evaluation order is fixed so repeated runs
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, NumericError, ResourceError

__all__ = [
    "DiscreteMeasure",
    "QuadratureSpec",
    "NodeSystem",
    "axis_of",
    "grid_measure",
    "nodes",
    "node_system",
    "integrate",
]

# hard cap on lattice size, points * dim
_MEASURE_BUDGET = 4_000_000


@dataclass
class DiscreteMeasure:
    """Uniform lattice of cell centers in [-half_width, half_width]^d with
    equal weight (2*half_width / points_per_axis)^d per point."""

    points: np.ndarray  # (N, d)
    weight: float
    half_width: float
    points_per_axis: int

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def total_weight(self) -> float:
        return self.weight * self.points.shape[0]

    @cached_property
    def node_system(self) -> NodeSystem:
        """The lattice as a node system, built on first use."""
        w = np.full(self.points.shape[0], self.weight)
        return NodeSystem(self.points, w, self.points, w, np.arange(w.shape[0]))


def grid_measure(half_width: float, points_per_axis: int, d: int) -> DiscreteMeasure:
    """Uniform centered lattice; odd points_per_axis keeps q=0 on-grid."""
    if half_width <= 0:
        raise InputError("half_width must be positive")
    if points_per_axis < 1:
        raise InputError("points_per_axis must be >= 1")
    if d < 1:
        raise InputError("dimension must be >= 1")
    if points_per_axis**d * d > _MEASURE_BUDGET:
        raise ResourceError(
            f"lattice of {points_per_axis}^{d} points exceeds the measure budget"
        )
    step = 2.0 * half_width / points_per_axis
    axis = -half_width + step * (np.arange(points_per_axis) + 0.5)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    return DiscreteMeasure(points=points, weight=step**d,
                           half_width=half_width, points_per_axis=points_per_axis)


@dataclass
class QuadratureSpec:
    """Integration rule.  measure=None selects the continuum spherical
    product rule; otherwise the weighted lattice sum."""

    n_radial: int = 64
    angular_degree: int = 17
    r_max: float = 6.0
    measure: DiscreteMeasure | None = None

    def __post_init__(self):
        if self.measure is None:
            if self.n_radial < 8:
                raise InputError("continuum rule needs n_radial >= 8")
            if self.angular_degree < 1:
                raise InputError("angular_degree must be >= 1")
            if self.r_max <= 0:
                raise InputError("r_max must be positive")

    @classmethod
    def continuum(cls, n_radial: int = 64, angular_degree: int = 17,
                  r_max: float = 6.0) -> "QuadratureSpec":
        return cls(n_radial=n_radial, angular_degree=angular_degree, r_max=r_max)

    @classmethod
    def discrete(cls, measure: DiscreteMeasure) -> "QuadratureSpec":
        return cls(measure=measure)

    @property
    def is_discrete(self) -> bool:
        return self.measure is not None


def _radial_rule(spec: QuadratureSpec):
    x, w = np.polynomial.legendre.leggauss(spec.n_radial)
    r = 0.5 * spec.r_max * (x + 1.0)
    wr = 0.5 * spec.r_max * w
    return r, wr


def _angular_counts(degree: int):
    n_u = (degree + 2) // 2          # Gauss in cos(theta), exact to 2*n_u-1
    n_phi = degree + 1               # uniform azimuth, exact to n_phi-1
    return n_u, n_phi


@dataclass
class NodeSystem:
    """Full node set plus an axially reduced evaluation set.

    For a d=3 continuum rule with an axis, evaluation points collapse to
    the (r, cos theta) half-plane grid: out_index maps every full node to
    its reduced representative, and out_weights carry the summed azimuthal
    weight.  In every other case the two sets coincide.  The arrays, those
    passed in among them, are made read-only, so that a system can be shared.
    """

    full_points: np.ndarray   # (Nf, d)
    full_weights: np.ndarray  # (Nf,)
    out_points: np.ndarray    # (No, d)
    out_weights: np.ndarray   # (No,)
    out_index: np.ndarray     # (Nf,) -> [0, No)
    full_sq: np.ndarray = field(init=False)  # (Nf,) |q'|^2, set on build

    def __post_init__(self):
        self.full_sq = np.sum(self.full_points * self.full_points, axis=-1)
        for arr in vars(self).values():
            arr.flags.writeable = False


def axis_of(p) -> np.ndarray:
    """Unit vector along the momentum p, or the last coordinate axis at
    p = 0: the axis of symmetry of the problem at p."""
    p = np.asarray(p, dtype=float)
    pmag = float(np.linalg.norm(p))
    if pmag > 0:
        return p / pmag
    ax = np.zeros(p.shape[0])
    ax[-1] = 1.0
    return ax


def _orthonormal_frame(axis: np.ndarray):
    e3 = axis / np.linalg.norm(axis)
    trial = np.array([1.0, 0.0, 0.0]) if abs(e3[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = trial - (trial @ e3) * e3
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return e1, e2, e3


def node_system(spec: QuadratureSpec, d: int, axis=None) -> NodeSystem:
    """Build the node system for dimension d.

    axis (d=3 continuum only): unit direction of axial symmetry; enables
    the azimuthal reduction of the evaluation set.  Continuum systems are
    shared from one bounded cache (keyed by the rule, d and the d=3 axis),
    a lattice's is built once per measure, and their arrays are read-only.
    """
    if spec.is_discrete:
        m = spec.measure
        if m.d != d:
            raise InputError(f"measure dimension {m.d} != requested dimension {d}")
        return m.node_system

    if d not in (1, 2, 3):
        raise InputError("continuum quadrature supports d in {1, 2, 3}")
    axis = tuple(float(x) for x in axis) if d == 3 and axis is not None else None
    return _continuum_system(spec.n_radial, spec.angular_degree,
                             float(spec.r_max), d, axis)


@lru_cache(maxsize=16)
def _continuum_system(n_radial, angular_degree, r_max, d, axis) -> NodeSystem:
    return _build_continuum(QuadratureSpec.continuum(n_radial, angular_degree, r_max),
                            d, axis)


def _build_continuum(spec, d, axis):
    r, wr = _radial_rule(spec)

    if d == 1:
        pts = np.concatenate([-r[::-1], r])[:, None]
        w = np.concatenate([wr[::-1], wr])
        idx = np.arange(pts.shape[0])
        return NodeSystem(pts, w, pts, w, idx)

    if d == 2:
        n_t = spec.angular_degree + 1
        theta = 2.0 * math.pi * np.arange(n_t) / n_t
        ct, st = np.cos(theta), np.sin(theta)
        pts = np.stack(
            [np.outer(r, ct).ravel(), np.outer(r, st).ravel()], axis=-1
        )
        w = np.outer(r * wr, np.full(n_t, 2.0 * math.pi / n_t)).ravel()
        idx = np.arange(pts.shape[0])
        return NodeSystem(pts, w, pts, w, idx)

    # d == 3
    n_u, n_phi = _angular_counts(spec.angular_degree)
    u, wu = np.polynomial.legendre.leggauss(n_u)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    if axis is None:
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        reduce = False
    else:
        e1, e2, e3 = _orthonormal_frame(np.asarray(axis, dtype=float))
        reduce = True

    s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    # full grid ordering: (radial, u, phi)
    R, U, PHI = np.meshgrid(r, u, phi, indexing="ij")
    S = np.sqrt(np.clip(1.0 - U * U, 0.0, None))
    dirs = (
        U[..., None] * e3
        + (S * np.cos(PHI))[..., None] * e1
        + (S * np.sin(PHI))[..., None] * e2
    )
    full_pts = (R[..., None] * dirs).reshape(-1, 3)
    WR, WU = np.meshgrid(r * r * wr, wu, indexing="ij")
    full_w = np.repeat((WR * WU).ravel(), n_phi) * (2.0 * math.pi / n_phi)

    if not reduce:
        idx = np.arange(full_pts.shape[0])
        return NodeSystem(full_pts, full_w, full_pts, full_w, idx)

    out_dirs = u[:, None] * e3 + s[:, None] * e1
    out_pts = (r[:, None, None] * out_dirs[None, :, :]).reshape(-1, 3)
    out_w = (2.0 * math.pi) * (WR * WU).ravel()
    idx = np.repeat(np.arange(out_pts.shape[0]), n_phi)
    return NodeSystem(full_pts, full_w, out_pts, out_w, idx)


def nodes(spec: QuadratureSpec, d: int):
    """Full node set: (points (N, d), weights (N,))."""
    ns = node_system(spec, d)
    return ns.full_points, ns.full_weights


def _weighted_sum(f, points, weights):
    vals = np.asarray(f(points), dtype=float)
    if vals.shape != (points.shape[0],):
        raise InputError("integrand must map (N, d) points to (N,) values")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericError(f"integrand is not finite at node {points[i]}")
    return float(vals @ weights)


def integrate(f, spec: QuadratureSpec, d: int):
    """Integral of f over R^d with the given rule.

    Returns (value, error_estimate).  The continuum estimate comes from
    doubling the radial node count and the angular degree; the discrete
    sum is exact with respect to its measure, so its estimate is 0.
    """
    if spec.is_discrete:
        pts, w = nodes(spec, d)
        return _weighted_sum(f, pts, w), 0.0
    coarse = _weighted_sum(f, *nodes(spec, d))
    fine_spec = replace(
        spec, n_radial=2 * spec.n_radial, angular_degree=2 * spec.angular_degree + 1
    )
    fine = _weighted_sum(f, *nodes(fine_spec, d))
    return fine, abs(fine - coarse)
