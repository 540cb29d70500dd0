"""Assembly of the spectral branches: one-boson dispersion and its domain,
the bottom of the one-boson manifold, the polaron ground branch and its
existence domain, the boundary merge, and the dispersion factorization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import model as model_mod
from . import roots
from .errors import DomainError, InputError, NumericError
from .friedrichs import FriedrichsSolver
from .model import ModelParams
from .quadrature import QuadratureSpec, axis_of
from .selfenergy import SelfEnergyTables, lambda2_proxy_value

__all__ = [
    "BranchPoint",
    "DomainMap",
    "GammaResult",
    "BoundaryResult",
    "kappa_from_rule",
    "dispersion_point",
    "one_boson_domain",
    "lambda1",
    "ground_state",
    "g0_boundary",
    "gamma_factor",
]

CAP_MARGIN = 1e-6
BOUNDARY_R_MAX = 8.0   # g0_boundary's scan gives up past this |p|


@dataclass
class BranchPoint:
    """A solved branch point.  `iterations` counts the evaluations of the
    scalar function being solved: g(xi) = a_p(xi; q) - xi and its slope at
    each Newton iterate from kappa for the dispersion, F(xi) = Delta_xi(xi)
    with bracketing and final residual for the ground branch."""

    q: np.ndarray
    xi: float | None
    iterations: int
    residual: float
    status: str  # converged | none | capped


@dataclass
class DomainMap:
    grid: np.ndarray          # (N, d) probe momenta
    membership: np.ndarray    # (N,) bool
    boundary: list            # [(direction, radius)]
    kappa: float | None
    points: list = field(default_factory=list)  # BranchPoints for members


@dataclass
class GammaResult:
    k: np.ndarray
    gamma: float
    gamma_second: float | None
    residual: float | None


@dataclass
class BoundaryResult:
    direction: np.ndarray
    r_star: float | None
    ladder: list              # [(delta, gap)]
    status: str               # converged | inconclusive


def kappa_from_rule(params: ModelParams, p, mode: str = "fraction",
                    value: float = 0.9,
                    delta_margin: float | None = None) -> float:
    """Resolve the cap: absolute energy, or lambda1_0 + value * gap where
    gap = lambda2-proxy - lambda1_0."""
    if mode == "absolute":
        return float(value)
    if mode != "fraction":
        raise InputError(f"unknown kappa rule {mode!r}")
    lam1_0 = model_mod.threshold(params, 1, p)
    proxy = lambda2_proxy_value(params, p, delta_margin)
    if proxy <= lam1_0:
        raise DomainError("two-boson proxy is not above the one-boson threshold")
    return lam1_0 + float(value) * (proxy - lam1_0)


def _check_cap(params, p, kappa, delta_margin=None):
    proxy = lambda2_proxy_value(params, p, delta_margin)
    if kappa > proxy + 1e-12:
        raise DomainError(
            f"kappa={kappa} exceeds the two-boson proxy {proxy:.6g} at this p"
        )


def dispersion_point(params: ModelParams, p, q, kappa: float,
                     quad: QuadratureSpec, tol: float = 1e-10,
                     check_cap: bool = True) -> BranchPoint:
    """Solve a_p(xi; q) = xi below the cap.

    g(xi) = a_p(xi; q) - xi is strictly decreasing and concave; q belongs
    to the one-boson domain iff g(kappa) < 0, in which case monotone Newton
    from kappa falls onto the unique root.  Each evaluation of g and of
    g'(xi) = m'(xi) - 1 is one row sum over the point's one-row table.
    """
    p = params._check_vec(p, "p")
    q = params._check_vec(q, "q")
    if check_cap:
        _check_cap(params, p, kappa)
    row = SelfEnergyTables(params, p, quad, q[None, :])

    @roots.Counted
    def g(xi):
        m, slope = row.m_slopes(xi)
        return float(row.e1_out[0] + m[0]) - xi, float(slope[0]) - 1.0

    root, g_root = roots.monotone_newton(g, kappa, tol)
    resid = abs(g_root)
    if root == kappa and g_root >= 0.0:
        return BranchPoint(q=q, xi=None, iterations=g.calls, residual=resid,
                           status="none")
    status = "converged" if resid <= tol * (1.0 + abs(root)) else "capped"
    return BranchPoint(q=q, xi=float(root), iterations=g.calls,
                       residual=resid, status=status)


def _cap_gap(params, p, kappa, quad, unit):
    """r -> a_p(kappa; r u) - kappa along the unit ray u, by one-row tables:
    smooth, and negative exactly inside the one-boson domain."""
    def gap(r):
        row = SelfEnergyTables(params, p, quad, (r * unit)[None, :])
        return float(row.a_values(kappa)[0]) - kappa
    return gap


def one_boson_domain(params: ModelParams, p, kappa: float, probes,
                     quad: QuadratureSpec, tol: float = 1e-10,
                     rays=None) -> DomainMap:
    """Membership map of the one-boson domain over the probe momenta,
    with solved branch points for members and boundary radii along the
    requested rays, each a Brent root of a_p(kappa; r u) - kappa."""
    p = params._check_vec(p, "p")
    _check_cap(params, p, kappa)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    membership = np.zeros(probes.shape[0], dtype=bool)
    points = []
    for i, q in enumerate(probes):
        bp = dispersion_point(params, p, q, kappa, quad, tol, check_cap=False)
        membership[i] = bp.status != "none"
        if membership[i]:
            points.append(bp)
    axis = axis_of(p)
    if rays is None:
        rays = [axis, -axis]
    boundary = []
    t_seed = model_mod.collinear_minimizer(params, 1, float(np.linalg.norm(p)))
    for ray in rays:
        ray = np.asarray(ray, dtype=float)
        unit = ray / np.linalg.norm(ray)
        # seed at the point of the ray nearest the free minimizer; the
        # cosine from the chord is exactly 1 for a ray along the axis
        cos = 1.0 - 0.5 * float((unit - axis) @ (unit - axis))
        seed = max(t_seed * cos, 1e-3)
        gap = _cap_gap(params, p, kappa, quad, unit)
        radius = roots.root_beyond(gap, seed, seed + 1.0) if gap(seed) < 0.0 else None
        boundary.append((unit, radius))
    return DomainMap(grid=probes, membership=membership, boundary=boundary,
                     kappa=kappa, points=points)


def lambda1(params: ModelParams, p, kappa: float, quad: QuadratureSpec,
            tol: float = 1e-10, delta_margin: float | None = None) -> float:
    """Bottom of the one-boson dispersion manifold: minimize the solved
    xi_p(q) over on-axis q (radial models reduce to a scalar search),
    between the domain's edges found outward from the free minimizer."""
    p = params._check_vec(p, "p")
    _check_cap(params, p, kappa, delta_margin)
    axis = axis_of(p)
    t0 = model_mod.collinear_minimizer(params, 1, float(np.linalg.norm(p)))
    gap = _cap_gap(params, p, kappa, quad, axis)
    if not gap(t0) < 0.0:
        raise DomainError(
            "one-boson domain is empty along the axis; raise kappa"
        )
    hi = roots.root_beyond(gap, t0, t0 + 1.0)
    lo = roots.root_beyond(gap, t0, t0 - 1.0)

    def xi_at(t):
        bp = dispersion_point(params, p, t * axis, kappa, quad, tol,
                              check_cap=False)
        return bp.xi if bp.xi is not None else kappa

    pad = 1e-9 * (1.0 + abs(hi) + abs(lo))
    res = minimize_scalar(xi_at, bounds=(lo + pad, hi - pad), method="bounded",
                          options={"xatol": 1e-8})
    if not res.success:
        raise NumericError(f"lambda1 minimization failed: {res.message}")
    return float(res.fun)


def _ground_determinant(params, p, neumann_order, quad, tol, lam1):
    """(F, hi) at p: F(xi) = Delta_xi(xi), counted, read from the tables at
    p, and hi = lam1 - max(tol, 1e-9), the top of its search range.  F is
    None when hi is not below the continuum edge of the operator at hi."""
    tables = SelfEnergyTables(params, p, quad)
    e0 = 0.5 * float(p @ p)

    def operator(xi):
        return FriedrichsSolver.from_tables(tables, xi, e0, neumann_order)

    hi = lam1 - max(tol, 1e-9)
    if hi >= operator(hi).edge()[0]:
        return None, hi
    return roots.Counted(lambda xi: operator(xi).delta(xi, neumann_order)), hi


def ground_state(params: ModelParams, p, kappa: float, neumann_order: int,
                 quad: QuadratureSpec, tol: float = 1e-10,
                 lam1: float | None = None,
                 delta_margin: float | None = None) -> BranchPoint:
    """Polaron ground branch: solve e_p(xi) = xi for xi below lambda1(p).

    e_p(xi) is the discrete Friedrichs eigenvalue of the reduced operator
    at trial energy xi: the unique root below the continuum edge of the
    determinant Delta_xi(z).  So xi0 is the root of F(xi) = Delta_xi(xi),
    found by Brent's method; F decreases in xi.  The edge is searched once,
    at hi = lambda1 - max(tol, 1e-9): a(xi; q) - xi grows as xi falls, so
    every xi below hi is below its edge too.  Status is 'none' when hi is
    not below the edge or F(hi) >= 0 (p outside the ground domain).
    `iterations` counts the evaluations of F.  The residual |F(xi0)|
    bounds |e_p(xi0) - xi0| from above, since |dDelta/dz| >= 1.
    """
    p = params._check_vec(p, "p")
    _check_cap(params, p, kappa, delta_margin)
    if lam1 is None:
        lam1 = lambda1(params, p, kappa, quad, tol, delta_margin=delta_margin)
    f, hi = _ground_determinant(params, p, neumann_order, quad, tol, lam1)
    if f is None:
        return BranchPoint(q=p, xi=None, iterations=0, residual=math.inf,
                           status="none")
    f_hi = f(hi)
    if f_hi >= 0.0:
        return BranchPoint(q=p, xi=None, iterations=f.calls, residual=f_hi,
                           status="none")
    root = roots.root_beyond(f, hi, min(0.5 * float(p @ p), hi) - 1.0)
    resid = abs(f(root))
    status = "converged" if resid <= tol * (1.0 + abs(root)) else "capped"
    return BranchPoint(q=p, xi=float(root), iterations=f.calls,
                       residual=resid, status=status)


def g0_boundary(params: ModelParams, direction, quad: QuadratureSpec,
                tol: float = 1e-10, deltas=(0.1, 0.03, 0.01),
                kappa_mode: str = "fraction", kappa_value: float = 0.9,
                neumann_order: int = 1) -> BoundaryResult:
    """Boundary of the ground-branch existence domain along a ray, plus
    the gap ladder lambda1 - xi0 at distances delta inside the boundary.

    The ground state exists at p = r u where F_r(hi) < 0, with F and hi of
    `ground_state` (+inf when hi is not below the edge).  r steps by 1 from
    0 up to BOUNDARY_R_MAX; r* is Brent's root of F_r(hi) inside the first
    failing step, which need not be the first exit from the existence set
    when that set is not an interval along the ray."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)

    def setup(r):
        p = r * direction
        kappa = kappa_from_rule(params, p, kappa_mode, kappa_value)
        return p, kappa, lambda1(params, p, kappa, quad, tol)

    @functools.cache
    def f_top(r):
        p, _, lam1 = setup(r)
        f, hi = _ground_determinant(params, p, neumann_order, quad, tol, lam1)
        return math.inf if f is None else f(hi)

    if not f_top(0.0) < 0.0:
        raise DomainError("no ground state at p=0; boundary scan undefined")
    r_in, r_out = 0.0, 1.0
    while f_top(r_out) < 0.0:
        r_in, r_out = r_out, r_out + 1.0
        if r_in >= BOUNDARY_R_MAX:
            return BoundaryResult(direction=direction, r_star=None, ladder=[],
                                  status="inconclusive")
    r_star = roots.root(f_top, r_in, r_out)
    ladder = []
    for dlt in deltas:
        p, kappa, lam1 = setup(r_star - dlt)
        bp = ground_state(params, p, kappa, neumann_order, quad, tol, lam1=lam1)
        if bp.status != "converged":
            raise NumericError(f"ground state lost at delta={dlt} inside the boundary")
        ladder.append((float(dlt), float(lam1 - bp.xi)))
    return BoundaryResult(direction=direction, r_star=float(r_star),
                          ladder=ladder, status="converged")


def gamma_factor(params: ModelParams, p, q, kappa: float,
                 quad: QuadratureSpec, tol: float = 1e-10,
                 second_pair=None) -> GammaResult:
    """Dressed-particle dispersion gamma(p - q) = xi_p(q) - eps(q), with a
    factorization residual from a second pair sharing the same p - q."""
    p = params._check_vec(p, "p")
    q = params._check_vec(q, "q")
    bp = dispersion_point(params, p, q, kappa, quad, tol)
    if bp.status == "none":
        raise DomainError("q is outside the one-boson domain for this cap")
    k = p - q
    gamma = bp.xi - float(params.eps(q))
    if second_pair is None:
        shift = np.zeros(params.d)
        shift[0] = 0.1
        second_pair = (p + shift, q + shift)
    p2 = params._check_vec(second_pair[0], "p2")
    q2 = params._check_vec(second_pair[1], "q2")
    if not np.allclose(p2 - q2, k, atol=1e-12):
        raise InputError("second pair must preserve p - q")
    bp2 = dispersion_point(params, p2, q2, kappa, quad, tol)
    if bp2.status == "none":
        return GammaResult(k=k, gamma=gamma, gamma_second=None, residual=None)
    gamma2 = bp2.xi - float(params.eps(q2))
    return GammaResult(k=k, gamma=gamma, gamma_second=gamma2,
                       residual=abs(gamma - gamma2))
