"""Assembly of the spectral branches: one-boson dispersion and its domain,
the bottom of the one-boson manifold, the polaron ground branch and its
existence domain, the boundary merge, and the dispersion factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import model as model_mod
from . import roots
from .errors import DomainError, InputError, NumericError
from .friedrichs import EDGE_MARGIN, FriedrichsSolver
from .model import ModelParams
from .quadrature import QuadratureSpec, axis_of
from .selfenergy import SelfEnergyTables

__all__ = [
    "Cap",
    "BranchPoint",
    "DomainMap",
    "GammaResult",
    "BoundaryResult",
    "lambda2_proxy_value",
    "cap",
    "kappa_from_rule",
    "dispersion_point",
    "one_boson_domain",
    "lambda1",
    "ground_state",
    "g0_boundary",
    "gamma_factor",
]

BOUNDARY_R_MAX = 8.0   # g0_boundary's scan gives up past this |p|


@dataclass
class BranchPoint:
    """A solved branch point.  `iterations` counts the evaluations of the
    scalar function being solved: g(xi) = a_p(xi; q) - xi at each Newton
    iterate from min(e1, kappa) for the dispersion, where e1 is the free
    energy |p - q|^2 / 2 + eps(q) (its slope, taken only where Newton
    steps, is not counted), F(xi) = Delta_xi(xi) at each distinct point
    of the bracket and root for the ground branch."""

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
    points: list = field(default_factory=list)  # one BranchPoint per probe


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


class Cap(NamedTuple):
    kappa: float
    proxy: float              # the two-boson proxy kappa is checked against
    lambda2_0: float          # the free two-boson threshold the proxy is below


def cap(params: ModelParams, p, mode: str = "fraction", value: float = 0.9,
        clipped: bool = False) -> Cap:
    """kappa = value (absolute) or lambda1_0 + value * (proxy - lambda1_0)
    (fraction), refused unless kappa <= proxy + 1e-12 (so NaN is refused).
    proxy = lambda2_0(p) - max(10 alpha^2 ||h||^2, 1e-3), a margin for the
    O(alpha^2) edge shift, which `clipped` caps at half the free gap
    lambda2_0 - lambda1_0 to keep the window open at a ladder's larger
    couplings.  Each threshold is evaluated at most once, lambda2_0 alone
    for the absolute rule without `clipped`."""
    if mode not in ("absolute", "fraction"):
        raise InputError(f"unknown kappa rule {mode!r}")
    lam2_0 = model_mod.threshold(params, 2, p)
    lam1_0 = model_mod.threshold(params, 1, p) if clipped or mode == "fraction" else None
    margin = max(10.0 * params.alpha**2 * params.coupling.h_norm_sq(params.d), 1e-3)
    if clipped:
        margin = min(margin, 0.5 * (lam2_0 - lam1_0))
    proxy = lam2_0 - margin
    if mode == "absolute":
        kappa = float(value)
    elif proxy <= lam1_0:
        raise DomainError("two-boson proxy is not above the one-boson threshold")
    else:
        kappa = lam1_0 + float(value) * (proxy - lam1_0)
    if not kappa <= proxy + 1e-12:
        raise DomainError(
            f"kappa={kappa} exceeds the two-boson proxy {proxy:.6g} at this p"
        )
    return Cap(kappa, proxy, lam2_0)


def lambda2_proxy_value(params: ModelParams, p, clipped: bool = False) -> float:
    """Computable stand-in for the variational two-boson edge, which has no
    closed expression: the proxy of `cap`, read off a cap of -inf."""
    return cap(params, p, "absolute", -math.inf, clipped).proxy


def kappa_from_rule(params: ModelParams, p, mode: str = "fraction",
                    value: float = 0.9, clipped: bool = False) -> float:
    """The kappa of `cap`."""
    return cap(params, p, mode, value, clipped).kappa


def dispersion_point(params: ModelParams, p, q, kappa: float,
                     quad: QuadratureSpec, tol: float = 1e-10) -> BranchPoint:
    """Solve a_p(xi; q) = xi below the cap.

    g(xi) = a_p(xi; q) - xi is strictly decreasing and concave; q belongs
    to the one-boson domain iff g(kappa) < 0, in which case monotone Newton
    falls onto the unique root from any start where g <= 0.  At the free
    energy e1 = |p - q|^2 / 2 + eps(q), g(e1) = m(e1) <= 0, so e1 < kappa
    makes q a member without evaluating g at kappa, and Newton starts at
    min(e1, kappa).  g and g'(xi) = m'(xi) - 1 are read from the point's
    own one-point `SelfEnergyTables`, its row of a table bit for bit: g is
    one pass of quotients and one row sum, and g' divides g's quotients
    once more, only at an iterate that Newton steps from.
    """
    cap(params, p, "absolute", kappa)
    return _dispersion_solve(params, p, q, kappa, quad, tol)


def _dispersion_solve(params, p, q, kappa, quad, tol):
    """`dispersion_point` for a caller that has checked the cap at p."""
    q = params._check_vec(q, "q")
    row = SelfEnergyTables(params, p, quad, q)
    row.check(kappa)  # Newton may start below kappa and never evaluate there
    root, g_root, calls = roots.monotone_newton(row.g, row.slope,
                                                min(float(row.e1), kappa), tol)
    resid = abs(g_root)
    if root == kappa and g_root >= 0.0:
        return BranchPoint(q=q, xi=None, iterations=calls, residual=resid,
                           status="none")
    status = "converged" if resid <= tol * (1.0 + abs(root)) else "capped"
    return BranchPoint(q=q, xi=float(root), iterations=calls,
                       residual=resid, status=status)


def _unit(v, name):
    """v / |v|, refusing a zero, infinite or NaN length."""
    norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:
        raise InputError(f"{name} must have a finite, nonzero length")
    return np.asarray(v, dtype=float) / norm


def _cap_gap(params, p, kappa, quad, unit):
    """r -> a_p(kappa; r u) - kappa along the unit ray u, counted, each from
    the point's own one-point `SelfEnergyTables`: smooth, and negative
    exactly inside the one-boson domain."""
    @roots.Counted
    def gap(r):
        return SelfEnergyTables(params, p, quad, r * unit).g(kappa)
    return gap


def one_boson_domain(params: ModelParams, p, kappa: float, probes,
                     quad: QuadratureSpec, tol: float = 1e-10,
                     rays=None) -> DomainMap:
    """Membership map of the one-boson domain over the probe momenta,
    with the solved branch point at each probe, in probe order, and
    boundary radii along the requested rays, each a Brent root of
    a_p(kappa; r u) - kappa."""
    p = params._check_vec(p, "p")
    cap(params, p, "absolute", kappa)
    axis = axis_of(p)
    units = [_unit(ray, "ray") for ray in ([axis, -axis] if rays is None else rays)]
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    points = [_dispersion_solve(params, p, q, kappa, quad, tol) for q in probes]
    membership = np.array([bp.status != "none" for bp in points], dtype=bool)
    boundary = []
    # the free minimizer seeds the rays only: solve it when there are rays
    t_seed = (model_mod.collinear_minimizer(params, 1, float(np.linalg.norm(p)))
              if units else None)
    for unit in units:
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
            tol: float = 1e-10, clipped: bool = False) -> float:
    """Bottom of the one-boson dispersion manifold: minimize the solved
    xi_p(t u) over on-axis q = t u (radial models reduce to a scalar
    search), to the argmin tolerance roots.MIN_XATOL.

    Outside the domain (status none) the minimized function is
    kappa + g(kappa), where g(kappa) = a_p(kappa; t u) - kappa >= 0 is the
    solve's residual.  It is continuous at the domain's edges, where
    xi -> kappa and g(kappa) -> 0, and rises away from the domain, so the
    search sees no flat region.  `roots.min_beyond` brackets it by the
    first sample outside the domain (xi >= kappa) on each side of the free
    minimizer t0, doubling the step from 1.  `clipped` checks kappa
    against the clipped proxy."""
    p = params._check_vec(p, "p")
    cap(params, p, "absolute", kappa, clipped)
    axis = axis_of(p)
    t0 = model_mod.collinear_minimizer(params, 1, float(np.linalg.norm(p)))

    @roots.Counted
    def xi_at(t):
        bp = _dispersion_solve(params, p, t * axis, kappa, quad, tol)
        return kappa + bp.residual if bp.status == "none" else bp.xi

    if not xi_at(t0) < kappa:
        raise DomainError(
            "one-boson domain is empty along the axis; raise kappa"
        )
    return roots.min_beyond(xi_at, t0, kappa, roots.MIN_XATOL)[0]


def _ground_determinant(params, p, neumann_order, quad, tol, lam1):
    """(F, hi) at p: F(xi) = Delta_xi(xi), counted, read from the tables at
    p, and hi = lam1 - max(tol, EDGE_MARGIN), the top of its search range.
    F is None when hi is not below the continuum edge of the operator at hi.
    F(hi) is taken from that operator at once and kept as F's first value,
    so the operator and its kernel matrix (built on its first determinant
    of order >= 1; the edge does not read it) go before any other xi."""
    tables = SelfEnergyTables(params, p, quad)
    e0 = 0.5 * float(p @ p)

    def operator(xi):
        return FriedrichsSolver.from_tables(tables, xi, e0)

    hi = lam1 - max(tol, EDGE_MARGIN)
    top = operator(hi)
    if hi >= top.edge()[0]:
        return None, hi
    f = roots.Counted(lambda xi: operator(xi).delta(xi, neumann_order))
    f.values[hi] = top.delta(hi, neumann_order)
    return f, hi


def ground_state(params: ModelParams, p, lam1: float, neumann_order: int,
                 quad: QuadratureSpec, tol: float = 1e-10) -> BranchPoint:
    """Polaron ground branch: solve e_p(xi) = xi for xi below lam1, the
    bottom lambda1(p) of the one-boson manifold.

    e_p(xi) is the discrete Friedrichs eigenvalue of the reduced operator
    at trial energy xi: the unique root below the continuum edge of the
    determinant Delta_xi(z).  So xi0 is the root of F(xi) = Delta_xi(xi),
    found by Brent's method; F decreases in xi.  The edge is found once,
    at hi = lam1 - max(tol, EDGE_MARGIN), with the edge stand-off
    `friedrichs.EDGE_MARGIN` = 1e-9, by `FriedrichsSolver.edge`: the least
    of a over the evaluation set and along the p axis, where it is refined
    from the evaluation set's argmin.  a(xi; q) - xi grows as xi falls, so
    every xi below hi is below its edge too.  Status is 'none' when hi is
    not below the edge or F(hi) >= 0 (p outside the ground domain).
    `iterations` counts the points where F is evaluated, none of them
    twice.  The residual |F(xi0)| bounds |e_p(xi0) - xi0| from above,
    since |dDelta/dz| >= 1.
    """
    p = params._check_vec(p, "p")
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
    direction = _unit(direction, "direction")

    def setup(r):
        p = r * direction
        kappa = kappa_from_rule(params, p, kappa_mode, kappa_value)
        return p, lambda1(params, p, kappa, quad, tol)

    @roots.Counted
    def f_top(r):
        p, lam1 = setup(r)
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
        p, lam1 = setup(r_star - dlt)
        bp = ground_state(params, p, lam1, neumann_order, quad, tol)
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
    k = p - q
    if second_pair is None:
        shift = np.zeros(params.d)
        shift[0] = 0.1
        second_pair = (p + shift, q + shift)
    p2 = params._check_vec(second_pair[0], "p2")
    q2 = params._check_vec(second_pair[1], "q2")
    if not np.abs(p2 - q2 - k).max() <= 1e-12 * (1.0 + math.sqrt(k @ k)):
        raise InputError("second pair must preserve p - q to 1e-12 (1 + |p - q|)")
    bp = dispersion_point(params, p, q, kappa, quad, tol)
    if bp.status == "none":
        raise DomainError("q is outside the one-boson domain for this cap")
    gamma = bp.xi - float(params.eps(q))
    bp2 = dispersion_point(params, p2, q2, kappa, quad, tol)
    if bp2.status == "none":
        return GammaResult(k=k, gamma=gamma, gamma_second=None, residual=None)
    gamma2 = bp2.xi - float(params.eps(q2))
    return GammaResult(k=k, gamma=gamma, gamma_second=gamma2,
                       residual=abs(gamma - gamma2))
