"""Brute-force truth source: the fiber Hamiltonian truncated to at most
N_max bosons on a discrete momentum lattice, its low spectrum, and
matched-discretization comparisons against the perturbative branches.

Basis and normalization: orthonormal occupancy states over the lattice
modes.  Writing w for the cell weight, a one-boson mode carries amplitude
alpha*sqrt(w)*c against the vacuum; a distinct pair {k,l} couples to mode
k with amplitude alpha*sqrt(w)*c(p-q_k-q_l; q_l) (and symmetrically), and
the doubly occupied state {k,k} carries the bosonic sqrt(2) enhancement.
This makes the matrix the exact image of the fiber operator under the
isometry from the 1/n!-weighted symmetric functions on the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import branches as branches_mod
from .errors import InputError, NumericError, ResourceError
from .model import ModelParams
from .selfenergy import clipped_proxy_margin
from .quadrature import DiscreteMeasure, QuadratureSpec

__all__ = [
    "TruncatedHamiltonian",
    "build",
    "low_spectrum",
    "compare_ground",
    "compare_dispersion",
    "GroundComparison",
    "DispersionComparison",
]

_DIM_BUDGET = 20_000  # max matrix dimension


@dataclass
class TruncatedHamiltonian:
    p: np.ndarray
    measure: DiscreteMeasure
    n_max: int
    sector_sizes: tuple
    pair_index: tuple          # (kk, ll) arrays for the two-boson sector
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def asymmetry(self) -> float:
        m = self.matrix
        scale = max(1.0, float(np.abs(m).max()))
        return float(np.abs(m - m.T).max()) / scale


def build(params: ModelParams, p, measure: DiscreteMeasure,
          n_max: int = 2) -> TruncatedHamiltonian:
    """Assemble the truncated fiber Hamiltonian on the lattice measure."""
    p = params._check_vec(p, "p")
    if n_max not in (1, 2):
        raise InputError("n_max must be 1 or 2")
    if measure.d != params.d:
        raise InputError("measure dimension does not match the model")
    q = measure.points
    n_pts = q.shape[0]
    w = measure.weight
    sqw = math.sqrt(w)
    alpha = params.alpha

    n2 = n_pts * (n_pts + 1) // 2 if n_max == 2 else 0
    dim = 1 + n_pts + n2
    if dim > _DIM_BUDGET:
        raise ResourceError(f"truncated basis of dimension {dim} exceeds the budget")

    H = np.zeros((dim, dim))
    e1 = 0.5 * np.sum((p[None, :] - q) ** 2, axis=-1) + params.eps(q)
    H[0, 0] = 0.5 * float(p @ p)
    H[np.arange(1, 1 + n_pts), np.arange(1, 1 + n_pts)] = e1
    c01 = alpha * sqw * params.coupling.evaluate(p[None, :] - q, q)
    H[0, 1:1 + n_pts] = c01
    H[1:1 + n_pts, 0] = c01

    kk = ll = None
    if n_max == 2:
        kk, ll = np.triu_indices(n_pts)
        off = 1 + n_pts
        qsum = q[kk] + q[ll]
        rest = p[None, :] - qsum
        e2 = (0.5 * np.sum(rest**2, axis=-1)
              + params.eps(q[kk]) + params.eps(q[ll]))
        cols = off + np.arange(kk.size)
        H[cols, cols] = e2
        amp_k = alpha * sqw * params.coupling.evaluate(rest, q[ll])
        amp_l = alpha * sqw * params.coupling.evaluate(rest, q[kk])
        diag_pair = kk == ll
        amp_k = np.where(diag_pair, amp_k * (math.sqrt(2.0) / 2.0), amp_k)
        amp_l = np.where(diag_pair, amp_l * (math.sqrt(2.0) / 2.0), amp_l)
        np.add.at(H, (1 + kk, cols), amp_k)
        np.add.at(H, (1 + ll, cols), amp_l)
        H[off:, 1:off] = H[1:off, off:].T

    return TruncatedHamiltonian(
        p=p, measure=measure, n_max=n_max,
        sector_sizes=(1, n_pts, n2), pair_index=(kk, ll), matrix=H,
    )


def low_spectrum(ham: TruncatedHamiltonian, k: int) -> np.ndarray:
    """k lowest eigenvalues, ascending, via a dense symmetric eigensolver."""
    if k < 1 or k > ham.dim:
        raise InputError(f"need 1 <= k <= {ham.dim}")
    try:
        vals = scipy.linalg.eigvalsh(ham.matrix, subset_by_index=[0, k - 1])
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"dense eigensolver failed: {exc}") from exc
    return np.sort(vals)


@dataclass
class GroundComparisonRow:
    alpha: float
    kappa: float
    oracle_e0: float
    solver_xi0: float
    diff: float
    diff_over_alpha4: float


@dataclass
class GroundComparison:
    p: np.ndarray
    n_max: int
    neumann_order: int
    rows: list


def compare_ground(params: ModelParams, p, measure: DiscreteMeasure,
                   kappa_fraction: float, alphas, neumann_order: int = 1,
                   n_max: int = 2, tol: float = 1e-10) -> GroundComparison:
    """Ground energy of the truncated oracle vs the perturbative ground
    branch evaluated with the oracle's own lattice sums, over an alpha
    ladder.  Agreement is exact through second order in alpha.

    The cap is set per alpha as a fraction of the gap to the two-boson
    proxy.  The proxy margin is clipped to half the free threshold gap so
    the comparison window survives the larger rungs of the ladder."""
    p = params._check_vec(p, "p")
    quad = QuadratureSpec.discrete(measure)
    rows = []
    for alpha in alphas:
        pa = replace(params, alpha=float(alpha))
        margin = clipped_proxy_margin(pa, p)
        kappa = branches_mod.kappa_from_rule(pa, p, "fraction", kappa_fraction,
                                             delta_margin=margin)
        ham = build(pa, p, measure, n_max=n_max)
        e0 = float(low_spectrum(ham, 1)[0])
        bp = branches_mod.ground_state(pa, p, kappa, neumann_order, quad, tol,
                                       delta_margin=margin)
        if bp.status != "converged":
            raise NumericError(f"solver ground branch missing at alpha={alpha}")
        diff = abs(e0 - bp.xi)
        ratio = diff / alpha**4 if alpha > 0 else math.nan
        rows.append(GroundComparisonRow(
            alpha=float(alpha), kappa=kappa, oracle_e0=e0, solver_xi0=bp.xi,
            diff=diff, diff_over_alpha4=ratio,
        ))
    return GroundComparison(p=p, n_max=n_max,
                            neumann_order=neumann_order, rows=rows)


@dataclass
class DispersionComparison:
    q: np.ndarray
    solver_xi: float
    nearest_eigenvalue: float | None
    gap: float | None
    window: tuple
    window_count: int
    matched: bool


def compare_dispersion(params: ModelParams, p, measure: DiscreteMeasure,
                       kappa: float, q, n_max: int = 2,
                       tol: float = 1e-10) -> DispersionComparison:
    """Match the solved one-boson dispersion at a grid momentum against
    the nearest truncated-oracle eigenvalue inside the window
    (lambda1 estimate, kappa)."""
    p = params._check_vec(p, "p")
    q = params._check_vec(q, "q")
    dists = np.linalg.norm(measure.points - q[None, :], axis=-1)
    if dists.min() > 1e-9:
        raise InputError("q must be a grid point of the measure")
    quad = QuadratureSpec.discrete(measure)
    bp = branches_mod.dispersion_point(params, p, q, kappa, quad, tol)
    if bp.status == "none":
        raise InputError("q is outside the one-boson domain for this cap")
    lam1 = branches_mod.lambda1(params, p, kappa, quad, tol)
    ham = build(params, p, measure, n_max=n_max)
    vals = scipy.linalg.eigvalsh(ham.matrix)
    window = (lam1 - tol, kappa)
    inside = vals[(vals >= window[0]) & (vals <= window[1])]
    if inside.size == 0:
        return DispersionComparison(q=q, solver_xi=bp.xi, nearest_eigenvalue=None,
                                    gap=None, window=window, window_count=0,
                                    matched=False)
    nearest = float(inside[np.argmin(np.abs(inside - bp.xi))])
    return DispersionComparison(q=q, solver_xi=bp.xi, nearest_eigenvalue=nearest,
                                gap=abs(nearest - bp.xi), window=window,
                                window_count=int(inside.size), matched=True)
