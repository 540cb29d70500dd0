"""Brute-force truth source: the fiber Hamiltonian truncated to at most
N_max bosons on a discrete momentum lattice, assembled as a sparse CSR
matrix; its low spectrum by Lanczos; and matched-discretization
comparisons against the perturbative branches.

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
import scipy.sparse
import scipy.sparse.linalg

from . import branches as branches_mod
from .errors import InputError, NumericError, ResourceError
from .model import ModelParams
from .selfenergy import clipped_proxy_margin, lambda2_proxy_value
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
    csr: scipy.sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense copy of the matrix, built on each access.  Of the solvers
        only `low_spectrum`'s dense fallback reads it."""
        return self.csr.toarray()

    def asymmetry(self) -> float:
        m = self.csr
        scale = max(1.0, float(abs(m).max()))
        return float(abs(m - m.T).max()) / scale


def build(params: ModelParams, p, measure: DiscreteMeasure,
          n_max: int = 2) -> TruncatedHamiltonian:
    """Assemble the truncated fiber Hamiltonian on the lattice measure as
    a sparse CSR matrix."""
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

    # COO triplets; the two-boson block is diagonal and each pair couples
    # to at most two one-boson modes.  Duplicates ({k,k} pairs) are summed
    # on conversion.
    modes = np.arange(1, 1 + n_pts)
    vac = np.zeros(n_pts, dtype=int)
    e1 = 0.5 * np.sum((p[None, :] - q) ** 2, axis=-1) + params.eps(q)
    c01 = alpha * sqw * params.coupling.evaluate(p[None, :] - q, q)
    rows = [vac[:1], modes, vac, modes]
    cols = [vac[:1], modes, modes, vac]
    vals = [np.array([0.5 * float(p @ p)]), e1, c01, c01]

    if n_max == 2:
        kk, ll = np.triu_indices(n_pts)
        qsum = q[kk] + q[ll]
        rest = p[None, :] - qsum
        e2 = (0.5 * np.sum(rest**2, axis=-1)
              + params.eps(q[kk]) + params.eps(q[ll]))
        pairs = 1 + n_pts + np.arange(kk.size)
        amp_k = alpha * sqw * params.coupling.evaluate(rest, q[ll])
        amp_l = alpha * sqw * params.coupling.evaluate(rest, q[kk])
        diag_pair = kk == ll
        amp_k = np.where(diag_pair, amp_k * (math.sqrt(2.0) / 2.0), amp_k)
        amp_l = np.where(diag_pair, amp_l * (math.sqrt(2.0) / 2.0), amp_l)
        rows += [pairs, 1 + kk, 1 + ll, pairs, pairs]
        cols += [pairs, pairs, pairs, 1 + kk, 1 + ll]
        vals += [e2, amp_k, amp_l, amp_k, amp_l]

    coo = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    return TruncatedHamiltonian(p=p, measure=measure, n_max=n_max,
                                csr=coo.tocsr())


def low_spectrum(ham: TruncatedHamiltonian, k: int) -> np.ndarray:
    """k lowest eigenvalues, ascending, by implicitly restarted Lanczos
    (ARPACK) on the CSR matrix.  The start vector is fixed, so reruns are
    bit-identical.

    The lattice spectrum has tight clusters and repeated eigenvalues.
    ARPACK stalls when the last requested eigenvalue falls inside a
    cluster, and a single Krylov sequence can skip a copy of a repeated
    eigenvalue; the result is checked against the inertia count.  After
    a stall or a failed check the request is doubled.  Only where ARPACK
    cannot run (at least dim - 1 eigenvalues) is the matrix densified for
    a dense symmetric eigensolver."""
    dim = ham.dim
    if k < 1 or k > dim:
        raise InputError(f"need 1 <= k <= {dim}")
    m = k
    while m < dim - 1:
        try:
            # with fewer than 64 Lanczos vectors ARPACK often stalls near
            # a cluster; converging runs here need well under 100 restarts
            vals = scipy.sparse.linalg.eigsh(
                ham.csr, m, which="SA", v0=np.ones(dim),
                ncv=min(dim, max(2 * m + 1, 64)), maxiter=100,
                return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackNoConvergence:
            pass  # stalled: ask for more
        except scipy.sparse.linalg.ArpackError as exc:
            raise NumericError(f"Lanczos eigensolver failed: {exc}") from exc
        else:
            vals = np.sort(vals)[:k]
            if _complete(ham, vals):
                return vals
        m *= 2
    try:
        return scipy.linalg.eigvalsh(ham.matrix, subset_by_index=[0, k - 1])
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"dense eigensolver failed: {exc}") from exc


def _count_below(ham: TruncatedHamiltonian, sigma: float) -> int:
    """Number of eigenvalues below sigma, by Sylvester's law of inertia:
    the inertia of H - sigma is that of the diagonal two-boson block
    D - sigma plus that of its Schur complement on the vacuum and
    one-boson modes, a small dense matrix."""
    n1 = 1 + ham.measure.points.shape[0]
    h = ham.csr
    shifted = h.diagonal()[n1:] - sigma
    b = h[:n1, n1:]
    schur = (h[:n1, :n1] - b.multiply(1.0 / shifted[None, :]) @ b.T).toarray()
    schur[np.diag_indices(n1)] -= sigma
    return (int(np.count_nonzero(shifted < 0.0))
            + int(np.count_nonzero(np.linalg.eigvalsh(schur) < 0.0)))


def _complete(ham: TruncatedHamiltonian, vals: np.ndarray) -> bool:
    """Whether sorted eigenvalues vals are the lowest ones, repeats
    included: just below each distinct value, the inertia count must
    equal the number of values under it.  Values closer than sep count
    as one repeated eigenvalue."""
    sep = 1e-12 * max(1.0, float(np.abs(vals).max()))
    starts = np.concatenate(([0], np.flatnonzero(np.diff(vals) > sep) + 1))
    return all(_count_below(ham, vals[j] - sep) == j for j in starts)


@dataclass
class GroundComparisonRow:
    alpha: float
    kappa: float
    lambda2_proxy: float      # the two-boson proxy kappa was set against
    oracle_e0: float
    solver_xi0: float
    diff: float
    diff_scaled: float        # diff / alpha^(2n+4) at Neumann order n


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
    ladder.  At Neumann order n the gap is O(alpha^(2n+4)): the truncated
    series drops terms of order alpha^(2n+2) inside an alpha^2 prefactor.

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
        lam1 = branches_mod.lambda1(pa, p, kappa, quad, tol, delta_margin=margin)
        bp = branches_mod.ground_state(pa, p, lam1, neumann_order, quad, tol)
        if bp.status != "converged":
            raise NumericError(f"solver ground branch missing at alpha={alpha}")
        diff = abs(e0 - bp.xi)
        ratio = diff / alpha ** (2 * neumann_order + 4) if alpha > 0 else math.nan
        rows.append(GroundComparisonRow(
            alpha=float(alpha), kappa=kappa,
            lambda2_proxy=lambda2_proxy_value(pa, p, margin), oracle_e0=e0,
            solver_xi0=bp.xi, diff=diff, diff_scaled=ratio,
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
    (lambda1 estimate, kappa).  Only the eigenvalues below kappa are
    computed: their number comes from the matrix inertia, and that many
    are taken from the bottom of the spectrum by Lanczos."""
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
    n_low = _count_below(ham, kappa)
    vals = low_spectrum(ham, n_low) if n_low else np.empty(0)
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
