"""Direct references the tests check the library against: a quadrature
sum of a callable over a rule's nodes, the leading two-point kernel at one
pair of momenta, the oracle's blocks assembled pair by pair, and its Schur
complement assembled afresh at each sigma."""

import math
from dataclasses import replace

import numpy as np

from polaron.errors import DomainError, InputError, NumericError
from polaron.quadrature import QuadratureSpec, nodes
from polaron.selfenergy import DENOM_MARGIN


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


def _e2_scalar(params, p, q1, q2):
    total = np.asarray(p, float) - np.asarray(q1, float) - np.asarray(q2, float)
    return 0.5 * float(total @ total) + float(params.eps(q1)) + float(params.eps(q2))


def d2_leading(params, p, xi: float, q, qp) -> float:
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


def schur_per_sigma(ham, sigma: float) -> np.ndarray:
    """S(sigma) = h11 - sigma - B (D - sigma)^-1 B^T of a
    `TruncatedHamiltonian`, with every index and amplitude product formed
    at this sigma, in the multiply order of `TruncatedHamiltonian.schur`."""
    n1 = ham.h11.shape[0]
    ra, rb = ham.pair_rows.T
    aa, ab = ham.pair_amps.T
    w = 1.0 / (ham.pair_diag - sigma)
    cross = aa * ab * w
    terms = np.bincount(
        np.concatenate([ra * n1 + ra, rb * n1 + rb, ra * n1 + rb, rb * n1 + ra]),
        np.concatenate([aa * aa * w, ab * ab * w, cross, cross]),
        minlength=n1 * n1)
    s = ham.h11 - terms.reshape(n1, n1)
    s[np.diag_indices(n1)] -= sigma
    return s


def oracle_blocks_per_pair(params, p, measure, n_max):
    """(h11, pair_diag, pair_rows, pair_amps) of `oracle.build`, with eps,
    the coupling and p - q_k - q_l evaluated afresh for each pair at unit
    coupling, then scaled to params.alpha as `TruncatedHamiltonian.scaled`
    does."""
    p = np.asarray(p, dtype=float)
    q = measure.points
    n_pts = q.shape[0]
    amp = math.sqrt(measure.weight)
    e1 = 0.5 * np.sum((p[None, :] - q) ** 2, axis=-1) + params.eps(q)
    h11 = np.diag(np.concatenate(([0.5 * float(p @ p)], e1)))
    h11[0, 1:] = h11[1:, 0] = amp * params.coupling.evaluate(p[None, :] - q, q)
    kk, ll = np.triu_indices(n_pts) if n_max == 2 else (np.empty(0, int),) * 2
    rest = p[None, :] - (q[kk] + q[ll])
    e2 = 0.5 * np.sum(rest**2, axis=-1) + params.eps(q[kk]) + params.eps(q[ll])
    amp_k = amp * params.coupling.evaluate(rest, q[ll])
    amp_l = amp * params.coupling.evaluate(rest, q[kk])
    same, half = kk == ll, math.sqrt(2.0) / 2.0
    amps = np.stack([np.where(same, amp_k * half + amp_l * half, amp_k),
                     np.where(same, 0.0, amp_l)], axis=1)
    h11[0, 1:] *= params.alpha
    h11[1:, 0] *= params.alpha
    return h11, e2, np.stack([1 + kk, 1 + ll], axis=1), amps * params.alpha


def sparse_matrix(ham):
    """The truncated matrix of a `TruncatedHamiltonian` in CSR form, from
    its blocks, for a Lanczos reference where the dense matrix is too
    large."""
    import scipy.sparse

    n1, dim = ham.h11.shape[0], ham.dim
    pairs = np.arange(n1, dim)
    r, c = np.nonzero(ham.h11)
    rows = [r, pairs] + [ham.pair_rows[:, i] for i in (0, 1)] + [pairs, pairs]
    cols = [c, pairs, pairs, pairs] + [ham.pair_rows[:, i] for i in (0, 1)]
    amps = [ham.pair_amps[:, 0], ham.pair_amps[:, 1]]
    vals = [ham.h11[r, c], ham.pair_diag] + amps + amps
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim))
