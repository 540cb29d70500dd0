"""Brute-force truth source: the fiber Hamiltonian truncated to at most
N_max bosons on a discrete momentum lattice, held in blocks; its low
spectrum from the Schur complement onto the vacuum and one-boson modes;
and matched-discretization comparisons against the perturbative branches.

Basis and normalization: orthonormal occupancy states over the lattice
modes.  Writing w for the cell weight, a one-boson mode carries amplitude
alpha*sqrt(w)*c against the vacuum; a distinct pair {k,l} couples to mode
k with amplitude alpha*sqrt(w)*c(p-q_k-q_l; q_l) (and symmetrically), and
the doubly occupied state {k,k} carries the bosonic sqrt(2) enhancement.
This makes the matrix the exact image of the fiber operator under the
isometry from the 1/n!-weighted symmetric functions on the lattice.

Spectrum: the two-boson block D is diagonal, so below its least entry
D_min it is eliminated exactly (the Feshbach reduction of Bach, Froehlich
& Sigal, Adv. Math. 137, 1998).  By Sylvester's law, H has as many
eigenvalues below sigma as the Schur complement
S(sigma) = H11 - sigma - B (D - sigma)^-1 B^T on the vacuum and one-boson
modes has negative ones.  The j-th eigenvalue g_j(sigma) of S falls with
slope at most -1 (dS/dsigma = -I - B (D - sigma)^-2 B^T <= -I), so the j-th
eigenvalue of H is the unique root of g_j, repeats included.  Since
S(sigma) is h11 - sigma less a positive semidefinite term, Weyl's
inequality gives g_j(lambda_j(h11)) <= 0: the spectrum at n_max = 1 bounds
each root from above, and the slope bound puts the root within |g_j(s)| of
any s where g_j(s) < 0.  h11 is an arrow matrix, so its least eigenvalue,
where root 0 starts, is also the root of a secular equation (`_least_free`).

The ground level alone goes one step further, onto the vacuum.  Pairs never
touch the vacuum row, so S(sigma) = [[h00 - sigma, c^T], [c, M(sigma)]] with
c = h11[0, 1:] and M(sigma) = S(sigma)[1:, 1:]; dM/dsigma <= -I.  Where one
Cholesky factorization certifies M(s0) positive definite at the start s0,
M stays so for every sigma <= s0, and Haynsworth's inertia formula counts
the eigenvalues of H below such a sigma as [f(sigma) < 0], with the secular
function f(sigma) = h00 - sigma - c^T M(sigma)^-1 c (Golub, SIAM Rev. 15,
1973).  f is concave with f' = -1 - |x|^2 - |(D - sigma)^-1 B^T x|^2 <= -1,
x = M(sigma)^-1 c, so monotone Newton falls from s0 onto the ground energy:
one complement and one linear solve per sigma, no eigensolve
(`_secular_ground`).

At n_max = 1, S(sigma) = h11 - sigma, so the inertia count at kappa
gives every eigenvalue j of a dispersion window [lo, kappa) as kappa +
g_j(kappa).  At n_max = 2 a window with kappa below D_min goes without
eigensolves beyond its two inertia counts where they put exactly one
eigenvalue j of H in it.  The count at kappa reads the spectrum of
S(kappa), so g_j(kappa) < 0 is known, and the slope bound brackets the
root by [max(lo, kappa + g_j(kappa)), kappa].  Newton on g_j runs from the
bracket's lower end with the value and slope of an inverse-iteration
Rayleigh quotient (Ruhe, SIAM J. Numer. Anal. 10, 1973): one complement
and one linear solve per sigma.  Its stop is certified by a residual: a
unit v with |S(sigma) v| <= r puts an eigenvalue of S(sigma) within r of
0, so an eigenvalue of H within r of sigma, and the only one in [lo,
kappa) is j (`_window_root`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import branches as branches_mod
from . import roots
from .errors import BYTE_BUDGET, InputError, NumericError, ResourceError
from .model import ModelParams
from .quadrature import DiscreteMeasure, QuadratureSpec

__all__ = ["TruncatedHamiltonian", "build", "low_spectrum", "compare_ground",
           "compare_dispersion", "GroundComparison", "DispersionComparison"]

_DENSE_BYTES = 256 * 2**20  # max size of the dense matrix of the fallback
# no root search starts closer than this to D_min, where (D - sigma)^-1
# blows up; eigenvalues above D_min - _STANDOFF come from the dense fallback
_STANDOFF = 1e-9
_WINDOW_STEPS = 16  # Newton steps of `_window_root` before the fallback


@dataclass
class TruncatedHamiltonian:
    """The truncated matrix in blocks: h11 on the vacuum and one-boson
    modes, the two-boson diagonal pair_diag, and each pair's couplings
    pair_amps to its one-boson rows pair_rows, both of shape (n2, 2).  A
    pair {k,k} holds its one coupling in column 0 and zero in column 1."""
    p: np.ndarray
    measure: DiscreteMeasure
    n_max: int
    h11: np.ndarray
    pair_diag: np.ndarray
    pair_rows: np.ndarray
    pair_amps: np.ndarray

    @property
    def dim(self) -> int:
        return self.h11.shape[0] + self.pair_diag.size

    @property
    def matrix(self) -> np.ndarray:
        """Dense copy of the matrix, built on each access.  Of the solvers
        only `low_spectrum`'s dense fallback reads it."""
        n1, dim = self.h11.shape[0], self.dim
        m = np.zeros((dim, dim))
        m[:n1, :n1] = self.h11
        pairs = np.arange(n1, dim)
        m[pairs, pairs] = self.pair_diag
        m[self.pair_rows[:, 0], pairs] = self.pair_amps[:, 0]
        m[self.pair_rows[:, 1], pairs] += self.pair_amps[:, 1]
        m[n1:, :n1] = m[:n1, n1:].T
        return m

    @cached_property
    def _schur_terms(self):
        """The sigma-independent part of `schur`: the flat (1+N)^2 index of
        each pair's four entries, (4 n2,), and their products of
        amplitudes, (4, n2), each to be multiplied by 1 / (D - sigma)."""
        n1 = self.h11.shape[0]
        ra, rb = self.pair_rows.T
        aa, ab = self.pair_amps.T
        cross = aa * ab
        index = np.concatenate([ra * n1 + ra, rb * n1 + rb, ra * n1 + rb, rb * n1 + ra])
        return index, np.stack([aa * aa, ab * ab, cross, cross])

    def schur(self, sigma: float) -> np.ndarray:
        """S(sigma) = h11 - sigma - B (D - sigma)^-1 B^T, dense, (1+N)^2.
        Each pair adds at most four entries; one bincount sums them."""
        n1 = self.h11.shape[0]
        index, amps = self._schur_terms
        w = 1.0 / (self.pair_diag - sigma)
        terms = np.bincount(index, (amps * w).ravel(), minlength=n1 * n1)
        s = self.h11 - terms.reshape(n1, n1)
        s[np.diag_indices(n1)] -= sigma
        return s

    def scaled(self, alpha: float) -> TruncatedHamiltonian:
        """The matrix with every coupling multiplied by alpha: the vacuum
        row and column of h11 and the pair amplitudes.  The free energies on
        the diagonal stay."""
        h11 = self.h11.copy()
        h11[0, 1:] *= alpha
        h11[1:, 0] *= alpha
        return replace(self, h11=h11, pair_amps=self.pair_amps * alpha)


def build(params: ModelParams, p, measure: DiscreteMeasure,
          n_max: int = 2) -> TruncatedHamiltonian:
    """Assemble the truncated fiber Hamiltonian on the lattice measure in
    blocks: at unit coupling, then `scaled` to params.alpha.  eps(q) and
    |q|^2 are evaluated once per lattice point and gathered per pair, and
    p - q_k - q_l is formed once per pair; a separable coupling c(q) is
    evaluated once per point too, while a p-modulated one is evaluated
    per pair at |p - q_k - q_l|^2.  Each entry is computed as if the
    pair's terms were evaluated on their own, bit for bit."""
    p = params._check_vec(p, "p")
    if n_max not in (1, 2):
        raise InputError("n_max must be 1 or 2")
    if measure.d != params.d:
        raise InputError("measure dimension does not match the model")
    q = measure.points
    n_pts = q.shape[0]
    amp = math.sqrt(measure.weight)

    n2 = n_pts * (n_pts + 1) // 2 if n_max == 2 else 0
    need = _bytes_needed(1 + n_pts, n2)
    if need > BYTE_BUDGET:
        raise ResourceError(f"truncated oracle on {n_pts} lattice points needs {need} B, "
                            f"over the budget of {BYTE_BUDGET} B")

    k = p[None, :] - q
    k_sq, q_sq, eps = np.sum(k * k, axis=-1), np.sum(q * q, axis=-1), params.eps(q)
    coupling = params.coupling
    c = amp * coupling.from_sq(k_sq, q_sq)
    h11 = np.diag(np.concatenate(([0.5 * float(p @ p)], 0.5 * k_sq + eps)))
    h11[0, 1:] = h11[1:, 0] = c

    # each pair {k,l} couples to one-boson rows k and l with amplitudes
    # c(p - q_k - q_l; q_l) and c(p - q_k - q_l; q_k); {k,k} carries
    # sqrt(2), shared between its two equal amplitudes on its one row
    kk, ll = np.triu_indices(n_pts) if n_max == 2 else (np.empty(0, int),) * 2
    rest = p[None, :] - (np.take(q, kk, axis=0) + np.take(q, ll, axis=0))
    rest_sq = np.sum(rest * rest, axis=-1)
    e2 = 0.5 * rest_sq + eps[kk] + eps[ll]
    if coupling.kind == "separable":
        amp_k, amp_l = c[ll], c[kk]
    else:
        amp_k = amp * coupling.from_sq(rest_sq, q_sq[ll])
        amp_l = amp * coupling.from_sq(rest_sq, q_sq[kk])
    same, half = kk == ll, math.sqrt(2.0) / 2.0
    amps = np.stack([np.where(same, amp_k * half + amp_l * half, amp_k),
                     np.where(same, 0.0, amp_l)], axis=1)
    unit = TruncatedHamiltonian(p=p, measure=measure, n_max=n_max, h11=h11,
                                pair_diag=e2, pair_rows=np.stack([1 + kk, 1 + ll], axis=1),
                                pair_amps=amps)
    return unit.scaled(params.alpha)


def _bytes_needed(n1: int, n2: int) -> int:
    """Bytes of a matrix with n1 = 1 + N vacuum and one-boson modes and n2
    pairs and of one sigma's work on it, counted before `build` allocates.
    The matrix holds h11, n1^2 floats, and 13 words per pair: its energy,
    two rows and two amplitudes, and `_schur_terms`' four flat indices and
    four products.  One sigma adds 4 words per pair, `schur`'s products
    over D - sigma, and three n1^2 arrays: `schur`'s bincount sums, the
    complement, and the linear solve's (or eigensolve's) copy of it.  The
    build's own temporaries peak below this count."""
    return 8 * (4 * n1 * n1 + 17 * n2)


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc


def _least_free(h11: np.ndarray) -> float | None:
    """Least eigenvalue of h11 from its secular equation, or None where
    `_eigvalsh` must give it.  h11 is an arrow matrix: the vacuum energy
    h00, its couplings c_i and the one-boson energies d_i on the diagonal.
    With every c_i nonzero its least eigenvalue is the one root below
    min d_i of f(x) = h00 - x - sum c_i^2 / (d_i - x) (Golub, SIAM Rev.
    15, 1973).  f is concave and decreasing there, so monotone Newton
    falls onto the root from x = min(h00, min d_i - _STANDOFF) when
    f(x) < 0; None when some c_i is 0 or f(x) >= 0."""
    c, d = h11[0, 1:], h11.diagonal()[1:]
    if not c.all():
        return None
    h00, c_sq = float(h11[0, 0]), c * c

    def f(x):
        r = 1.0 / (d - x)
        t = c_sq * r
        return h00 - x - float(t.sum())

    def slope(x):
        r = 1.0 / (d - x)
        return -1.0 - float((c_sq * r) @ r)

    root, f_root, calls = roots.monotone_newton(
        f, slope, min(h00, float(d.min()) - _STANDOFF), 0.0)
    # a single evaluation, not negative: f(x) >= 0 at the start
    return None if calls == 1 and not f_root < 0.0 else root


def _positive_definite(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"linear solver failed: {exc}") from exc


def _secular_ground(ham: TruncatedHamiltonian, s0: float) -> float | None:
    """Least eigenvalue of the n_max = 2 matrix as the root of the vacuum's
    secular function f(sigma) = h00 - sigma - c^T M(sigma)^-1 c (see the
    module docstring), by monotone Newton from s0 = lambda_0(h11) < D_min,
    where f(s0) <= 0 by Weyl's inequality; None where the one-boson block
    M(s0) of S(s0) is not positive definite.  Each sigma takes one `schur`
    and one linear solve for x = M(sigma)^-1 c; the slope
    -1 - |x|^2 - |(D - sigma)^-1 B^T x|^2 reuses that x."""
    c = ham.h11[0, 1:]
    start = ham.schur(s0)
    if not _positive_definite(start[1:, 1:]):
        return None
    ra, rb = ham.pair_rows.T - 1
    aa, ab = ham.pair_amps.T.copy()
    x = None

    def f(sigma):
        nonlocal x
        s = start if sigma == s0 else ham.schur(sigma)
        x = _solve(s[1:, 1:], c)
        return float(s[0, 0]) - float(c @ x)

    def slope(sigma):
        bx = (aa * x[ra] + ab * x[rb]) / (ham.pair_diag - sigma)
        return -1.0 - float(x @ x) - float(bx @ bx)

    return roots.monotone_newton(f, slope, s0, 0.0)[0]


def low_spectrum(ham: TruncatedHamiltonian, k: int, first: int = 0) -> np.ndarray:
    """Eigenvalues first, ..., k - 1 of the truncated matrix, indexed
    from 0 in ascending order.  Root j starts at s = min(lambda_j(h11), D_min - _STANDOFF),
    where g_j(s) <= 0, and is Brent's root of g_j on the slope bound's
    bracket [s + g_j(s), s], less a tolerance and widened by doubling
    should rounding leave no sign change.  A value of g_j within the
    tolerance counts as zero: by the slope bound that sigma is as close
    to the root as Brent's own stop, and a start where g_j reads zero is
    the root.  For k = 1, lambda_0(h11) comes from `_least_free`'s secular
    equation; otherwise, or where that does not apply, from an eigensolve
    of h11.  The spectra of S are shared by sigma.  With n_max = 1 the
    matrix is h11.  A request that reaches D_min - _STANDOFF goes to a
    dense eigensolver, which raises ResourceError when the matrix would
    exceed _DENSE_BYTES.

    The ground level alone (k = 1, n_max = 2) is the root of the vacuum's
    secular function f, by monotone Newton from lambda_0(h11), with no
    eigensolve (`_secular_ground`).  It falls back to the search on g_0
    above where `_least_free` gives no start (a zero coupling), where
    the start is not below D_min - _STANDOFF, and where one Cholesky
    factorization does not certify M(s0) positive definite (strong
    coupling)."""
    dim = ham.dim
    if not 0 <= first < k <= dim:
        raise InputError(f"need 0 <= first < k <= {dim}")
    least = _least_free(ham.h11) if k == 1 else None
    free = _eigvalsh(ham.h11) if least is None else np.array([least])
    if ham.pair_diag.size == 0:
        return free[first:k]
    top = float(ham.pair_diag.min()) - _STANDOFF
    if least is not None and least < top:
        ground = _secular_ground(ham, least)
        if ground is not None:
            return np.array([ground])
    spectrum = roots.Counted(lambda sigma: _eigvalsh(ham.schur(sigma)))
    # lambda_{k-1}(h11) < top gives g_{k-1}(top) < 0 without the probe
    if (k > free.size or free[k - 1] >= top) and np.count_nonzero(spectrum(top) < 0.0) < k:
        if dim * dim * 8 > _DENSE_BYTES:
            raise ResourceError(f"dense matrix of dimension {dim} exceeds {_DENSE_BYTES} B")
        return _eigvalsh(ham.matrix)[first:k]

    def root(j):
        s = min(float(free[j]), top)
        tol = roots.XTOL + roots.RTOL * abs(s)

        def g(sigma):
            value = spectrum(sigma)[j]
            return 0.0 if abs(value) <= tol else value

        g_s = g(s)
        return s if g_s == 0.0 else roots.root_beyond(g, s, s + g_s - tol)

    return np.array([root(j) for j in range(first, k)])


def _count_below(ham: TruncatedHamiltonian, sigma: float) -> tuple[int, np.ndarray]:
    """Number of eigenvalues below sigma, by Sylvester's law of inertia,
    and the spectrum g(sigma) of S(sigma) it is read from, ascending: the
    inertia of H - sigma is that of the diagonal two-boson block D - sigma
    plus that of its Schur complement S(sigma).  `compare_dispersion`
    starts its window root from the spectrum at the window's top."""
    spectrum = _eigvalsh(ham.schur(sigma))
    return (int(np.count_nonzero(ham.pair_diag < sigma))
            + int(np.count_nonzero(spectrum < 0.0))), spectrum


def _window_root(ham: TruncatedHamiltonian, j: int, lo: float, kappa: float,
                 spectrum: np.ndarray) -> float | None:
    """Eigenvalue j of the n_max = 2 matrix, the one eigenvalue in
    [lo, kappa) by the inertia counts, from the spectrum of S(kappa) and no
    eigensolve; None where the search does not certify it.  With
    kappa < D_min - _STANDOFF, g_j(kappa) = spectrum[j] < 0 and the slope
    bound brackets the root by [max(lo, kappa + g_j(kappa)), kappa].
    Newton on g_j starts at the bracket's lower end with v = (1, ..., 1).
    Each sigma takes one `schur` and one linear solve,
    v <- S(sigma)^-1 v normalized (inverse iteration); rho = v^T S(sigma) v
    stands for g_j(sigma) and -1 - |(D - sigma)^-1 B^T v|^2, the
    Hellmann-Feynman slope of `_secular_ground` with v for x, for its
    slope.  The search stops where
    the residual r = |S(sigma) v| is within XTOL + RTOL |sigma|, and so is
    the step, as |rho| <= r and the slope is at most -1.  Then S(sigma) has
    an eigenvalue within r of 0, and by the slope bound the matrix has one
    within r of sigma; where [sigma - r, sigma + r] lies in [lo, kappa), it
    is eigenvalue j.  kappa at or above D_min - _STANDOFF, a solve that
    fails or is not finite, an iterate outside the bracket, a residual
    interval outside the window and _WINDOW_STEPS steps give None."""
    if kappa >= float(ham.pair_diag.min()) - _STANDOFF:
        return None
    lower = max(lo, kappa + float(spectrum[j]))
    ra, rb = ham.pair_rows.T
    aa, ab = ham.pair_amps.T.copy()
    sigma, v = lower, np.ones(ham.h11.shape[0])
    for _ in range(_WINDOW_STEPS):
        s = ham.schur(sigma)
        try:
            u = _solve(s, v)
        except NumericError:
            return None
        # scaled by its largest entry first, so that no square overflows
        scale = float(np.abs(u).max())
        if not math.isfinite(scale):
            return None
        v = u / scale
        v /= np.linalg.norm(v)
        sv = s @ v
        bv = (aa * v[ra] + ab * v[rb]) / (ham.pair_diag - sigma)
        step = float(v @ sv) / (1.0 + float(bv @ bv))
        r = float(np.linalg.norm(sv))
        if r <= roots.XTOL + roots.RTOL * abs(sigma):
            return sigma + step if lo <= sigma - r and sigma + r < kappa else None
        sigma += step
        if not lower <= sigma <= kappa:
            return None
    return None


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

    The cap is set per alpha as a fraction of the gap to the clipped
    two-boson proxy (`branches.cap`), so that the comparison window
    survives the larger rungs of the ladder."""
    p = params._check_vec(p, "p")
    quad = QuadratureSpec.discrete(measure)
    unit = build(replace(params, alpha=1.0), p, measure, n_max=n_max)
    rows = []
    for alpha in alphas:
        pa = replace(params, alpha=float(alpha))
        cap = branches_mod.cap(pa, p, "fraction", kappa_fraction, clipped=True)
        e0 = float(low_spectrum(unit.scaled(pa.alpha), 1)[0])
        lam1 = branches_mod.lambda1(pa, p, cap.kappa, quad, tol, clipped=True)
        bp = branches_mod.ground_state(pa, p, lam1, neumann_order, quad, tol)
        if bp.status != "converged":
            raise NumericError(f"solver ground branch missing at alpha={alpha}")
        diff = abs(e0 - bp.xi)
        ratio = diff / alpha ** (2 * neumann_order + 4) if alpha > 0 else math.nan
        rows.append(GroundComparisonRow(
            alpha=float(alpha), kappa=cap.kappa, lambda2_proxy=cap.proxy,
            oracle_e0=e0, solver_xi0=bp.xi, diff=diff, diff_scaled=ratio,
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
    [lambda1 estimate - tol, kappa).  Only the eigenvalues inside it are
    computed: the matrix inertia at each end of the window gives their
    indices n_lo, ..., n_hi - 1, and each is a root of the Schur
    complement's eigenvalues.  At n_max = 1, S(kappa) = h11 - kappa, so the
    spectrum of the count at kappa gives them all as kappa + g_j(kappa).
    Otherwise one eigenvalue alone, below D_min - _STANDOFF, comes from
    `_window_root`'s Newton, started from that spectrum, with no
    eigensolve; several, or one that `_window_root` does not certify, come
    from `low_spectrum`."""
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
    window = (lam1 - tol, kappa)
    (n_lo, _), (n_hi, top) = (_count_below(ham, end) for end in window)
    if n_hi <= n_lo:
        return DispersionComparison(q=q, solver_xi=bp.xi, nearest_eigenvalue=None,
                                    gap=None, window=window, window_count=0,
                                    matched=False)
    if ham.n_max == 1:  # H = h11: eigenvalue j is kappa + g_j(kappa)
        inside = kappa + top[n_lo:n_hi]
    else:
        root = _window_root(ham, n_lo, *window, top) if n_hi == n_lo + 1 else None
        inside = low_spectrum(ham, n_hi, first=n_lo) if root is None else np.array([root])
    nearest = float(inside[np.argmin(np.abs(inside - bp.xi))])
    return DispersionComparison(q=q, solver_xi=bp.xi, nearest_eigenvalue=nearest,
                                gap=abs(nearest - bp.xi), window=window,
                                window_count=n_hi - n_lo, matched=True)
