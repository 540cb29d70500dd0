"""Physical model: boson dispersion, particle-boson coupling, free energies
and continuum thresholds.

Energies are in an arbitrary common unit.  All dispersions are radial
(functions of |q| only) and the coupling is either a separable radial
profile or a radial profile modulated by a smooth bounded function of the
particle momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import roots
from .errors import InputError

__all__ = [
    "EpsilonSpec",
    "CouplingSpec",
    "ModelParams",
    "free_energy",
    "collinear_minimizer",
    "threshold",
    "validate_model",
    "ValidationReport",
]

DECAY_RATIO = 1e-14        # h(R)^2 / h(0)^2 at the decay radius R
VALIDATE_SAMPLES = 10_000  # random draws per sampled validation check
VALIDATE_Q_MAX = 10.0      # validation samples momenta in [-q_max, q_max]^d
VALIDATE_TOL = 1e-9        # slack of the validation inequalities


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------


@dataclass
class EpsilonSpec:
    """Radial boson dispersion epsilon(|q|).

    kinds:
      constant       epsilon(q) = eps0
      relativistic   epsilon(q) = sqrt(q^2 + mass^2) + shift
      tabulated      monotone cubic through (knots, values), linear
                     continuation of the end slope beyond the last knot
    """

    kind: str
    eps0: float = 1.0
    mass: float = 1.0
    shift: float = 0.0
    knots: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "relativistic", "tabulated"):
            raise InputError(f"unknown epsilon kind {self.kind!r}")
        fields = {"constant": ("eps0",), "relativistic": ("mass", "shift")}
        for name in fields.get(self.kind, ()):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"epsilon {name} must be finite")
        if self.kind == "tabulated":
            if self.knots is None or self.values is None:
                raise InputError("tabulated epsilon needs knots and values")
            self.knots = np.asarray(self.knots, dtype=float)
            self.values = np.asarray(self.values, dtype=float)
            self._check_table()

    def _check_table(self):
        """Refuse a table the PCHIP cannot take, with InputError: at
        construction and before each rebuild of a table changed in place."""
        if self.knots.ndim != 1 or self.knots.shape != self.values.shape:
            raise InputError("knots and values must be 1-d arrays of the same length")
        if self.knots.size < 2:
            raise InputError("tabulated epsilon needs at least 2 knots")
        if not (np.isfinite(self.knots).all() and np.isfinite(self.values).all()):
            raise InputError("knots and values must be finite")
        if np.any(np.diff(self.knots) <= 0):
            raise InputError("knots must be strictly increasing")

    @classmethod
    def constant(cls, eps0: float) -> "EpsilonSpec":
        return cls(kind="constant", eps0=float(eps0))

    @classmethod
    def relativistic(cls, mass: float, shift: float) -> "EpsilonSpec":
        return cls(kind="relativistic", mass=float(mass), shift=float(shift))

    @classmethod
    def tabulated(cls, knots, values) -> "EpsilonSpec":
        return cls(kind="tabulated", knots=knots, values=values)

    def _interp(self):
        """The PCHIP through the table, rebuilt when the bytes of the knots
        or the values differ from those it was built from (a table changed
        in place), after the construction's table checks."""
        key = self.knots.tobytes(), self.values.tobytes()
        if getattr(self, "_interp_key", None) != key:
            from scipy.interpolate import PchipInterpolator

            self._check_table()

            interp = PchipInterpolator(self.knots, self.values, extrapolate=True)
            self._interp_cache = interp
            self._slope = interp.derivative()
            self._end_slope = float(self._slope(self.knots[-1]))
            self._interp_key = key
        return self._interp_cache

    def radial(self, r):
        """epsilon as a function of |q|; r is a scalar or ndarray >= 0."""
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            return np.full_like(r, self.eps0)
        if self.kind == "relativistic":
            return np.sqrt(r * r + self.mass**2) + self.shift
        interp = self._interp()
        out = np.asarray(interp(np.clip(r, self.knots[0], self.knots[-1])), dtype=float)
        beyond = r > self.knots[-1]
        if np.any(beyond):
            out = np.where(
                beyond,
                self.values[-1] + self._end_slope * (r - self.knots[-1]),
                out,
            )
        return out

    def radial_value(self, r: float) -> float:
        """float(radial(r)) at a scalar r >= 0: the same operations in the
        same order, in scalar arithmetic except for a tabulated eps."""
        if self.kind == "constant":
            return float(self.eps0)
        if self.kind == "relativistic":
            return math.sqrt(r * r + self.mass**2) + self.shift
        return float(self.radial(r))

    def radial_slope(self, r: float) -> float:
        """d epsilon / d|q| at a scalar r >= 0, one-sided where radial has
        a kink (r = 0 with zero mass, the ends of a table)."""
        if self.kind == "constant":
            return 0.0
        if self.kind == "relativistic":
            return r / math.hypot(r, self.mass) if r > 0 else float(self.mass == 0)
        self._interp()
        if r < self.knots[0]:
            return 0.0
        return self._end_slope if r > self.knots[-1] else float(self._slope(r))

    def __call__(self, q):
        """epsilon evaluated on momentum vectors of shape (..., d); a
        constant epsilon needs no norms."""
        q = np.asarray(q, dtype=float)
        if self.kind == "constant":
            return np.full(q.shape[:-1], self.eps0, dtype=float)
        return self.radial(np.sqrt(np.add.reduce(q * q, axis=-1)))


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------


@dataclass
class CouplingSpec:
    """Coupling amplitude c(p; q) with gaussian radial profile in q.

    separable      c(p; q) = amplitude * exp(-|q|^2 / (2 width^2))
    p-modulated    same profile times chi(p) = exp(-|p|^2 / (2 p_width^2))

    The envelope h(q) = |amplitude| * exp(-|q|^2 / (2 width^2)) dominates
    |c| with constant 1 because |chi| <= 1.
    """

    kind: str = "separable"
    amplitude: float = 1.0
    width: float = 1.0
    p_width: float | None = None

    def __post_init__(self):
        if self.kind not in ("separable", "p-modulated"):
            raise InputError(f"unknown coupling kind {self.kind!r}")
        if not math.isfinite(self.amplitude):
            raise InputError("coupling amplitude must be finite")
        if not (math.isfinite(self.width) and self.width > 0):
            raise InputError("coupling width must be finite and positive")
        if self.kind == "p-modulated" and not (
                self.p_width is not None and math.isfinite(self.p_width) and self.p_width > 0):
            raise InputError("p-modulated coupling needs a finite, positive p_width")

    def from_sq(self, p_sq, q_sq):
        """c(p; q) from broadcastable arrays of squared norms |p|^2, |q|^2."""
        g = self.amplitude * np.exp(-np.asarray(q_sq, dtype=float) / (2.0 * self.width**2))
        if self.kind == "p-modulated":
            g = g * np.exp(-np.asarray(p_sq, dtype=float) / (2.0 * self.p_width**2))
        return g

    def evaluate(self, p, q):
        """c(p; q) for broadcastable arrays of vectors (..., d)."""
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        return self.from_sq(np.sum(p * p, axis=-1), np.sum(q * q, axis=-1))

    def envelope(self, r):
        """Radial envelope h(|q|) dominating |c| and its derivatives."""
        r = np.asarray(r, dtype=float)
        return abs(self.amplitude) * np.exp(-r * r / (2.0 * self.width**2))

    def h_norm_sq(self, d: int) -> float:
        """||h||_{L^2(R^d)}^2, closed form for the gaussian envelope."""
        return self.amplitude**2 * (math.pi * self.width**2) ** (d / 2.0)

    def decay_radius(self) -> float:
        """Radius R with h(R)^2 <= DECAY_RATIO * h(0)^2."""
        return self.width * math.sqrt(-math.log(DECAY_RATIO))


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------


@dataclass
class ModelParams:
    """Model data: dimension d, coupling constant alpha, dispersion,
    coupling amplitude and the subadditivity gap c0."""

    d: int
    alpha: float
    eps: EpsilonSpec
    coupling: CouplingSpec
    c0: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise InputError("dimension d must be an integer >= 1")
        self.d = int(self.d)
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise InputError("coupling constant alpha must be finite and >= 0")
        if not (math.isfinite(self.c0) and self.c0 > 0):
            raise InputError("gap constant c0 must be finite and positive")

    def _check_vec(self, v, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.d,):
            raise InputError(f"{name} must be a vector of dimension {self.d}, got shape {v.shape}")
        return v


def free_energy(params: ModelParams, n: int, p, qs=()) -> float:
    """Free energy of the particle + n bosons:
    (1/2)(p - sum q_i)^2 + sum eps(q_i).  Symmetric in the q_i."""
    p = params._check_vec(p, "p")
    qs = [params._check_vec(q, f"q[{i}]") for i, q in enumerate(qs)]
    if len(qs) != n:
        raise InputError(f"expected {n} boson momenta, got {len(qs)}")
    total = p - (np.sum(qs, axis=0) if qs else 0.0)
    kinetic = 0.5 * float(total @ total)
    return kinetic + float(sum(params.eps(q) for q in qs))


def collinear_minimizer(params: ModelParams, n: int, pmag: float) -> float:
    """The t in [0, pmag/n] minimizing f(t) = (pmag - n t)^2 / 2 + n eps(t),
    the energy of n equal boson momenta of length t along p.  f'(t) =
    n (eps'(t) - pmag + n t) increases for a convex eps, so t is an end of
    the interval or Brent's root of f'."""
    top = pmag / n

    @roots.Counted
    def slope(t):
        return params.eps.radial_slope(t) - (pmag - n * t)

    if slope(0.0) >= 0.0:
        return 0.0
    if slope(top) <= 0.0:
        return top
    return roots.root(slope, 0.0, top)


def threshold(params: ModelParams, n: int, p) -> float:
    """Bottom of the particle + n-boson continuum branch.

    By convexity of the kinetic term and of the radial dispersion the
    minimizer is n equal momenta collinear with p, so the search reduces
    to one scalar magnitude (`collinear_minimizer`).  n=0 returns p^2/2.
    """
    p = params._check_vec(p, "p")
    if n < 0:
        raise InputError("boson count n must be >= 0")
    pmag = math.sqrt(float(p @ p))
    if n == 0:
        return 0.5 * pmag * pmag
    t = collinear_minimizer(params, n, pmag)
    return 0.5 * (pmag - n * t) ** 2 + n * params.eps.radial_value(t)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status:4s}  {c.name}: {c.detail}")
        return "\n".join(lines)


def validate_model(params: ModelParams, seed: int = 0) -> ValidationReport:
    """Sampled falsification of the structural conditions on the model.

    Failures go into the report; nothing is raised.  The checks are
    positivity and radial convex monotonicity of eps, the subadditivity
    gap with the declared c0, domination of |c| by the envelope and
    finiteness of ||h||_{L^2}.  Momenta range over [-VALIDATE_Q_MAX,
    VALIDATE_Q_MAX]^d, VALIDATE_SAMPLES random draws per sampled check,
    and each inequality allows the slack VALIDATE_TOL.
    """
    n_samples, q_max, tol = VALIDATE_SAMPLES, VALIDATE_Q_MAX, VALIDATE_TOL
    rng = np.random.default_rng(seed)
    report = ValidationReport()

    r = np.linspace(0.0, q_max, 512)
    vals = params.eps.radial(r)
    report.add(
        "epsilon positivity", np.all(vals > 0.0),
        f"min eps on [0,{q_max}] = {vals.min():.6g}",
    )
    d1 = np.diff(vals)
    report.add(
        "epsilon monotone non-decreasing", np.all(d1 >= -tol * max(1.0, vals.max())),
        f"min first difference = {d1.min():.3g}",
    )
    d2 = np.diff(vals, 2)
    report.add(
        "epsilon convex", np.all(d2 >= -tol * max(1.0, vals.max())),
        f"min second difference = {d2.min():.3g}",
    )

    q1 = rng.uniform(-q_max, q_max, size=(n_samples, params.d))
    q2 = rng.uniform(-q_max, q_max, size=(n_samples, params.d))
    gap = params.eps(q1) + params.eps(q2) - params.eps(q1 + q2) - params.c0
    report.add(
        "subadditivity gap with declared c0", np.all(gap >= -tol),
        f"min slack = {gap.min():.6g}",
    )

    ps = rng.uniform(-q_max, q_max, size=(n_samples, params.d))
    qs = rng.uniform(-q_max, q_max, size=(n_samples, params.d))
    c_abs = np.abs(params.coupling.evaluate(ps, qs))
    h = params.coupling.envelope(np.linalg.norm(qs, axis=-1))
    report.add(
        "envelope dominates coupling", np.all(c_abs <= h * (1.0 + 1e-12) + 1e-300),
        f"max |c|/h = {np.max(c_abs / np.maximum(h, 1e-300)):.6g}",
    )

    hsq = params.coupling.h_norm_sq(params.d)
    report.add(
        "||h||_{L^2} finite", math.isfinite(hsq) and hsq > 0.0,
        f"||h||^2 = {hsq:.6g}",
    )
    return report
