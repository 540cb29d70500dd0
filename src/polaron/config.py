"""Run configuration: line-based `key = value` sections describing the
model, the integration rules and the scan parameters."""

from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError
from .model import CouplingSpec, EpsilonSpec, ModelParams
from .quadrature import DiscreteMeasure, QuadratureSpec, grid_measure

__all__ = ["RunConfig", "load_config"]


@dataclass
class RunConfig:
    params: ModelParams
    quad: QuadratureSpec
    measure: DiscreteMeasure
    run: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def vector(self, magnitude: float) -> np.ndarray:
        """Scalar momenta are magnitudes along the first axis."""
        v = np.zeros(self.params.d)
        v[0] = magnitude
        return v

    def direction(self) -> np.ndarray:
        name = self.run.get("direction", "x")
        axes = {"x": 0, "y": 1, "z": 2}
        if name not in axes or axes[name] >= self.params.d:
            raise InputError(f"direction {name!r} invalid for d={self.params.d}")
        v = np.zeros(self.params.d)
        v[axes[name]] = 1.0
        return v


# every key that load_config reads, by section
_SCHEMA = {
    "model": ("dimension", "alpha", "c0"),
    "epsilon": ("kind", "eps0", "mass", "shift", "table-path"),
    "coupling": ("kind", "amplitude", "width", "p-width"),
    "quadrature": ("rmax", "radial-nodes", "angular-degree"),
    "grid": ("lambda", "points-per-axis"),
    "run": ("p-values", "q-values", "p", "kappa-mode", "kappa", "alpha-ladder",
            "tol", "neumann-order", "delta-ladder", "direction", "q-max",
            "q-count", "n-max", "kappa-fractions", "oracle-q", "seed"),
}


def _check_schema(raw: dict) -> None:
    for name, section in raw.items():
        if name not in _SCHEMA:
            raise InputError(f"unknown config section [{name}]; allowed: "
                             + ", ".join(_SCHEMA))
        allowed = _SCHEMA[name]
        for key in section:
            if key not in allowed:
                raise InputError(f"unknown config key {key!r} in [{name}]; "
                                 "allowed: " + ", ".join(allowed))


def _float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _floats(text: str) -> list:
    return [_float(tok) for tok in text.replace(",", " ").split()]


def _nonnegative(text: str) -> float:
    """A finite float >= 0: a tolerance."""
    value = _float(text)
    if not value >= 0.0:
        raise ValueError(f"{text!r} is negative")
    return value


def _count(text: str) -> int:
    """An int >= 0: a grid size, an order or a seed."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def _positives(text: str) -> list:
    """Finite floats > 0: distances inside a boundary."""
    values = _floats(text)
    if not all(v > 0.0 for v in values):
        raise ValueError(f"{text!r} holds a value <= 0")
    return values


def _get(raw, name, key, cast, default=None, required=False):
    """Section `name` of the read config `raw`, key `key`, cast."""
    section = raw.get(name, {})
    if key not in section:
        if required:
            raise InputError(f"missing config key {key!r} in [{name}]")
        return default
    try:
        return cast(section[key])
    except ValueError as exc:
        raise InputError(f"bad value for {key!r}: {section[key]!r}") from exc


def _epsilon_from(raw) -> EpsilonSpec:
    kind = _get(raw, "epsilon", "kind", str, required=True)
    if kind == "constant":
        return EpsilonSpec.constant(_get(raw, "epsilon", "eps0", _float, 1.0))
    if kind == "relativistic":
        return EpsilonSpec.relativistic(
            _get(raw, "epsilon", "mass", _float, required=True),
            _get(raw, "epsilon", "shift", _float, 0.0),
        )
    if kind == "tabulated":
        path = _get(raw, "epsilon", "table-path", str, required=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt's "no data"
                table = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError, UserWarning) as exc:
            raise InputError(f"cannot read the epsilon table {path!r}: {exc}") from exc
        if table.shape[1] != 2:
            raise InputError(f"the epsilon table {path!r} has {table.shape[1]} columns, "
                             "not two (|q|, eps)")
        return EpsilonSpec.tabulated(table[:, 0], table[:, 1])
    raise InputError(f"unknown epsilon kind {kind!r}")


def _coupling_from(raw) -> CouplingSpec:
    return CouplingSpec(
        kind=_get(raw, "coupling", "kind", str, "separable"),
        amplitude=_get(raw, "coupling", "amplitude", _float, 1.0),
        width=_get(raw, "coupling", "width", _float, 1.0),
        p_width=_get(raw, "coupling", "p-width", _float, None),
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read the config {path}: {exc}") from exc
    # no interpolation: a '%' in a value, as in a file name, is literal
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise InputError(f"cannot parse the config {path}: {exc}") from exc
    # each section read once, raw, as plain strings: the lookups below and
    # the record's "config" field
    raw = {name: dict(cp.items(name, raw=True)) for name in cp.sections()}
    _check_schema(raw)
    for name in ("model", "epsilon", "coupling"):
        if name not in raw:
            raise InputError(f"config is missing the [{name}] section")

    eps = _epsilon_from(raw)
    coupling = _coupling_from(raw)
    params = ModelParams(
        d=_get(raw, "model", "dimension", int, required=True),
        alpha=_get(raw, "model", "alpha", _float, required=True),
        eps=eps,
        coupling=coupling,
        c0=_get(raw, "model", "c0", _float, required=True),
    )

    r_max = _get(raw, "quadrature", "rmax", _float, None)
    if r_max is None:
        r_max = max(coupling.decay_radius(), 4.0)
    quad = QuadratureSpec.continuum(
        n_radial=_get(raw, "quadrature", "radial-nodes", int, 64),
        angular_degree=_get(raw, "quadrature", "angular-degree", int, 17),
        r_max=r_max,
    )

    measure = grid_measure(
        _get(raw, "grid", "lambda", _float, 3.0),
        _get(raw, "grid", "points-per-axis", int, 5),
        params.d,
    )

    def run(key, cast, default):
        return _get(raw, "run", key, cast, default)

    # typed views with defaults
    typed = {
        "p_values": run("p-values", _floats, [0.0]),
        "q_values": run("q-values", _floats, None),
        "p": run("p", _float, 0.0),
        "kappa_mode": run("kappa-mode", str, "fraction"),
        "kappa": run("kappa", _float, 0.9),
        "alpha_ladder": run("alpha-ladder", _floats, [0.2, 0.1, 0.05]),
        "tol": run("tol", _nonnegative, 1e-10),
        "neumann_order": run("neumann-order", _count, 1),
        "delta_ladder": run("delta-ladder", _positives, [0.1, 0.03, 0.01]),
        "direction": run("direction", str, "x"),
        "q_max": run("q-max", _float, 2.0),
        "q_count": run("q-count", _count, 21),
        "n_max": run("n-max", int, 2),
        "kappa_fractions": run("kappa-fractions", _floats, [0.5, 0.7, 0.9]),
        "oracle_q": run("oracle-q", _floats, []),
        "seed": run("seed", _count, 0),
    }
    return RunConfig(params=params, quad=quad, measure=measure, run=typed, raw=raw)
