"""Run configuration: line-based `key = value` sections describing the
model, the integration rules and the scan parameters."""

from __future__ import annotations

import configparser
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


def _check_schema(cp: configparser.ConfigParser) -> None:
    for name in cp.sections():
        if name not in _SCHEMA:
            raise InputError(f"unknown config section [{name}]; allowed: "
                             + ", ".join(_SCHEMA))
        allowed = _SCHEMA[name]
        for key in cp[name]:
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


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise InputError(f"missing config key {key!r} in [{section.name}]")
        return default
    try:
        return cast(section[key])
    except ValueError as exc:
        raise InputError(f"bad value for {key!r}: {section[key]!r}") from exc


def _epsilon_from(section) -> EpsilonSpec:
    kind = _get(section, "kind", str, required=True)
    if kind == "constant":
        return EpsilonSpec.constant(_get(section, "eps0", _float, 1.0))
    if kind == "relativistic":
        return EpsilonSpec.relativistic(
            _get(section, "mass", _float, required=True),
            _get(section, "shift", _float, 0.0),
        )
    if kind == "tabulated":
        path = _get(section, "table-path", str, required=True)
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read the epsilon table {path!r}: {exc}") from exc
        return EpsilonSpec.tabulated(table[:, 0], table[:, 1])
    raise InputError(f"unknown epsilon kind {kind!r}")


def _coupling_from(section) -> CouplingSpec:
    kind = _get(section, "kind", str, "separable")
    return CouplingSpec(
        kind=kind,
        amplitude=_get(section, "amplitude", _float, 1.0),
        width=_get(section, "width", _float, 1.0),
        p_width=_get(section, "p-width", _float, None),
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    # no interpolation: a '%' in a value, as in a file name, is literal
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise InputError(f"cannot parse the config {path}: {exc}") from exc
    _check_schema(cp)
    for name in ("model", "epsilon", "coupling"):
        if name not in cp:
            raise InputError(f"config is missing the [{name}] section")

    eps = _epsilon_from(cp["epsilon"])
    coupling = _coupling_from(cp["coupling"])
    params = ModelParams(
        d=_get(cp["model"], "dimension", int, required=True),
        alpha=_get(cp["model"], "alpha", _float, required=True),
        eps=eps,
        coupling=coupling,
        c0=_get(cp["model"], "c0", _float, required=True),
    )

    qsec = cp["quadrature"] if "quadrature" in cp else {}
    r_max = _get(qsec, "rmax", _float, None)
    if r_max is None:
        r_max = max(coupling.decay_radius(), 4.0)
    quad = QuadratureSpec.continuum(
        n_radial=_get(qsec, "radial-nodes", int, 64),
        angular_degree=_get(qsec, "angular-degree", int, 17),
        r_max=r_max,
    )

    gsec = cp["grid"] if "grid" in cp else {}
    measure = grid_measure(
        _get(gsec, "lambda", _float, 3.0),
        _get(gsec, "points-per-axis", int, 5),
        params.d,
    )

    run = cp["run"] if "run" in cp else {}
    # typed views with defaults
    typed = {
        "p_values": _get(run, "p-values", _floats, [0.0]),
        "q_values": _get(run, "q-values", _floats, None),
        "p": _get(run, "p", _float, 0.0),
        "kappa_mode": _get(run, "kappa-mode", str, "fraction"),
        "kappa": _get(run, "kappa", _float, 0.9),
        "alpha_ladder": _get(run, "alpha-ladder", _floats, [0.2, 0.1, 0.05]),
        "tol": _get(run, "tol", _float, 1e-10),
        "neumann_order": _get(run, "neumann-order", int, 1),
        "delta_ladder": _get(run, "delta-ladder", _floats, [0.1, 0.03, 0.01]),
        "direction": _get(run, "direction", str, "x"),
        "q_max": _get(run, "q-max", _float, 2.0),
        "q_count": _get(run, "q-count", int, 21),
        "n_max": _get(run, "n-max", int, 2),
        "kappa_fractions": _get(run, "kappa-fractions", _floats, [0.5, 0.7, 0.9]),
        "oracle_q": _get(run, "oracle-q", _floats, []),
        "seed": _get(run, "seed", int, 0),
    }

    raw = {name: dict(cp[name]) for name in cp.sections()}
    return RunConfig(params=params, quad=quad, measure=measure, run=typed, raw=raw)
