"""The benchmark's tracer wraps polaron functions and methods by name; a
rename in the program breaks every traced run, so the names are checked
here against the tracer itself."""

import importlib.util
from pathlib import Path

import numpy as np

from polaron import CouplingSpec, EpsilonSpec, ModelParams, QuadratureSpec
from polaron import branches as br
from polaron.friedrichs import FriedrichsSolver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_ground_state_spans():
    tracing = load_tracing()
    params = ModelParams(d=1, alpha=0.1, eps=EpsilonSpec.constant(1.0),
                         coupling=CouplingSpec(amplitude=1.0, width=1.0), c0=0.5)
    quad = QuadratureSpec.continuum(24, 9, r_max=6.0)
    p = np.array([0.3])
    kappa = br.kappa_from_rule(params, p, "fraction", 0.9)
    lam1 = br.lambda1(params, p, kappa, quad, 1e-10)
    delta = FriedrichsSolver.__dict__["delta"]
    tracer = tracing.Tracer().install()
    try:
        bp = br.ground_state(params, p, lam1, 1, quad, 1e-10)
    finally:
        tracer.uninstall()
    assert bp.status == "converged"
    stats = tracing.summarize(tracer.spans)
    assert stats["branches.ground_state"][0] == 1
    assert stats["friedrichs.delta"][0] == bp.iterations
    assert FriedrichsSolver.__dict__["delta"] is delta
