"""In-memory spans around polaron's public functions, installed from outside
the program.

`Tracer.install()` replaces each traced function, under every name that a
polaron module looks it up by (`oracle` imports `threshold` as
`model_threshold`, `cli` imports `load_config` by name), with a wrapper
that records a span (name, start, end, parent).  Methods are wrapped on
their class, so every import of the class sees them.  `uninstall()` puts
the originals back, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, attribute or Class.method, span name)
TARGETS = [
    ("polaron.quadrature", "node_system", "quadrature.node_system"),
    ("polaron.selfenergy", "SelfEnergyTables.__init__", "selfenergy.tables"),
    ("polaron.selfenergy", "SelfEnergyTables.m_values", "selfenergy.eval"),
    ("polaron.selfenergy", "SelfEnergyTables.a_values", "selfenergy.eval"),
    ("polaron.selfenergy", "SelfEnergyTables.d_matrix", "selfenergy.eval"),
    ("polaron.friedrichs", "FriedrichsSolver.ground_eigenvalue",
     "friedrichs.ground_eigenvalue"),
    ("polaron.friedrichs", "FriedrichsSolver.delta", "friedrichs.delta"),
    ("polaron.model", "threshold", "model.threshold"),
    ("polaron.branches", "dispersion_point", "branches.dispersion_point"),
    ("polaron.branches", "one_boson_domain", "branches.one_boson_domain"),
    ("polaron.branches", "gamma_factor", "branches.gamma_factor"),
    ("polaron.branches", "lambda1", "branches.lambda1"),
    ("polaron.branches", "ground_state", "branches.ground_state"),
    ("polaron.oracle", "build", "oracle.build"),
    ("polaron.oracle", "low_spectrum", "oracle.low_spectrum"),
    ("polaron.oracle", "compare_ground", "oracle.compare_ground"),
    ("polaron.oracle", "compare_dispersion", "oracle.compare_dispersion"),
    ("polaron.config", "load_config", "config.load_config"),
    ("polaron.cli", "main", "cli.main"),
]


class Tracer:
    """Span recorder.  Spans are lists [name, start, end, parent index];
    `dims` holds the dimension of every oracle matrix built."""

    def __init__(self):
        self.spans = []
        self.dims = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        dims = self.dims if name == "oracle.build" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if dims is not None:
                dims.append(result.dim)
            return result

        return traced

    def install(self):
        """Wrap every target whose module is importable; returns self."""
        for mod_name, attr, name in TARGETS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other_name != "polaron" and not other_name.startswith("polaron."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, key, original))
                        setattr(other, key, wrapped)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.dims.clear()

    def export(self):
        return {"spans": [list(s) for s in self.spans], "dims": list(self.dims)}


def summarize(spans):
    """Per span name: [calls, self time], where self time is the duration
    minus the time covered by direct child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - child_time[i]
    return stats


PER_LAYER = [
    # (metric, unit)
    ("quadrature.node_system.calls", "count"),
    ("quadrature.node_system.self_s", "s"),
    ("selfenergy.tables.calls", "count"),
    ("selfenergy.tables.self_s", "s"),
    ("selfenergy.eval.calls", "count"),
    ("selfenergy.eval.self_s", "s"),
    ("friedrichs.ground_eigenvalue.calls", "count"),
    ("friedrichs.ground_eigenvalue.self_s", "s"),
    ("friedrichs.delta.calls", "count"),
    ("branches.ground_state.calls", "count"),
    ("branches.inner_per_outer", "ratio"),
    ("branches.dispersion_point.calls", "count"),
    ("branches.dispersion_point.self_s", "s"),
    ("branches.lambda1.self_s", "s"),
    ("branches.ground_state.self_s", "s"),
    ("model.threshold.calls", "count"),
    ("model.threshold.self_s", "s"),
    ("oracle.build.self_s", "s"),
    ("oracle.low_spectrum.self_s", "s"),
    ("oracle.compare_dispersion.self_s", "s"),
    ("oracle.dim", "count"),
    ("oracle.matrix_mb", "MB-computed"),
    ("config.load_config.self_s", "s"),
    ("cli.main.self_s", "s"),
]


def layer_metrics(spans, dims):
    """Per-layer metric values of one pass (see PER_LAYER)."""
    stats = summarize(spans)
    out = {}
    for metric, _ in PER_LAYER:
        head, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = stats.get(head, [0])[0]
        elif kind == "self_s":
            out[metric] = stats.get(head, [0, 0.0])[1]
    ground = out["branches.ground_state.calls"]
    inner = out["friedrichs.ground_eigenvalue.calls"]
    out["branches.inner_per_outer"] = inner / ground if ground else 0.0
    dim = max(dims) if dims else 0
    out["oracle.dim"] = dim
    out["oracle.matrix_mb"] = dim * dim * 8 / 1e6
    return out


def median_metrics(per_pass):
    """Median over passes of each per-layer metric."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
