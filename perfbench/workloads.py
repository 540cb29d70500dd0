"""The benchmark workloads listed in BENCHMARK.json: inputs made from the
seed, one pass of fixed work, and the checks of that pass's outputs.

Each workload has
  spec(seed)            plain-data inputs; the same seed gives the same inputs
  modules               the polaron modules it imports
  write_inputs(spec, rundir)
                        input files the program reads (none by default)
  build(spec, rundir)   program objects (model, rules, lattice, config):
                        the part of `setup_s` after the imports
  run_pass(state)       one pass; returns a Pass (outputs, the time of each
                        operation, failures)
  check(state, outputs) list of (check name, message) for every violation

Checks compare against independent computations or properties the
method must have, never against stored outputs.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polaron import CouplingSpec, EpsilonSpec, ModelParams, PolaronError

TOL = 1e-10


@dataclass
class Pass:
    outputs: object
    op_s: list                          # wall time of each operation, in order
    failed: int

    @property
    def attempted(self):
        return len(self.op_s)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _vec(v):
    return tuple(float(x) for x in v)


def _params(alpha, eps_kind):
    """The d=3 model of the in-process workloads."""
    eps = (EpsilonSpec.constant(1.0) if eps_kind == "constant"
           else EpsilonSpec.relativistic(1.0, 0.5))
    return ModelParams(d=3, alpha=alpha, eps=eps,
                       coupling=CouplingSpec(amplitude=1.0, width=1.0), c0=0.5)


class Workload:
    name = ""
    modules = ("polaron",)

    def write_inputs(self, spec, rundir):
        """Write input files the program reads (none by default)."""


class Ops:
    """Runs one pass's operations in order and times each.  A PolaronError
    counts as a failed operation and its result is an error string."""

    def __init__(self):
        self.seconds = []
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except PolaronError as exc:
            result = f"error: {type(exc).__name__}: {exc}"
            self.failed += 1
        self.seconds.append(time.perf_counter() - t0)
        return result

    def result(self, outputs):
        return Pass(outputs, self.seconds, self.failed)


def _failed(result):
    return isinstance(result, str)


# ---------------------------------------------------------------------------
# dispersion-d3
# ---------------------------------------------------------------------------


def _node_symmetry(rng, n_phi):
    """A seeded rotation that maps the d=3 product rule's nodes onto
    themselves: a turn by a multiple of 2 pi / n_phi about z, optionally
    after a half turn about x.  xi_p(q) must not change under it beyond
    rounding."""
    turn = 2.0 * math.pi * rng.integers(1, n_phi) / n_phi
    c, s = math.cos(turn), math.sin(turn)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if rng.integers(2):
        rot = rot @ np.diag([1.0, -1.0, -1.0])
    return rot


class DispersionD3(Workload):
    """Pointwise dispersion solves at seeded (p, q), rotated copies,
    gamma-factor pairs and one-boson boundary rays, on the 24x9 rule.

    The rotated copies use symmetries of the rule's node set, so xi must
    agree to rounding; a general rotation only agrees to the quadrature
    error (about 5e-8 on this rule).  The boundary rays are the default
    +-p/|p|: `one_boson_domain` finds no boundary along some off-axis rays
    that do cross it (see CHANGES.md)."""

    name = "dispersion-d3"
    modules = ("polaron", "polaron.branches")
    DRAWS, ROTATED, PAIRS, DOMAINS = 160, 40, 40, 3
    RULE = (24, 9)

    def spec(self, seed):
        rng = np.random.default_rng(seed)

        def member_pair():
            # |p - q| <= 0.8 keeps q well inside the one-boson domain
            p = 0.3 * rng.normal(size=3)
            k = 0.8 * math.sqrt(rng.uniform()) * _unit(rng)
            return p, p - k

        draws = [member_pair() for _ in range(self.DRAWS)]
        rotated = []
        for p, q in draws[:self.ROTATED]:
            rot = _node_symmetry(rng, self.RULE[1] + 1)
            rotated.append((rot @ p, rot @ q))
        pairs = []
        for _ in range(self.PAIRS):
            p, q = member_pair()
            pairs.append((p, q, 0.2 * rng.normal(size=3)))
        return {
            "draws": [(_vec(p), _vec(q)) for p, q in draws + rotated],
            "pairs": [(_vec(p), _vec(q), _vec(s)) for p, q, s in pairs],
            # |p| <= 0.5 keeps q = 0, the seed of the -p ray, inside the domain
            "domain_p": [_vec(0.5 * rng.uniform() * _unit(rng))
                         for _ in range(self.DOMAINS)],
        }

    def build(self, spec, rundir):
        from polaron import QuadratureSpec, branches

        params = _params(0.1, "constant")
        return {"spec": spec, "params": params,
                "quad": QuadratureSpec.continuum(*self.RULE, r_max=6.0),
                "kappa": branches.kappa_from_rule(params, np.zeros(3), "fraction", 0.9)}

    def run_pass(self, state):
        from polaron import branches

        spec, params, quad, kappa = (state["spec"], state["params"],
                                     state["quad"], state["kappa"])
        ops, draws, pairs = Ops(), [], []
        for p, q in spec["draws"]:
            bp = ops(branches.dispersion_point, params, np.asarray(p),
                     np.asarray(q), kappa, quad, TOL)
            draws.append({"error": bp} if _failed(bp) else
                         {"p": p, "q": q, "xi": bp.xi, "status": bp.status})
        for p, q, s in spec["pairs"]:
            p, q, s = map(np.asarray, (p, q, s))
            res = ops(branches.gamma_factor, params, p, q, kappa, quad, TOL,
                      second_pair=(p + s, q + s))
            pairs.append({"error": res} if _failed(res) else
                         {"gamma": res.gamma, "gamma_second": res.gamma_second})
        boundary = []
        for p in spec["domain_p"]:
            dmap = ops(branches.one_boson_domain, params, np.asarray(p), kappa,
                       np.asarray([p]), quad, TOL)
            boundary.append({"error": dmap} if _failed(dmap) else {
                "p": p, "rays": [(_vec(ray), None if r is None else float(r))
                                 for ray, r in dmap.boundary]})
        return ops.result({"draws": draws, "pairs": pairs, "boundary": boundary})

    @staticmethod
    def g(params, p, q, xi, quad):
        """a_p(xi; q) - xi by a direct sum over the rule's nodes."""
        from polaron import quadrature

        pts, w = quadrature.nodes(quad, 3)
        k = np.asarray(p) - np.asarray(q)
        diff = k[None, :] - pts
        eps_q = float(params.eps(np.asarray(q)))
        den = 0.5 * np.einsum("ij,ij->i", diff, diff) + eps_q + params.eps(pts) - xi
        num = params.coupling.evaluate(diff, pts) ** 2
        m = -(params.alpha ** 2) * float(np.dot(num / den, w))
        return 0.5 * float(k @ k) + eps_q + m - xi

    def check(self, state, out):
        params, quad, kappa = state["params"], state["quad"], state["kappa"]
        bad = []
        draws = out["draws"]
        for d in draws:
            if "error" in d:
                continue
            if d["status"] != "converged":
                bad.append(("converged", f"{d['q']}: {d['status']}"))
                continue
            g = self.g(params, d["p"], d["q"], d["xi"], quad)
            if not abs(g) <= TOL * (1 + abs(d["xi"])):
                bad.append(("residual", f"g(xi) = {g:.3g} at p={d['p']} q={d['q']}"))
            k = np.subtract(d["p"], d["q"])
            e1 = 0.5 * float(k @ k) + float(params.eps(np.asarray(d["q"])))
            if not d["xi"] <= e1:
                bad.append(("free-bound", f"xi {d['xi']} > e1 {e1}"))
        for base, rot in zip(draws[:self.ROTATED], draws[self.DRAWS:]):
            if "error" in base or "error" in rot:
                continue
            if not abs(base["xi"] - rot["xi"]) <= 1e-12 * (1 + abs(base["xi"])):
                bad.append(("rotation", f"{base['xi']} vs {rot['xi']}"))
        for pair in out["pairs"]:
            if "error" in pair:
                continue
            if pair["gamma_second"] is None or not abs(pair["gamma"] - pair["gamma_second"]) <= 1e-7:
                bad.append(("gamma", f"{pair['gamma']} vs {pair['gamma_second']}"))
        for bnd in out["boundary"]:
            if "error" in bnd:
                continue
            for ray, r in bnd["rays"]:
                if r is None:
                    bad.append(("boundary", f"p={bnd['p']}: no boundary along {ray}"))
                    continue
                ray = np.asarray(ray)
                g_in = self.g(params, bnd["p"], (r - 1e-7) * ray, kappa, quad)
                g_out = self.g(params, bnd["p"], (r + 1e-7) * ray, kappa, quad)
                if not (g_in < 0.0 <= g_out):
                    bad.append(("boundary", f"p={bnd['p']} r={r}: g inside {g_in:.3g}, "
                                            f"outside {g_out:.3g}"))
        return bad


# ---------------------------------------------------------------------------
# oracle-matched-d3
# ---------------------------------------------------------------------------


class OracleMatchedD3(Workload):
    """Oracle vs solver on the 4^3 matched lattice: the alpha ladder at one
    p, and the dispersion at one lattice momentum."""

    name = "oracle-matched-d3"
    modules = ("polaron", "polaron.branches", "polaron.oracle")
    ALPHAS = (0.2, 0.1, 0.05)
    HALF_WIDTH, POINTS = 3.0, 4

    def spec(self, seed):
        rng = np.random.default_rng(seed)
        p_ground = 0.2 * rng.uniform() * _unit(rng)
        nearest = rng.integers(8)          # one of the 8 lattice points nearest 0
        p_offset = 0.3 * rng.uniform() * _unit(rng)   # |p - q| <= 0.3: q is a member
        return {"p_ground": _vec(p_ground), "nearest": int(nearest),
                "p_offset": _vec(p_offset)}

    def build(self, spec, rundir):
        from polaron import branches, grid_measure

        measure = grid_measure(self.HALF_WIDTH, self.POINTS, 3)
        order = np.argsort(np.linalg.norm(measure.points, axis=1), kind="stable")
        q = measure.points[order[spec["nearest"]]]
        p_disp = q + np.asarray(spec["p_offset"])
        params = _params(0.1, "constant")
        kappa = branches.kappa_from_rule(params, p_disp, "fraction", 0.9)
        return {"spec": spec, "params": params, "measure": measure, "q": q,
                "p_disp": p_disp, "kappa": kappa}

    def run_pass(self, state):
        from polaron import oracle

        params, measure = state["params"], state["measure"]
        ops = Ops()
        comp = ops(oracle.compare_ground, params, np.asarray(state["spec"]["p_ground"]),
                   measure, 0.9, self.ALPHAS, neumann_order=1, n_max=2, tol=TOL)
        ground = {"error": comp} if _failed(comp) else {"rows": [
            {"alpha": r.alpha, "kappa": r.kappa, "oracle_e0": r.oracle_e0,
             "solver_xi0": r.solver_xi0, "diff": r.diff} for r in comp.rows]}
        disp = ops(oracle.compare_dispersion, params, state["p_disp"], measure,
                   state["kappa"], state["q"], n_max=2, tol=TOL)
        dispersion = {"error": disp} if _failed(disp) else {
            "solver_xi": disp.solver_xi, "nearest": disp.nearest_eigenvalue,
            "window": _vec(disp.window), "matched": bool(disp.matched)}
        return ops.result({"ground": ground, "dispersion": dispersion})

    def check(self, state, out):
        from dataclasses import replace

        import scipy.sparse
        import scipy.sparse.linalg
        from polaron import oracle

        params, measure = state["params"], state["measure"]
        p = np.asarray(state["spec"]["p_ground"])
        bad = []
        ground = out["ground"]
        if "error" not in ground:
            rows = ground["rows"]
            for r in rows:
                pa = replace(params, alpha=r["alpha"])
                ham = oracle.build(pa, p, measure, n_max=2)
                h = scipy.sparse.csr_matrix(ham.matrix)
                e_sparse = float(scipy.sparse.linalg.eigsh(
                    h, k=1, which="SA", v0=np.ones(ham.dim))[0][0])
                if not abs(e_sparse - r["oracle_e0"]) <= 1e-10:
                    bad.append(("eigsh", f"alpha {r['alpha']}: dense {r['oracle_e0']} "
                                          f"sparse {e_sparse}"))
                one = oracle.build(pa, p, measure, n_max=1)
                e_one = float(np.linalg.eigvalsh(one.matrix)[0])
                if not r["oracle_e0"] <= e_one:
                    bad.append(("min-max", f"alpha {r['alpha']}: n_max=2 {r['oracle_e0']} "
                                            f"> n_max=1 {e_one}"))
                diff = abs(r["oracle_e0"] - r["solver_xi0"])
                if diff != r["diff"]:
                    bad.append(("gap-diff", f"diff {r['diff']} != |e0 - xi0| {diff}"))
                if not r["solver_xi0"] < 0.5 * float(p @ p):
                    bad.append(("below-free", f"xi0 {r['solver_xi0']}"))
            for a, b in zip(rows, rows[1:]):
                ratio = abs(a["oracle_e0"] - a["solver_xi0"]) / abs(
                    b["oracle_e0"] - b["solver_xi0"])
                if not ratio >= 16.0 / 1.5:
                    bad.append(("gap-shrinks", f"alpha {a['alpha']} -> {b['alpha']}: "
                                                f"ratio {ratio:.3g}"))
        disp = out["dispersion"]
        if "error" not in disp:
            lo, hi = disp["window"]
            if not (disp["matched"] and lo <= disp["nearest"] <= hi):
                bad.append(("matched", f"{disp}"))
        return bad


# ---------------------------------------------------------------------------
# cli-inproc-d1
# ---------------------------------------------------------------------------


CLI_CONFIG = """\
[model]
dimension = 1
alpha = 0.1
c0 = 0.5

[epsilon]
kind = constant
eps0 = 1.0

[coupling]
kind = separable
amplitude = 1.0
width = 1.0

[quadrature]
radial-nodes = 24
angular-degree = 9

[run]
p-values = 0.0 {p1!r} {p2!r}
p = 0.0
q-count = 9
q-max = {q_max!r}
tol = 1e-9
kappa-fractions = 0.5 0.7 0.9
"""


class CliInprocD1(Workload):
    """The CLI commands `thresholds`, `dispersion-scan` and `alpha0`, each a
    call of `polaron.cli.main` in this process, on one d=1 config of the
    determinism-criterion kind."""

    name = "cli-inproc-d1"
    modules = ("polaron", "polaron.cli")
    COMMANDS = ("thresholds", "dispersion-scan", "alpha0")

    def spec(self, seed):
        rng = np.random.default_rng(seed)
        return {"p1": round(0.25 + 0.1 * rng.uniform(), 6),
                "p2": round(0.55 + 0.1 * rng.uniform(), 6),
                "q_max": round(0.9 + 0.2 * rng.uniform(), 6)}

    def write_inputs(self, spec, rundir):
        (Path(rundir) / "cli.ini").write_text(CLI_CONFIG.format(**spec))

    def build(self, spec, rundir):
        from polaron.config import load_config

        path = Path(rundir) / "cli.ini"
        load_config(path)             # parsed here only so that setup_s covers it
        return {"spec": spec, "config": path, "rundir": Path(rundir)}

    def run_pass(self, state):
        from polaron import cli

        out_dir = state["rundir"] / "cli-out"
        ops, outputs = Ops(), {}
        for cmd in self.COMMANDS:
            for suffix in (".csv", ".json"):
                (out_dir / f"{cmd}{suffix}").unlink(missing_ok=True)
            rc = ops(cli.main, [cmd, "--config", str(state["config"]), "--out", str(out_dir)])
            outputs[cmd] = {"rc": rc}
            if rc != 0:
                ops.failed += not _failed(rc)      # Ops counted a raised error
                continue
            for suffix in (".csv", ".json"):
                outputs[cmd][suffix] = (out_dir / f"{cmd}{suffix}").read_bytes()
        return ops.result(outputs)

    def check(self, state, out):
        import csv

        bad = []

        def table(cmd):
            text = out[cmd][".csv"].decode()
            return list(csv.DictReader(text.splitlines()))

        for cmd in self.COMMANDS:
            if out[cmd]["rc"] != 0:
                bad.append(("exit-0", f"{cmd} exited {out[cmd]['rc']}"))
        if out["thresholds"]["rc"] == 0:
            for row in table("thresholds"):
                for n in (1, 2, 3):
                    if not abs(float(row[f"lambda{n}_0"]) - n * 1.0) <= 1e-10:
                        bad.append(("thresholds", f"p={row['p']}: lambda{n}_0 = "
                                                  f"{row[f'lambda{n}_0']}"))
        if out["dispersion-scan"]["rc"] == 0:
            for row in table("dispersion-scan"):
                q = float(row["q"])
                if row["member"] == "true" and not (
                        row["status"] == "converged" and float(row["xi"]) <= 0.5 * q * q + 1.0):
                    bad.append(("dispersion-scan", f"q={q}: xi {row['xi']} {row['status']}"))
        if out["alpha0"]["rc"] == 0:
            hsq = math.sqrt(math.pi)           # gaussian envelope, d = 1
            for row in table("alpha0"):
                gap = float(row["lambda2_proxy"]) - float(row["kappa"])
                expect_g = 0.1 * (3.0 + hsq) / gap
                expect_q = 0.1 * math.sqrt(3.0 * hsq) * (1.0 / (0.5 + gap) + 1.0 / gap)
                for key, expect in (("bound_Gamma", expect_g), ("bound_Q", expect_q),
                                    ("alpha0_Gamma", 0.05 / expect_g),
                                    ("alpha0_Q", 0.05 / expect_q)):
                    if not math.isclose(float(row[key]), expect, rel_tol=1e-12):
                        bad.append(("alpha0", f"{key} {row[key]} != {expect!r}"))
        return bad


WORKLOADS = {w.name: w for w in (DispersionD3(), OracleMatchedD3(), CliInprocD1())}


def self_peak_mb():
    """Peak resident memory of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
