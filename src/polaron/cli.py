"""Batch CLI: parse a model config, run a scan, emit a CSV table and a
structured JSON run record.  Outputs are deterministic for a fixed
config (fixed summation order, no timestamps)."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import branches, model, selfenergy
from .config import RunConfig, _nonnegative, load_config
from .errors import InputError, PolaronError

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


def _write_outputs(out_dir: Path, command: str, columns, rows, record):
    # serialized whole and written in one call: json.dump writes each token
    text = json.dumps(record, indent=1, default=_fmt, sort_keys=True)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{command}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row.get(c)) for c in columns])
        with open(out_dir / f"{command}.json", "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputError(f"cannot write the outputs to {out_dir}: {exc}") from exc


def _cap_columns(cfg: RunConfig, p, mode=None, value=None) -> dict:
    """The columns of every row solved below a cap: alpha, tol, and kappa and
    the proxy at p from one `branches.cap` call by mode and value, or the run's rule."""
    cap = branches.cap(cfg.params, p, mode or cfg.run["kappa_mode"],
                       cfg.run["kappa"] if value is None else value)
    return {"alpha": cfg.params.alpha, "kappa": cap.kappa,
            "lambda2_proxy": cap.proxy, "tol": cfg.run["tol"]}


def _ground_at(cfg: RunConfig, pmag):
    """(cap columns, lambda1, ground BranchPoint) at |p| = pmag: kappa by
    the run's rule, then lambda1 below it, then the ground state."""
    p = cfg.vector(pmag)
    cap = _cap_columns(cfg, p)
    lam1 = branches.lambda1(cfg.params, p, cap["kappa"], cfg.quad, cfg.run["tol"])
    bp = branches.ground_state(cfg.params, p, lam1, cfg.run["neumann_order"],
                               cfg.quad, cfg.run["tol"])
    return cap, lam1, bp


def _g1_points(cfg: RunConfig, p, kappa, rays=None):
    """([(q, BranchPoint)] over the q grid, boundary along the rays) of the
    one-boson domain at p below the cap kappa: one `one_boson_domain` call."""
    grid = [float(q) for q in _q_grid(cfg)]
    probes = np.reshape([cfg.vector(q) for q in grid], (-1, cfg.params.d))
    dmap = branches.one_boson_domain(cfg.params, p, kappa, probes, cfg.quad,
                                     cfg.run["tol"], rays=rays)
    return list(zip(grid, dmap.points)), dmap.boundary


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: RunConfig):
    report = model.validate_model(cfg.params, seed=cfg.run["seed"])
    print(report)
    rows = [
        {"check": c.name, "passed": bool(c.passed), "detail": c.detail}
        for c in report.checks
    ]
    return ["check", "passed", "detail"], rows, {}, 0 if report.all_passed else 1


def cmd_thresholds(cfg: RunConfig):
    tol = cfg.run["tol"]

    def one(pmag):
        p = cfg.vector(pmag)
        # lambda2_0 and the proxy from one cap; -inf is below any proxy
        cap = branches.cap(cfg.params, p, "absolute", -math.inf)
        return {"p": float(pmag), "lambda1_0": model.threshold(cfg.params, 1, p),
                "lambda2_0": cap.lambda2_0,
                "lambda3_0": model.threshold(cfg.params, 3, p),
                "lambda2_proxy": cap.proxy, "alpha": cfg.params.alpha, "tol": tol,
                "status": "converged"}

    rows = [one(x) for x in cfg.run["p_values"]]
    cols = ["p", "lambda1_0", "lambda2_0", "lambda3_0", "lambda2_proxy",
            "alpha", "tol", "status"]
    return cols, rows, {}


def cmd_ground_scan(cfg: RunConfig):
    def one(pmag):
        cap, lam1, bp = _ground_at(cfg, pmag)
        return {"p": float(pmag), **cap, "lambda1": lam1, "xi0": bp.xi,
                "residual": bp.residual, "status": bp.status}

    rows = [one(x) for x in cfg.run["p_values"]]
    boundary = branches.g0_boundary(
        cfg.params, cfg.direction(), cfg.quad, cfg.run["tol"],
        deltas=cfg.run["delta_ladder"], kappa_mode=cfg.run["kappa_mode"],
        kappa_value=cfg.run["kappa"], neumann_order=cfg.run["neumann_order"],
    )
    cols = ["p", "xi0", "lambda1", "kappa", "lambda2_proxy", "alpha",
            "residual", "status", "tol"]
    return cols, rows, {"g0_boundary": {"r_star": boundary.r_star,
                                        "ladder": boundary.ladder,
                                        "status": boundary.status}}


def _q_grid(cfg: RunConfig):
    if cfg.run["q_values"] is not None:
        return cfg.run["q_values"]
    n = cfg.run["q_count"]
    qm = cfg.run["q_max"]
    return list(np.linspace(-qm, qm, n))


def cmd_dispersion_scan(cfg: RunConfig):
    p = cfg.vector(cfg.run["p"])
    cap = _cap_columns(cfg, p)
    points, boundary = _g1_points(cfg, p, cap["kappa"])
    rows = [
        {"p": cfg.run["p"], "q": q, "xi": bp.xi, "member": bp.status != "none",
         "residual": bp.residual, "status": bp.status, **cap}
        for q, bp in points
    ]
    cols = ["p", "q", "xi", "member", "residual", "status", "alpha", "kappa",
            "lambda2_proxy", "tol"]
    return cols, rows, {"boundary": [
        {"direction": list(map(float, ray)), "radius": radius}
        for ray, radius in boundary
    ]}


def cmd_domain_map(cfg: RunConfig):
    p_fixed = cfg.vector(cfg.run["p"])
    g1_cap = _cap_columns(cfg, p_fixed)

    def g0_row(pmag):
        cap, _, bp = _ground_at(cfg, pmag)
        return {"domain": "G0", "coordinate": float(pmag),
                "member": bp.status == "converged", **cap, "status": bp.status}

    rows = [g0_row(x) for x in cfg.run["p_values"]]
    # an empty q grid makes no G1 call; `_cap_columns` has checked its cap
    g1 = _g1_points(cfg, p_fixed, g1_cap["kappa"], rays=[])[0] if _q_grid(cfg) else []
    rows += [{"domain": "G1", "coordinate": q, "member": bp.status != "none",
              **g1_cap, "status": bp.status} for q, bp in g1]
    cols = ["domain", "coordinate", "member", "alpha", "kappa",
            "lambda2_proxy", "status", "tol"]
    return cols, rows, {}


def cmd_gamma(cfg: RunConfig):
    def one(kmag):
        cap, _, gs = _ground_at(cfg, kmag)
        res = branches.gamma_factor(cfg.params, cfg.vector(kmag),
                                    np.zeros(cfg.params.d), cap["kappa"],
                                    cfg.quad, cfg.run["tol"])
        return {
            "k": float(kmag), "gamma": res.gamma, "residual": res.residual,
            "xi0": gs.xi, "ground_status": gs.status, **cap,
            # the second pair of the factorization check left the domain
            "status": "converged" if res.residual is not None else "no-residual",
        }

    rows = [one(x) for x in cfg.run["p_values"]]
    cols = ["k", "gamma", "residual", "xi0", "ground_status", "alpha",
            "kappa", "lambda2_proxy", "status", "tol"]
    return cols, rows, {}


def cmd_alpha0(cfg: RunConfig):
    p = cfg.vector(cfg.run["p"])
    rows = []
    for frac in cfg.run["kappa_fractions"]:
        cap = _cap_columns(cfg, p, "fraction", frac)
        rep = selfenergy.contraction_bounds(cfg.params, p, cap["kappa"],
                                            cap["lambda2_proxy"])
        rows.append({
            "kappa_fraction": float(frac), "bound_Q": rep.bound_Q,
            "bound_Gamma": rep.bound_Gamma, "alpha0_Q": rep.alpha0_Q,
            "alpha0_Gamma": rep.alpha0_Gamma, "h_norm": rep.h_norm, **cap,
            "status": "converged",
        })
    cols = ["kappa_fraction", "kappa", "bound_Q", "bound_Gamma", "alpha0_Q",
            "alpha0_Gamma", "h_norm", "lambda2_proxy", "alpha", "status", "tol"]
    return cols, rows, {}


def cmd_oracle_check(cfg: RunConfig):
    # only this command loads the oracle
    from . import oracle

    if cfg.run["kappa_mode"] != "fraction":
        raise InputError(
            "oracle-check needs kappa-mode = fraction: the ground ladder sets "
            "its cap at each alpha as a fraction of the gap to the two-boson "
            "proxy")
    tol = cfg.run["tol"]
    p = cfg.vector(cfg.run["p"])
    cap = _cap_columns(cfg, p)
    comparison = oracle.compare_ground(
        cfg.params, p, cfg.measure, cfg.run["kappa"], cfg.run["alpha_ladder"],
        neumann_order=cfg.run["neumann_order"], n_max=cfg.run["n_max"],
        tol=tol,
    )
    rows = [
        {"kind": "ground", "alpha": r.alpha, "kappa": r.kappa,
         "lambda2_proxy": r.lambda2_proxy, "tol": tol, "q": cfg.run["p"],
         "oracle": r.oracle_e0, "solver": r.solver_xi0, "diff": r.diff,
         "diff_scaled": r.diff_scaled, "status": "converged"}
        for r in comparison.rows
    ]
    for qmag in cfg.run["oracle_q"]:
        # snap to the nearest lattice point; the oracle only knows the grid
        dists = np.linalg.norm(cfg.measure.points - cfg.vector(qmag)[None, :],
                               axis=-1)
        q_snap = cfg.measure.points[int(np.argmin(dists))]
        comp = oracle.compare_dispersion(
            cfg.params, p, cfg.measure, cap["kappa"], q_snap,
            n_max=cfg.run["n_max"], tol=tol,
        )
        rows.append({
            "kind": "dispersion", "q": float(np.linalg.norm(q_snap)),
            "oracle": comp.nearest_eigenvalue, "solver": comp.solver_xi,
            "diff": comp.gap, "diff_scaled": None, **cap,
            "status": "matched" if comp.matched else "mismatch",
        })
    cols = ["kind", "alpha", "q", "oracle", "solver", "diff",
            "diff_scaled", "kappa", "lambda2_proxy", "status", "tol"]
    return cols, rows, {}


# name -> (command, one-line help).  A command returns its CSV columns,
# its rows and its own record fields; validate adds its exit status.
_COMMANDS = {
    "validate": (cmd_validate,
                 "model condition report (sampled falsification checks)"),
    "thresholds": (cmd_thresholds,
                   "free n-boson thresholds over a |p| grid (n = 1, 2, 3)"),
    "ground-scan": (cmd_ground_scan,
                    "ground branch over a |p| grid plus the domain boundary"),
    "dispersion-scan": (cmd_dispersion_scan,
                        "one-boson dispersion over a q grid at fixed p"),
    "domain-map": (cmd_domain_map,
                   "membership maps for the ground and one-boson domains"),
    "gamma": (cmd_gamma,
              "dressed dispersion gamma(k) with factorization residuals"),
    "alpha0": (cmd_alpha0, "contraction bound table over the cap ladder"),
    "oracle-check": (cmd_oracle_check,
                     "solver vs truncated-diagonalization comparisons"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use: it keeps
    no state between `parse_args` calls."""
    parser = argparse.ArgumentParser(
        prog="polaron",
        description="Lower spectral branches of the fixed-momentum "
                    "particle-boson Hamiltonian\nat weak coupling.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<17}{text}" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--tol", default=None,
                        help="override the [run] tolerance")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.tol is not None:
            # refused as the config's tol is: a finite float >= 0
            try:
                cfg.run["tol"] = _nonnegative(args.tol)
            except ValueError as exc:
                raise InputError(f"bad value for '--tol': {args.tol!r}") from exc
        columns, rows, fields, *status = _COMMANDS[args.command][0](cfg)
        record = {"config": cfg.raw, "tol": cfg.run["tol"], **fields,
                  "command": args.command, "points": rows}
        _write_outputs(Path(args.out), args.command, columns, rows, record)
        return status[0] if status else 0
    except PolaronError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
