"""Batch CLI: parse a model config, run a scan, emit a CSV table and a
structured JSON run record.  Outputs are deterministic for a fixed
config (fixed summation order, no timestamps)."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import branches, model, oracle, selfenergy
from .config import RunConfig, load_config
from .errors import InputError, PolaronError
from .quadrature import QuadratureSpec

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
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{command}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
    json_path = out_dir / f"{command}.json"
    record = dict(record)
    record["command"] = command
    record["points"] = rows
    with open(json_path, "w") as fh:
        json.dump(record, fh, indent=1, default=_fmt, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _kappa_at(cfg: RunConfig, p_vec):
    return branches.kappa_from_rule(
        cfg.params, p_vec, cfg.run["kappa_mode"], cfg.run["kappa"]
    )


def _base_record(cfg: RunConfig):
    return {"config": cfg.raw, "tol": cfg.run["tol"]}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: RunConfig, out_dir: Path) -> int:
    report = model.validate_model(cfg.params, seed=cfg.run["seed"])
    rows = [
        {"check": c.name, "passed": bool(c.passed), "detail": c.detail}
        for c in report.checks
    ]
    _write_outputs(out_dir, "validate", ["check", "passed", "detail"], rows,
                   _base_record(cfg))
    print(report)
    return 0 if report.all_passed else 1


def cmd_thresholds(cfg: RunConfig, out_dir: Path) -> int:
    tol = cfg.run["tol"]

    def one(pmag):
        p = cfg.vector(pmag)
        row = {"p": float(pmag), "alpha": cfg.params.alpha, "tol": tol,
               "status": "converged"}
        for n in (1, 2, 3):
            row[f"lambda{n}_0"] = model.threshold(cfg.params, n, p)
        row["lambda2_proxy"] = selfenergy.lambda2_proxy_value(cfg.params, p)
        return row

    rows = [one(x) for x in cfg.run["p_values"]]
    cols = ["p", "lambda1_0", "lambda2_0", "lambda3_0", "lambda2_proxy",
            "alpha", "tol", "status"]
    _write_outputs(out_dir, "thresholds", cols, rows, _base_record(cfg))
    return 0


def cmd_ground_scan(cfg: RunConfig, out_dir: Path) -> int:
    tol = cfg.run["tol"]
    order = cfg.run["neumann_order"]

    def one(pmag):
        p = cfg.vector(pmag)
        kappa = _kappa_at(cfg, p)
        proxy = selfenergy.lambda2_proxy_value(cfg.params, p)
        lam1 = branches.lambda1(cfg.params, p, kappa, cfg.quad, tol)
        bp = branches.ground_state(cfg.params, p, kappa, order, cfg.quad,
                                   tol, lam1=lam1)
        return {
            "p": float(pmag), "alpha": cfg.params.alpha, "kappa": kappa,
            "lambda2_proxy": proxy, "lambda1": lam1, "xi0": bp.xi,
            "residual": bp.residual, "status": bp.status, "tol": tol,
        }

    rows = [one(x) for x in cfg.run["p_values"]]
    record = _base_record(cfg)
    boundary = branches.g0_boundary(
        cfg.params, cfg.direction(), cfg.quad, tol,
        deltas=cfg.run["delta_ladder"], kappa_mode=cfg.run["kappa_mode"],
        kappa_value=cfg.run["kappa"], neumann_order=order,
    )
    record["g0_boundary"] = {
        "r_star": boundary.r_star,
        "ladder": boundary.ladder,
        "status": boundary.status,
    }
    cols = ["p", "xi0", "lambda1", "kappa", "lambda2_proxy", "alpha",
            "residual", "status", "tol"]
    _write_outputs(out_dir, "ground-scan", cols, rows, record)
    return 0


def _q_grid(cfg: RunConfig):
    if cfg.run["q_values"] is not None:
        return cfg.run["q_values"]
    n = cfg.run["q_count"]
    qm = cfg.run["q_max"]
    return list(np.linspace(-qm, qm, n))


def cmd_dispersion_scan(cfg: RunConfig, out_dir: Path) -> int:
    tol = cfg.run["tol"]
    p = cfg.vector(cfg.run["p"])
    kappa = _kappa_at(cfg, p)
    proxy = selfenergy.lambda2_proxy_value(cfg.params, p)

    def one(qmag):
        bp = branches.dispersion_point(cfg.params, p, cfg.vector(qmag),
                                       kappa, cfg.quad, tol)
        return {
            "p": cfg.run["p"], "q": float(qmag), "xi": bp.xi,
            "member": bp.status != "none", "residual": bp.residual,
            "status": bp.status, "alpha": cfg.params.alpha, "kappa": kappa,
            "lambda2_proxy": proxy, "tol": tol,
        }

    rows = [one(x) for x in _q_grid(cfg)]
    record = _base_record(cfg)
    dmap = branches.one_boson_domain(
        cfg.params, p, kappa, np.zeros((1, cfg.params.d)), cfg.quad, tol,
    )
    record["boundary"] = [
        {"direction": list(map(float, ray)), "radius": radius}
        for ray, radius in dmap.boundary
    ]
    cols = ["p", "q", "xi", "member", "residual", "status", "alpha", "kappa",
            "lambda2_proxy", "tol"]
    _write_outputs(out_dir, "dispersion-scan", cols, rows, record)
    return 0


def cmd_domain_map(cfg: RunConfig, out_dir: Path) -> int:
    tol = cfg.run["tol"]
    order = cfg.run["neumann_order"]
    p_fixed = cfg.vector(cfg.run["p"])
    kappa = _kappa_at(cfg, p_fixed)
    proxy = selfenergy.lambda2_proxy_value(cfg.params, p_fixed)

    def g0_row(pmag):
        p = cfg.vector(pmag)
        kp = _kappa_at(cfg, p)
        bp = branches.ground_state(cfg.params, p, kp, order, cfg.quad, tol)
        return {"domain": "G0", "coordinate": float(pmag),
                "member": bp.status == "converged", "alpha": cfg.params.alpha,
                "kappa": kp,
                "lambda2_proxy": selfenergy.lambda2_proxy_value(cfg.params, p),
                "status": bp.status, "tol": tol}

    def g1_row(qmag):
        bp = branches.dispersion_point(cfg.params, p_fixed, cfg.vector(qmag),
                                       kappa, cfg.quad, tol)
        return {"domain": "G1", "coordinate": float(qmag),
                "member": bp.status != "none", "alpha": cfg.params.alpha,
                "kappa": kappa, "lambda2_proxy": proxy, "status": bp.status,
                "tol": tol}

    rows = [g0_row(x) for x in cfg.run["p_values"]]
    rows += [g1_row(x) for x in _q_grid(cfg)]
    cols = ["domain", "coordinate", "member", "alpha", "kappa",
            "lambda2_proxy", "status", "tol"]
    _write_outputs(out_dir, "domain-map", cols, rows, _base_record(cfg))
    return 0


def cmd_gamma(cfg: RunConfig, out_dir: Path) -> int:
    tol = cfg.run["tol"]
    order = cfg.run["neumann_order"]
    q0 = np.zeros(cfg.params.d)

    def one(kmag):
        p = cfg.vector(kmag)
        kappa = _kappa_at(cfg, p)
        proxy = selfenergy.lambda2_proxy_value(cfg.params, p)
        res = branches.gamma_factor(cfg.params, p, q0, kappa, cfg.quad, tol)
        gs = branches.ground_state(cfg.params, p, kappa, order, cfg.quad, tol)
        return {
            "k": float(kmag), "gamma": res.gamma, "residual": res.residual,
            "xi0": gs.xi, "ground_status": gs.status,
            "alpha": cfg.params.alpha, "kappa": kappa,
            "lambda2_proxy": proxy,
            # the second pair of the factorization check left the domain
            "status": "converged" if res.residual is not None else "no-residual",
            "tol": tol,
        }

    rows = [one(x) for x in cfg.run["p_values"]]
    cols = ["k", "gamma", "residual", "xi0", "ground_status", "alpha",
            "kappa", "lambda2_proxy", "status", "tol"]
    _write_outputs(out_dir, "gamma", cols, rows, _base_record(cfg))
    return 0


def cmd_alpha0(cfg: RunConfig, out_dir: Path) -> int:
    p = cfg.vector(cfg.run["p"])
    rows = []
    for frac in cfg.run["kappa_fractions"]:
        kappa = branches.kappa_from_rule(cfg.params, p, "fraction", frac)
        rep = selfenergy.contraction_bounds(cfg.params, p, kappa)
        rows.append({
            "kappa_fraction": float(frac), "kappa": kappa,
            "bound_Q": rep.bound_Q, "bound_Gamma": rep.bound_Gamma,
            "alpha0_Q": rep.alpha0_Q, "alpha0_Gamma": rep.alpha0_Gamma,
            "h_norm": rep.h_norm, "lambda2_proxy": rep.lam2,
            "alpha": cfg.params.alpha, "status": "converged",
            "tol": cfg.run["tol"],
        })
    cols = ["kappa_fraction", "kappa", "bound_Q", "bound_Gamma", "alpha0_Q",
            "alpha0_Gamma", "h_norm", "lambda2_proxy", "alpha", "status", "tol"]
    _write_outputs(out_dir, "alpha0", cols, rows, _base_record(cfg))
    return 0


def cmd_oracle_check(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.run["kappa_mode"] != "fraction":
        raise InputError(
            "oracle-check needs kappa-mode = fraction: the ground ladder sets "
            "its cap at each alpha as a fraction of the gap to the two-boson "
            "proxy")
    tol = cfg.run["tol"]
    p = cfg.vector(cfg.run["p"])
    kappa = _kappa_at(cfg, p)
    proxy = selfenergy.lambda2_proxy_value(cfg.params, p)
    comparison = oracle.compare_ground(
        cfg.params, p, cfg.measure, cfg.run["kappa"], cfg.run["alpha_ladder"],
        neumann_order=cfg.run["neumann_order"], n_max=cfg.run["n_max"],
        tol=tol,
    )
    rows = [
        {"kind": "ground", "alpha": r.alpha, "q": cfg.run["p"],
         "oracle": r.oracle_e0, "solver": r.solver_xi0, "diff": r.diff,
         "diff_scaled": r.diff_scaled, "kappa": r.kappa,
         "lambda2_proxy": proxy, "status": "converged", "tol": tol}
        for r in comparison.rows
    ]
    for qmag in cfg.run["oracle_q"]:
        # snap to the nearest lattice point; the oracle only knows the grid
        dists = np.linalg.norm(cfg.measure.points - cfg.vector(qmag)[None, :],
                               axis=-1)
        q_snap = cfg.measure.points[int(np.argmin(dists))]
        comp = oracle.compare_dispersion(
            cfg.params, p, cfg.measure, kappa, q_snap,
            n_max=cfg.run["n_max"], tol=tol,
        )
        rows.append({
            "kind": "dispersion", "alpha": cfg.params.alpha,
            "q": float(np.linalg.norm(q_snap)),
            "oracle": comp.nearest_eigenvalue, "solver": comp.solver_xi,
            "diff": comp.gap, "diff_scaled": None, "kappa": kappa,
            "lambda2_proxy": proxy,
            "status": "matched" if comp.matched else "mismatch", "tol": tol,
        })
    cols = ["kind", "alpha", "q", "oracle", "solver", "diff",
            "diff_scaled", "kappa", "lambda2_proxy", "status", "tol"]
    _write_outputs(out_dir, "oracle-check", cols, rows, _base_record(cfg))
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "thresholds": cmd_thresholds,
    "ground-scan": cmd_ground_scan,
    "dispersion-scan": cmd_dispersion_scan,
    "domain-map": cmd_domain_map,
    "gamma": cmd_gamma,
    "alpha0": cmd_alpha0,
    "oracle-check": cmd_oracle_check,
}

_HELP = {
    "validate": "model condition report (sampled falsification checks)",
    "thresholds": "free n-boson thresholds over a |p| grid (n = 1, 2, 3)",
    "ground-scan": "ground branch over a |p| grid plus the domain boundary",
    "dispersion-scan": "one-boson dispersion over a q grid at fixed p",
    "domain-map": "membership maps for the ground and one-boson domains",
    "gamma": "dressed dispersion gamma(k) with factorization residuals",
    "alpha0": "contraction bound table over the cap ladder",
    "oracle-check": "solver vs truncated-diagonalization comparisons",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polaron",
        description="Lower spectral branches of the fixed-momentum "
                    "particle-boson Hamiltonian at weak coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", required=True, help="path to the run config")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--tol", type=float, default=None,
                        help="override the [run] tolerance")
        sp.set_defaults(fn=fn)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.tol is not None:
            cfg.run["tol"] = args.tol
        return args.fn(cfg, Path(args.out))
    except PolaronError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
