"""Shows that the output checks are not vacuous.

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

For each workload: run two passes, confirm that every check passes on
the real outputs, then perturb one output value at a time and confirm
that the check aimed at it fails.  Exits 1 if any perturbation goes
unnoticed or the real outputs fail a check.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import math
import shutil
import sys

import run


def _shift(path, delta):
    """Perturbation adding delta to the float at path in the outputs."""
    def apply(out, state):
        *head, last = path
        for key in head:
            out = out[key]
        out[last] += delta
    return apply


def _set(path, value_fn):
    def apply(out, state):
        *head, last = path
        for key in head:
            out = out[key]
        out[last] = value_fn(out, state)
    return apply


def _csv_cell(cmd, row, col, fn):
    """Perturbation rewriting one cell of a CLI command's CSV output."""
    def apply(out, state):
        rows = list(csv.reader(io.StringIO(out[cmd][".csv"].decode())))
        j = rows[0].index(col)
        rows[row + 1][j] = repr(fn(float(rows[row + 1][j])))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        out[cmd][".csv"] = buf.getvalue().encode()
    return apply


def _next_float(path):
    """Perturbation moving the float at path by one unit in the last place."""
    return _set(path, lambda node, state: math.nextafter(node[path[-1]], math.inf))


def _flip_csv_byte(out, state):
    blob = bytearray(out["thresholds"][".csv"])
    blob[-5] ^= 1
    out["thresholds"][".csv"] = bytes(blob)


def _widen_gap(row, factor):
    """Perturbation moving the solver's xi0 at one alpha rung `factor` times
    as far from the oracle e0, with diff recomputed to match."""
    def apply(out, state):
        r = out["ground"]["rows"][row]
        r["solver_xi0"] = r["oracle_e0"] + factor * (r["solver_xi0"] - r["oracle_e0"])
        r["diff"] = abs(r["oracle_e0"] - r["solver_xi0"])
    return apply


def _e1(draw, state):
    k = [a - b for a, b in zip(draw["p"], draw["q"])]
    return 0.5 * sum(x * x for x in k) + 1.0          # constant eps0 = 1


PERTURBATIONS = {
    "dispersion-d3": [
        ("residual", "xi shifted by 1e-6", _shift(("draws", 0, "xi"), 1e-6)),
        ("free-bound", "xi raised 1e-9 above e1(q)",
         _set(("draws", 1, "xi"), lambda d, s: _e1(d, s) + 1e-9)),
        ("rotation", "rotated copy's xi shifted by 1e-9",
         _shift(("draws", 160, "xi"), 1e-9)),
        ("gamma", "second gamma shifted by 1e-6",
         _shift(("pairs", 0, "gamma_second"), 1e-6)),
        ("boundary", "boundary radius scaled by 1 + 1e-6",
         _set(("boundary", 0, "rays", 0), lambda rays, s: (rays[0][0], rays[0][1] * (1 + 1e-6)))),
        ("converged", "status set to capped",
         _set(("draws", 2, "status"), lambda d, s: "capped")),
        ("deterministic", "second pass's xi moved by one ulp",
         _next_float(("draws", 0, "xi"))),
    ],
    "oracle-matched-d3": [
        ("eigsh", "dense e0 shifted by 1e-9", _shift(("ground", "rows", 0, "oracle_e0"), 1e-9)),
        ("min-max", "n_max=2 e0 raised by 1e-3",
         _shift(("ground", "rows", 1, "oracle_e0"), 1e-3)),
        ("gap-shrinks", "solver-oracle gap at alpha=0.05 widened 10x, diff to match",
         _widen_gap(2, 10.0)),
        ("gap-diff", "reported diff at alpha=0.1 shifted by 1e-12",
         _shift(("ground", "rows", 1, "diff"), 1e-12)),
        ("below-free", "solver xi0 raised to p^2/2",
         _set(("ground", "rows", 0, "solver_xi0"),
              lambda r, s: 0.5 * sum(x * x for x in s["spec"]["p_ground"]))),
        ("matched", "dispersion marked unmatched",
         _set(("dispersion", "matched"), lambda d, s: False)),
        ("deterministic", "second pass's oracle e0 moved by one ulp",
         _next_float(("ground", "rows", 0, "oracle_e0"))),
    ],
    "cli-inproc-d1": [
        ("exit-0", "alpha0 exit code 1", _set(("alpha0", "rc"), lambda o, s: 1)),
        ("thresholds", "lambda2_0 shifted by 1e-9",
         _csv_cell("thresholds", 1, "lambda2_0", lambda v: v + 1e-9)),
        ("dispersion-scan", "xi at q=0 raised 1e-9 above e1(q) = 1",
         _csv_cell("dispersion-scan", 4, "xi", lambda v: 1.0 + 1e-9)),
        ("alpha0", "bound_Q scaled by 1 + 1e-9",
         _csv_cell("alpha0", 0, "bound_Q", lambda v: v * (1 + 1e-9))),
        ("deterministic", "one byte of the second pass's thresholds.csv flipped",
         _flip_csv_byte),
    ],
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args(argv)
    if not run.prepare():
        return 2
    import workloads

    names = args.workloads or list(workloads.WORKLOADS)
    rundir = run.ROOT / ".perfbench_out" / "selfcheck"
    rundir.mkdir(parents=True, exist_ok=True)
    missed = 0
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            spec = wl.spec(args.seed)
            wl.write_inputs(spec, rundir)
            state = wl.build(spec, rundir)
            first, second = wl.run_pass(state), wl.run_pass(state)
            real = wl.check(state, first.outputs) + run.compare_passes(first, [second])
            print(f"{name}: real outputs: {'PASS' if not real else real}")
            missed += bool(real)
            for check, what, perturb in PERTURBATIONS[name]:
                if check == "deterministic":
                    changed = copy.deepcopy(second)
                    perturb(changed.outputs, state)
                    found = run.compare_passes(first, [changed])
                else:
                    out = copy.deepcopy(first.outputs)
                    perturb(out, state)
                    found = wl.check(state, out)
                caught = check in {c for c, _ in found}
                missed += not caught
                print(f"  {'caught' if caught else 'MISSED'}: [{check}] {what}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
