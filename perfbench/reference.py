"""Rebuilds the reference figures in README.md.

    python3 perfbench/reference.py [--seeds 1-10] [--seconds S] [--trace 0|1] [WORKLOAD ...]

Runs run.py once per seed and workload, one run at a time, and prints each
run's result, then per workload and metric the median, the quartiles and
the spread (distance between the quartiles as a share of the median).
The workloads and S default to those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", default=str(BENCHMARK["run_seconds"]))
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in BENCHMARK["workloads"]])
    args = ap.parse_args(argv)
    bad = 0
    for name in args.workloads:
        values, shares = {}, set()
        for seed in args.seeds:
            res = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, cwd=HERE.parent)
            if res.returncode != 0:
                print(f"{name} seed {seed}: exit {res.returncode}\n{res.stderr}")
                bad += 1
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            bad += not out["correct"]
            shares.add(out["failed"] / out["attempted"])
            print(f"{name} seed {seed}: correct {out['correct']} attempted "
                  f"{out['attempted']} failed {out['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                  flush=True)
            for key, metric in out["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        print(f"{name}: failed share per run {sorted(shares)}")
        for key, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"  {key}: {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {key}: median {med:.6g} quartiles {q1:.6g} {q3:.6g} "
                  f"spread {spread:.4f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
