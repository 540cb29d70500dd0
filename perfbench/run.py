"""Benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner pins BLAS to one thread for
itself and every child, makes the workload's inputs from the seed, times
set-up in fresh interpreters, warms up with one untimed pass, then runs
whole passes until S seconds of passes have run (at least four), checks
every pass's outputs, and prints one JSON object as the last line of
standard output.

--trace 0 reports the end-to-end metrics (pass_s, setup_s, peak_rss_mb).
pass_s is the sum over the pass's operations of each operation's fastest
time over the timed passes (see README.md for why not the median pass).
--trace 1 alternates untraced and traced passes (at least four of each) and
reports the per-layer metrics; the spans of every traced pass go to
.perfbench_out/trace-<workload>-s<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_RUNS = 7         # one cold import ranges over 30%; the median is steadier
MIN_PASSES = 4         # a per-operation minimum needs a few samples

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup_times(name, seed, rundir):
    """(setup_s, import_s) medians over fresh-interpreter set-ups."""
    setup, imports = [], []
    for _ in range(SETUP_RUNS):
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed), str(rundir)],
            capture_output=True, text=True, timeout=120, check=True)
        record = json.loads(res.stdout.strip().splitlines()[-1])
        setup.append(record["setup_s"])
        imports.append(record["import_s"])
    return statistics.median(setup), statistics.median(imports)


def pass_seconds(passes):
    """Sum over operations of each operation's fastest time in `passes`."""
    return sum(min(times) for times in zip(*(p.op_s for p in passes)))


def compare_passes(first, passes):
    """Violations for passes whose outputs differ from the first pass's."""
    return [("deterministic", f"pass {i} outputs differ from the first pass")
            for i, p in enumerate(passes, 2) if p.outputs != first.outputs]


def prepare():
    """Pin BLAS to one thread (before numpy is imported) and put the
    checkout's src/ first on the import path of this process and its
    children.  False when the checkout has no polaron sources."""
    os.environ.update(BLAS_THREADS)
    if not (SRC / "polaron" / "__init__.py").is_file():
        print(f"perfbench: no polaron sources in {SRC}", file=sys.stderr)
        return False
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    args = _parse(argv)
    if not prepare():
        return 2

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out"
    rundir = out_root / f"{wl.name}-s{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, wl, rundir, out_root)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _run(args, wl, rundir, out_root):
    import tracing
    import workloads

    spec = wl.spec(args.seed)
    wl.write_inputs(spec, rundir)
    setup_s, import_s = _setup_times(wl.name, args.seed, rundir)
    state = wl.build(spec, rundir)

    wl.run_pass(state)                              # warm-up, untimed
    untraced, traced, layers, recordings = [], [], [], []
    tracer = tracing.Tracer()
    clock = time.perf_counter
    start = clock()
    while len(untraced) < MIN_PASSES or clock() - start < args.seconds:
        untraced.append(wl.run_pass(state))
        if len(untraced) == 1:
            # the high-water mark after a fixed amount of work: later passes
            # raise it by allocator fragmentation, and their number varies
            peak_mb = workloads.self_peak_mb()
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                traced.append(wl.run_pass(state))
            finally:
                tracer.uninstall()
            recordings.append(tracer.export())
            layers.append(tracing.layer_metrics(tracer.spans, tracer.dims))
    passes = untraced + traced

    violations = wl.check(state, passes[0].outputs) + compare_passes(passes[0], passes[1:])
    for name, message in violations:
        print(f"CHECK FAILED [{name}] {message}", file=sys.stderr)

    if args.trace:
        medians = tracing.median_metrics(layers)
        metrics = {k: {"value": medians[k], "unit": u} for k, u in tracing.PER_LAYER}
        metrics["import.polaron_s"] = {"value": import_s, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": pass_seconds(traced) - pass_seconds(untraced), "unit": "s"}
        trace_path = out_root / f"trace-{wl.name}-s{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                          "passes": recordings}))
    else:
        metrics = {
            "pass_s": {"value": pass_seconds(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    walls = [round(sum(p.op_s), 3) for p in untraced]
    print(f"{wl.name} seed {args.seed}: {len(walls)} timed passes, operation "
          f"time per pass {walls}, median {statistics.median(walls)}", file=sys.stderr)
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
