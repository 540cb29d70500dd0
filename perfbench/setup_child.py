"""Set-up probe, run in a fresh interpreter by run.py:

    python3 perfbench/setup_child.py WORKLOAD SEED RUNDIR

Times the import of polaron and of the modules the workload uses, then the
building of its inputs (model, rules, lattice, config), and prints
{"import_s": ..., "setup_s": ...} as one JSON line.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main():
    name, seed, rundir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import workloads          # imports numpy and polaron

    wl = workloads.WORKLOADS[name]
    for module in wl.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - T0
    spec = wl.spec(seed)
    t0 = time.perf_counter()
    wl.build(spec, rundir)
    build_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "setup_s": import_s + build_s}))


if __name__ == "__main__":
    main()
