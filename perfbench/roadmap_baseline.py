"""Record the ROADMAP's baseline cases on their fixed inputs.

    python3 perfbench/roadmap_baseline.py [--write]

* ``bumpy`` (warping 1 + 0.2 sin r, c = 6): `minimize_on_constraint`
  iterations at N = 64, 256 and 512;
* ``round-fiber`` with the target 6 (1 + 0.1 sin r): the `full_prescribe`
  path at N = 64, 256 and 512, with the sup error recomputed from the
  returned metric.

Prints one line per case and exits 1 if a count or path differs from the
table below.  ``--write`` also stores the record in roadmap_baseline.json.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import run
import workloads as wl

EXPECTED_ITERATIONS = {64: 993, 256: 14952, 512: 20001}
EXPECTED_PATHS = {64: "identity", 256: "identity", 512: "reparametrized"}


def main(argv) -> int:
    cores = run.cap_blas_threads()
    cl = wl.import_curvlab()
    record = {"env": run.environment(cores), "minimize": {}, "prescribe": {}}
    ok = True
    for n, expected in EXPECTED_ITERATIONS.items():
        problem = cl.ConformalProblem(cl.get_preset("bumpy", n=n), c=6.0)
        start = time.perf_counter()
        sol = cl.minimize_on_constraint(problem)
        seconds = time.perf_counter() - start
        record["minimize"][n] = {"iterations": sol.iterations, "seconds": seconds}
        ok &= sol.iterations == expected
        print(f"minimize bumpy N={n} iterations={sol.iterations} (table {expected}) {seconds:.3f} s")
    for n, expected in EXPECTED_PATHS.items():
        metric = cl.get_preset("round-fiber", n=n)
        target = 6.0 * (1.0 + 0.1 * np.sin(metric.mesh.nodes))
        start = time.perf_counter()
        res = cl.full_prescribe(metric, target)
        seconds = time.perf_counter() - start
        err = float(np.max(np.abs(res.metric_out.scal() - target)))
        record["prescribe"][n] = {"path": res.path, "recomputed_sup_error": err,
                                  "reported_sup_error": res.residuals["sup_error"],
                                  "seconds": seconds}
        ok &= res.path == expected
        print(f"prescribe round-fiber N={n} path={res.path} (table {expected}) "
              f"recomputed sup error {err:.3g} {seconds:.3f} s")
    if "--write" in argv:
        (run.HERE / "roadmap_baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
