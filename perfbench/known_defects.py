"""Reproduce the curvlab defects the benchmark's workloads leave out.

    python3 perfbench/known_defects.py

The workloads hold only calls whose output passes its check.  Each case below
fails that same check at this commit; it runs here, through the workload's own
`Case`, so that the defect stays on record.  One line per case says whether it
still fails and why.  Exits 0 either way: a case that passes means the defect
was fixed, and the workload may take it back.
"""

from __future__ import annotations

import sys

import numpy as np

import run
import workloads as wl


def cases(cl):
    """The defects, each on one fixed input."""
    mesh = cl.circle_mesh(64, 2 * np.pi)
    shapes = np.random.default_rng(wl.APPROX_SHAPE_SEED)
    shape = [wl._approx_shape(shapes) for _ in range(4)][3]
    f, g = wl._approx_pair(mesh.nodes, shape, 2 * np.pi / 64 * 38)
    return [
        # reparametrized fallback: recomputed curvature misses the target
        wl.prescribe_case(cl, "flat-torus", 256, 1, 0.08, 0.0),
        wl.prescribe_case(cl, "flat-torus", 64, 2, 0.065, 1.562),
        wl.prescribe_case(cl, "flat-torus", 64, 1, 0.08, np.pi / 2),
        wl.prescribe_case(cl, "round-fiber", 512, 1, 0.1, 0.0),  # the ROADMAP target
        # false obstruction of a criterion-9 pair (shape 3, rotated 38 steps)
        wl.approx_case(cl, mesh, f, g, 1.0, "criterion-9 shape 3 rotated 38/64 N=64 p=1"),
    ]


def main() -> int:
    run.cap_blas_threads()
    cl = wl.import_curvlab()
    for case in cases(cl):
        out, seconds = run.call_case(case)
        reason = case.check(out)
        status = f"still fails: {reason}" if reason else "passes (fixed)"
        print(f"{case.metric} [{case.label}] {seconds:.3f} s: {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
