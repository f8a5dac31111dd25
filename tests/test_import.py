"""`import curvlab` loads numpy only.

Each scipy subpackage is imported inside the functions that use it, so a
command pays for it only when it runs one of them: `scipy.sparse` arrives
with a mesh's first sparse matrix.  The mesh stencils, and with them every
curvature evaluation, the approximation lemma and the Cheeger and canonical
sweeps, load no scipy at all.  Each check starts a fresh interpreter, because
this test process has long since imported them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
IMPORTS = ("import numpy as np\n"
           "from curvlab import (ConformalProblem, approximate_by_diffeo, circle_mesh,\n"
           "    classify_conformal_class, conformal_scal, get_preset,\n"
           "    kernel_min_singular, minimize_on_constraint, scal_warped,\n"
           "    solve_negative_constant)\n"
           "from curvlab.runner import ScenarioConfig, run_scenario\n")


def _fresh_modules(code: str) -> set:
    """Run ``code`` in a new interpreter; the scipy modules it left loaded."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m for m in json.loads(proc.stdout.splitlines()[-1]) if m.startswith("scipy")}


def test_import_loads_no_heavy_scipy_subpackage():
    # no scipy subpackage at all: scipy.sparse waits for the first sparse matrix
    assert _fresh_modules("import curvlab, curvlab.runner") == set()


@pytest.mark.parametrize("call,loads", [
    ("assert get_preset('round-fiber', n=32).mesh.stiffness_matrix().shape == (32, 32)",
     "scipy.sparse"),
    ("assert classify_conformal_class(get_preset('round-fiber', n=32))[0].value == 'P_G'",
     "scipy.linalg"),
    ("s = minimize_on_constraint(ConformalProblem(get_preset('round-fiber', n=32), c=1.0))\n"
     "assert s.residual_norm < 1e-6",
     "scipy.linalg"),
    ("assert kernel_min_singular(get_preset('bumpy', n=32)) > 1e-3", "scipy.linalg"),
    ("assert solve_negative_constant(get_preset('hyperbolic-fiber', n=32))[0].achieved_constant > 0",
     "scipy.linalg"),
], ids=["first_matrix_call", "classify_conformal_class",
        "minimize_on_constraint", "kernel_min_singular", "solve_negative_constant"])
def test_deferred_imports_load_in_their_function(call, loads):
    # every banded solve is plain LAPACK: no route loads SuperLU or ARPACK
    loaded = _fresh_modules(IMPORTS + call)
    assert loads in loaded
    assert "scipy.sparse.linalg" not in loaded


@pytest.mark.parametrize("call", [
    "assert scal_warped(get_preset('round-fiber', n=32)).shape == (32,)",
    "m = get_preset('round-fiber', n=32)\n"
    "assert conformal_scal(m, 1 + 0.1 * np.sin(m.mesh.nodes)).shape == (32,)",
    "m = circle_mesh(32, 2 * np.pi, lambda r: 1 + 0.1 * np.sin(r))\n"
    "assert m.laplacian(np.cos(m.nodes)).shape == (32,)",
    "m = circle_mesh(64, 2 * np.pi)\n"
    "r = approximate_by_diffeo(m, np.sin(2 * m.nodes), 0.9 * np.sin(m.nodes))\n"
    "assert r.achieved_error < r.requested_eps",
    "run_scenario(ScenarioConfig('cheeger', {'model.preset': 'su2-berger(1.7)',\n"
    "                                        'run.outdir': OUT}))",
    "run_scenario(ScenarioConfig('canonical', {'model.preset': 'negative-base-product',\n"
    "                                          'run.outdir': OUT}))",
], ids=["scal_warped", "conformal_scal", "mesh_laplacian", "approximate_by_diffeo",
        "cheeger_scenario", "canonical_scenario"])
def test_routes_without_operators_load_no_scipy(call, tmp_path):
    assert _fresh_modules(IMPORTS + f"OUT = {str(tmp_path / 'out')!r}\n" + call) == set()
