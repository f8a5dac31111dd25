"""`import curvlab` loads numpy and scipy.sparse only.

Each heavier scipy subpackage is imported inside the one function that uses
it, so a command pays for it only when it runs that function.  Each check
starts a fresh interpreter, because this test process has long since
imported them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.linalg",
            "scipy.sparse.linalg")


def _fresh_modules(code: str) -> set:
    """Run ``code`` in a new interpreter; the scipy modules it left loaded."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m for m in json.loads(proc.stdout.splitlines()[-1]) if m.startswith("scipy")}


def test_import_loads_no_heavy_scipy_subpackage():
    loaded = _fresh_modules("import curvlab, curvlab.runner")
    assert "scipy.sparse" in loaded
    assert loaded.isdisjoint(DEFERRED)


@pytest.mark.parametrize("call,loads", [
    ("m = get_preset('round-fiber', n=32)\n"
     "assert conformal_warped_metric(m, 1 + 0.1 * np.sin(m.mesh.nodes)).mesh.node_count == 32",
     "scipy.interpolate"),
    ("assert classify_conformal_class(get_preset('round-fiber', n=32))[0].value == 'P_G'",
     "scipy.linalg"),
    ("s = minimize_on_constraint(ConformalProblem(get_preset('round-fiber', n=32), c=1.0))\n"
     "assert s.residual_norm < 1e-6",
     "scipy.sparse.linalg"),
], ids=["conformal_warped_metric", "classify_conformal_class", "minimize_on_constraint"])
def test_deferred_imports_load_in_their_function(call, loads):
    loaded = _fresh_modules("import numpy as np\n"
                            "from curvlab import (ConformalProblem, classify_conformal_class,\n"
                            "    conformal_warped_metric, get_preset, minimize_on_constraint)\n"
                            + call)
    assert loads in loaded
