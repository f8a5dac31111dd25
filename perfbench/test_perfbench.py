"""Self-test of the benchmark on tiny instances (N = 16-32).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads as wl

cl = wl.import_curvlab()

TINY = {64: 16, 128: 20, 256: 24, 512: 32, 1024: 32}

# Per-layer counts the seed code makes nonzero on each tiny workload.
EXPECTED_NONZERO = {
    "prescribe": ("mesh.operator_build_calls", "mesh.stencil_calls", "models.scal_warped_calls",
                  "models.scal_diagonal_calls", "prescribe.jacobian_s", "prescribe.jacobian_calls",
                  "prescribe.kernel_calls", "prescribe.newton_iters", "prescribe.newton_step_s",
                  "prescribe.svd_calls", "prescribe.solve_s", "prescribe.direct_frac",
                  "prescribe.dense_bytes"),
    "yamabe": ("mesh.operator_build_calls", "mesh.stencil_calls", "models.scal_warped_calls",
               "yamabe.descent_iters", "yamabe.energy_calls", "yamabe.gradient_calls",
               "yamabe.project_calls", "yamabe.accept_ratio", "yamabe.polish_solve_calls",
               "yamabe.negative_iters", "yamabe.negative_solve_s", "yamabe.eigh_s"),
    "approx": ("mesh.stencil_calls", "prescribe.approx_calls", "prescribe.approx_cells",
               "prescribe.approx_s"),
    "sweeps": ("models.sectional_calls", "cheeger.scal_cheeger_calls", "cheeger.twist_calls",
               "cheeger.linalg_calls", "canonical.cv_scal_calls", "canonical.threshold_s",
               "runner.scenario_s", "runner.emit_s", "runner.files_written",
               "runner.bytes_written"),
}

# Layers a workload never reaches: their counts must stay zero.
EXPECTED_ZERO = {
    "prescribe": ("yamabe.energy_calls", "cheeger.scal_cheeger_calls", "runner.files_written",
                  "prescribe.fallback_calls", "prescribe.approx_calls", "prescribe.pullback_s"),
    "yamabe": ("prescribe.jacobian_calls", "prescribe.approx_calls", "cheeger.twist_calls"),
    "approx": ("prescribe.jacobian_calls", "yamabe.energy_calls", "mesh.operator_build_calls",
               "models.scal_warped_calls", "runner.files_written"),
    "sweeps": ("mesh.stencil_calls", "models.scal_warped_calls", "prescribe.jacobian_calls",
               "yamabe.energy_calls"),
}


def traced(name, tmp_path, seed=3):
    dirs = wl.ScenarioDirs(tmp_path / "scenarios")
    workload = wl.build(cl, name, seed, dirs, TINY)
    try:
        return run.traced_passes(cl, workload, dirs)
    finally:
        dirs.close()


def test_every_binding_is_patched_and_restored():
    import curvlab.cheeger
    import curvlab.models
    import curvlab.prescribe
    import curvlab.runner
    import curvlab.yamabe

    original = curvlab.models.scal_warped
    tracer = tracing.Tracer()
    bindings = tracer.install(cl)
    try:
        for ns in (cl, curvlab.models, curvlab.yamabe, curvlab.prescribe, curvlab.runner):
            assert ns.scal_warped.__perfbench_original__ is original
        assert len(bindings["models.scal_warped"]) == 5
        assert {"curvlab.models.scal_diagonal", "curvlab.prescribe.scal_diagonal"} <= set(
            bindings["models.scal_diagonal"])
        assert "curvlab.cheeger.sectional_left_invariant" in bindings["models.sectional_left_invariant"]
        assert hasattr(cl.QuotientMesh.derivative, "__perfbench_original__")
        for layer in tracing.LAYERS:
            module = sys.modules[f"curvlab.{layer}"]
            for attr, value in vars(module).items():
                if callable(value) and getattr(value, "__module__", "").startswith("curvlab.") \
                        and not attr.startswith("_") and type(value).__name__ == "function":
                    assert hasattr(value, "__perfbench_original__"), f"{layer}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    assert curvlab.yamabe.scal_warped is original
    assert not hasattr(cl.QuotientMesh.derivative, "__perfbench_original__")


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_traced_run_covers_layers_and_matches_untraced(name, tmp_path):
    tally, _, layers, mismatched, _ = traced(name, tmp_path)
    assert mismatched == []
    assert tally.failures == []
    for metric in EXPECTED_NONZERO[name]:
        assert layers[metric][0] > 0, metric
    for metric in EXPECTED_ZERO[name]:
        assert layers[metric][0] == 0, metric
    assert tally.attempted == 2 * len(wl.build(cl, name, 3, wl.ScenarioDirs(tmp_path), TINY).cases)


@pytest.mark.parametrize("name", ("prescribe", "yamabe", "sweeps"))
def test_counts_repeat_exactly(name, tmp_path):
    first = traced(name, tmp_path)[2]
    second = traced(name, tmp_path)[2]
    counts = [m for m, (_, unit) in first.items() if unit in ("count", "bytes", "ratio")]
    assert counts
    assert {m: first[m][0] for m in counts} == {m: second[m][0] for m in counts}


def test_inputs_follow_the_seed(tmp_path):
    def labels(seed):
        return [c.label for c in wl.build(cl, "prescribe", seed, wl.ScenarioDirs(tmp_path), TINY).cases]

    assert labels(5) == labels(5)
    assert labels(5) != labels(6)


def test_last_line_is_the_result_object():
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "sweeps",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "approx",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_newton_iters_counts_steps():
    """One traced newton_prescribe call: one step per accepted residual.

    Each step appends one residual to the history, so a converged call of k
    steps returns k + 1 residuals.  The Jacobian count is one higher than the
    step count, because the base-point adjoint builds a Jacobian as well.
    """
    metric = cl.get_preset("hyperbolic-fiber", n=16)
    target = cl.scal_warped(metric) * (1.0 + 0.05 * np.sin(metric.mesh.nodes))
    tracer = tracing.Tracer()
    tracer.install(cl)
    try:
        result = tracer.root("newton", lambda: cl.newton_prescribe(metric, target))
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, [])
    steps = len(result.residuals) - 1
    assert steps > 0
    assert layers["prescribe.newton_iters"][0] == steps
    jacobians = sum(n.count for n in tracer.select("prescribe.linearize_scal_matrix",
                                                   parent={"prescribe.newton_prescribe"}))
    assert jacobians == steps + 1
