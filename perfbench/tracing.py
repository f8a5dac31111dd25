"""Traced runs: wrap curvlab's public functions from outside the package.

`Tracer.install` replaces, for the duration of a traced pass,

* every public module-level function of the curvlab layers, in every
  namespace that binds it (``from .models import scal_warped`` makes a
  separate binding in each importing module and in the package root);
* the public methods of `QuotientMesh`, on the class;
* the `numpy.linalg` and `scipy.linalg` entry points curvlab calls, which are
  attributed to the nearest curvlab caller on the span stack.

Spans are kept in memory.  Each benchmark call is one root span with its own
run id; below it, spans with the same name and parent are merged into one
record (call count, inclusive and self time, first start, last end, errors
raised), because the descent makes hundreds of thousands of leaf calls.  Self
time is a span's duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg
import scipy.linalg

LAYERS = ("mesh", "models", "prescribe", "yamabe", "cheeger", "canonical", "runner")
DESCENT_BUDGET = 20_000  # minimize_on_constraint's cap on descent steps
LINALG = (("numpy.linalg", numpy.linalg, ("svd", "solve", "eigh", "eigvalsh", "pinv")),
          ("scipy.linalg", scipy.linalg, ("eigh",)))


@dataclass
class Node:
    """Merged record of every span with one name under one parent."""

    name: str
    parent: int | None
    run: int
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    start: float = float("inf")
    end: float = 0.0
    errors: Counter = field(default_factory=Counter)
    results: list = field(default_factory=list)


class Tracer:
    """Span recorder: the wrappers `install` puts in place record only inside
    `root` spans and are removed again by `uninstall`."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._index: dict = {}
        self._stack: list = []  # [node id, accumulated child time]
        self._patches: list = []
        self._run = -1
        self.active = False

    # -- recording -------------------------------------------------------

    def _node(self, name: str, parent: int | None) -> int:
        key = (parent, name)
        nid = self._index.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(Node(name, parent, self._run))
            self._index[key] = nid
        return nid

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._node(name, parent), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end, error):
        self._stack.pop()
        node = self.nodes[frame[0]]
        duration = end - start
        node.count += 1
        node.total += duration
        node.self_time += duration - frame[1]
        node.start = min(node.start, start)
        node.end = max(node.end, end)
        if error is not None:
            node.errors[error] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return node

    def root(self, label: str, call):
        """Run one benchmark call as a root span with a fresh run id.

        Curvlab calls made outside a root span (the output checks) are not
        recorded.
        """
        self._run += 1
        frame = self._enter(label)
        self.active = True
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.active = False
            self._exit(frame, start, end, None)

    def wrap(self, name: str, fn):
        tracer = self
        probe = RESULT_PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                node = tracer._exit(frame, start, time.perf_counter(), error)
            if probe is not None:
                node.results.append(probe(result))
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, curvlab) -> dict:
        """Wrap every traced entry point; returns {span name: bindings patched}."""
        modules = {layer: importlib.import_module(f"curvlab.{layer}") for layer in LAYERS}
        namespaces = [curvlab, *modules.values()]
        bindings = {}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, wrapper)
                            bindings.setdefault(name, []).append(f"{ns.__name__}.{bound}")
        mesh_cls = modules["mesh"].QuotientMesh
        for attr, fn in list(vars(mesh_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                self._patch(mesh_cls, attr, self.wrap(f"mesh.{attr}", fn))
                bindings[f"mesh.{attr}"] = [f"QuotientMesh.{attr}"]
        for prefix, module, names in LINALG:
            for attr in names:
                name = f"{prefix}.{attr}"
                self._patch(module, attr, self.wrap(name, getattr(module, attr)))
                bindings[name] = [name]
        return bindings

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries ---------------------------------------------------------

    def ancestors(self, node: Node):
        while node.parent is not None:
            node = self.nodes[node.parent]
            yield node

    def select(self, names, under=None, parent=None):
        """Nodes named in ``names``; optionally with an ancestor or the direct
        parent named in ``under`` / ``parent``."""
        names = {names} if isinstance(names, str) else set(names)
        for node in self.nodes:
            if node.name not in names:
                continue
            if parent is not None and (node.parent is None or self.nodes[node.parent].name not in parent):
                continue
            if under is not None and not any(a.name in under for a in self.ancestors(node)):
                continue
            yield node

    def dump(self, path, meta) -> None:
        spans = [{"id": i, "name": n.name, "parent": n.parent, "run": n.run, "count": n.count,
                  "start": n.start, "end": n.end, "total_s": n.total, "self_s": n.self_time,
                  "errors": dict(n.errors)} for i, n in enumerate(self.nodes)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": spans}, indent=1) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

OPERATOR_BUILDS = ("mesh.d1_matrix", "mesh.d2_matrix", "mesh.stiffness_matrix")
STENCILS = tuple(f"mesh.{m}" for m in ("derivative", "second_derivative", "laplacian",
                                       "dirichlet_form", "integrate", "inner", "lp_norm",
                                       "mass_vector"))
RESULT_PROBES = {
    "prescribe.approximate_by_diffeo": lambda r: {"cells": r.cells},
    "prescribe.newton_prescribe": lambda r: {"n": r.u.shape[0]},
    "yamabe.minimize_on_constraint": lambda r: {"iterations": r.iterations,
                                                "accepted": len(r.energy_history) - 1},
}


def dense_bytes(n: int) -> int:
    """Bytes of the dense matrices one Newton step forms at N nodes (computed).

    J (N x 2N), the adjoint (2N x N), J.Q (N x N), D1 and D2 (N x N each),
    float64.
    """
    return 8 * (2 * n * n + 2 * n * n + 3 * n * n)


def _prescribe_parent(tracer, node):
    return node.parent is not None and tracer.nodes[node.parent].name.startswith("prescribe.")


def layer_metrics(tracer: Tracer, outcomes, files_written=0, bytes_written=0) -> dict:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    ``outcomes`` lists (case, output) for the pass, used for the shares that
    are read from returned objects; the runner's output files are counted by
    the scenario checks and passed in.  Times are inclusive span time, except
    ``mesh.*_s``, ``models.*_s`` and ``prescribe.jacobian_self_s``, which are
    self time.
    """
    t = tracer

    def total(names, **kw):
        return float(sum(n.total for n in t.select(names, **kw)))

    def self_s(names, **kw):
        return float(sum(n.self_time for n in t.select(names, **kw)))

    def calls(names, **kw):
        return int(sum(n.count for n in t.select(names, **kw)))

    def results(name, key):
        return [r[key] for n in t.select(name) for r in n.results]

    m = {}
    m["mesh.operator_build_s"] = (self_s(OPERATOR_BUILDS), "s")
    m["mesh.operator_build_calls"] = (calls(OPERATOR_BUILDS), "count")
    m["mesh.stencil_s"] = (self_s(STENCILS), "s")
    m["mesh.stencil_calls"] = (calls(STENCILS), "count")
    for short, fn in (("scal_warped", "models.scal_warped"), ("scal_diagonal", "models.scal_diagonal"),
                      ("sectional", "models.sectional_left_invariant")):
        m[f"models.{short}_s"] = (self_s(fn), "s")
        m[f"models.{short}_calls"] = (calls(fn), "count")

    jac = "prescribe.linearize_scal_matrix"
    m["prescribe.jacobian_s"] = (total(jac), "s")
    m["prescribe.jacobian_self_s"] = (self_s(jac), "s")
    m["prescribe.jacobian_calls"] = (calls(jac), "count")
    m["prescribe.kernel_s"] = (total("prescribe.kernel_min_singular"), "s")
    m["prescribe.kernel_calls"] = (calls("prescribe.kernel_min_singular"), "count")
    newton_s = total("prescribe.newton_prescribe")
    # one SVD of J.Q per Newton step; the Jacobian count would also include
    # the base-point one that the private _adjoint_matrix builds
    newton_iters = calls("numpy.linalg.svd", parent={"prescribe.newton_prescribe"})
    m["prescribe.newton_s"] = (newton_s, "s")
    m["prescribe.newton_iters"] = (newton_iters, "count")
    m["prescribe.newton_step_s"] = (newton_s / newton_iters if newton_iters else 0.0, "s")
    svd = [n for n in t.select("numpy.linalg.svd") if _prescribe_parent(t, n)]
    solve = [n for n in t.select("numpy.linalg.solve") if _prescribe_parent(t, n)]
    m["prescribe.svd_s"] = (float(sum(n.total for n in svd)), "s")
    m["prescribe.svd_calls"] = (int(sum(n.count for n in svd)), "count")
    m["prescribe.solve_s"] = (float(sum(n.total for n in solve)), "s")
    paths = [out.path for case, out in outcomes
             if case.metric.startswith("prescribe_s.") and hasattr(out, "path")]
    attempts = sum(1 for case, _ in outcomes if case.metric.startswith("prescribe_s."))
    direct = sum(1 for p in paths if p in ("identity", "trivial"))
    m["prescribe.direct_frac"] = (direct / attempts if attempts else 0.0, "ratio")
    m["prescribe.fallback_calls"] = (int(sum(
        n.errors["SolverError"] for n in t.select("prescribe.newton_prescribe",
                                                  parent={"prescribe.full_prescribe"}))), "count")
    m["prescribe.approx_s"] = (total("prescribe.approximate_by_diffeo"), "s")
    m["prescribe.approx_calls"] = (calls("prescribe.approximate_by_diffeo"), "count")
    cells = results("prescribe.approximate_by_diffeo", "cells")
    m["prescribe.approx_cells"] = (float(statistics.median(cells)) if cells else 0.0, "count")
    m["prescribe.pullback_s"] = (total("prescribe.pullback_metric"), "s")
    sizes = results("prescribe.newton_prescribe", "n")
    m["prescribe.dense_bytes"] = (dense_bytes(max(sizes)) if sizes else 0, "bytes")

    minimize = "yamabe.minimize_on_constraint"
    iters = results(minimize, "iterations")
    energy_calls = calls("yamabe.conformal_energy", under={minimize})
    m["yamabe.descent_iters"] = (int(sum(iters)), "count")
    m["yamabe.energy_calls"] = (calls("yamabe.conformal_energy"), "count")
    m["yamabe.gradient_calls"] = (calls("yamabe.energy_gradient"), "count")
    m["yamabe.project_calls"] = (calls("yamabe.project_to_constraint"), "count")
    accepted = sum(results(minimize, "accepted"))
    m["yamabe.accept_ratio"] = (accepted / energy_calls if energy_calls else 0.0, "ratio")
    m["yamabe.budget_exhausted"] = (sum(1 for i in iters if i > DESCENT_BUDGET), "count")
    m["yamabe.polish_solve_s"] = (total("numpy.linalg.solve", under={minimize}), "s")
    m["yamabe.polish_solve_calls"] = (calls("numpy.linalg.solve", under={minimize}), "count")
    negative = {"yamabe.solve_negative_constant"}
    m["yamabe.negative_iters"] = (calls("numpy.linalg.solve", parent=negative), "count")
    m["yamabe.negative_solve_s"] = (total("numpy.linalg.solve", parent=negative), "s")
    m["yamabe.eigh_s"] = (total("scipy.linalg.eigh", under={"yamabe.classify_conformal_class"}), "s")

    m["cheeger.scal_cheeger_s"] = (total("cheeger.scal_cheeger"), "s")
    m["cheeger.scal_cheeger_calls"] = (calls("cheeger.scal_cheeger"), "count")
    m["cheeger.twist_s"] = (total("cheeger.twist_term"), "s")
    m["cheeger.twist_calls"] = (calls("cheeger.twist_term"), "count")
    linalg_names = [f"{prefix}.{a}" for prefix, _, names in LINALG for a in names]
    m["cheeger.linalg_calls"] = (calls(linalg_names, under={"cheeger.scal_cheeger"}), "count")
    m["canonical.threshold_s"] = (total("canonical.positivity_threshold"), "s")
    m["canonical.cv_scal_calls"] = (calls("canonical.cv_scal"), "count")

    m["runner.scenario_s"] = (total("runner.run_scenario"), "s")
    m["runner.emit_s"] = (total(("runner.emit_csv", "runner.emit_plotdata")), "s")
    m["runner.files_written"] = (files_written, "count")
    m["runner.bytes_written"] = (bytes_written, "bytes")
    return m

