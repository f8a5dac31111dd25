"""Seeded workloads of the curvlab benchmark and the checks on their outputs.

A workload is a list of `Case`s built from the workload seed.  Each case makes
one call into a public curvlab pipeline (the timed region) and checks the
object that call returned, never a residual the call reported about itself.
Checks run outside the timed region.

Workloads and why each was chosen:

* ``prescribe``  `full_prescribe` at N = 64, 256 and 512.  Dense operator
  builds, Jacobian assembly, the per-iteration SVD and the Newton loop do the
  work; the only workload where sparse-operator or Newton changes show.
* ``yamabe``     `minimize_on_constraint` at N = 64 and 128,
  `solve_negative_constant` and `classify_conformal_class` at N = 1024.  Tens
  of thousands of small O(N) stencil calls and no Jacobian or SVD.
* ``approx``     `approximate_by_diffeo` at N = 64 and 256: a per-cell Python
  loop with no linear algebra, so Newton or sparse changes must leave it flat.
* ``sweeps``     the cheeger and canonical runner scenarios: the only
  workload that writes files and exercises `cheeger`, `canonical`, `runner`.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("prescribe", "yamabe", "approx", "sweeps")

SUP_TOL = 1e-3            # PrescribeConfig.sup_tol
CONFORMAL_SCAL_TOL = 1e-6  # acceptance criterion 4
NEGATIVE_RESIDUAL_TOL = 1e-6
FLAT_EIGEN_TOL = 1e-8
APPROX_EPS = 1e-2
CHEEGER_REL_TOL = 1e-6
THRESHOLD_TOL = 1e-9


def import_curvlab():
    """Import curvlab from this checkout's sources, never from site-packages."""
    if not (SRC / "curvlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: curvlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvlab

    if Path(curvlab.__file__).resolve().parent != SRC / "curvlab":
        raise SystemExit(f"perfbench: imported curvlab from {curvlab.__file__}, expected {SRC}")
    return curvlab


@dataclass
class Case:
    """One timed pipeline call and the check of what it returned.

    ``metric`` names the end-to-end timing the call feeds (``prescribe_s.n512``).
    ``call`` returns the pipeline's output; ``check`` receives that output, or
    the exception the call raised, and returns a failure reason or None.
    """

    metric: str
    label: str
    n: int | None
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    fingerprint: Callable[[Any], Any] = lambda out: out


@dataclass
class Workload:
    cases: list
    warmup: list = field(default_factory=list)


def digest(obj) -> str:
    """Hash of an output's full content, used to compare runs bit for bit."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, BaseException):
            h.update(f"{type(x).__name__}:{x}".encode())
        elif isinstance(x, Enum):
            h.update(repr(x.value).encode())
        elif is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for f in fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for key in sorted(x, key=str):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(b"(")
            for item in x:
                feed(item)
            h.update(b")")
        elif isinstance(x, (float, np.floating)):
            h.update(float(x).hex().encode())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _raised(out) -> str | None:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


# ---------------------------------------------------------------------------
# prescribe
# ---------------------------------------------------------------------------

# (background, N, harmonics): one target per harmonic and pass, with seeded
# amplitude and phase.  Every case here takes the direct Newton path (the
# escape bump first on the flat torus).  The reparametrized fallback returns a
# metric whose recomputed curvature misses the target on every input tried
# (flat torus at N = 256; at N = 64 its second harmonic, and its first
# harmonic even about the bump; the round fiber's first harmonic at N = 512),
# so it cannot be timed as a correct call; known_defects.py reproduces those
# cases.
PRESCRIBE_GRID = (
    ("round-fiber", 64, (1, 2, 1, 2)), ("hyperbolic-fiber", 64, (1, 2, 1, 2)),
    ("flat-torus", 64, (1, 1, 1, 1)),
    ("round-fiber", 256, (1, 2)), ("hyperbolic-fiber", 256, (1, 2)),
    ("round-fiber", 512, (2,)), ("hyperbolic-fiber", 512, (2,)),
)


def flat_torus_steps(n):
    """Phases, in whole node steps, of flat-torus targets that take the direct path.

    A first-harmonic target even about the escape bump's node (phase pi/2 or
    3 pi/2) falls back to reparametrization and gets a wrong metric, at every
    amplitude in [0.05, 0.1] tried; every other node step at N = 64 succeeded.
    The flat torus's phase is therefore drawn from the other steps.
    """
    return [j for j in range(n) if j not in (n // 4, 3 * n // 4)]


def _prescribe_target(cl, metric, k, amp, phase):
    """Background curvature with a modulation amp * sin(k r + phase).

    The flat background has zero curvature, so its target is the modulation
    itself (a sign-changing target, realized after the escape bump).
    """
    wave = amp * np.sin(k * metric.mesh.nodes + phase)
    scal = cl.scal_warped(metric)
    if np.max(np.abs(scal)) < 1e-12:
        return wave
    return scal * (1.0 + wave)


def _check_prescription(target):
    def check(out):
        if (reason := _raised(out)):
            return reason
        err = float(np.max(np.abs(out.metric_out.scal() - target)))
        if not err <= SUP_TOL:
            return (f"path={out.path}, reported sup_error {out.residuals.get('sup_error'):.2g}, "
                    f"recomputed sup error {err:.2g}")
        return None
    return check


def prescribe_case(cl, background, n, k, amp, phase):
    metric = cl.get_preset(background, n=n)
    target = _prescribe_target(cl, metric, k, amp, phase)
    return Case(metric=f"prescribe_s.n{n}", label=f"{background} N={n} k={k} amp={amp:.3f}", n=n,
                call=lambda: cl.full_prescribe(metric, target),
                check=_check_prescription(target))


def build_prescribe(cl, seed, sizes=None):
    sizes = sizes or {64: 64, 256: 256, 512: 512}
    rng = np.random.default_rng([seed, 1])

    def seeded(bg, n, k):
        amp, phase = float(rng.uniform(0.05, 0.10)), float(rng.uniform(0.0, 2 * np.pi))
        if bg == "flat-torus":
            phase = 2 * np.pi / sizes[n] * int(rng.choice(flat_torus_steps(sizes[n])))
        return prescribe_case(cl, bg, sizes[n], k, amp, phase)

    cases = [seeded(bg, n, k) for bg, n, harmonics in PRESCRIBE_GRID for k in harmonics]
    # warm-up at the largest measured size, and once on the escape-bump path
    return Workload(cases, [seeded("hyperbolic-fiber", 512, 2), seeded("flat-torus", 64, 1)])


# ---------------------------------------------------------------------------
# yamabe
# ---------------------------------------------------------------------------

MINIMIZE_C = 6.0


def _warped(cl, n, fiber_scal, amp, phase):
    return cl.WarpedProductMetric.from_profile(
        n, 2 * np.pi, 3, fiber_scal, lambda r: 1.0 + amp * np.sin(r + phase))


def minimize_case(cl, n, amp, phase, label=None):
    """Positive regime on a bumpy round-fiber warping (scal > 0 for amp <= 0.3)."""
    metric = _warped(cl, n, 6.0, amp, phase)
    problem = cl.ConformalProblem(metric, c=MINIMIZE_C)
    cfg = cl.SolverConfig()

    def check(out):
        if (reason := _raised(out)):
            return reason
        if not np.all(out.u > 0):
            return "u not strictly positive"
        res = problem.mesh.lp_norm(cl.el_residual(problem, out.u, out.achieved_constant), 2)
        if not res <= cfg.tol_residual:
            return f"recomputed Euler-Lagrange residual {res:.2g} > {cfg.tol_residual:.0e}"
        dev = float(np.max(np.abs(cl.conformal_scal(metric, out.u) - out.achieved_constant)))
        if not dev <= CONFORMAL_SCAL_TOL:
            return f"conformal scal deviates from c' by {dev:.2g}"
        return None

    return Case(metric=f"minimize_s.n{n}", n=n,
                label=label or f"bumpy N={n} a={amp:.3f}",
                call=lambda: cl.minimize_on_constraint(problem, cfg), check=check)


def negative_case(cl, n, amp, phase):
    metric = _warped(cl, n, -2.0, amp, phase)

    def check(out):
        if (reason := _raised(out)):
            return reason
        solution, c_used = out
        cprime = solution.achieved_constant
        if not np.all(solution.u > 0):
            return "u not strictly positive"
        if not cprime > 0:
            return f"c' = {cprime:.3g} not positive"
        problem = cl.ConformalProblem(metric, c=c_used)
        res = metric.mesh.lp_norm(cl.el_residual(problem, solution.u, -cprime), 2)
        if not res <= NEGATIVE_RESIDUAL_TOL:
            return f"recomputed residual {res:.2g} > {NEGATIVE_RESIDUAL_TOL:.0e}"
        return None

    return Case(metric=f"negative_s.n{n}", n=n, label=f"hyperbolic-fiber N={n} a={amp:.3f}",
                call=lambda: cl.solve_negative_constant(metric), check=check)


def obstruction_case(cl, n, amp, phase):
    """A positive-class background: the negative solve must be obstructed."""
    metric = _warped(cl, n, 6.0, amp, phase)

    def check(out):
        if not isinstance(out, cl.ObstructionError):
            got = _raised(out) or "returned a solution"
            return f"expected ObstructionError, {got}"
        if out.condition != "negative-class-obstruction":
            return f"obstruction condition {out.condition!r}"
        return None

    return Case(metric=f"negative_s.n{n}", n=n, label=f"round-fiber N={n} a={amp:.3f} (obstructed)",
                call=lambda: cl.solve_negative_constant(metric), check=check)


def classify_case(cl, n, kind, rng):
    if kind == "Z":
        scale = float(rng.uniform(0.8, 1.25))
        metric = cl.WarpedProductMetric.from_profile(
            n, 2 * np.pi * scale, 3, 0.0, lambda r: np.full_like(r, scale))
        desc = f"flat-torus scale={scale:.3f}"
    else:
        amp, phase = float(rng.uniform(0.05, 0.3)), float(rng.uniform(0, 2 * np.pi))
        metric = _warped(cl, n, 6.0 if kind == "P" else -2.0, amp, phase)
        desc = f"{'round' if kind == 'P' else 'hyperbolic'}-fiber a={amp:.3f}"
    expected = {"P": cl.ConformalClass.POSITIVE, "Z": cl.ConformalClass.ZERO,
                "N": cl.ConformalClass.NEGATIVE}[kind]

    def check(out):
        if (reason := _raised(out)):
            return reason
        verdict, lam1 = out
        if verdict is not expected:
            return f"verdict {verdict.value}, expected {expected.value}"
        if kind == "Z" and not abs(lam1) < FLAT_EIGEN_TOL:
            return f"|lambda_1| = {abs(lam1):.2g} on the flat background"
        return None

    return Case(metric=f"classify_s.n{n}", n=n, label=f"{desc} N={n}",
                call=lambda: cl.classify_conformal_class(metric), check=check)


# The descent's cost depends on the warping's amplitude: at N = 128, bumps
# with a in [0.15, 0.3] took 3800-5700 iterations and 1.9-2.9 s.  Each case
# therefore has a fixed amplitude, and the seed draws its phase in whole node
# steps, which rotates the input on the mesh without changing its cost.  At
# N = 256 and 512 one descent takes 8-14 s (14952 and 20001 iterations), so a
# 25 s run would time it once, unsteadily; the workload stops at N = 128 and
# roadmap_baseline.py records the larger sizes.
MINIMIZE_AMPS = {64: (0.15, 0.3), 128: (0.2,)}
NEGATIVE_AMP = 0.1
OBSTRUCTION_AMP = 0.2


def build_yamabe(cl, seed, sizes=None):
    sizes = sizes or {64: 64, 128: 128, 1024: 1024}
    rng = np.random.default_rng([seed, 2])

    def phase(n):
        return 2 * np.pi / n * int(rng.integers(n))

    cases = [minimize_case(cl, sizes[n], amp, phase(sizes[n]))
             for n, amps in MINIMIZE_AMPS.items() for amp in amps]
    big = sizes[1024]
    cases.append(negative_case(cl, big, NEGATIVE_AMP, phase(big)))
    cases.append(obstruction_case(cl, big, OBSTRUCTION_AMP, phase(big)))
    cases += [classify_case(cl, big, kind, rng) for kind in "PZN"]
    warm = [minimize_case(cl, sizes[64], 0.2, 0.0), negative_case(cl, big, NEGATIVE_AMP, 0.0),
            classify_case(cl, big, "P", rng)]
    return Workload(cases, warm)


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------

APPROX_P = (1.0, 2.0, 4.0)
APPROX_SHAPE_SEED = 2027  # acceptance criterion 9's generator
# `approximate_by_diffeo` raises a false obstruction ("the source oscillates
# less than the target") on some criterion-9 pairs, at p = 1 or 2 and mostly
# at N = 256, depending on how the pair aligns with the cell grid.  Pair
# shapes are therefore fixed: the first twelve shapes of the generator, each
# rotated by every whole step of 2 pi / 64 (nodes of both meshes) at both N
# and all three p, failed on 8 of them; these four never did.  The cost of a
# call also depends on the rotation, by up to 1.7x, so each shape is taken at
# three rotations a third of a turn apart, from a seeded start; that evens out
# the pass time across seeds.  known_defects.py reproduces a failing pair.
APPROX_SHAPES = (0, 6, 7, 9)
APPROX_ROTATIONS = 3  # per shape: a pass is 72 calls, about 5-6 s


def fine_lp_error(phi, nodes, source, target, weights, length, p, resolution=120_000):
    """||source o phi - target||_p on a fine grid with its own quadrature."""
    x = length / resolution * np.arange(resolution)
    ext = np.append(nodes, length)

    def interp(vals, pts):
        return np.interp(np.mod(pts, length), ext, np.append(vals, vals[0]))

    err = interp(source, phi(x)) - interp(target, x)
    return float(np.sum(np.abs(err) ** p * interp(weights, x) * (length / resolution)) ** (1.0 / p))


def _approx_shape(rng):
    """Parameters of a (source, target) pair drawn like acceptance criterion 9."""
    a1, a2 = rng.uniform(0.8, 1.5), rng.uniform(0.2, 0.6)
    p1, p2 = rng.uniform(0, 2 * np.pi, 2)
    offset = rng.normal()
    amp, phase = rng.uniform(0.3, 0.75), rng.uniform(0, 2 * np.pi)
    return a1, a2, p1, p2, offset, amp, phase


def _approx_pair(r, shape, rotation):
    a1, a2, p1, p2, offset, amp, phase = shape
    r = r + rotation
    f = a1 * np.sin(r + p1) + a2 * np.sin(2 * r + p2) + offset
    lo, hi = float(np.min(f)), float(np.max(f))
    g = 0.5 * (lo + hi) + amp * 0.5 * (hi - lo) * np.sin(r + phase)
    return f, g


def approx_case(cl, mesh, f, g, p, label):
    """`approximate_by_diffeo` on one pair, with the result checked three ways.

    `Diffeo1D` itself refuses breakpoints that do not increase or do not
    advance by exactly L, and evaluating it adds whole periods, so neither can
    be checked from the lift.  The check reads the stored node samples
    instead: they must be the lift's values at the nodes, and, taken round the
    circle with the closing gap node_values[0] + L - node_values[-1], advance
    once with every gap positive (strictly increasing, winding one).  The
    approximation error is recomputed on a fine grid of its own.
    """
    length = mesh.length

    def check(out):
        if (reason := _raised(out)):
            return reason
        phi = out.phi
        nv = np.asarray(phi.node_values)
        drift = float(np.max(np.abs(nv - phi(mesh.nodes))))
        if drift > 1e-12 * length:
            return f"node values differ from the lift at the nodes by {drift:.3g}"
        gaps = np.diff(np.append(nv, nv[0] + length))
        if not np.all(gaps > 0):
            return (f"node values do not go once round the circle "
                    f"(span {nv[-1] - nv[0]!r}, L = {length!r}, smallest gap {gaps.min():.3g})")
        err = fine_lp_error(phi, mesh.nodes, f, g, mesh.weights, length, p)
        if not err < APPROX_EPS:
            return f"fine-grid L{p:g} error {err:.3g} >= eps"
        return None

    return Case(metric=f"approx_s.n{mesh.node_count}", n=mesh.node_count, label=label,
                call=lambda: cl.approximate_by_diffeo(mesh, f, g, p=p, eps=APPROX_EPS),
                check=check)


def approx_shapes():
    """The generator's shapes, keyed by their draw index."""
    shapes = np.random.default_rng(APPROX_SHAPE_SEED)
    drawn = [_approx_shape(shapes) for _ in range(max(APPROX_SHAPES) + 1)]
    return {j: drawn[j] for j in APPROX_SHAPES}


def build_approx(cl, seed, sizes=None):
    sizes = sizes or {64: 64, 256: 256}
    rng = np.random.default_rng([seed, 3])
    stride = 64 // APPROX_ROTATIONS
    pairs = [(j, shape, 2 * np.pi / 64 * (start + k * stride))
             for j, shape in approx_shapes().items()
             for start in [int(rng.integers(stride))] for k in range(APPROX_ROTATIONS)]
    cases = []
    for n in (64, 256):
        mesh = cl.circle_mesh(sizes[n], 2 * np.pi)
        for j, shape, rotation in pairs:
            f, g = _approx_pair(mesh.nodes, shape, rotation)
            cases += [approx_case(cl, mesh, f, g, p,
                                  f"pair {j} rotated {rotation:.4f} N={sizes[n]} p={p:g}")
                      for p in APPROX_P]
    half = len(cases) // 2
    return Workload(cases, [cases[0], cases[half]])  # N = 64, 256


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

CHEEGER_T_MAX = "1e4"
CANONICAL_THRESHOLDS = {"negative-base-product": 0.5, "product-round-fiber": float("inf")}


class ScenarioDirs:
    """Output directories of runner scenarios, removed after each check.

    A scenario writes to the same path on every repeat, because report.txt
    echoes the output directory and must come out byte-identical.
    """

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        self.files_written = 0
        self.bytes_written = 0

    def new(self) -> Path:
        self.count += 1
        return self.root / f"scenario{self.count}"

    def remove(self, path: Path) -> None:
        files = [p for p in path.rglob("*") if p.is_file()]
        self.files_written += len(files)
        self.bytes_written += sum(p.stat().st_size for p in files)
        shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def scenario_case(cl, dirs, command, options, metric, label, verify):
    """A runner scenario; every repeat's report.txt must equal the first one."""
    from curvlab import runner

    reports = {}
    outdir = dirs.new()
    config = runner.ScenarioConfig(command, {**options, "run.outdir": str(outdir)})

    def call():
        return runner.run_scenario(config)

    def check(out):
        try:
            if (reason := _raised(out)):
                return reason
            text = (outdir / "report.txt").read_bytes()
            first = reports.setdefault("report", text)
            if text != first:
                return "report.txt differs from the first run of this scenario"
            return verify(out, outdir)
        finally:
            dirs.remove(outdir)

    return Case(metric=metric, n=None, label=label, call=call, check=check,
                fingerprint=lambda out: (out.command, out.summary, out.residuals))


def _verify_cheeger(cl, lam):
    def verify(report, outdir):
        base = cl.get_preset(f"su2-berger({lam!r})")
        for t, scal, *_ in _read_csv(outdir / "sweep.csv"):
            ref = cl.scal_left_invariant(cl.deformed_group_metric(base, t))
            if not abs(scal - ref) <= CHEEGER_REL_TOL * max(abs(ref), 1e-300):
                return f"sweep row t={t:.4g}: scal {scal!r} vs {ref!r}"
        return None
    return verify


def _verify_canonical(preset):
    expected = CANONICAL_THRESHOLDS[preset]

    def verify(report, outdir):
        got = float(report.summary["positivity_threshold"])
        ok = got == expected if np.isinf(expected) else abs(got - expected) <= THRESHOLD_TOL
        return None if ok else f"positivity threshold {got!r}, expected {expected!r}"
    return verify


def build_sweeps(cl, seed, dirs):
    rng = np.random.default_rng([seed, 4])
    cases = []
    for lam in np.round(rng.uniform(0.3, 3.0, 2), 6):
        lam = float(lam)
        opts = {"model.preset": f"su2-berger({lam!r})", "cheeger.t_max": CHEEGER_T_MAX}
        case = scenario_case(cl, dirs, "cheeger", opts, "cheeger_sweep_s",
                             f"cheeger su2-berger({lam!r})", _verify_cheeger(cl, lam))
        cases += [case, case]
    for preset in CANONICAL_THRESHOLDS:
        lo = float(np.round(rng.uniform(0.01, 0.05), 4))
        hi = float(np.round(rng.uniform(1.5, 2.5), 4))
        steps = 50  # the runner's default; the row count sets the scenario's cost
        opts = {"model.preset": preset, "canonical.sweep": f"{lo!r}:{hi!r}:{steps}"}
        case = scenario_case(cl, dirs, "canonical", opts, "canonical_s",
                             f"canonical {preset} sweep {lo}:{hi}:{steps}", _verify_canonical(preset))
        cases += [case, case]
    return Workload(cases, [cases[0], cases[-1]])


def build(cl, name: str, seed: int, dirs: ScenarioDirs, sizes=None) -> Workload:
    """Generate a workload's inputs from the seed; ``sizes`` maps N to a test size."""
    if name == "prescribe":
        return build_prescribe(cl, seed, sizes)
    if name == "yamabe":
        return build_yamabe(cl, seed, sizes)
    if name == "approx":
        return build_approx(cl, seed, sizes)
    if name == "sweeps":
        return build_sweeps(cl, seed, dirs)
    raise ValueError(f"unknown workload {name!r}")
