"""Scenario runner: presets, sweeps, classification reports, CSV emission.

Configuration is a flat text file with one dotted key per line::

    command = classify
    model.preset = round-fiber
    model.N = 128
    run.outdir = out

`COMMAND_KEYS` lists the keys each command reads.  Any other key, and a
`command` entry that names another command, is a configuration error.
`KEY_TYPES` gives the type of each numeric or boolean key; the others are text.
`DEFAULT_PRESETS` names the model each command runs on without model.preset.
On the command line each key is the flag --<last part>, with _ written as -
(--max-iter sets solver.max_iter); --model is a second spelling of --preset.

Outputs per run: report.txt (key = value lines), CSV data files at full
double precision, and gnuplot-compatible two-column files under plotdata/.
Directories are created with the first file written into them, so a run
rejected before it writes leaves no output directory behind.
Identical configuration reproduces every output byte for byte; wall time is
therefore reported on stderr only.

Exit codes: 0 success, 2 precondition rejection, 3 solver non-convergence,
4 configuration, usage or I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import canonical as cv
from .cheeger import OrbitData, homogeneous_scal, scal_cheeger
from .errors import ConfigError, CurvLabError, PreconditionError, SolverError
from .models import (LeftInvariantMetric, WarpedProductMetric, get_preset,
                     scal_warped)
from .prescribe import PrescribeConfig, approximate_by_diffeo, full_prescribe
from .yamabe import (ConformalProblem, SolverConfig, classify_conformal_class,
                     conformal_scal, minimize_on_constraint,
                     solve_negative_constant)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

_MODEL_KEYS = ("model.preset", "model.N", "model.L", "model.k", "model.cF", "model.f")

# The keys each command reads; every command also reads run.outdir.  The
# group presets (cheeger) and the canonical presets take no mesh or profile.
COMMAND_KEYS = {command: (*keys, "run.outdir") for command, keys in {
    "classify": _MODEL_KEYS,
    "yamabe": (*_MODEL_KEYS, "solver.tol", "solver.max_iter", "yamabe.c", "yamabe.negative"),
    "prescribe": (*_MODEL_KEYS, "solver.tol", "solver.max_iter",
                  "prescribe.target", "prescribe.p", "prescribe.eps"),
    "cheeger": ("model.preset", "cheeger.t_max"),
    "canonical": ("model.preset", "canonical.sweep"),
    "approx": (*_MODEL_KEYS, "approx.target", "approx.p", "approx.eps"),
}.items()}

COMMANDS = tuple(COMMAND_KEYS)
DEFAULT_PRESETS = {**dict.fromkeys(COMMANDS, "round-fiber"),
                   "cheeger": "su2-biinvariant", "canonical": "product-round-fiber"}
RECOGNIZED_KEYS = frozenset().union(*COMMAND_KEYS.values())

# The type each non-text key is read as; a bool key is also a --flag switch.
KEY_TYPES = {"model.N": int, "model.L": float, "model.k": int, "model.cF": float,
             "solver.tol": float, "solver.max_iter": int, "yamabe.c": float,
             "yamabe.negative": bool, "prescribe.p": float, "prescribe.eps": float,
             "cheeger.t_max": float, "approx.p": float, "approx.eps": float}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}

CANONICAL_PRESETS = {
    "product-round-fiber": dict(base_dim=2, fiber_dim=2, base_scal=0.0, fiber_scal=2.0),
    "negative-base-product": dict(base_dim=2, fiber_dim=2, base_scal=-4.0, fiber_scal=2.0),
}


# ---------------------------------------------------------------------------
# profile expressions: constants, r, sin, cos, + - * ^, parentheses
# ---------------------------------------------------------------------------


# Each operator builds the node that joins its two operand nodes.
_BINARY = {"+": lambda a, b: lambda r: a(r) + b(r), "-": lambda a, b: lambda r: a(r) - b(r),
           "*": lambda a, b: lambda r: a(r) * b(r), "^": lambda a, b: lambda r: a(r) ** b(r)}
_LEVELS = ("+-", "*")  # chaining levels, loosest first; ^ binds tightest (_power)


class _ExprParser:
    """Recursive-descent parser for the tiny profile grammar (no eval)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        node = self._binary(0)
        if self._peek():
            raise ConfigError(f"unexpected input at {self.text[self.pos:]!r}")
        return node

    def _binary(self, level):
        """Operands joined left to right by the operators of ``_LEVELS[level]``."""
        if level == len(_LEVELS):
            return self._power()
        node = self._binary(level + 1)
        while self._peek() and self._peek() in _LEVELS[level]:
            op = _BINARY[self.text[self.pos]]
            self.pos += 1
            node = op(node, self._binary(level + 1))
        return node

    def _power(self):
        """An atom, raised at most once to another atom: ^ does not chain."""
        node = self._atom()
        if self._peek() == "^":
            self.pos += 1
            node = _BINARY["^"](node, self._atom())
        return node

    def _atom(self):
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            inner = self._atom()
            return lambda r: -inner(r)
        if ch == "(":
            self.pos += 1
            node = self._binary(0)
            if self._peek() != ")":
                raise ConfigError("unbalanced parenthesis in profile expression")
            self.pos += 1
            return node
        for name, ufunc in (("sin", np.sin), ("cos", np.cos)):
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                if self._peek() != "(":
                    raise ConfigError(f"{name} needs parentheses")
                inner = self._atom()
                return lambda r: ufunc(inner(r))
        if ch == "r":
            self.pos += 1
            return lambda r: np.asarray(r, dtype=float)
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] in ".eE"
                                             or (self.text[self.pos] in "+-"
                                                 and self.text[self.pos - 1] in "eE")):
            self.pos += 1
        if start == self.pos:
            raise ConfigError(f"cannot parse profile expression at {self.text[start:]!r}")
        try:
            value = float(self.text[start:self.pos])
        except ValueError:
            raise ConfigError(f"malformed number {self.text[start:self.pos]!r} "
                              "in profile expression") from None
        return lambda r: np.full_like(np.asarray(r, dtype=float), value)


def parse_profile_expr(text: str):
    """Compile a profile expression to a vectorized callable of r."""
    return _ExprParser(text.strip()).parse()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    command: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMAND_KEYS:
            raise ConfigError(f"unknown command {self.command!r}")
        unknown = sorted(set(self.options) - set(COMMAND_KEYS[self.command]))
        if unknown:
            raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")

    def get(self, key, default=None):
        """The value of ``key`` read as its `KEY_TYPES` type, or ``default`` if unset."""
        raw = self.options.get(key)
        if raw is None:
            return default
        kind = KEY_TYPES.get(key, str)
        try:
            return _BOOLS[str(raw).lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {raw!r}") from exc


@dataclass
class RunReport:
    command: str
    summary: dict
    residuals: dict
    input_echo: dict
    files: list
    wall_time: float


def parse_config_file(path) -> dict:
    options = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        options[key.strip()] = value.strip()
    return options


@contextmanager
def _library_checks():
    """Report a library constructor's rejection of a configured value
    (KeyError, ValueError) as a ConfigError."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _given(**settings) -> dict:
    """The settings the configuration gives; the library defaults the rest."""
    return {name: value for name, value in settings.items() if value is not None}


_MODEL_KINDS = {WarpedProductMetric: "a warped-product preset",
                LeftInvariantMetric: "a group preset (su2-*)"}


def _resolve_model(cfg: ScenarioConfig, kind):
    """The configured preset, which must be an instance of ``kind``."""
    name = cfg.get("model.preset", DEFAULT_PRESETS[cfg.command])
    profile = None
    if cfg.get("model.f") is not None:
        profile = parse_profile_expr(cfg.get("model.f"))
    sizes = _given(n=cfg.get("model.N"), length=cfg.get("model.L"), fiber_dim=cfg.get("model.k"))
    with _library_checks():
        model = get_preset(name, profile=profile, **sizes)
        if not isinstance(model, kind):
            raise ConfigError(f"command {cfg.command!r} needs {_MODEL_KINDS[kind]}")
        if cfg.get("model.cF") is not None:  # a key of the warped-model commands only
            model = WarpedProductMetric(model.mesh, model.fiber_dim, cfg.get("model.cF"),
                                        model.warping)
    return model


def _target(cfg: ScenarioConfig, model) -> np.ndarray:
    """The command's required target profile at the model's nodes."""
    key = f"{cfg.command}.target"
    if cfg.get(key) is None:
        raise ConfigError(f"{key} is required")
    return parse_profile_expr(cfg.get(key))(model.mesh.nodes)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.17g}"
    return str(x)


def emit_csv(path, header, rows) -> None:
    """Comma-separated, header line, 17 significant digits, newline-terminated."""
    rows = [list(row) for row in rows]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("rows must be rectangular")
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    _write_lines(path, lines)


def emit_plotdata(path, xs, ys) -> None:
    _write_lines(path, [f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys)])


def _write_lines(path, lines) -> None:
    """Write newline-terminated lines, creating the file's directory first."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path.parent}: {exc}") from exc
    path.write_text("\n".join(lines) + "\n")


def _write_report(outdir: Path, report: RunReport) -> None:
    lines = [f"command = {report.command}"]
    lines += [f"input.{key} = {report.input_echo[key]}" for key in sorted(report.input_echo)]
    lines += [f"{key} = {_fmt(value)}" for key, value in report.summary.items()]
    lines += [f"residual.{key} = {_fmt(value)}" for key, value in report.residuals.items()]
    _write_lines(outdir / "report.txt", lines)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _run_classify(cfg, outdir):
    model = _resolve_model(cfg, WarpedProductMetric)
    verdict, lam1 = classify_conformal_class(model)
    scal = scal_warped(model)
    emit_csv(outdir / "scal.csv", ["r", "scal"], zip(model.mesh.nodes, scal))
    emit_plotdata(outdir / "plotdata" / "scal.dat", model.mesh.nodes, scal)
    return {"verdict": verdict.value, "lambda1": lam1}, {}


def _run_yamabe(cfg, outdir):
    negative = cfg.get("yamabe.negative")
    if negative and cfg.options.get("solver.max_iter") is not None:
        raise ConfigError("solver.max_iter bounds the positive regime's descent only; "
                          "yamabe.negative has a fixed Newton budget")
    model = _resolve_model(cfg, WarpedProductMetric)
    c = cfg.get("yamabe.c", None if negative else 1.0)
    settings = _given(tol_residual=cfg.get("solver.tol"), max_iter=cfg.get("solver.max_iter"))
    with _library_checks():
        # without settings each regime runs with its own default tolerance
        sol_cfg = SolverConfig(**settings) if settings else None
        # built for a given c in both regimes: it rejects a non-finite c
        problem = None if c is None else ConformalProblem(model, c=c)
    if negative:
        solution, c_used = solve_negative_constant(model, sol_cfg, c=c)
    else:
        solution = minimize_on_constraint(problem, sol_cfg)
        c_used = c
    scal_out = conformal_scal(model, solution.u)
    emit_csv(outdir / "solution.csv", ["r", "u", "scal_out"],
             zip(model.mesh.nodes, solution.u, scal_out))
    emit_plotdata(outdir / "plotdata" / "u.dat", model.mesh.nodes, solution.u)
    summary = {"lagrange": solution.lagrange, "achieved_constant": solution.achieved_constant,
               "c_used": c_used, "iterations": solution.iterations}
    return summary, {"euler_lagrange": solution.residual_norm}


def _run_prescribe(cfg, outdir):
    model = _resolve_model(cfg, WarpedProductMetric)
    target = _target(cfg, model)
    with _library_checks():
        pcfg = PrescribeConfig(**_given(p=cfg.get("prescribe.p"), eps=cfg.get("prescribe.eps"),
                                        newton_tol=cfg.get("solver.tol"),
                                        newton_max_iter=cfg.get("solver.max_iter")))
    result = full_prescribe(model, target, pcfg)
    emit_csv(outdir / "prescription.csv", ["r", "phi", "u", "scal_out"],
             zip(model.mesh.nodes, result.phi.node_values, result.u, result.scal_out))
    emit_plotdata(outdir / "plotdata" / "scal_out.dat", model.mesh.nodes, result.scal_out)
    summary = {"c": result.c, "path": result.path}
    residuals = {k: v for k, v in result.residuals.items() if not isinstance(v, tuple)}
    return summary, residuals


def _run_cheeger(cfg, outdir):
    orbit = OrbitData(algebra=_resolve_model(cfg, LeftInvariantMetric))
    t_max = cfg.get("cheeger.t_max", 1e4)
    if not 1e-2 < t_max <= 1e100:  # the sweep starts at 0.01; t^3 must stay a finite float
        raise ConfigError("cheeger.t_max must lie in (0.01, 1e100]")
    predicted = homogeneous_scal(orbit)  # no isotropy term: a group has no singular orbit
    ts = np.logspace(-2, np.log10(t_max), 60)
    scal = scal_cheeger(orbit, None, ts)
    over_t = scal / ts
    ratio = over_t / predicted
    emit_csv(outdir / "sweep.csv", ["t", "scal", "scal_over_t", "predicted_limit", "ratio"],
             zip(ts, scal, over_t, np.full(ts.size, predicted), ratio))
    emit_plotdata(outdir / "plotdata" / "scal_over_t.dat", ts, over_t)
    return {"predicted_limit": predicted, "final_ratio": ratio[-1]}, {}


def _run_canonical(cfg, outdir):
    name = cfg.get("model.preset", DEFAULT_PRESETS["canonical"])
    if name not in CANONICAL_PRESETS:
        raise ConfigError(f"unknown canonical preset {name!r}; "
                          f"choose from {sorted(CANONICAL_PRESETS)}")
    preset = CANONICAL_PRESETS[name]
    nb, k = preset["base_dim"], preset["fiber_dim"]
    K_base = np.zeros((nb, nb))
    if preset["base_scal"]:
        pair_value = preset["base_scal"] / (nb * (nb - 1))
        K_base = np.full((nb, nb), pair_value)
        np.fill_diagonal(K_base, 0.0)
    data = cv.SubmersionPointData(base_dim=nb, fiber_dim=k, K_base=K_base,
                                  K_tot_hh=K_base, K_mixed=np.zeros((nb, k)),
                                  fiber_scal=preset["fiber_scal"])
    sweep = cfg.get("canonical.sweep", "0.01:2.0:50")
    try:
        lo, hi, steps = sweep.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ConfigError(f"canonical.sweep must be s_min:s_max:steps, got {sweep!r}") from exc
    if not (np.isfinite(hi) and 0 < lo < hi) or steps < 2:
        raise ConfigError("canonical.sweep needs finite 0 < s_min < s_max and steps >= 2")
    fiber_pair = preset["fiber_scal"] / (k * (k - 1)) if k > 1 else preset["fiber_scal"]
    rows = []
    for s in np.linspace(lo, hi, steps):
        hh = [cv.cv_sectional(data, s, "hh", i, j) for i in range(nb) for j in range(nb) if i != j]
        hv = [cv.cv_sectional(data, s, "hv", i, j) for i in range(nb) for j in range(k)]
        rows.append((s, cv.cv_scal(data, s), min(hh), max(hh), min(hv), max(hv),
                     cv.cv_sectional(data, s, "vv", fiber_k=fiber_pair)))
    emit_csv(outdir / "sweep.csv",
             ["s", "scal", "hh_min", "hh_max", "hv_min", "hv_max", "vv_avg"], rows)
    emit_plotdata(outdir / "plotdata" / "scal.dat", [r[0] for r in rows], [r[1] for r in rows])
    threshold = cv.positivity_threshold(data) if preset["fiber_scal"] > 0 else float("nan")
    return {"positivity_threshold": threshold}, {}


def _run_approx(cfg, outdir):
    model = _resolve_model(cfg, WarpedProductMetric)
    target = _target(cfg, model)
    source = scal_warped(model)
    with _library_checks():  # PrescribeConfig checks the L^p tolerance
        lp = PrescribeConfig(**_given(p=cfg.get("approx.p"), eps=cfg.get("approx.eps")))
    result = approximate_by_diffeo(model.mesh, source, target, p=lp.p, eps=lp.eps)
    phi = result.phi
    emit_csv(outdir / "diffeo.csv", ["r", "phi", "f_of_phi", "target"],
             zip(model.mesh.nodes, phi.node_values, phi.compose(source), target))
    emit_plotdata(outdir / "plotdata" / "phi.dat", model.mesh.nodes, phi.node_values)
    return {"achieved_error": result.achieved_error, "requested_eps": result.requested_eps,
            "cells": result.cells}, {}


_RUNNERS = {
    "classify": _run_classify,
    "yamabe": _run_yamabe,
    "prescribe": _run_prescribe,
    "cheeger": _run_cheeger,
    "canonical": _run_canonical,
    "approx": _run_approx,
}


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute one scenario, writing report.txt, CSVs and plotdata files."""
    outdir = Path(cfg.get("run.outdir", "curvlab-out"))
    start = time.perf_counter()
    summary, residuals = _RUNNERS[cfg.command](cfg, outdir)
    wall = time.perf_counter() - start

    report = RunReport(command=cfg.command, summary=summary, residuals=residuals,
                       input_echo=dict(sorted(cfg.options.items())), files=[],
                       wall_time=wall)
    _write_report(outdir, report)
    report.files = sorted(str(p) for p in outdir.rglob("*") if p.is_file())
    return report


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 4, like any bad setting
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="curvlab", description="invariant-curvature scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in COMMAND_KEYS.items():
        p = sub.add_parser(command, allow_abbrev=False)  # one spelling per flag
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a dotted configuration key")
        for key in keys:
            flags = ["--" + key.rpartition(".")[2].replace("_", "-")]
            flags += ["--model"] if key == "model.preset" else []
            switch = {"action": "store_const", "const": "true"} if KEY_TYPES.get(key) is bool else {}
            p.add_argument(*flags, dest=key, **switch)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        options = parse_config_file(args.config) if args.config else {}
        options.update((key, value) for key, value in vars(args).items()
                       if key in RECOGNIZED_KEYS and value is not None)
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
            key, _, value = override.partition("=")
            options[key.strip()] = value.strip()
        command = options.pop("command", args.command)
        if command != args.command:
            raise ConfigError(f"command = {command} does not match the subcommand {args.command}")
        report = run_scenario(ScenarioConfig(command=command, options=options))
    except PreconditionError as exc:
        print(f"rejected ({exc.condition or 'precondition'}): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CurvLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key, value in report.summary.items():
        print(f"{key} = {_fmt(value)}")
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
