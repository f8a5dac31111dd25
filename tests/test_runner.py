"""Scenario runner: config parsing, outputs, determinism, exit codes."""

import shlex
from pathlib import Path

import numpy as np
import pytest

from curvlab import get_preset, scal_warped
from curvlab.errors import ConfigError
from curvlab.runner import (COMMAND_KEYS, EXIT_CONFIG, EXIT_OK, EXIT_PRECONDITION,
                            KEY_TYPES, RECOGNIZED_KEYS, ScenarioConfig, emit_csv, main,
                            parse_config_file, parse_profile_expr, run_scenario)

from oracles import canonical_sweep_loop


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


def test_expr_constants_and_r():
    r = np.linspace(0, 1, 5)
    assert np.allclose(parse_profile_expr("2.5")(r), 2.5)
    assert np.allclose(parse_profile_expr("r")(r), r)


def test_expr_arithmetic():
    r = np.linspace(0, 2, 9)
    f = parse_profile_expr("1 + 0.1*sin(r) - 0.5*cos(2*r)")
    assert np.allclose(f(r), 1 + 0.1 * np.sin(r) - 0.5 * np.cos(2 * r))
    g = parse_profile_expr("(1 + r)^2")
    assert np.allclose(g(r), (1 + r) ** 2)
    h = parse_profile_expr("-r + 6*(1 + 0.1*sin(r))")
    assert np.allclose(h(r), -r + 6 * (1 + 0.1 * np.sin(r)))


def test_expr_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_profile_expr("import os")
    with pytest.raises(ConfigError, match="^sin needs parentheses$"):
        parse_profile_expr("sin r")
    with pytest.raises(ConfigError, match="^cos needs parentheses$"):
        parse_profile_expr("2*cos r")
    with pytest.raises(ConfigError):
        parse_profile_expr("1 +")
    # the number scanner accepts these, and float() used to reject them with
    # a ValueError that escaped the runner
    for text in ("1e", "1.2.3", "2e+", ".", "2*1e"):
        with pytest.raises(ConfigError, match="^malformed number '.*' in profile expression$"):
            parse_profile_expr(text)


@pytest.mark.parametrize("text,expected", [
    ("-r^2", lambda r: (-r) ** 2),  # unary minus binds its atom before ^
    ("2*3^2", lambda r: np.full_like(r, 18.0)),
    ("1-2-3", lambda r: np.full_like(r, -4.0)),  # left to right
    ("2*r-r*3+1", lambda r: 2 * r - r * 3 + 1),
    ("(1+r)^(1+1)*2", lambda r: (1 + r) ** 2 * 2),
])
def test_expr_precedence(text, expected):
    r = np.linspace(-2.0, 2.0, 9)
    np.testing.assert_array_equal(parse_profile_expr(text)(r), expected(r))


def test_expr_power_takes_one_atom_and_does_not_chain():
    with pytest.raises(ConfigError, match="^unexpected input at '\\^2'$"):
        parse_profile_expr("r^2^2")
    with pytest.raises(ConfigError, match="^unbalanced parenthesis in profile expression$"):
        parse_profile_expr("(1 + r")


# ---------------------------------------------------------------------------
# csv emission
# ---------------------------------------------------------------------------


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"


def test_emit_csv_shape(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(path, ["x", "y"], [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)])
    assert len(path.read_text().splitlines()) == 4


def test_emit_csv_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(157)
    values = [(float(x), float(y)) for x, y in rng.normal(size=(20, 2))]
    path = tmp_path / "rt.csv"
    emit_csv(path, ["x", "y"], values)
    lines = path.read_text().splitlines()[1:]
    parsed = [tuple(float(t) for t in line.split(",")) for line in lines]
    assert parsed == values


def test_emit_csv_rejects_ragged(tmp_path):
    with pytest.raises(ValueError):
        emit_csv(tmp_path / "bad.csv", ["x", "y"], [(1.0,), (2.0, 3.0)])


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\ncommand = classify\nmodel.preset = flat-torus\n\nmodel.N = 32\n")
    options = parse_config_file(cfg_file)
    assert options == {"command": "classify", "model.preset": "flat-torus", "model.N": "32"}


def test_config_rejects_unknown_command():
    with pytest.raises(ConfigError):
        ScenarioConfig(command="explode")


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="model.n, run.seed"):
        ScenarioConfig(command="classify", options={"run.seed": "7", "model.n": "32"})


def test_recognized_keys_match_the_module_docstring():
    # the docstring names the table; the README lists each command's row,
    # one "- `command`: `key`, ..." line per command
    import curvlab.runner as runner
    assert "`COMMAND_KEYS` lists the keys each command reads" in runner.__doc__
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = {}
    for line in readme.split("Each command reads these keys")[1].split("\n\n")[1].splitlines():
        command, _, keys = line.removeprefix("- ").partition(": ")
        listed[command.strip("`")] = [k.strip().strip("`") for k in keys.split(",")]
    assert listed.keys() == COMMAND_KEYS.keys()
    for command, keys in listed.items():
        assert keys == list(COMMAND_KEYS[command]), command


def test_config_rejects_bad_number():
    cfg = ScenarioConfig(command="classify", options={"model.N": "many"})
    with pytest.raises(ConfigError):
        cfg.get("model.N")


def test_config_reads_each_key_by_its_type():
    cfg = ScenarioConfig(command="yamabe", options={
        "model.N": "32", "model.L": "6", "yamabe.negative": "Yes", "model.f": "1 + 0.1*sin(r)"})
    assert cfg.get("model.N") == 32 and type(cfg.get("model.N")) is int
    assert cfg.get("model.L") == 6.0 and type(cfg.get("model.L")) is float
    assert cfg.get("yamabe.negative") is True
    assert cfg.get("model.f") == "1 + 0.1*sin(r)"
    assert cfg.get("yamabe.c", 1.0) == 1.0
    assert KEY_TYPES.keys() <= RECOGNIZED_KEYS
    assert set(KEY_TYPES.values()) == {int, float, bool}


@pytest.mark.parametrize("key", sorted(KEY_TYPES))
def test_main_rejects_an_unreadable_typed_key(tmp_path, capsys, key):
    command = next(c for c, keys in COMMAND_KEYS.items() if key in keys)
    required = [f"--set={command}.target=6"] if f"{command}.target" in COMMAND_KEYS[command] else []
    outdir = tmp_path / "o"
    code = main([command, f"--set={key}=many", *required, "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    kind = {int: "an integer", float: "a number", bool: "a boolean"}[KEY_TYPES[key]]
    assert capsys.readouterr().err.strip() == \
        f"configuration error: {key} must be {kind}, got 'many'"
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def test_classify_flat_torus(tmp_path):
    cfg = ScenarioConfig(command="classify",
                         options={"model.preset": "flat-torus",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    assert report.summary["verdict"] == "Z_G"
    assert abs(report.summary["lambda1"]) < 1e-8
    names = ("plotdata/scal.dat", "report.txt", "scal.csv")
    assert report.files == [str(tmp_path / "out" / name) for name in names]
    for name in report.files:
        assert Path(name).exists()


def test_classify_round_fiber(tmp_path):
    cfg = ScenarioConfig(command="classify",
                         options={"model.preset": "round-fiber",
                                  "run.outdir": str(tmp_path / "out")})
    assert run_scenario(cfg).summary["verdict"] == "P_G"


def test_yamabe_positive_run(tmp_path):
    cfg = ScenarioConfig(command="yamabe",
                         options={"model.preset": "round-fiber", "yamabe.c": "6.0",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    assert report.residuals["euler_lagrange"] < 1e-8
    text = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert text[0] == "r,u,scal_out"
    assert len(text) == 65


def test_yamabe_negative_run(tmp_path):
    cfg = ScenarioConfig(command="yamabe",
                         options={"model.preset": "hyperbolic-fiber",
                                  "yamabe.negative": "true",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    assert report.summary["achieved_constant"] == pytest.approx(2.0, rel=1e-8)


def test_yamabe_negative_runs_with_the_library_tolerance(tmp_path, monkeypatch):
    # without solver.tol the runner passes no config, so solve_negative_constant
    # keeps its own 1e-8; a given solver.tol reaches it unchanged
    import curvlab.runner as runner
    tolerances, solve = [], runner.solve_negative_constant
    monkeypatch.setattr(runner, "solve_negative_constant", lambda metric, cfg, **kw: (
        tolerances.append(cfg and cfg.tol_residual) or solve(metric, cfg, **kw)))
    for tol in ({}, {"solver.tol": "1e-7"}):
        run_scenario(ScenarioConfig(command="yamabe", options={
            "model.preset": "hyperbolic-fiber", "yamabe.negative": "true",
            "run.outdir": str(tmp_path / "out"), **tol}))
    assert tolerances == [None, 1e-7]


def test_prescribe_run(tmp_path, monkeypatch):
    import curvlab.runner as runner
    from curvlab.runner import _fmt
    results, full_prescribe = [], runner.full_prescribe
    monkeypatch.setattr(runner, "full_prescribe",
                        lambda *args: results.append(full_prescribe(*args)) or results[-1])
    cfg = ScenarioConfig(command="prescribe",
                         options={"model.preset": "round-fiber", "model.N": "128",
                                  "prescribe.target": "6*(1 + 0.1*sin(r))",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    assert set(report.summary) == {"c", "path"}
    assert report.summary["c"] == pytest.approx(1.0)
    assert report.residuals["sup_error"] < 1e-3
    header, *lines = (tmp_path / "out" / "prescription.csv").read_text().splitlines()
    assert header == "r,phi,u,scal_out"
    # the scal_out column is the stencil curvature of the returned metric
    assert [line.split(",")[3] for line in lines] == [
        _fmt(x) for x in results[0].metric_out.scal()]


def test_main_prescribe_above_sup_tol_exits_solver(tmp_path, monkeypatch, capsys):
    import curvlab.prescribe as prescribe
    from curvlab.runner import EXIT_SOLVER
    monkeypatch.setattr(prescribe, "_SUP_TOL", 1e-300)
    code = main(["prescribe", "--model", "round-fiber", "--target", "6*(1 + 0.1*sin(r))",
                 "--outdir", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    assert "sup_tol" in capsys.readouterr().err


def test_main_prescribe_defaults_to_the_library_tolerance(tmp_path, capsys):
    # solver.tol defaults to PrescribeConfig.newton_tol, so the CLI solves this
    # input directly, as full_prescribe does with its default config
    code = main(["prescribe", "--model", "round-fiber", "--N", "256",
                 "--target", "6*(1+0.1*sin(r))", "--outdir", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert "path = identity" in capsys.readouterr().out.splitlines()


def test_main_prescribe_singular_newton_system_exits_solver(tmp_path, monkeypatch, capsys):
    from curvlab.runner import EXIT_SOLVER

    def singular_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular_solve)
    # a non-constant background: the reparametrized path starts far from its
    # target and needs a Newton step too
    code = main(["prescribe", "--model", "bumpy", "--target", "6 + 4*sin(r)",
                 "--outdir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_SOLVER
    assert "solver failure: singular" in err and "Traceback" not in err


def test_cheeger_sweep(tmp_path):
    cfg = ScenarioConfig(command="cheeger",
                         options={"model.preset": "su2-biinvariant",
                                  "cheeger.t_max": "10000",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    assert report.summary["predicted_limit"] == pytest.approx(1.5)
    assert report.summary["final_ratio"] == pytest.approx(1.0, rel=1e-2)
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "t,scal,scal_over_t,predicted_limit,ratio"


def test_main_cheeger_defaults_to_the_biinvariant_group(tmp_path, capsys):
    # model.preset used to default to round-fiber for every command, so
    # cheeger without --model always exited 4 ("needs a group preset")
    assert main(["cheeger", "--outdir", str(tmp_path / "default")]) == EXIT_OK
    assert main(["cheeger", "--model", "su2-biinvariant",
                 "--outdir", str(tmp_path / "explicit")]) == EXIT_OK
    for name in ("sweep.csv", "plotdata/scal_over_t.dat"):
        assert (tmp_path / "default" / name).read_text() == \
            (tmp_path / "explicit" / name).read_text()
    assert "predicted_limit = 1.5" in (tmp_path / "default" / "report.txt").read_text()


def test_canonical_sweep(tmp_path):
    cfg = ScenarioConfig(command="canonical",
                         options={"model.preset": "negative-base-product",
                                  "canonical.sweep": "0.05:1.0:20",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    assert report.summary["positivity_threshold"] == pytest.approx(0.5, abs=1e-9)
    header = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0]
    assert header == "s,scal,hh_min,hh_max,hv_min,hv_max,vv_avg"


@pytest.mark.parametrize("preset", ["product-round-fiber", "negative-base-product"])
@pytest.mark.parametrize("sweep", [None, "0.0123:1.987:113", "0.5:3:7", "1e-3:40:2"])
def test_canonical_files_equal_the_scalar_loop(tmp_path, preset, sweep):
    options = {"model.preset": preset, "run.outdir": str(tmp_path / "out")}
    if sweep is not None:
        options["canonical.sweep"] = sweep
    run_scenario(ScenarioConfig(command="canonical", options=options))
    lo, hi, steps = (sweep or "0.01:2.0:50").split(":")
    canonical_sweep_loop(preset, float(lo), float(hi), int(steps), tmp_path / "loop")
    for name in ("sweep.csv", "plotdata/scal.dat"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "loop" / name).read_bytes()


def test_approx_run(tmp_path, monkeypatch):
    import curvlab.runner as runner
    from curvlab.runner import _fmt
    results, approximate_by_diffeo = [], runner.approximate_by_diffeo
    monkeypatch.setattr(runner, "approximate_by_diffeo",
                        lambda *a, **kw: results.append(approximate_by_diffeo(*a, **kw))
                        or results[-1])
    cfg = ScenarioConfig(command="approx",
                         options={"model.preset": "bumpy",
                                  "approx.target": "6 + 0.5*sin(r)",
                                  "approx.eps": "0.05",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    assert report.summary["achieved_error"] < 0.05
    header, *lines = (tmp_path / "out" / "diffeo.csv").read_text().splitlines()
    assert header == "r,phi,f_of_phi,target"
    # f_of_phi is the source scal interpolated periodically at the phi values
    phi = results[0].phi
    nodes, length = phi.mesh.nodes, phi.mesh.length
    source = scal_warped(get_preset("bumpy"))
    composed = np.interp(np.mod(phi.node_values, length), np.append(nodes, length),
                         np.append(source, source[0]))
    assert [line.split(",")[2] for line in lines] == [_fmt(x) for x in composed]


def test_report_excludes_wall_time(tmp_path):
    cfg = ScenarioConfig(command="classify",
                         options={"model.preset": "flat-torus",
                                  "run.outdir": str(tmp_path / "out")})
    report = run_scenario(cfg)
    text = (tmp_path / "out" / "report.txt").read_text()
    assert report.wall_time > 0
    assert not any(line.split(" = ")[0].strip().startswith("wall")
                   for line in text.splitlines())
    assert "verdict = Z_G" in text


def test_determinism_byte_for_byte(tmp_path):
    # identical config (same outdir) reproduces every byte
    options = {"model.preset": "round-fiber", "yamabe.c": "6.0",
               "run.outdir": str(tmp_path / "out")}
    cfg = ScenarioConfig(command="yamabe", options=dict(options))
    run_scenario(cfg)
    names = ("report.txt", "solution.csv", "plotdata/u.dat")
    first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    run_scenario(ScenarioConfig(command="yamabe", options=dict(options)))
    for n in names:
        assert (tmp_path / "out" / n).read_bytes() == first[n], n


# ---------------------------------------------------------------------------
# exit codes through main()
# ---------------------------------------------------------------------------


def test_main_success(tmp_path, capsys):
    code = main(["classify", "--model", "round-fiber", "--outdir", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert "verdict = P_G" in capsys.readouterr().out


def test_main_precondition_rejection(tmp_path, capsys):
    # negative target on a positively curved background: pinching fails
    code = main(["prescribe", "--model", "round-fiber", "--target", "-1",
                 "--outdir", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "pinching-window" in err


def test_main_config_error(tmp_path, capsys):
    code = main(["classify", "--model", "does-not-exist", "--outdir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_main_uncreatable_outdir_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["classify", "--model", "round-fiber", "--outdir", str(blocker / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot create output directory {blocker / 'o'}")
    assert len(err.strip().splitlines()) == 1


def test_main_config_file_plus_override(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("model.preset = flat-torus\n")
    code = main(["classify", "--config", str(cfg_file),
                 "--set", f"run.outdir={tmp_path / 'o'}"])
    assert code == EXIT_OK
    assert "Z_G" in capsys.readouterr().out


def test_main_solver_failure_exit_code(tmp_path, capsys):
    from curvlab.runner import EXIT_SOLVER
    # an unreachable tolerance forces a solver-failure exit
    code = main(["yamabe", "--model", "round-fiber", "--c", "6.0",
                 "--tol", "1e-30", "--outdir", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_main_yamabe_negative_rejects_max_iter(tmp_path, capsys):
    # the negative regime reads no solver.max_iter, so setting one is an error
    outdir = tmp_path / "o"
    code = main(["yamabe", "--model", "bumpy", "--set", "model.cF=-2", "--negative",
                 "--max-iter", "1", "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert "solver.max_iter" in capsys.readouterr().err
    assert not outdir.exists()


def test_yamabe_negative_treats_a_none_max_iter_as_unset(tmp_path):
    # like ScenarioConfig.get, the max_iter check reads a None value as unset
    options = {"model.preset": "bumpy", "model.cF": "-2", "yamabe.negative": "true"}
    reports = [run_scenario(ScenarioConfig("yamabe", {**options, **extra,
                                                      "run.outdir": str(tmp_path / name)}))
               for name, extra in (("unset", {}), ("none", {"solver.max_iter": None}))]
    assert reports[0].summary == reports[1].summary


def test_main_approx_flags_reach_the_approx_keys(tmp_path, capsys):
    # --target, --p and --eps under `approx` set approx.*, not prescribe.*
    outdir = tmp_path / "o"
    code = main(["approx", "--model", "bumpy", "--target", "6 + 0.5*sin(r)",
                 "--p", "1", "--eps", "0.05", "--outdir", str(outdir)])
    assert code == EXIT_OK
    assert "requested_eps = 0.050000000000000003" in capsys.readouterr().out
    report = (outdir / "report.txt").read_text().splitlines()
    assert "input.approx.eps = 0.05" in report
    assert "input.approx.p = 1" in report
    assert not any(line.startswith("input.prescribe.") for line in report)


def test_main_invalid_model_is_a_config_error(tmp_path, capsys):
    code = main(["classify", "--model", "bumpy", "--f", "0-1", "--outdir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.strip() == "configuration error: warping must be strictly positive"


@pytest.mark.parametrize("n", ["8", "0", "-5"])
def test_main_rejects_too_few_nodes_with_the_mesh_message(tmp_path, capsys, n):
    outdir = tmp_path / "o"
    code = main(["classify", "--model", "bumpy", "--N", n, "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"configuration error: need at least 16 nodes, got {n}"
    assert not outdir.exists()


def test_main_prescribe_takes_a_target_that_starts_with_a_minus_sign(tmp_path, capsys):
    # "--target -2*(...)" reads as a flag; "--target=-2*(...)" and
    # "--set prescribe.target=-2*(...)" pass the profile, as README says
    target = "-2*(1+0.05*sin(r))"
    for how, args in (("flag", [f"--target={target}"]),
                      ("set", ["--set", f"prescribe.target={target}"])):
        code = main(["prescribe", "--model", "hyperbolic-fiber", *args,
                     "--outdir", str(tmp_path / how)])
        assert code == EXIT_OK
        assert "path = identity" in capsys.readouterr().out
    assert (tmp_path / "flag" / "prescription.csv").read_text() == \
        (tmp_path / "set" / "prescription.csv").read_text()
    code = main(["prescribe", "--model", "hyperbolic-fiber", "--target", target,
                 "--outdir", str(tmp_path / "space")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == \
        "configuration error: argument --target: expected one argument"


@pytest.mark.parametrize("command", ["prescribe", "approx"])
@pytest.mark.parametrize("target", ["sin(r)^0.5", "10^400", "r^(0-1)"])
def test_main_rejects_a_target_that_is_not_finite(tmp_path, capsys, command, target):
    # ^ and overflow give a NaN or an infinity at some node.  prescribe was
    # refused as pinching-window (exit 2) or ran Newton to "no admissible
    # trial point (residual inf)" (exit 3); approx as range-hypothesis
    outdir = tmp_path / "o"
    code = main([command, "--model", "bumpy", f"--target={target}", "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == \
        f"configuration error: {command}.target is not finite at every node"
    assert not outdir.exists()


def test_main_rejects_unknown_key(tmp_path, capsys):
    # a misspelled key (model.n for model.N) used to be ignored: the run
    # exited 0 and wrote a 64-node scal.csv
    outdir = tmp_path / "o"
    code = main(["classify", "--model", "bumpy", "--set", "model.n=32", "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.strip() == "configuration error: unknown configuration key(s): model.n"
    assert not outdir.exists()


def test_main_rejects_solver_tol_in_a_classify_config_file(tmp_path, capsys):
    # the verdict is the sign of model.cF, so classify reads no tolerance
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("command = classify\nmodel.preset = flat-torus\nsolver.tol = 1e-8\n")
    outdir = tmp_path / "o"
    code = main(["classify", "--config", str(cfg_file), "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        "configuration error: unknown configuration key(s): solver.tol")
    assert not outdir.exists()


@pytest.mark.parametrize("args,reason", [
    # each used to exit 0 (or 4 with "model.N must be at least 16") although
    # the command never reads the key
    (["classify", "--model", "bumpy", "--target", "1e"], "unrecognized arguments: --target 1e"),
    (["cheeger", "--model", "su2-berger(1.5)", "--tol", "nan"], "unrecognized arguments: --tol nan"),
    (["cheeger", "--model", "su2-berger(1.5)", "--set", "model.cF=nan"],
     "unknown configuration key(s): model.cF"),
    (["canonical", "--eps", "nan"], "unrecognized arguments: --eps nan"),
    (["canonical", "--N", "8"], "unrecognized arguments: --N 8"),
    (["prescribe", "--set", "approx.target=6", "--set", "yamabe.c=1"],
     "unknown configuration key(s): approx.target, yamabe.c"),
], ids=["classify_target", "cheeger_tol", "cheeger_cF", "canonical_eps", "canonical_N",
        "prescribe_foreign_keys"])
def test_main_rejects_keys_the_command_does_not_read(tmp_path, capsys, args, reason):
    outdir = tmp_path / "o"
    code = main([*args, "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"configuration error: {reason}"
    assert not outdir.exists()


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_config_accepts_exactly_the_keys_of_its_command(command):
    ScenarioConfig(command=command, options=dict.fromkeys(COMMAND_KEYS[command], "1"))
    for key in RECOGNIZED_KEYS - set(COMMAND_KEYS[command]):
        with pytest.raises(ConfigError, match=f"^unknown configuration key\\(s\\): {key}$"):
            ScenarioConfig(command=command, options={key: "1"})


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_each_flag_sets_its_key(command):
    # the flag is the key's last part with _ written as -; --negative is a switch
    from curvlab.runner import _build_parser
    parser = _build_parser()
    for key in COMMAND_KEYS[command]:
        flag = "--" + key.rpartition(".")[2].replace("_", "-")
        args = [command, flag] if key == "yamabe.negative" else [command, flag, "v"]
        assert vars(parser.parse_args(args))[key] == ("true" if key == "yamabe.negative" else "v")
    if "model.preset" in COMMAND_KEYS[command]:
        assert vars(parser.parse_args([command, "--model", "m"]))["model.preset"] == "m"


@pytest.mark.parametrize("args,reason", [
    (["classify", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
    (["classify", "--model"], "argument --preset/--model: expected one argument"),
    (["explode"], "argument command: invalid choice: 'explode'"),
    # argparse takes an unambiguous prefix for the flag: --neg used to set
    # yamabe.negative, and with only cheeger's flags in its parser --t would set t_max
    (["cheeger", "--t", "50"], "unrecognized arguments: --t 50"),
    (["yamabe", "--neg"], "unrecognized arguments: --neg"),
], ids=["unknown_flag", "no_command", "missing_value", "unknown_command", "cheeger_prefix",
        "yamabe_prefix"])
def test_main_usage_errors_are_config_errors(capsys, args, reason):
    # argparse used to print its usage and exit 2, the precondition code
    code = main(args)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {reason}")
    assert len(err.strip().splitlines()) == 1


def test_main_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["yamabe", "--help"])
    assert exc.value.code == 0
    assert "--tol" in capsys.readouterr().out


@pytest.mark.parametrize("args,entry", [
    # classify used to run yamabe and exit 0
    (["classify", "--model", "round-fiber", "--config", "CFG"], "yamabe"),
    (["classify", "--model", "round-fiber", "--set", "command=yamabe"], "yamabe"),
    # used to exit 4 with the misleading "approx.target is required"
    (["prescribe", "--model", "bumpy", "--config", "CFG", "--target", "6+0.5*sin(r)"], "approx"),
], ids=["classify_config", "classify_set", "prescribe_config"])
def test_main_rejects_a_command_entry_that_differs_from_the_subcommand(tmp_path, capsys, args,
                                                                        entry):
    cfg_file = tmp_path / "f.cfg"
    cfg_file.write_text(f"command = {entry}\n")
    outdir = tmp_path / "o"
    code = main([str(cfg_file) if a == "CFG" else a for a in args] + ["--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        f"configuration error: command = {entry} does not match the subcommand {args[0]}")
    assert not outdir.exists()


def test_main_config_command_matching_the_subcommand_runs(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"command = classify\nmodel.preset = flat-torus\nmodel.N = 32\n"
                        f"run.outdir = {tmp_path / 'o'}\n")
    assert main(["classify", "--config", str(cfg_file)]) == EXIT_OK
    assert "verdict = Z_G" in capsys.readouterr().out
    assert "command = classify" in (tmp_path / "o" / "report.txt").read_text().splitlines()


@pytest.mark.parametrize("t_max", ["nan", "inf", "-inf", "1e-3", "0.01", "1e103", "1e300"])
def test_main_rejects_cheeger_t_max_outside_the_sweep(tmp_path, capsys, t_max):
    # nan and inf used to exit 0 with final_ratio = nan, 1e-3 ran the logspace
    # sweep backwards from 1e-2 (final_ratio = 834.4), and t^3 overflows a
    # float beyond t = 5.6e102
    outdir = tmp_path / "o"
    code = main(["cheeger", "--model", "su2-berger(1.5)", "--set", f"cheeger.t_max={t_max}",
                 "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cheeger.t_max")
    assert len(err.strip().splitlines()) == 1
    assert not outdir.exists()


@pytest.mark.parametrize("sweep", ["nan:2:50", "0.01:inf:50", "0.01:nan:5", "inf:inf:5"])
def test_main_rejects_nonfinite_canonical_sweep(tmp_path, capsys, sweep):
    # non-finite bounds slipped past `lo <= 0 or hi <= lo` and wrote NaN rows
    outdir = tmp_path / "o"
    code = main(["canonical", "--set", f"canonical.sweep={sweep}", "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: canonical.sweep")
    assert len(err.strip().splitlines()) == 1
    # the output directory used to be created before the options were read
    assert not outdir.exists()


@pytest.mark.parametrize("command,override,reason", [
    ("classify", "model.L=nan", "length must be finite and positive"),
    ("classify", "model.L=inf", "length must be finite and positive"),
    ("classify", "model.f=1+r^-1", "warping must be finite"),
    ("yamabe", "model.L=nan", "length must be finite and positive"),
    # inf used to exit 0 with final_ratio = nan, nan to exit 4 with "tensor
    # must be symmetric"
    ("cheeger", "model.preset=su2-berger(inf)", "tensor must be finite"),
    ("cheeger", "model.preset=su2-berger(nan)", "tensor must be finite"),
])
def test_main_rejects_nonfinite_model_input(tmp_path, capsys, command, override, reason):
    # classify used to exit 1 with a traceback from the eigensolver ("array
    # must not contain infs or NaNs"), yamabe with "Factor is exactly singular"
    outdir = tmp_path / "o"
    code = main([command, "--model", "round-fiber", "--set", override, "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"configuration error: {reason}"
    assert not outdir.exists()


@pytest.mark.parametrize("command,flag", [("classify", "--f"), ("prescribe", "--target"),
                                          ("approx", "--target")])
@pytest.mark.parametrize("number", ["1e", "1.2.3", "2e+", "."])
def test_main_rejects_malformed_numbers(tmp_path, capsys, command, flag, number):
    # each used to exit 1 with "could not convert string to float"
    outdir = tmp_path / "o"
    code = main([command, "--model", "bumpy", flag, number, "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.strip() == f"configuration error: malformed number {number!r} in profile expression"
    assert not outdir.exists()


INVALID_SETTINGS = [
    # exit 0 with a wrong verdict (Z_G, lambda1 = -2.1) or achieved_error = nan
    # classify reads no solver.tol: its verdict is the sign of model.cF
    ("classify --set model.cF=-2 --tol nan", "unrecognized arguments: --tol nan"),
    ("classify --tol inf", "unrecognized arguments: --tol inf"),
    ("classify --tol -1", "unrecognized arguments: --tol -1"),
    ("approx --target 6+0.5*sin(r) --eps nan", "eps must be positive"),
    ("approx --target 6+0.5*sin(r) --p nan", "p must be >= 1"),
    ("prescribe --target 6*(1+0.1*sin(r)) --eps nan", "eps must be positive"),
    ("prescribe --target 6*(1+0.1*sin(r)) --p nan", "p must be >= 1"),
    ("prescribe --target 6*(1+0.1*sin(r)) --tol nan",
     "newton_tol and newton_max_iter must be positive"),
    ("yamabe --tol nan", "tol_residual and max_iter must be positive"),
    # exit 1 from the eigensolver, exit 3 from a NaN Newton residual
    ("classify --set model.cF=inf", "fiber scalar curvature must be finite"),
    ("yamabe --set model.cF=nan", "fiber scalar curvature must be finite"),
    ("yamabe --c nan", "the functional constant c must be finite"),
    ("yamabe --c inf", "the functional constant c must be finite"),
    ("yamabe --set model.cF=-2 --negative --c nan", "the functional constant c must be finite"),
    # exit 1 with a traceback
    ("yamabe --tol -1", "tol_residual and max_iter must be positive"),
    ("yamabe --max-iter 0", "tol_residual and max_iter must be positive"),
    ("approx --target 6+0.5*sin(r) --p 0.5", "p must be >= 1"),
    ("prescribe --target 6*(1+0.1*sin(r)) --max-iter -1",
     "newton_tol and newton_max_iter must be positive"),
    ("prescribe --target 6*(1+0.1*sin(r)) --max-iter 0",
     "newton_tol and newton_max_iter must be positive"),
]


@pytest.mark.parametrize("args,reason", INVALID_SETTINGS, ids=[a.replace(" ", "_") for a, _ in INVALID_SETTINGS])
def test_main_rejects_invalid_settings(tmp_path, capsys, args, reason):
    command, *rest = args.split()
    outdir = tmp_path / "o"
    code = main([command, "--model", "bumpy", *rest, "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"configuration error: {reason}"
    assert not outdir.exists()


INFINITE_SETTINGS = [
    # each used to exit 0: yamabe after 1 iteration, approx with
    # requested_eps = inf or "achieved 1.000e+00", prescribe without a Newton step
    ("yamabe --set solver.tol=inf", "tol_residual must be finite"),
    ("approx --target 6+0.5*sin(r) --set approx.eps=inf", "eps must be finite"),
    ("approx --target 6+0.5*sin(r) --set approx.p=inf", "p must be finite"),
    ("prescribe --target 6*(1+0.1*sin(r)) --set solver.tol=inf", "newton_tol must be finite"),
]


@pytest.mark.parametrize("args,reason", INFINITE_SETTINGS,
                         ids=[a.split()[0] + "_" + a.split("=")[-2].rpartition(".")[2]
                              for a, _ in INFINITE_SETTINGS])
def test_main_rejects_infinite_settings(tmp_path, capsys, args, reason):
    command, *rest = args.split()
    outdir = tmp_path / "o"
    code = main([command, "--model", "bumpy", *rest, "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"configuration error: {reason}"
    assert not outdir.exists()


@pytest.mark.parametrize("command,extra", [
    ("classify", ["--model", "hyperbolic-fiber", "--k", "8"]),
    ("yamabe", ["--model", "round-fiber"]),
    ("approx", ["--model", "round-fiber", "--target", "6+0.5*sin(r)"]),
], ids=["classify", "yamabe", "approx"])
def test_main_rejects_a_length_too_small_for_the_stencils(tmp_path, capsys, command, extra):
    # h * h underflowed to 0, scal came out NaN and each ended in a traceback
    outdir = tmp_path / "o"
    code = main([command, *extra, "--set", "model.L=1e-300", "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: length 1e-300 is too small for the stencils")
    assert len(err.strip().splitlines()) == 1
    assert not outdir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", ["1e200", "1e300"])
def test_main_rejects_a_berger_sweep_that_leaves_the_float_range(tmp_path, capsys, lam):
    # each used to exit 0 with final_ratio = nan and NaN columns in sweep.csv
    outdir = tmp_path / "o"
    code = main(["cheeger", "--model", f"su2-berger({lam})", "--outdir", str(outdir)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cheeger sweep is not finite from t = 0.01")
    assert len(err.strip().splitlines()) == 1
    assert not outdir.exists()


@pytest.mark.parametrize("args", [
    ["classify", "--model", "hyperbolic-fiber", "--k", "8"],
    ["yamabe", "--model", "round-fiber"],
    ["yamabe", "--model", "hyperbolic-fiber", "--negative"],
], ids=["classify", "yamabe", "yamabe-negative"])
@pytest.mark.parametrize("length", ["1e-152", "2e-152"])
@pytest.mark.filterwarnings("error")
def test_main_rejects_a_length_too_small_for_the_conformal_operator(tmp_path, capsys, args,
                                                                    length):
    # 1/h^2 is finite here but 4 b_n L is not: classify ended in the
    # eigensolver's "array must not contain infs or NaNs" traceback, yamabe
    # exited 0 with an overflow warning and achieved_constant = 0
    outdir = tmp_path / "o"
    code = main([*args, "--set", f"model.L={length}", "--outdir", str(outdir)])
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err == (f"rejected (operator-scale): length {length} is too small for the conformal "
                   "operator: 4 b_n L overflows a float\n")
    assert not outdir.exists()


def _readme_command_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh\n")[1].split("```")[0]
    return [line for line in block.splitlines() if line.startswith("curvlab ")]


def test_readme_lists_the_command_lines_it_documents():
    assert {shlex.split(line)[1] for line in _readme_command_lines()} == set(COMMAND_KEYS)


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line_runs_and_reproduces_its_files(tmp_path, capsys, line):
    args = shlex.split(line)[1:]
    args[args.index("--outdir") + 1] = str(tmp_path / "out")
    assert main(args) == EXIT_OK
    first = {p: p.read_bytes() for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()}
    assert main(args) == EXIT_OK
    second = {p: p.read_bytes() for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()}
    assert first and second == first
