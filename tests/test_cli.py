"""Command-line interface: exit codes, config validation, manifest
determinism, and artifact output."""

import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bchyp
from bchyp import affine, cli, criteria
from bchyp.gauss import (GaussProblem, LinearSolveFailure,
                         residual_background)
from bchyp.metric import BeltramiChart, ComplexMetric, CubicPair, TorusGrid
from bchyp.cli import (ConfigError, config_hash, load_config,
                       load_generators, main)
from bchyp.criteria import CriterionResult

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def cfg_path(name):
    return str(CONFIGS / name)


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# ----------------------------------------------------------------------
# exit codes

def test_fast_stages_exit_zero(capsys):
    assert main(["algebra"]) == 0
    assert main(["chtau"]) == 0
    assert main(["metric", "stokes"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_unknown_top_level_key_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": 32, "mesh": 9})
    assert main(["gauss", "solve", "--config", cfg]) == 2
    assert "unknown config key 'mesh'" in capsys.readouterr().err


def test_unknown_nested_key_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"solver": {"tol": 1e-10, "speed": 2}})
    assert main(["gauss", "solve", "--config", cfg]) == 2
    assert "'speed'" in capsys.readouterr().err


def test_threads_key_is_gone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": 32, "threads": 2})
    assert main(["gauss", "solve", "--config", cfg]) == 2
    assert "unknown config key 'threads'" in capsys.readouterr().err


def test_degenerate_chart_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    {"chart": {"kind": "constant", "mu": [1.0, 0.0]}})
    assert main(["pipeline", "--config", cfg]) == 2
    assert "symbol check" in capsys.readouterr().err


def test_symbol_floor_is_one_boundary_for_solver_and_config(tmp_path,
                                                            capsys):
    grid = TorusGrid(16)
    for modulus, elliptic in ((0.994, True), (0.996, False)):
        mu = modulus * np.exp(1j * np.pi / 3)
        chart = BeltramiChart.constant_mu(grid, mu)
        cfg = {"chart": {"kind": "constant", "mu": [mu.real, mu.imag]}}
        if elliptic:
            GaussProblem(ComplexMetric(chart, 0.0), CubicPair(grid, 0, 0))
            assert np.allclose(cli.build_chart(cfg, grid).mu, mu)
            continue
        with pytest.raises(ValueError, match="symbol check"):
            GaussProblem(ComplexMetric(chart, 0.0), CubicPair(grid, 0, 0))
        with pytest.raises(ConfigError, match="symbol check"):
            cli.build_chart(cfg, grid)
        assert main(["gauss", "solve", "--config",
                     write_cfg(tmp_path, cfg)]) == 2
        assert "symbol check" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["gauss", "solve", "--config", str(p)]) == 2


def test_missing_config_file_exits_two(capsys):
    assert main(["gauss", "solve", "--config", "/no/such/file.json"]) == 2


def test_reducible_generators_exit_one(capsys):
    code = main(["rep", "anosov", "--gens",
                 cfg_path("gens_reducible.json"), "--len", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "criterion 10" in err


def test_fuchsian_generators_exit_zero(capsys):
    code = main(["rep", "anosov", "--gens",
                 cfg_path("gens_fuchsian.json"), "--len", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "min_transversality" in out


def test_sine_chart_holonomy_passes_on_a_finer_grid(tmp_path, capsys):
    # the commutator bound is 10 spacing; the period holonomies must
    # commute to O(spacing^2), which needs the frame order of transport
    cfg = json.loads(Path(cfg_path("sine_chart.json")).read_text())
    cfg["grid"] = 128
    cfg["chart"]["eps"] = 0.02
    code, out = run_json(capsys, ["conn", "holonomy", "--config",
                                  write_cfg(tmp_path, cfg)])
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["residuals"]["commute"] < 1e-3


def test_failing_check_exits_one(monkeypatch, capsys):
    failed = CriterionResult(1, "forced failure", False, 0.0,
                             {"err": 1.0}, "err=1>0")
    monkeypatch.setitem(cli._STAGES, "algebra", lambda args: [failed])
    assert main(["algebra"]) == 1
    assert "stage failure (criterion 1)" in capsys.readouterr().err
    assert main(["algebra", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is False
    assert "stage failure (criterion 1)" in captured.err


@pytest.mark.parametrize("command, cid", [
    ("metric convergence", 2), ("gauss solve", 4), ("conn flatness", 5),
    ("conn holonomy", 6), ("affine secondvar", 9), ("rep goldman", 7),
    ("rep anosov", 10)])
def test_bare_stage_runs_its_own_criterion(monkeypatch, capsys, command,
                                           cid):
    calls = []
    for k in range(1, 11):
        def recorder(k=k):
            calls.append(k)
            return CriterionResult(k, "stub", True, 0.0, {}, "stub")
        monkeypatch.setattr(criteria, f"criterion_{k}", recorder)
    assert main(command.split()) == 0
    assert calls == [cid]
    assert f"criterion {cid:2d} [PASS] stub" in capsys.readouterr().out


def test_linear_solve_failure_exits_one_with_message(monkeypatch, capsys):
    message = "GMRES returned info=20 after 1000 iterations"

    def breakdown(problem, **kwargs):
        raise LinearSolveFailure(message)

    monkeypatch.setattr(cli, "solve_newton", breakdown)
    code = main(["gauss", "solve", "--config",
                 cfg_path("constant_torus.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("stage failure")
    assert message in err


@pytest.mark.parametrize("payload, message", [
    ({"grid": 16, "cubic": {"kind": "pair", "perturb": 1e3}},
     "Newton stalled after 14 iterations"),
    (json.loads((CONFIGS / "gauss_perturbed.json").read_text())
     | {"grid": 16, "solver": {"tol": 1e-10, "max_iter": 1}},
     "Newton reached max_iter (1 iterations)"),
], ids=["damping_stall", "iteration_cap"])
def test_newton_failure_exits_one_with_message(tmp_path, capsys, payload,
                                               message):
    # one case per raise site of DidNotConverge in solve_newton: no
    # damped step lowers the residual, and max_iter runs out
    cfg = write_cfg(tmp_path, payload)
    assert main(["gauss", "solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"stage failure (DidNotConverge): {message}")


@pytest.mark.parametrize("kg", [-1e4, 1e8, -1e8, 1e20, 1e100, 1e300,
                                -1e300])
def test_huge_kg_prints_no_warning(tmp_path, capsys, kg):
    # damping trials that overflow and GMRES on a residual near the
    # float range must not print RuntimeWarnings (errors here, under
    # filterwarnings = error) around the one outcome line
    cfg = write_cfg(tmp_path, {"grid": 16, "background": {"kg": kg}})
    assert main(["gauss", "solve", "--config", cfg]) in (0, 1)
    assert capsys.readouterr().err.count("\n") <= 1


def test_pair_on_the_branch_cut_solves(tmp_path, capsys):
    # alpha conj(beta) = -1: the constant root is complex, Newton needs
    # no step
    cfg = write_cfg(tmp_path, {"cubic": {"kind": "pair", "alpha": 1.0,
                                         "beta": [-1.0, 0.0]}})
    assert main(["gauss", "solve", "--config", cfg]) == 0
    assert "iterations=0<=50" in capsys.readouterr().out


def test_reported_residual_is_the_solve_s_last(monkeypatch, capsys):
    # the stage reports the residual history's last entry; recomputing
    # residual_background on the solved psi gives the same bits
    solves = []

    def recorded(problem, _solve=cli.solve_newton, **kwargs):
        rep = _solve(problem, **kwargs)
        solves.append((problem, rep))
        return rep

    monkeypatch.setattr(cli, "solve_newton", recorded)
    cfg = cfg_path("sine_chart.json")
    for argv in (["gauss", "solve"], ["pipeline"]):
        code, out = run_json(capsys, argv + ["--config", cfg])
        assert code == 0
        problem, rep = solves.pop()
        again = float(np.abs(residual_background(rep.psi, problem)).max())
        assert json.loads(out)["results"][0]["residuals"]["residual"] == again
        assert rep.residual_history[-1] == again


@pytest.mark.parametrize("length", ["0", "-1"])
def test_scan_length_below_one_is_a_usage_error(capsys, length):
    code = main(["rep", "anosov", "--gens", cfg_path("gens_fuchsian.json"),
                 "--len", length])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error") and "--len" in err


def test_fuchsian_scan_length_six_raises_nothing(capsys):
    code = main(["rep", "anosov", "--gens", cfg_path("gens_fuchsian.json"),
                 "--len", "6"])
    assert code == 0


def test_pipeline_out_cloud_comes_from_the_configured_pair(tmp_path, capsys):
    clouds = []
    for q in (0.5, 1.5):
        cfg = write_cfg(tmp_path, {"grid": 64, "cubic": {"kind": "wang",
                                                         "q": q}},
                        name=f"q{q}.json")
        out = tmp_path / f"out{q}"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        clouds.append((out / "roundtrip_points.csv").read_text())
    assert clouds[0] != clouds[1]
    rows = clouds[0].splitlines()
    assert rows[0] == "x,y,f1,f2,f3"
    assert len(rows) == 1 + 64 * 64


def test_affine_roundtrip_out_writes_the_criterion_pair(monkeypatch,
                                                       tmp_path, capsys):
    """The point cloud is criterion 8's own n = 128 pair, strided to
    64 x 64: one solve, no second datum."""
    solves = []
    for module in (cli, criteria):
        def counting(problem, *a, _fn=module.solve_newton, **k):
            solves.append(problem.grid.n)
            return _fn(problem, *a, **k)
        monkeypatch.setattr(module, "solve_newton", counting)
    assert main(["affine", "roundtrip", "--out", str(tmp_path)]) == 0
    assert solves == [128]
    rows = (tmp_path / "roundtrip_points.csv").read_text().splitlines()
    assert len(rows) == 1 + 64 * 64
    assert rows[2].startswith("0.015625,0.0,")
    assert rows[-1].startswith("0.984375,0.984375,")


def test_plain_run_builds_no_manifest(monkeypatch, capsys):
    def no_manifest(*args):
        raise AssertionError("manifest built without --json/--out")
    monkeypatch.setattr(cli, "run_manifest", no_manifest)
    assert main(["algebra"]) == 0


# ----------------------------------------------------------------------
# config handling

def test_defaults_fill_in():
    cfg = load_config(None)
    assert cfg["grid"] == 64
    assert cfg["chart"] == {"kind": "identity"}
    assert cfg["cubic"]["kind"] == "wang"


def test_partial_config_merges(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"grid": 32}))
    assert cfg["grid"] == 32
    assert cfg["solver"]["tol"] == 1e-10


@pytest.mark.parametrize("payload, section, want", [
    ({"cubic": {"kind": "wang"}}, "cubic",
     {"kind": "wang", "q": [1.2, 0.0], "perturb": 0.0}),
    ({"solver": {"max_iter": 5}}, "solver", {"tol": 1e-10, "max_iter": 5}),
], ids=["cubic", "solver"])
def test_given_section_records_its_defaults(tmp_path, capsys, payload,
                                            section, want):
    # the manifest records, and config_hash pins, every value the run
    # uses, also those a given section leaves to the defaults
    path = write_cfg(tmp_path, payload)
    assert load_config(path)[section] == want
    code, out = run_json(capsys, ["gauss", "solve", "--config", path])
    assert code == 0
    m = json.loads(out)
    assert m["config"][section] == want
    assert m["config_hash"] == config_hash(load_config(path))
    assert m["config_hash"] != config_hash(
        load_config(None) | payload)


@pytest.mark.parametrize("payload", [
    {"grid": 100},
    {"grid": 8},
    {"grid": True},
    {"solver": {"tol": "x"}},
    {"cubic": {"perturb": "a"}},
    {"background": {"kg": "x"}},
    {"cubic": {"kind": "wang", "q": 1e200}},
    {"solver": {"tol": 1e-10, "max_iter": 2.5}},
    {"solver": {"tol": 1e-10, "max_iter": "5"}},
    {"seed": "abc"},
    {"chart": {"kind": "identity", "mu": 0.3}},
    {"solver": {"max_iter": -2}},
    {"solver": {"tol": float("inf")}},
    {"solver": {"tol": 0}},
    {"solver": {"tol": -1}},
    {"solver": {"tol": float("nan")}},
    {"background": {"kg": float("nan")}},
    {"chart": {"kind": "sine", "eps": float("nan")}},
], ids=["grid_100", "grid_8", "grid_bool", "tol_str", "perturb_str",
        "kg_str", "q_overflow", "max_iter_float", "max_iter_str",
        "seed_str", "mu_on_identity", "max_iter_negative", "tol_inf",
        "tol_zero", "tol_negative", "tol_nan", "kg_nan", "eps_nan"])
def test_malformed_config_exits_two(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, {"grid": 16} | payload)
    assert main(["gauss", "solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _solver_calls(monkeypatch):
    calls = []
    solve = cli.solve_newton

    def recorded(problem, **kwargs):
        rep = solve(problem, **kwargs)
        calls.append((kwargs, rep.psi))
        return rep
    monkeypatch.setattr(cli, "solve_newton", recorded)
    return calls


def test_partial_section_keeps_the_other_defaults(tmp_path, capsys,
                                                  monkeypatch):
    calls = _solver_calls(monkeypatch)
    cfg = write_cfg(tmp_path, {"grid": 16, "solver": {"max_iter": 5}})
    assert main(["gauss", "solve", "--config", cfg]) == 0
    assert calls[0][0] == {"tol": 1e-10, "max_iter": 5}


def test_wang_kind_alone_takes_the_default_q(tmp_path, capsys,
                                             monkeypatch):
    calls = _solver_calls(monkeypatch)
    for payload in ({"grid": 16}, {"grid": 16, "cubic": {"kind": "wang"}}):
        assert main(["gauss", "solve", "--config",
                     write_cfg(tmp_path, payload)]) == 0
    (_, omitted), (_, wang) = calls
    assert np.array_equal(omitted, wang)


def test_non_object_config_rejected(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_generator_files_load():
    rep = load_generators(cfg_path("gens_fuchsian.json"))
    assert sorted(rep.generators) == ["a", "b"]
    for M in rep.generators.values():
        assert abs(np.linalg.det(M) - 1.0) < 1e-9


def test_bad_generator_shape_rejected(tmp_path):
    p = tmp_path / "gens.json"
    p.write_text(json.dumps([[[1, 0], [0, 1]]]))
    with pytest.raises(ConfigError):
        load_generators(str(p))


def test_empty_generator_list_rejected(tmp_path):
    p = tmp_path / "gens.json"
    p.write_text("[]")
    with pytest.raises(ConfigError):
        load_generators(str(p))


# ----------------------------------------------------------------------
# manifests

def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, out


def test_manifest_bytes_reproduce(capsys):
    argv = ["pipeline", "--config", cfg_path("constant_torus.json")]
    code1, out1 = run_json(capsys, argv)
    code2, out2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_manifest_leaves_out_the_solver_counters(tmp_path, capsys):
    # the Krylov iterations and damping halvings of each Newton step say
    # how the solve ran, not what it found
    cfg = write_cfg(tmp_path, {"grid": 32,
                               "cubic": {"kind": "pair", "perturb": 0.1}})
    code, out = run_json(capsys, ["gauss", "solve", "--config", cfg])
    manifest = json.loads(out)
    assert code == 0
    assert manifest["results"][0]["residuals"]["iterations"] > 0
    keys = set()

    def collect(obj):
        if isinstance(obj, dict):
            keys.update(obj)
            obj = list(obj.values())
        if isinstance(obj, list):
            for v in obj:
                collect(v)
    collect(manifest)
    assert not any("krylov" in k or "halvings" in k for k in keys), keys


@pytest.mark.parametrize("argv", [
    ["gauss", "solve", "--config", cfg_path("constant_torus.json")],
    ["pipeline", "--config", cfg_path("constant_torus.json")],
], ids=["gauss_solve", "pipeline"])
def test_config_is_read_once(monkeypatch, capsys, argv):
    """The stage runs on the config main read, and the manifest records
    that same config."""
    calls = []
    load = cli.load_config

    def counted(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_config", counted)
    code, out = run_json(capsys, argv)
    assert code == 0
    assert calls == [argv[-1]]
    assert json.loads(out)["config"] == load(argv[-1])


def test_main_calls_share_one_parser_and_no_flags(capsys):
    """The parser is built once per process; successive main() calls
    with different commands and flags each print what a fresh process
    prints (no --len or --gens carries over)."""
    src = str(Path(bchyp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    gens = cfg_path("gens_fuchsian.json")
    for argv in (["rep", "anosov", "--gens", gens, "--len", "3", "--json"],
                 ["rep", "anosov", "--gens", gens, "--json"],
                 ["chtau", "--json"]):
        code = main(argv)
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "bchyp.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout,
                                            fresh.stderr)
    assert cli._parser() is cli._parser()


def test_manifest_structure(capsys):
    code, out = run_json(capsys,
                         ["conn", "flatness", "--config",
                          cfg_path("sine_chart.json")])
    assert code == 0
    m = json.loads(out)
    assert m["passed"] is True
    assert m["config_hash"] == config_hash(m["config"])
    assert set(m["versions"]) == {"artifact", "numpy", "scipy"}
    assert m["versions"]["artifact"] == bchyp.__version__
    for r in m["results"]:
        assert "runtime" not in r["residuals"]


def test_runtime_limit_fails_but_stays_out_of_the_manifest(monkeypatch,
                                                          capsys):
    assert main(["algebra", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["algebra", "--json"]) == 0
    assert capsys.readouterr().out == first
    assert "runtime" not in first

    clock = itertools.count(0.0, 2.0)      # every reading 2 s later
    monkeypatch.setattr(criteria.time, "perf_counter", lambda: next(clock))
    slow = criteria.criterion_1()
    assert not slow.passed
    assert "runtime" not in slow.message and "runtime" not in slow.residuals
    assert slow.line.endswith("(2.00s, limit 1s)")


def test_frozen_criteria_match_the_sine_chart_config(capsys):
    """configs/sine_chart.json is the datum of criteria 5 and 6 (sine
    chart eps 0.01, alpha = beta = 0.6, n = 64), so the shared bundles
    give the same numbers.  The only difference between the two cubic
    pairs is the criteria's holomorphic=True flag: its projection onto
    the discrete kernel leaves constant coefficients unchanged."""
    cfg = load_config(cfg_path("sine_chart.json"))
    assert cfg["grid"] == 64
    assert cfg["chart"] == {"kind": "sine", "eps": 0.01}
    assert cfg["cubic"] == {"kind": "pair", "alpha": 0.6, "beta": 0.6,
                            "perturb": 0.0}

    def config_residuals(action):
        code, out = run_json(capsys, ["conn", action, "--config",
                                      cfg_path("sine_chart.json")])
        assert code == 0
        (result,) = json.loads(out)["results"]
        return result["residuals"]

    assert config_residuals("holonomy") == criteria.criterion_6().residuals
    assert (config_residuals("flatness")["flatness"]
            == criteria.criterion_5().residuals["solved"])


def test_cli_calls_go_through_the_patched_names(monkeypatch, capsys):
    """perfbench wraps these module attributes to time the layers and to
    capture the outputs it checks; the CLI must look them up at call
    time."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("solve_newton", "holonomy", "anosov_scan"):
        count(cli, name)
    for name in ("integrate_frame", "structure_residuals", "blaschke_data"):
        count(affine, name)
    assert main(["pipeline", "--config", cfg_path("wang_torus.json")]) == 0
    assert main(["rep", "anosov", "--gens", cfg_path("gens_fuchsian.json"),
                 "--len", "3"]) == 0
    assert {k: len(v) for k, v in calls.items()} == {
        "solve_newton": 1, "holonomy": 2, "integrate_frame": 1,
        "structure_residuals": 1, "blaschke_data": 2, "anosov_scan": 1}
    assert sorted(args[1].steps[0] for args in calls["holonomy"]) == [
        (0, 1), (1, 0)]
    assert isinstance(calls["solve_newton"][0][0], cli.GaussProblem)


def test_benchmark_hooks_resolve():
    """perfbench/spans.py replaces these attributes by name, and
    perfbench/test_checks.py unpacks build_problem's 4-tuple; renaming or
    inlining them would break the traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, *_ in spans.LAYERS + spans.CAPTURES:
        assert callable(getattr(spans._owner(bchyp, owner), attr))
    cfg = load_config(None)
    cfg.update({"grid": 16, "cubic": {"kind": "wang", "q": [1.2, 0.0]}})
    problem, chart, grid, kind = cli.build_problem(cfg)
    assert (isinstance(problem, GaussProblem), grid.n, kind) == (
        True, 16, "wang")
    assert problem.background.chart is chart


def test_constant_pipeline_exact(capsys):
    code, out = run_json(capsys,
                         ["pipeline", "--config",
                          cfg_path("constant_torus.json")])
    assert code == 0
    m = json.loads(out)
    for r in m["results"]:
        for value in r["residuals"].values():
            assert value <= 1e-12


def test_out_directory_artifacts(tmp_path, capsys):
    code = main(["conn", "flatness", "--config", cfg_path("sine_chart.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    m = json.loads((tmp_path / "manifest.json").read_text())
    assert m["command"] == "conn flatness"
    assert m["passed"] is True
