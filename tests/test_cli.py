"""Command-line interface: exit codes, config validation, manifest
determinism, and artifact output."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import bchyp
from bchyp import affine, cli, criteria
from bchyp.gauss import LinearSolveFailure
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


def test_linear_solve_failure_exits_one_with_message(monkeypatch, capsys):
    def breakdown(problem, **kwargs):
        raise LinearSolveFailure("BiCGSTAB returned info=-10")

    monkeypatch.setattr(cli, "solve_newton", breakdown)
    code = main(["gauss", "solve", "--config",
                 cfg_path("constant_torus.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("stage failure")
    assert "BiCGSTAB returned info=-10" in err


def test_fuchsian_scan_length_six_raises_nothing(capsys):
    code = main(["rep", "anosov", "--gens", cfg_path("gens_fuchsian.json"),
                 "--len", "6"])
    assert code in (0, 1)


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
    assert cfg["cubic"] == {"kind": "pair", "alpha": 0.6, "beta": 0.6}

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
