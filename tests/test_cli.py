"""Command-line interface: exit codes, config validation, manifest
determinism, and artifact output."""

import json
from pathlib import Path

import numpy as np
import pytest

import bchyp
from bchyp import cli
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
