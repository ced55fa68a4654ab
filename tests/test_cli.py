"""Command-line interface: exit codes, config validation, manifest
determinism, and artifact output."""

import importlib.util
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bchyp
from bchyp import affine, cli, criteria
from bchyp.gauss import (GaussProblem, LinearSolveFailure,
                         residual_background)
from bchyp.metric import BeltramiChart, CubicPair, TorusGrid
from bchyp.cli import (ConfigError, config_hash, load_config,
                       load_generators, main)
from bchyp.criteria import CriterionResult
from commands import STAGES

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
    # |mu| = 1 is no chart: the chart constructor refuses it
    cfg = write_cfg(tmp_path,
                    {"chart": {"kind": "constant", "mu": [1.0, 0.0]}})
    assert main(["pipeline", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid datum: |mu| = 1.0 >= 1\n")


def test_symbol_floor_is_one_boundary_for_solver_and_config(tmp_path,
                                                            capsys):
    # the solver's symbol check is the only one: a config datum reaches
    # it through build_problem
    grid = TorusGrid(16)
    for modulus, elliptic in ((0.994, True), (0.996, False)):
        mu = modulus * np.exp(1j * np.pi / 3)
        chart = BeltramiChart.constant_mu(grid, mu)
        path = write_cfg(tmp_path, {"grid": 16, "chart": {
            "kind": "constant", "mu": [mu.real, mu.imag]}})
        cfg = load_config(path)
        if elliptic:
            GaussProblem(chart, CubicPair(grid, 0, 0))
            assert np.allclose(cli.build_problem(cfg)[1].mu, mu)
            continue
        with pytest.raises(ValueError, match="symbol check"):
            GaussProblem(chart, CubicPair(grid, 0, 0))
        with pytest.raises(ConfigError, match="symbol check"):
            cli.build_problem(cfg)
        assert main(["gauss", "solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: invalid datum: chart fails the symbol check: "
            "floor ")
        assert err.count("\n") == 1


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
                             {"err": 1.0}, "err=1>0", None)
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
            return CriterionResult(k, "stub", True, 0.0, {}, "stub", None)
        monkeypatch.setattr(criteria, f"criterion_{k}", recorder)
    assert main(command.split()) == 0
    assert calls == [cid]
    assert f"criterion {cid:2d} [PASS] stub" in capsys.readouterr().out


def test_linear_solve_failure_exits_one_with_message(monkeypatch, capsys):
    message = ("GMRES stopped after 1000 iterations at relative residual "
               "1.000e+00, above 1e-12")

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


def test_grid_too_large_for_memory_exits_one(tmp_path):
    """A grid whose fields cannot be allocated stops with one stage
    failure line on stderr, no traceback.  The child's address space is
    capped at 4 GB, so the allocation fails at once whatever the
    machine's overcommit setting, and BLAS runs one thread."""
    cfg = write_cfg(tmp_path, {"grid": 1 << 20})

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 4 << 30
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = str(Path(bchyp.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "bchyp.cli", "pipeline", "--config", cfg],
        capture_output=True, text=True, preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                 OMP_NUM_THREADS="1"))
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.count("\n") == 1
    assert run.stderr.startswith(
        "stage failure (MemoryError): Unable to allocate")


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


@pytest.mark.parametrize("size, perturb", [
    (1e100, 5e99), (1e140, 5e139), (1e150, 5e149), (1.0, 1e4),
    (1e150, 1e154), (1e154, 0.0), (1e154, 5e153)])
def test_huge_cubic_data_print_no_warning(tmp_path, capsys, size, perturb):
    # damping trials that overflow ((1, 1e4) and (1e150, 1e154)), GMRES
    # on a residual near the float range, and a |C|^2_g whose grid sum
    # overflows (the last two data) must not print RuntimeWarnings
    # (errors here, under filterwarnings = error) around the one outcome
    # line
    cfg = write_cfg(tmp_path, {"grid": 16, "cubic": {
        "kind": "pair", "alpha": size, "beta": size, "perturb": perturb}})
    assert main(["gauss", "solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("stage failure (DidNotConverge): ")


@pytest.mark.parametrize("command", [["conn", "holonomy"], ["pipeline"]],
                         ids=["conn-holonomy", "pipeline"])
@pytest.mark.parametrize("alpha", [1e9, 1e100], ids=["transport", "expm"])
def test_holonomy_past_the_float_range_prints_one_line(tmp_path, capsys,
                                                        command, alpha):
    # beta = 1e-300 gives step generators of 1-norm 6e104 (alpha 1e9) to
    # 3e165 (alpha 1e100): a period's frame product, or a step
    # exponential's squarings, overflow; that is a typed failure, not
    # RuntimeWarnings (errors here, under filterwarnings = error)
    cfg = write_cfg(tmp_path, {"grid": 32, "chart": {
        "kind": "constant", "mu": [-0.006132403605126235, -0.703287790341407]},
        "cubic": {"kind": "pair", "alpha": [alpha, -0.0], "beta": 1e-300,
                  "perturb": 1.0}})
    assert main(command + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("stage failure (Unrepresentable): the holonomy of "
                          "leg 0 leaves the float range: overflow")


@pytest.mark.parametrize("command", [["conn", "holonomy"], ["pipeline"]],
                         ids=["conn-holonomy", "pipeline"])
@pytest.mark.parametrize("alpha", [1.0, 1e7, 1e8], ids=["1", "1e7", "1e8"])
def test_singular_holonomy_fails_its_checks_in_one_line(tmp_path, capsys,
                                                        command, alpha):
    # the same datum at smaller alpha: every step stays finite, but the
    # period holonomies reach 9e99 to 7e202, so their plus parts are
    # singular in floating point and, from alpha = 1e7, their dets
    # overflow; criterion 6's bundle fails, with no LinAlgError and no
    # RuntimeWarning (errors here, under filterwarnings = error)
    cfg = write_cfg(tmp_path, {"grid": 32, "chart": {
        "kind": "constant", "mu": [-0.006132403605126235, -0.703287790341407]},
        "cubic": {"kind": "pair", "alpha": [alpha, -0.0], "beta": 1e-300,
                  "perturb": 1.0}})
    assert main(command + ["--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert err.count("\n") == 1
    assert err.startswith("stage failure (criterion ")
    assert "compat=inf" in out


def test_non_finite_residuals_make_strict_json(tmp_path, capsys):
    # the α = 1e8 datum above: its commutator is NaN and its det and
    # compatibility residuals are inf, which the manifest names as
    # strings, since strict JSON has no NaN or Infinity
    cfg = write_cfg(tmp_path, {"grid": 32, "chart": {
        "kind": "constant", "mu": [-0.006132403605126235, -0.703287790341407]},
        "cubic": {"kind": "pair", "alpha": 1e8, "beta": 1e-300,
                  "perturb": 1.0}})
    assert main(["conn", "holonomy", "--json", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert err == "stage failure (criterion 6)\n"

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    manifest = json.loads(out, parse_constant=refuse)
    assert manifest["results"][0]["residuals"] == {
        "commute": "nan", "compat": "inf", "plus_det": "inf"}


@pytest.mark.parametrize("command", [
    ["gauss", "solve"], ["conn", "flatness"], ["conn", "holonomy"],
    ["pipeline"]], ids=["gauss-solve", "conn-flatness", "conn-holonomy",
                        "pipeline"])
@pytest.mark.parametrize("data", [
    {"chart": {"kind": "identity"},
     "cubic": {"kind": "wang", "q": [-1e154, -1e-300]}},
    {"chart": {"kind": "sine", "eps": 0.0},
     "cubic": {"kind": "wang", "q": [1e-300, 1e100]}}],
    ids=["identity", "sine"])
def test_cubic_data_of_a_tiny_phase_print_one_line(tmp_path, capsys,
                                                   command, data):
    # the phase of the constant root's c underflows; the initial guess
    # must still be a number, so the run ends in one outcome line
    cfg = write_cfg(tmp_path, {"grid": 16} | data)
    assert main(command + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("stage failure (DidNotConverge): ")


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


@pytest.mark.parametrize("length", ["5", "6"])
def test_schottky_scan_fails_only_on_the_transversality_bound(capsys,
                                                              length):
    # every class of the Schottky file is loxodromic (a scan of every
    # word stopped at the conjugate aabAA of b); criterion 10 fails on
    # its 0.01 bound for min_transversality alone
    code = main(["rep", "anosov", "--gens", cfg_path("gens_schottky3.json"),
                 "--len", length])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "stage failure (criterion 10)\n")
    assert "min_transversality=-0.000225<=-0.01; centralizer_dim=1" in out
    assert f"claim: no obstruction found up to word length {length}" in out


def _diag_and_other(t, other):
    A = np.diag([t, 1.0, 1.0 / t])
    if other is None:                    # conjugate A by a unipotent U
        U = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        other = U @ A @ np.linalg.inv(U)
    return [A.tolist(), np.asarray(other).tolist()]


@pytest.mark.parametrize("gens, length", [
    (_diag_and_other(1e100, np.diag([2.0, 1.0, 0.5])), "1"),
    (_diag_and_other(1e20, None), "3")], ids=["diagonal", "conjugate"])
def test_scan_past_the_float_range_fails_in_one_line(tmp_path, capsys,
                                                     gens, length):
    # the spectra of these words overflow in Cardano's formula; the scan
    # stops there with the typed failure, not with RuntimeWarnings and a
    # NaN verdict
    p = tmp_path / "gens.json"
    p.write_text(json.dumps(gens))
    assert main(["rep", "anosov", "--gens", str(p), "--len", length]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("stage failure (Unrepresentable): ")


def test_scan_past_its_int64_codes_fails_in_one_line(tmp_path, capsys):
    # one generator scans to length 62 (and fails criterion 10 on the
    # 3-dimensional centralizer of a diagonal matrix); past it the class
    # table's int64 codes wrap, so 63 and 64 are refused in one line
    p = tmp_path / "gens.json"
    p.write_text(json.dumps([np.diag([1.1, 1.0, 1 / 1.1]).tolist()]))
    assert main(["rep", "anosov", "--gens", str(p), "--len", "62"]) == 1
    assert capsys.readouterr().err == "stage failure (criterion 10)\n"
    for length in ("63", "64"):
        assert main(["rep", "anosov", "--gens", str(p), "--len",
                     length]) == 1
        assert capsys.readouterr() == ("", (
            f"stage failure (Unrepresentable): words of length {length} "
            "leave the scan's int64 codes, which reach length 62 with 1 "
            "generator(s)\n"))


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


@pytest.mark.parametrize("argv, out", [
    (["algebra"], "F"), (["pipeline"], "F/sub")], ids=["file", "below-file"])
def test_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys, argv,
                                                  out):
    # main makes the --out directory before the stage runs, so a path
    # that is a file, or lies below one, stops the run with one line
    (tmp_path / "F").write_text("")
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"config error: cannot write --out {tmp_path / out}: ")
    assert captured.err.count("\n") == 1


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


#: Background curvatures the reader refuses, however small or large: the
#: chart metric of the torus is flat, K_g = 0.
NONZERO_KG = [-1.0, 0.5, -1e-300, -1e4, 1e8, -1e8, 1e20, 1e100, 1e300,
              -1e300]


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
] + [{"background": {"kg": kg}} for kg in NONZERO_KG],
    ids=["grid_100", "grid_8", "grid_bool", "tol_str", "perturb_str",
         "kg_str", "q_overflow", "max_iter_float", "max_iter_str",
         "seed_str", "mu_on_identity", "max_iter_negative", "tol_inf",
         "tol_zero", "tol_negative", "tol_nan", "kg_nan", "eps_nan"]
    + [f"kg_{kg!r}" for kg in NONZERO_KG])
def test_malformed_config_exits_two(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, {"grid": 16} | payload)
    assert main(["gauss", "solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["gauss solve", "pipeline"])
def test_perturbed_wang_data_exits_two(tmp_path, capsys, command):
    # perturb is added to alpha alone, which leaves the Hitchin locus:
    # gauss solve ran such a datum as Wang data, and pipeline stopped on
    # its conjugate-swap check
    cfg = write_cfg(tmp_path, {"grid": 64, "cubic": {
        "kind": "wang", "q": 1.2, "perturb": 0.1}})
    assert main([*command.split(), "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: cubic.perturb must be 0 for cubic kind 'wang'\n")


@pytest.mark.parametrize("command", ["gauss solve", "pipeline"])
@pytest.mark.parametrize("cubic", [
    {"kind": "pair", "alpha": 0, "beta": 0},
    {"kind": "pair", "alpha": 1e-300, "beta": 1e-300},
    {"kind": "wang", "q": 0},
], ids=["pair", "underflow", "wang"])
def test_zero_cubic_datum_exits_two(tmp_path, capsys, command, cubic):
    # with |C|^2 = 0 the integrated Gauss equation asks for the integral
    # of e^{2 psi} to be 0: Newton drove psi down until e^{2 psi} fell
    # below tol, and every check passed
    cfg = write_cfg(tmp_path, {"grid": 32, "cubic": cubic})
    assert main([*command.split(), "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid datum: |C|^2_g is zero everywhere, so the "
        "Gauss equation has no solution\n")


def test_large_wang_q_eta_drift_exits_one(tmp_path, capsys):
    # the integrated frame's det drifts from 1 by more than the pair's
    # 1e-6 bound on eta(f+, f-) = -det G
    cfg = write_cfg(tmp_path, {"grid": 64, "cubic": {"kind": "wang",
                                                     "q": 40}})
    assert main(["pipeline", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        "stage failure (NotDual): eta(f+, f-) deviates from -1 by")
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


def test_ragged_generator_file_exits_two(tmp_path, capsys):
    p = tmp_path / "gens.json"
    p.write_text(json.dumps([[[1, 0, 0], [0, 1], [0, 0, 1]]]))
    assert main(["rep", "anosov", "--gens", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: generator 0: "), err
    assert "Traceback" not in err


def test_twenty_seventh_generator_exits_two(tmp_path, capsys):
    # generators are named a to z, one letter each; a 27th has no name
    mats = [np.diag([t, 1.0, 1.0 / t]).tolist()
            for t in np.arange(2.0, 29.0)]
    assert len(mats) == 27
    p = tmp_path / "gens.json"
    p.write_text(json.dumps(mats))
    assert main(["rep", "anosov", "--gens", str(p), "--len", "1"]) == 2
    assert "lowercase ASCII letter" in capsys.readouterr().err
    p.write_text(json.dumps(mats[:26]))
    assert sorted(load_generators(str(p)).generators)[-1] == "z"


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


LOADS_SCIPY = """\
import contextlib, io, json, sys
from bchyp.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(code, "scipy" in sys.modules, *argv)
"""


def fresh_scipy_check(runs):
    """Run each argv in ``runs`` through ``main`` in one fresh interpreter
    and return its printed ``code loads-scipy argv`` lines.  A fresh one is
    needed since the tests import SciPy, and a module once imported stays
    in sys.modules for the runs after it."""
    src = str(Path(bchyp.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", LOADS_SCIPY, json.dumps(runs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert fresh.stderr == ""
    return fresh.stdout.splitlines()


def test_no_stage_imports_scipy():
    """NumPy is the one runtime dependency: no bare stage imports SciPy."""
    runs = [list(stage) for stage in STAGES]
    assert fresh_scipy_check(runs) == [" ".join(["0", "False", *argv])
                                       for argv in runs]


@pytest.mark.parametrize("argv", [
    ["rep", "anosov", "--gens", cfg_path("gens_fuchsian.json"), "--len", "5"],
    ["pipeline", "--config", cfg_path("wang_torus.json")],
    ["gauss", "solve", "--config", cfg_path("gauss_perturbed.json")],
], ids=["rep-anosov", "pipeline-wang", "gauss-solve"])
def test_no_command_imports_the_sparse_stack(argv):
    """The Newton step runs the package's own GMRES, so no command loads
    SciPy, its sparse stack or any other part: not a scan, not a pipeline
    whose Newton loop takes no step, and not a solve that takes Newton
    steps."""
    assert fresh_scipy_check([argv]) == [" ".join(["0", "False", *argv])]


def test_manifest_structure(capsys):
    code, out = run_json(capsys,
                         ["conn", "flatness", "--config",
                          cfg_path("sine_chart.json")])
    assert code == 0
    m = json.loads(out)
    assert m["passed"] is True
    assert m["config_hash"] == config_hash(m["config"])
    assert set(m["versions"]) == {"artifact", "numpy"}
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


#: The --config runs that give a frozen criterion's numbers on its datum:
#: (datum in criteria.DATA, the shipped config that holds it or None,
#: [(command, criterion, {run residual: criterion residual}, or None for
#: every residual and the message)]).
CRITERION_RUNS = [
    ("perturbed", "gauss_perturbed.json",
     [(["gauss", "solve"], 4, {"residual": "perturbed_res"})]),
    ("sine", "sine_chart.json",
     [(["conn", "flatness"], 5, {"flatness": "solved"}),
      (["conn", "holonomy"], 6, None)]),
    ("wang", None, [(["pipeline"], 8, None)]),
]


@pytest.mark.parametrize("datum, shipped, runs", CRITERION_RUNS,
                         ids=[datum for datum, *_ in CRITERION_RUNS])
def test_each_criterion_is_the_config_run_of_its_datum(tmp_path, capsys,
                                                       datum, shipped, runs):
    """A chain criterion builds its frozen datum with config.build_problem
    and checks it with the bundle its --config run uses, so the two give
    the same numbers bit for bit: criterion 4's perturbed residual is the
    solve's of configs/gauss_perturbed.json, criteria 5 and 6 are conn
    flatness and holonomy on configs/sine_chart.json, and criterion 8 is
    the pipeline's roundtrip of Wang config q = 0.6 (Wang's q = 1.2) at
    n = 128, with its path and dual checks."""
    cfg = criteria.DATA[datum]
    if shipped is not None:
        loaded = load_config(cfg_path(shipped))
        assert {name: loaded[name] for name in cfg} == cfg
    path = write_cfg(tmp_path, cfg)
    for argv, cid, keys in runs:
        code, out = run_json(capsys, argv + ["--config", path])
        assert code == 0
        (got,) = [r for r in json.loads(out)["results"]
                  if r["criterion"] == cid]
        want = criteria.run_criterion(cid)
        if keys is None:
            assert (got["residuals"], got["message"]) == (
                want.residuals, want.message)
        else:
            assert {key: got["residuals"][key] for key in keys} == {
                key: want.residuals[name] for key, name in keys.items()}
    if datum == "wang":
        assert {"path", "dual"} <= set(want.residuals)


@pytest.mark.parametrize("datum", sorted(criteria.DATA))
def test_frozen_data_pass_through_load_config_unchanged(tmp_path, datum):
    """Each frozen datum holds the sections build_problem reads, each
    in full, as load_config gives them back."""
    cfg = criteria.DATA[datum]
    assert set(cfg) == {"grid", "chart", "cubic"}
    loaded = load_config(write_cfg(tmp_path, cfg))
    assert {name: loaded[name] for name in cfg} == cfg


@pytest.mark.parametrize("name", ["constant_torus", "gauss_perturbed",
                                  "sine_chart", "wang_torus"])
def test_config_steps_are_the_pipeline_s_steps(capsys, name):
    """A --config run of gauss solve, conn flatness or conn holonomy
    gives the pipeline's result of the same criterion: one route, one
    bundle per step."""
    def results(argv):
        main(argv + ["--config", cfg_path(f"{name}.json"), "--json"])
        return json.loads(capsys.readouterr().out)["results"]

    chain = {r["criterion"]: r for r in results(["pipeline"])}
    for argv, cid in ((["gauss", "solve"], 4), (["conn", "flatness"], 5),
                      (["conn", "holonomy"], 6)):
        assert results(argv) == [chain[cid]]


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
        "structure_residuals": 1, "blaschke_data": 1, "anosov_scan": 1}
    assert sorted(args[1].steps[0] for args in calls["holonomy"]) == [
        (0, 1), (1, 0)]
    assert isinstance(calls["solve_newton"][0][0], GaussProblem)


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
