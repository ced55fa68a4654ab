"""The claimed-range matrix: one CLI run per cell of the range that
ROADMAP aim 3 claims, each with the outcome it has today.

A cell expects exit 0, or exit 1 with the first line of stderr, and the
ROADMAP item that tracks the failure.  No cell may end in a traceback.
A change that mends a cell flips it to exit 0 and says so in
CHANGES.md.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from bchyp.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FLATNESS = "stage failure (criterion 5)"                           # item 24
ROUNDTRIP = "stage failure (criterion 8)"                          # item 13
# the reducible pair is the scan's negative control, not a fault
REDUCIBLE = "stage failure (criterion 10)"


def config(base, **over):
    """A shipped config with its entries or section keys replaced."""
    cfg = json.loads((CONFIGS / base).read_text())
    for key, value in over.items():
        cfg[key] = cfg[key] | value if isinstance(value, dict) else value
    return cfg


def cells():
    for q in (0.3, 0.5, -0.7, 1.2, 2.5, [1.2, 0.3], [0, 1.2]):
        name = f"{q[0]}{q[1]:+}i" if isinstance(q, list) else q
        yield (f"pipeline-wang-q{name}-n128", ["pipeline"],
               config("wang_torus.json", grid=128, cubic={"q": q}), None)
    for q, expect in ((0.3, ROUNDTRIP), (1.2, None)):
        yield (f"pipeline-wang-q{q}-n512", ["pipeline"],
               config("wang_torus.json", grid=512, cubic={"q": q}), expect)
    for n in (64, 128):
        for eps in (0, 0.01, 0.05, 0.1):
            cfg = config("sine_chart.json", grid=n,
                         chart={"kind": "sine", "eps": eps})
            for command in (["conn", "flatness"], ["pipeline"]):
                yield (f"{'-'.join(command)}-sine{eps}-n{n}", command, cfg,
                       FLATNESS if eps >= 0.05 else None)
    for eps in (0, 0.01, 0.05, 0.1):
        yield (f"gauss-solve-perturbed-sine{eps}-n128", ["gauss", "solve"],
               config("gauss_perturbed.json",
                      chart={"kind": "sine", "eps": eps}), None)
    yield ("gauss-solve-perturbed-sine0.1-n512", ["gauss", "solve"],
           config("gauss_perturbed.json", grid=512,
                  chart={"kind": "sine", "eps": 0.1}), None)
    for deg in (0, 90, 180):
        t = math.radians(deg)
        yield (f"pipeline-pair-arg{deg}-n64", ["pipeline"],
               config("constant_torus.json",
                      cubic={"beta": [math.cos(t), -math.sin(t)]}), None)
    for gens, expect in (("gens_fuchsian.json", None),
                         ("gens_reducible.json", REDUCIBLE)):
        for length in (5, 6, 7, 8):
            yield (f"rep-anosov-{gens[:-5]}-len{length}",
                   ["rep", "anosov", "--gens", str(CONFIGS / gens),
                    "--len", str(length)], None, expect)


@pytest.mark.parametrize("command, cfg, expect",
                         [pytest.param(*c[1:], id=c[0]) for c in cells()])
def test_claimed_range_cell(command, cfg, expect, tmp_path):
    argv = list(command)
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if expect is None:
        assert (code, err.getvalue()) == (0, "")
    else:
        assert code == 1
        assert err.getvalue().splitlines()[0].startswith(expect)
