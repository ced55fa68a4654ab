"""The CLI commands whose behaviour the package keeps, in a fixed order:
the 12 bare stages; gauss solve, conn flatness, conn holonomy and
pipeline on each shipped config; rep anosov on each shipped generator
file; the --out runs of affine roundtrip and of the Wang pipeline; and
the cells of the claimed-range matrix, tests/test_range.py.

tools/manifests.py hashes the output of every command, and
tests/test_exports.py traces the package calls of all but the cells.
"""

import json
from pathlib import Path

from test_range import cells

STAGES = (["algebra"], ["chtau"], ["metric", "convergence"],
          ["metric", "stokes"], ["gauss", "solve"], ["conn", "flatness"],
          ["conn", "holonomy"], ["affine", "roundtrip"],
          ["affine", "secondvar"], ["rep", "anosov"], ["rep", "goldman"],
          ["pipeline"])
CONFIG_STAGES = (["gauss", "solve"], ["conn", "flatness"],
                 ["conn", "holonomy"], ["pipeline"])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def commands(tmp: Path, with_cells: bool = True):
    """(argv, --out directory or None) of every command; each cell's
    config is written to tmp first, and the --out runs write under
    tmp."""
    for stage in STAGES:
        yield stage, None
    for name in ("constant_torus", "gauss_perturbed", "sine_chart",
                 "wang_torus"):
        for stage in CONFIG_STAGES:
            yield stage + ["--config", str(CONFIGS / f"{name}.json")], None
    for name in ("gens_fuchsian", "gens_reducible"):
        yield ["rep", "anosov", "--gens", str(CONFIGS / f"{name}.json")], None
    for argv, name in ((["affine", "roundtrip"], "affine-roundtrip"),
                       (["pipeline", "--config",
                         str(CONFIGS / "wang_torus.json")], "pipeline-wang")):
        yield argv + ["--out", str(tmp / name)], tmp / name
    if not with_cells:
        return
    for cell, command, cfg, _ in cells():
        argv = list(command)
        if cfg is not None:
            path = tmp / f"{cell}.json"
            path.write_text(json.dumps(cfg))
            argv += ["--config", str(path)]
        yield argv, None
