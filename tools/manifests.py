"""Run every CLI command whose output a behaviour-preserving change must
keep, in process with --json, and print one line per command:

    exit-code sha256(stdout) sha256(stderr) sha256(--out files) argv

The --out hash covers the names and bytes of every file the run writes,
and is "-" for a run without --out.  The commands are the 12 bare
stages; gauss solve, conn flatness, conn holonomy and pipeline on each
shipped config; rep anosov on each shipped generator file; the --out
runs of affine roundtrip and of the Wang pipeline; and the cells of the
claimed-range matrix, tests/test_range.py, imported from it.

The package and the cells come from the checkout this file is in, so
to compare two checkouts, run each one's copy and diff the outputs:

    python tools/manifests.py > after.txt
    python /path/to/other/checkout/tools/manifests.py > before.txt
    diff before.txt after.txt

Printed paths are relative to the checkout, and a cell's config file is
named by its cell id, so identical behaviour prints identical lines.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bchyp import cli  # noqa: E402
from test_range import cells  # noqa: E402

STAGES = (["algebra"], ["chtau"], ["metric", "convergence"],
          ["metric", "stokes"], ["gauss", "solve"], ["conn", "flatness"],
          ["conn", "holonomy"], ["affine", "roundtrip"],
          ["affine", "secondvar"], ["rep", "anosov"], ["rep", "goldman"],
          ["pipeline"])
CONFIG_STAGES = (["gauss", "solve"], ["conn", "flatness"],
                 ["conn", "holonomy"], ["pipeline"])
CONFIGS = ROOT / "configs"


def commands(tmp: Path):
    """(argv, --out directory or None) of every command, in a fixed
    order; each cell's config is written to tmp first."""
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
    for cell, command, cfg, _ in cells():
        argv = list(command)
        if cfg is not None:
            path = tmp / f"{cell}.json"
            path.write_text(json.dumps(cfg))
            argv += ["--config", str(path)]
        yield argv, None


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, outdir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    files = "-"
    if outdir is not None:
        files = sha(b"".join(
            p.relative_to(outdir).as_posix().encode() + b"\0"
            + p.read_bytes() + b"\0"
            for p in sorted(outdir.rglob("*")) if p.is_file()))
    return (code, sha(out.getvalue().encode()),
            sha(err.getvalue().encode()), files)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for argv, outdir in commands(tmp):
            shown = " ".join(a.replace(f"{tmp}/", "").replace(f"{ROOT}/", "")
                             for a in argv)
            print(*run(argv, outdir), shown, flush=True)


if __name__ == "__main__":
    main()
