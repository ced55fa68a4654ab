"""Run every CLI command whose output a behaviour-preserving change must
keep, in process with --json, and print one line per command:

    exit-code sha256(stdout) sha256(stderr) sha256(--out files) argv

The --out hash covers the names and bytes of every file the run writes,
and is "-" for a run without --out.  The commands are those of
tests/commands.py, the list that tests/test_exports.py traces too.

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
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bchyp import cli  # noqa: E402
from commands import commands  # noqa: E402


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
