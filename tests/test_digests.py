"""Outputs and explain texts stay as committed: every run of `tests.digests`
digests as `tests/digests.txt` says.  A change meant to alter outputs
rewrites that file, and its diff names the runs that moved."""

import os
import subprocess
import sys
from pathlib import Path

from . import digests

COMMITTED = Path(__file__).parent / "digests.txt"
ROOT = Path(__file__).parent.parent


def test_every_run_digests_as_committed():
    want = dict(line.split("\t") for line in COMMITTED.read_text().splitlines())
    got = {label: digests.digest(engine, text) for label, engine, text in digests.runs()}
    changed = sorted(label for label in want.keys() | got.keys() if want.get(label) != got.get(label))
    assert not changed, f"{len(changed)} runs differ from {COMMITTED.name}: {changed}"


def test_the_scripts_run_without_pytest():
    # `tests.stages` and `tests.digests` import no module that imports pytest,
    # so they run, and digest as committed, where pytest cannot be imported
    code = ("import runpy, sys; sys.modules['pytest'] = None; sys.argv = sys.argv[1:]; "
            "runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = {}
    for args in (["tests.stages", "EX3-self-join", "4x4", "--repeat", "1"], ["tests.digests"]):
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out[args[0]] = proc.stdout
    assert out["tests.stages"].splitlines()[-1].startswith("| 4x4 |")
    assert out["tests.digests"] == COMMITTED.read_text()
