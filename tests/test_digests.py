"""Outputs and explain texts stay as committed: every run of `tests.digests`
digests as `tests/digests.txt` says.  A change meant to alter outputs
rewrites that file, and its diff names the runs that moved."""

from pathlib import Path

from . import digests

COMMITTED = Path(__file__).parent / "digests.txt"


def test_every_run_digests_as_committed():
    want = dict(line.split("\t") for line in COMMITTED.read_text().splitlines())
    got = {label: digests.digest(engine, text) for label, engine, text in digests.runs()}
    changed = sorted(label for label in want.keys() | got.keys() if want.get(label) != got.get(label))
    assert not changed, f"{len(changed)} runs differ from {COMMITTED.name}: {changed}"
