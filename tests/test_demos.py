"""Each demo runs and prints the output recorded below, byte for byte.

A sha256 of each demo's standard output is pinned, so a change that
claims the demos print the same text is checked rather than claimed; a
change that alters a demo's output has to record its new digest and say
why.  The demos seed their own random draws and print no hash-ordered
collection, so the digests do not depend on ``PYTHONHASHSEED``.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "arrangement_cells.py": "c02b1f840911b0fd0bfc706c6500b9758b9f66accb057d9c4f8b3014be1f7094",
    "exact_lp.py": "cc9048dc642e1d1a96acc176758899bd91d6c82f949c5a85436074a0943ab034",
    "partition_reductions.py": "0b89f48e578c7ac67af07837742dbcbb668dd4ec0ab4eea9d9e53dd493550797",
    "path_divisions.py": "183eedea98f5ca2fc642875b5ac888cd12e6e45b6870b927ac3f81d42206739a",
    "star_impossibility.py": "5e7c7fd9cb5294b378f5c0e6aad11546caa2cf4fa68020284f0e4511140359e1",
    "trees_and_cycles.py": "8cf663d6fee0cca17b6b9b0fa3025e70e1ee4428ffb6a3c4e90916973816c665",
}


def test_every_demo_is_found():
    assert len(DEMOS) == 6
    assert {demo.name for demo in DEMOS} == set(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.name]
