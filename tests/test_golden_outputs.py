"""``efgc solve`` output on the benchmark corpora is pinned byte for byte.

Each (workload, seed) corpus from ``perfbench.workloads.build_corpus`` is
sent, one request at a time, through ``efgc solve --in - --mode MODE``;
a sha256 over every request's exit code and standard output must equal
the digest recorded below.  A refactor that changes no verdict and no
witness keeps every digest; a change that alters any output fails here
and has to say why it records new digests.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from fractions import Fraction

import pytest

from efgc import cli
from perfbench.workloads import build_corpus, instance_text, random_utilities, shape

DIGESTS = {
    ("general_random", 1): "df8723ff05f9c363da512d5d14b1ce77b850e7fa97d2ea375e32420d52e1fc94",
    ("general_random", 2): "11a108817c250241efcc90ad9bcb1d0e3eebaf0eda79b1b9752c9224447e262c",
    ("general_random", 3): "0f406e52c6f2a111e550468c4a69c8ef070dc9bc274dbe120db7d4bc955833f4",
    # every request of this workload is a No, so the seeds share a digest
    ("general_unsolvable", 1): "2d0139511f764a026475e5f17f76cd90d1b35abb40e6268da318d7a771f45c1f",
    ("general_unsolvable", 2): "2d0139511f764a026475e5f17f76cd90d1b35abb40e6268da318d7a771f45c1f",
    ("general_unsolvable", 3): "2d0139511f764a026475e5f17f76cd90d1b35abb40e6268da318d7a771f45c1f",
    ("trees_cycles", 1): "2155c9f9263091dda07462139e3c99fb88bdaf55d0e43d3e7823084f7ce010c6",
    ("trees_cycles", 2): "7369a589b30704528bbd2bb8fc87b48411712d8435d8f7de066a5e4083aa2407",
    ("trees_cycles", 3): "1596c2049cc15c0bd9be37d3154f71a921fa11ac0149991828f629a9ed335d06",
}


def solve_digest(corpus: list[dict]) -> str:
    """sha256 over each request's exit code and stdout, in corpus order."""
    digest = hashlib.sha256()
    for request in corpus:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(request["text"])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(["solve", "--in", "-", "--mode", request["mode"]])
        finally:
            sys.stdin = saved
        digest.update(f"{code}\n{out.getvalue()}\0".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS))
def test_solve_output_matches_recorded_digest(workload, seed):
    assert solve_digest(build_corpus(workload, seed)) == DIGESTS[workload, seed]


# one five-agent gc path of 8 edges with random utilities from
# ``random.Random(5)``, solved under ``--mode auto``: its first cut set cuts
# every edge, so the cut-set search gives out 9 single-vertex components
# among 5 agents before its first Yes; recorded when the request took
# seconds
HEAVY_DIGEST = "16d7bb1849f933e196f16c230a2cb0616354285ca5066bd87e2d2208d7705d5e"


def test_heavy_path_output_matches_recorded_digest():
    graph = shape("path8")
    utilities = random_utilities(random.Random(5), 5, [e for e, _, _ in graph[1]])
    request = {"text": instance_text(graph, utilities, "gc"), "mode": "auto"}
    assert solve_digest([request]) == HEAVY_DIGEST


# ``efgc verify`` on the seed-1 Yes witnesses and on three broken copies
# of each, recorded before the witness path went to ints
VERIFY_DIGESTS = {
    "general_random": "e2a12e05eee9732dea9207884904e3347eb8240d0847dcec475041a75a20c94e",
    "trees_cycles": "7f3f6fbdc068b9f5e5ef92b3e2604ee8c9d088778cedfa8d1eb773e7254d0c79",
}


def _broken_copies(witness: str) -> list[str]:
    """Three broken copies of a witness: the first cut point strictly
    inside an edge moved halfway to 1 (left out when there is none), the
    last closure flag of the first piece flipped, and the last piece
    dropped."""
    head, *lines = witness.splitlines()
    copies = []
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[4] not in ("0", "1"):
            parts[4] = str((Fraction(parts[4]) + 1) / 2)
            copies.append(lines[:i] + [" ".join(parts)] + lines[i + 1 :])
            break
    parts = lines[0].split()
    parts[6] = "open" if parts[6] == "closed" else "closed"
    copies.append([" ".join(parts)] + lines[1:])
    copies.append(lines[:-1])
    return ["\n".join([head, *copy]) + "\n" for copy in copies]


def _run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``efgc`` with ``stdin`` as input."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(VERIFY_DIGESTS))
def test_verify_output_matches_recorded_digest(workload, tmp_path):
    digest = hashlib.sha256()
    instance_file = tmp_path / "instance.efgc"
    for request in build_corpus(workload, 1):
        code, out, _ = _run(["solve", "--in", "-", "--mode", request["mode"]], request["text"])
        if code != 0:
            continue
        witness = out.removeprefix("Yes\n")
        instance_file.write_text(request["text"], encoding="utf-8")
        for assignment in [witness, *_broken_copies(witness)]:
            argv = ["verify", "--in", str(instance_file), "--assignment", "-"]
            code, out, err = _run(argv, assignment)
            digest.update(f"{code}\n{out}\n{err}\0".encode())
    assert digest.hexdigest() == VERIFY_DIGESTS[workload]
