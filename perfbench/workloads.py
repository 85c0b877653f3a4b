"""Seeded corpora for the three benchmark workloads.

A corpus is a list of requests.  Each request carries the instance text
exactly as a user would hand it to ``efgc solve``, the ``--mode`` flag,
and a reference verdict that the solver under test did not compute:

* ``oracle``  -- ``efgc.generators.solve_explicit_oracle`` (at most four
  edges), the brute-force enumerator the solvers are checked against;
* ``numpart`` -- for number-partitioning stars (two identical agents,
  one leaf per value) the corrected planted rule: solvable exactly when
  the values split into two equal-sum halves or one value exceeds half
  the total;
* ``path``    -- a path always has an envy-free connected division.

Instances without a reference are never generated.  The graph shapes,
utilities and instance text are produced here, not by ``efgc``, so the
same seed gives byte-identical corpora on every version of the solver.
"""
from __future__ import annotations

import hashlib
import json
import random
import warnings
from fractions import Fraction

F = Fraction

def path_shape(n: int):
    vertices = [f"v{i}" for i in range(1, n + 2)]
    return vertices, [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(1, n + 1)]


def star_shape(n: int):
    vertices = ["c"] + [f"l{i}" for i in range(1, n + 1)]
    return vertices, [(f"e{i}", "c", f"l{i}") for i in range(1, n + 1)]


def cycle_shape(n: int):
    vertices = [f"v{i}" for i in range(1, n + 1)]
    return vertices, [(f"e{i}", f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)]


# The two connected four-edge graphs that are neither a path, a star nor
# a cycle, as (vertices, edges).
OTHER_SHAPES = {
    "spider4": (
        ["v1", "v2", "v3", "v4", "v5"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v4"), ("e4", "v3", "v5")],
    ),
    "paw4": (
        ["v1", "v2", "v3", "v4"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1"), ("e4", "v3", "v4")],
    ),
}
FAMILIES = {"path": path_shape, "star": star_shape, "cycle": cycle_shape}


def shape(name: str):
    """A graph by name: ``path3``, ``star4``, ``cycle3``, ``spider4``, ..."""
    if name in OTHER_SHAPES:
        return OTHER_SHAPES[name]
    family = name.rstrip("0123456789")
    return FAMILIES[family](int(name[len(family):]))


def instance_text(graph, utilities: dict[str, dict[str, Fraction]], variant: str) -> str:
    """The plain-text instance format read by ``efgc solve``."""
    vertices, edges = graph
    out = ["efgc-instance v1", f"variant {variant}", "vertices " + " ".join(vertices)]
    out += [f"edge {e} {u} {v}" for e, u, v in edges]
    for agent, row in utilities.items():
        out.append(f"agent {agent} " + " ".join(f"{e}={row[e]}" for e, _, _ in edges))
    return "\n".join(out) + "\n"


def random_utilities(rng: random.Random, agents: int, edges: list[str]) -> dict:
    """Small non-negative rationals, at least one positive per agent."""
    table = {}
    for i in range(1, agents + 1):
        while True:
            row = {e: F(rng.randint(0, 6), rng.randint(1, 4)) for e in edges}
            if any(row.values()):
                break
        table[f"a{i}"] = row
    return table


def identical_utilities(rng: random.Random, agents: int, edges: list[str]) -> dict:
    row = random_utilities(rng, 1, edges)["a1"]
    return {f"a{i}": dict(row) for i in range(1, agents + 1)}


def splits_evenly(values: list[int]) -> bool:
    """Subset-sum test: do the values split into two equal-sum halves?"""
    total = sum(values)
    if total % 2:
        return False
    reachable = {0}
    for v in values:
        reachable |= {r + v for r in reachable}
    return total // 2 in reachable


def numpart_expected(values: list[int]) -> bool:
    return splits_evenly(values) or 2 * max(values) > sum(values)


def numpart_text(values: list[int]) -> str:
    row = {f"e{i}": F(v) for i, v in enumerate(values, start=1)}
    return instance_text(star_shape(len(values)), {"a1": row, "a2": dict(row)}, "gc")


def oracle_verdict(text: str) -> bool:
    """The brute-force oracle's verdict (meant for at most four edges)."""
    from efgc.cli import parse_instance
    from efgc.generators import ScaleExceededWarning, solve_explicit_oracle

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScaleExceededWarning)
        return solve_explicit_oracle(parse_instance(text)).yes


def _request(stratum: str, mode: str, text: str, expect: bool, ref: str) -> dict:
    return {"stratum": stratum, "mode": mode, "text": text, "expect": expect, "ref": ref}


BOTH = ("gc", "vdgc")

# Each table row is (graph, agents, variants, instances per variant).
# Requests with random utilities stop at the first witness, so their
# cost varies a lot within one row (a coefficient of variation of 0.3
# to 1), and a different seed moves a percentile that falls where few
# requests lie a long way.  The counts therefore put the median and the
# 90th percentile inside a large row of similar cost, and keep rows with
# a heavy tail small, so that they do not decide a run's throughput.

# general_random: random utilities on every connected shape of one to
# four edges.  Two agents on graphs with a cycle and three agents on the
# shortest paths give the arrangement of envy-comparison forms real
# cells.  Three agents on three or more edges are left out: their one to
# twelve second tail would swamp a run.  The median request is a
# one-edge path with three agents (parse, dispatch and a few LPs); the
# two-agent triangles, which take most of the time, hold the 90th
# percentile together with the four-edge graphs with a cycle.
GENERAL_RANDOM = [
    ("path1", 2, BOTH, 60),
    ("path1", 3, BOTH, 90),
    ("path2", 2, BOTH, 8),
    ("path2", 3, ("vdgc",), 4),
    ("path3", 2, BOTH, 3),
    ("star3", 2, BOTH, 3),
    ("cycle3", 2, ("gc",), 6),
    ("cycle3", 2, ("vdgc",), 150),
    ("path4", 2, ("gc",), 1),
    ("path4", 2, ("vdgc",), 2),
    ("star4", 2, ("gc",), 1),
    ("star4", 2, ("vdgc",), 2),
    ("spider4", 2, ("gc",), 1),
    ("spider4", 2, ("vdgc",), 2),
    ("cycle4", 2, ("gc",), 1),
    ("cycle4", 2, ("vdgc",), 16),
    ("paw4", 2, ("gc",), 1),
    ("paw4", 2, ("vdgc",), 16),
]

# general_unsolvable: identical agents on stars and the spider, kept
# only when the oracle says No, and balanced number-partitioning stars
# without an equal-sum split.  Every branch of the search is explored,
# so every request costs tens to hundreds of milliseconds, and the cost
# hardly varies within a row.  Both percentiles lie in the cluster of
# 110 to 200 ms requests (three-leaf number-partitioning stars, the
# 3-leaf star under gc, the 4-leaf star and the spider under vdgc);
# the slowest rows get one or two requests above it.
GENERAL_UNSOLVABLE = [
    ("star3", 2, ("gc",), 14),
    ("star3", 2, ("vdgc",), 35),
    ("star4", 2, ("gc",), 1),
    ("star4", 2, ("vdgc",), 10),
    ("spider4", 2, ("vdgc",), 8),
    ("star3", 3, ("vdgc",), 1),
]
NUMPART_UNSOLVABLE = [(3, 30, False), (4, 2, False)]  # (leaves, instances, verdict)

# trees_cycles: most requests are cheap two-agent trees and cycles, so
# the median request (a two-agent eight-edge path) is dominated by
# parsing, dispatch and small LPs; three and four agents and
# number-partitioning stars make up the rest, with the 90th percentile
# among the five-leaf stars that have no equal-sum split (every cut set
# is tried, so their cost hardly varies).  Graphs of at most four edges
# other than paths are checked by the oracle, which is slow on three
# agents, so most of the larger requests are paths and
# number-partitioning stars.  Four agents only appear on two-edge paths:
# on three edges one request takes one to five seconds.  Four agents on
# two edges and three on four edges vary from 30 to 800 ms per request
# and get one request per variant.
TREES_CYCLES = [
    ("path3", 2, BOTH, 25),
    ("path5", 2, BOTH, 30),
    ("path8", 2, ("gc",), 20),
    ("path8", 2, ("vdgc",), 120),
    ("star3", 2, BOTH, 10),
    ("star4", 2, BOTH, 10),
    ("spider4", 2, BOTH, 10),
    ("cycle3", 2, BOTH, 10),
    ("cycle4", 2, BOTH, 10),
    ("path3", 3, BOTH, 14),
    ("path4", 3, BOTH, 1),
    ("path2", 4, BOTH, 1),
    ("star3", 3, ("vdgc",), 10),
    ("cycle3", 3, ("vdgc",), 12),
]
# (leaves, instances, verdict kept: None for either)
NUMPART_TREES = [(3, 14, None), (5, 70, False), (6, 2, None)]


def _random_requests(rng, table, mode, utilities=random_utilities, keep=None):
    corpus = []
    for name, agents, variants, count in table:
        graph = shape(name)
        edges = [e for e, _, _ in graph[1]]
        for variant in variants:
            made = 0
            while made < count:
                text = instance_text(graph, utilities(rng, agents, edges), variant)
                if name.startswith("path"):
                    expect, kind = True, "path"
                else:
                    expect, kind = oracle_verdict(text), "oracle"
                if keep is None or expect == keep:
                    corpus.append(_request(f"{name}/{agents}/{variant}", mode, text, expect, kind))
                    made += 1
    return corpus


def _numpart_requests(rng, table, mode):
    corpus = []
    for leaves, count, keep in table:
        made = 0
        while made < count:
            values = [rng.randint(1, 9) for _ in range(leaves)]
            expect = numpart_expected(values)
            # a dominant value makes the instance trivially solvable
            balanced = 2 * max(values) <= sum(values)
            if keep is None or (expect == keep and balanced):
                corpus.append(_request(f"numpart{leaves}", mode, numpart_text(values), expect, "numpart"))
                made += 1
    return corpus


def general_random(rng: random.Random) -> list[dict]:
    return _random_requests(rng, GENERAL_RANDOM, "few-edges")


def general_unsolvable(rng: random.Random) -> list[dict]:
    return _random_requests(
        rng, GENERAL_UNSOLVABLE, "few-edges", identical_utilities, keep=False
    ) + _numpart_requests(rng, NUMPART_UNSOLVABLE, "few-edges")


def trees_cycles(rng: random.Random) -> list[dict]:
    return _random_requests(rng, TREES_CYCLES, "auto") + _numpart_requests(
        rng, NUMPART_TREES, "auto"
    )


WORKLOADS = {
    "general_random": general_random,
    "general_unsolvable": general_unsolvable,
    "trees_cycles": trees_cycles,
}


def build_corpus(workload: str, seed: int) -> list[dict]:
    """The corpus of ``workload`` for ``seed``; same seed, same corpus."""
    rng = random.Random(f"{workload}/{seed}")
    corpus = WORKLOADS[workload](rng)
    # interleave the strata, so that a slow spell of the machine does not
    # land on one kind of request
    rng.shuffle(corpus)
    return corpus


def corpus_hash(corpus: list[dict]) -> str:
    blob = json.dumps(corpus, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_corpus(workload: str, seed: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(build_corpus(workload, seed), out)


if __name__ == "__main__":
    import sys

    write_corpus(sys.argv[1], int(sys.argv[2]), sys.argv[3])
