"""The row test inside the two searches.

``RowTest`` refutes an LP from one envy row against its tiling simplices
before the simplex.  These tests hold every refutation that the searches
can meet to ``lp_feasible`` and to an explicit Farkas certificate, check
that a refuting shared row of an initial branch refutes every LP of that
branch, and count the branches that the few-edges search skips.
"""
import random
from dataclasses import replace

import efgc.component_lp as component_lp
import efgc.few_edges as few_edges
from efgc.component_lp import solve_cycle, solve_tree_gc_bounded_degree, solve_tree_vdgc
from efgc.few_edges import build_lp, enumerate_initial_branches, solve_few_edges
from efgc.linprog import Feasible, Infeasible, RowTest, lp_feasible, verify_certificate
from efgc.model import normalize
from helpers import (
    force_paper_route,
    random_cycle_instance,
    random_graph_instance,
    random_path_instance,
    random_tree_instance,
    row_certificate,
    star3_identical,
)


def _few_edges_corpus(rng: random.Random, count: int, most_agents: int):
    instances = [star3_identical(), star3_identical("vdgc")]
    for _ in range(count):
        n_edges, n_agents = rng.randint(1, 3), rng.randint(2, most_agents)
        instances.append(random_graph_instance(rng, n_edges, n_agents, rng.choice(["gc", "vdgc"])))
    return instances


def _recording(module, name, built):
    original = getattr(module, name)

    def record(*args):
        system = original(*args)
        built.append(system)
        return system

    return record


def test_row_test_refutes_no_feasible_lp_of_either_search(monkeypatch):
    """Every LP that the few-edges search (both routes) and the cut-set
    search build: a refuted one is infeasible, with a certificate."""
    rng = random.Random(1616)
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(few_edges, "build_lp", _recording(few_edges, "build_lp", built))
        patch.setattr(
            component_lp, "_build_cut_lp", _recording(component_lp, "_build_cut_lp", built)
        )
        for inst in _few_edges_corpus(rng, 14, 4):
            solve_few_edges(inst)
        with monkeypatch.context() as paper:
            force_paper_route(paper)
            for inst in _few_edges_corpus(rng, 10, 3):
                solve_few_edges(inst)
        for _ in range(12):
            n_edges, n_agents = rng.randint(1, 3), rng.randint(2, 4)
            for variant in ("gc", "vdgc"):
                tree = random_tree_instance(rng, n_edges, n_agents, variant)
                (solve_tree_vdgc if variant == "vdgc" else solve_tree_gc_bounded_degree)(tree)
                solve_cycle(random_cycle_instance(rng, rng.randint(3, 4), n_agents, variant))
            solve_tree_vdgc(random_path_instance(rng, n_edges, n_agents, "vdgc"))
    seen = {"refuted": 0, Feasible: 0, Infeasible: 0}
    for system in built:
        row = RowTest(system.rows).refuting_row(system.rows)
        result = lp_feasible(system)
        if row is not None:
            assert isinstance(result, Infeasible)
            assert verify_certificate(system, row_certificate(system, row))
            seen["refuted"] += 1
        else:
            seen[type(result)] += 1
    assert min(seen.values()) > 50, seen


def test_a_refuting_shared_row_refutes_the_whole_branch(monkeypatch):
    """On both routes, every guess of an initial branch builds an LP that
    starts with the same ``_shared_rows`` rows, and the row test of those
    rows has the verdict of the full test on each LP; when one of them
    refutes, no LP of the branch is feasible."""
    rng = random.Random(2323)
    corpus = [normalize(inst) for inst in _few_edges_corpus(rng, 12, 3)]
    skipped = {False: 0, True: 0}
    for paper in (False, True):
        for inst in corpus:
            for base in enumerate_initial_branches(inst):
                if paper:
                    guesses = list(few_edges._paper_guesses(inst, base))
                else:
                    outsiders = [a for a in inst.agents if a not in base.a_v]
                    placements = few_edges._placements(inst, outsiders, dict(base.n))
                    guesses = [replace(base, placement=p) for p in placements]
                    if not outsiders:
                        assert len(build_lp(inst, guesses[0]).rows) == few_edges._shared_rows(base)
                systems = [build_lp(inst, guess) for guess in guesses]
                shared = few_edges._shared_rows(base)
                assert len({tuple(system.rows[:shared]) for system in systems}) <= 1
                for system in systems:
                    test = RowTest(system.rows[:shared])
                    full = RowTest(system.rows).refuting_row(system.rows)
                    assert test.refuting_row(system.rows) == full
                if systems and RowTest(systems[0].rows).refuting_row(systems[0].rows[:shared]) is not None:
                    skipped[paper] += 1
                    assert not any(isinstance(lp_feasible(s), Feasible) for s in systems)
    assert min(skipped.values()) > 100, skipped
