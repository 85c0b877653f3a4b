import gc
import itertools
import random
from fractions import Fraction

from efgc.matching import Bigraph, compatibility_graph, is_perfect, max_bipartite_matching
from efgc.model import EdgePiece, Piece, piece_utility
from helpers import single_edge

F = Fraction


def best_of(inst, partition) -> dict:
    """Each agent's value of its best piece of ``partition``."""
    return {a: max(piece_utility(a, q, inst) for q in partition) for a in inst.agents}


def graph_of(n_left, n_right, edges) -> Bigraph:
    return Bigraph(
        tuple(f"a{i}" for i in range(n_left)),
        tuple(range(n_right)),
        frozenset(edges),
    )


def test_complete_graph_perfect_matching():
    g = graph_of(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    m = max_bipartite_matching(g)
    assert is_perfect(g, m)


def test_shared_single_piece():
    g = graph_of(2, 1, [(0, 0), (1, 0)])
    m = max_bipartite_matching(g)
    assert len(m) == 1
    assert not is_perfect(g, m)


def test_empty_edge_set():
    g = graph_of(2, 2, [])
    assert max_bipartite_matching(g) == {}


def _brute_force_size(g: Bigraph) -> int:
    best = 0
    rights = list(range(len(g.right)))
    for k in range(min(len(g.left), len(g.right)), 0, -1):
        for lefts in itertools.combinations(range(len(g.left)), k):
            for perm in itertools.permutations(rights, k):
                if all((li, ri) in g.edges for li, ri in zip(lefts, perm)):
                    return k
    return best


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(33)
    for _ in range(40):
        nl, nr = rng.randint(1, 5), rng.randint(1, 5)
        edges = [
            (li, ri)
            for li in range(nl)
            for ri in range(nr)
            if rng.random() < 0.45
        ]
        g = graph_of(nl, nr, edges)
        m = max_bipartite_matching(g)
        assert len(set(m.values())) == len(m)  # valid matching
        assert all((li, ri) in g.edges for li, ri in m.items())
        assert len(m) == _brute_force_size(g)


def test_compatibility_equal_halves():
    inst = single_edge({"a": 1, "b": 1})
    halves = [
        Piece([EdgePiece("e1", 0, F(1, 2))]),
        Piece([EdgePiece("e1", F(1, 2), 1, False, True)]),
    ]
    g = compatibility_graph(inst, best_of(inst, halves), ["a", "b"], halves)
    assert g.edges == frozenset([(0, 0), (0, 1), (1, 0), (1, 1)])


def test_compatibility_rejects_dominated_piece():
    inst = single_edge({"a": 1})
    small = Piece([EdgePiece("e1", 0, F(1, 4))])
    large = Piece([EdgePiece("e1", F(1, 4), 1, False, True)])
    g = compatibility_graph(inst, best_of(inst, [small, large]), ["a"], [small])
    assert g.edges == frozenset()


def test_compatibility_uniform_leftovers_all_or_nothing():
    inst = single_edge({"a": 3, "b": 5})
    thirds = [
        Piece([EdgePiece("e1", 0, F(1, 3))]),
        Piece([EdgePiece("e1", F(1, 3), F(2, 3), False, True)]),
        Piece([EdgePiece("e1", F(2, 3), 1, False, True)]),
    ]
    g = compatibility_graph(inst, best_of(inst, thirds), ["a", "b"], thirds)
    for li in range(2):
        degree = sum(1 for l, _ in g.edges if l == li)
        assert degree in (0, 3)


def test_matching_leaves_no_reference_cycles():
    g = graph_of(3, 3, [(0, 0), (0, 1), (1, 0), (2, 1), (2, 2)])
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert is_perfect(g, max_bipartite_matching(g))
            assert gc.collect() == 0
    finally:
        gc.enable()
