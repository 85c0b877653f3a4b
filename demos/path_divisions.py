"""Paths always divide envy-free, whatever the utilities.

A path behaves like the classical divisible interval, where contiguous
envy-free divisions always exist.  The few-edges search rediscovers one
with exact rational cut points on every random draw.
"""
import random
from fractions import Fraction

from efgc import build_instance, piece_utility, solve_few_edges, verify_assignment

rng = random.Random(7)

for trial in range(3):
    n_edges = rng.randint(2, 3)
    n_agents = rng.randint(2, 3)
    vertices = [f"v{i}" for i in range(n_edges + 1)]
    edges = [(f"e{i}", f"v{i-1}", f"v{i}") for i in range(1, n_edges + 1)]
    utilities = {
        f"agent{j}": {
            f"e{i}": Fraction(rng.randint(0, 6), rng.randint(1, 3))
            for i in range(1, n_edges + 1)
        }
        for j in range(1, n_agents + 1)
    }
    for row in utilities.values():  # nobody may value everything at zero
        if all(v == 0 for v in row.values()):
            row["e1"] = Fraction(1)
    inst = build_instance(vertices, edges, utilities, "gc")  # scales each row to sum to 1
    verdict = solve_few_edges(inst)
    assert verdict.yes and verify_assignment(inst, verdict.assignment).valid
    print(f"path with {n_edges} edges, {n_agents} agents:")
    for agent, piece in verdict.assignment.items():
        spans = ", ".join(f"{ep.edge}[{ep.lo},{ep.hi}]" for ep in piece.edge_pieces)
        print(f"  {agent}: {spans}  (own value {piece_utility(agent, piece, inst)})")
    print()
