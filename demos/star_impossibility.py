"""A graph with no envy-free division, and a near miss that has one.

Two agents with identical uniform values on a three-leaf star cannot
divide it envy-free: whoever ends up without the center holds a piece
inside a single leaf edge worth at most a third, while the other agent
holds at least two thirds.  Shrink one leaf's value below half the
total, though, and a division appears.
"""
from efgc import (
    build_instance,
    piece_utility,
    solve_explicit_oracle,
    solve_few_edges,
    solve_tree_gc_bounded_degree,
    verify_assignment,
)

star = build_instance(
    ["c", "l1", "l2", "l3"],
    [("e1", "c", "l1"), ("e2", "c", "l2"), ("e3", "c", "l3")],
    {"ann": {"e1": 1, "e2": 1, "e3": 1}, "ben": {"e1": 1, "e2": 1, "e3": 1}},
    "gc",
)

print("uniform three-leaf star, two identical agents:")
for name, solver in [
    ("few-edges search", solve_few_edges),
    ("tree solver", solve_tree_gc_bounded_degree),
    ("explicit oracle", solve_explicit_oracle),
]:
    verdict = solver(star)
    print(f"  {name:18s} -> {'Yes' if verdict.yes else 'No'}")

# one dominant leaf changes the verdict: the agent without the center
# can take a leaf-side sliver of e3 worth exactly half the total
# (build_instance scales each agent's values to sum to 1, so values
# print as shares of the whole)
lopsided = build_instance(
    ["c", "l1", "l2", "l3"],
    [("e1", "c", "l1"), ("e2", "c", "l2"), ("e3", "c", "l3")],
    {"ann": {"e1": 1, "e2": 1, "e3": 3}, "ben": {"e1": 1, "e2": 1, "e3": 3}},
    "gc",
)
verdict = solve_few_edges(lopsided)
print("\nsame star with leaf values 1,1,3 ->", "Yes" if verdict.yes else "No")
assert verify_assignment(lopsided, verdict.assignment).valid
for agent, piece in verdict.assignment.items():
    intervals = ", ".join(
        f"{ep.edge}[{ep.lo},{ep.hi}]" for ep in piece.edge_pieces
    )
    print(f"  {agent} gets {intervals} worth {piece_utility(agent, piece, lopsided)}")
