"""Exact solvers for envy-free division of graphs with divisible edges."""

from efgc.component_lp import (
    solve_cycle,
    solve_tree_gc_bounded_degree,
    solve_tree_vdgc,
    solve_with_cut_set,
)
from efgc.few_edges import solve_few_edges
from efgc.generators import (
    blowup_gc_to_vdgc,
    gen_ladder_tw2,
    gen_matching_plus_two,
    gen_star_from_numpart,
    numpart_dp,
    solve_explicit_oracle,
)
from efgc.model import (
    AllZeroAgentError,
    Assignment,
    EdgePiece,
    EfgcError,
    Graph,
    Instance,
    Piece,
    Rational,
    UnknownEdgeError,
    Variant,
    Verdict,
    VerificationReport,
    build_instance,
    is_connected_piece,
    piece_utility,
    verify_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroAgentError",
    "Assignment",
    "EdgePiece",
    "EfgcError",
    "Graph",
    "Instance",
    "Piece",
    "Rational",
    "UnknownEdgeError",
    "Variant",
    "Verdict",
    "VerificationReport",
    "blowup_gc_to_vdgc",
    "build_instance",
    "gen_ladder_tw2",
    "gen_matching_plus_two",
    "gen_star_from_numpart",
    "is_connected_piece",
    "numpart_dp",
    "piece_utility",
    "solve_cycle",
    "solve_explicit_oracle",
    "solve_few_edges",
    "solve_tree_gc_bounded_degree",
    "solve_tree_vdgc",
    "solve_with_cut_set",
    "verify_assignment",
]
