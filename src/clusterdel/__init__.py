"""Combinatorial 3-approximation algorithms for cluster deletion.

Pipelines pair a weak-edge lower bound (maximal edge-disjoint wedge
matching, or the half-integral STC relaxation solved as a bipartite
matching) with pivot clustering of the stripped graph; every cluster is a
clique of the input, and the certified bound caps deletions at 3x optimum.
"""

from .generators import er_graph, tight_instance
from .graph import (EdgeListParseError, Graph, InvariantError, pack_edge,
                    parse_edge_list, serialize_edge_list)
from .pipelines import (CDResult, apply_merge, best_of_random,
                        match_flip_pivot, merge_clusters, stc_lp_round)
from .pivoting import (Clustering, PivotAudit, PivotStrategy,
                       clustering_lines, pivot)
from .stc import (ArcBudgetError, DEFAULT_ARC_BUDGET, HalfIntegralSolution,
                  labeling_from_lp, solve_stc_lp)
from .wedges import WedgeSet, maximal_wedge_set_fast

__all__ = [
    "ArcBudgetError", "CDResult", "Clustering", "DEFAULT_ARC_BUDGET",
    "EdgeListParseError", "Graph", "HalfIntegralSolution", "InvariantError",
    "PivotAudit", "PivotStrategy", "WedgeSet", "apply_merge",
    "best_of_random", "clustering_lines", "er_graph", "labeling_from_lp",
    "match_flip_pivot", "maximal_wedge_set_fast", "merge_clusters",
    "pack_edge", "parse_edge_list", "pivot", "serialize_edge_list",
    "solve_stc_lp", "stc_lp_round", "tight_instance",
]
