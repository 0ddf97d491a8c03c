"""Combinatorial 3-approximation algorithms for cluster deletion.

Pipelines pair a weak-edge lower bound (maximal edge-disjoint wedge
matching, or the half-integral STC relaxation solved as a bipartite
matching) with pivot clustering of the stripped graph; every cluster is a
clique of the input, and the certified bound caps deletions at 3x optimum.
"""

from .generators import er_graph, tight_instance
from .graph import (EdgeListParseError, Graph, InvariantError,
                    enumerate_open_wedges, pack_edge, parse_edge_list,
                    serialize_edge_list, unpack_edge)
from .oracles import (exact_cluster_deletion, exact_min_stc, exact_stc_lp,
                      gallai_graph, min_vertex_cover)
from .pipelines import (CDResult, apply_merge, best_of_random,
                        match_flip_pivot, merge_clusters, stc_lp_round)
from .pivoting import (Clustering, PivotAudit, PivotStrategy,
                       clustering_lines, pivot)
from .stc import (ArcBudgetError, DEFAULT_ARC_BUDGET, HalfIntegralSolution,
                  labeling_from_lp, solve_stc_lp, verify_stc_feasible)
from .wedges import (OpenWedge, WedgeSet, maximal_wedge_set_fast,
                     maximal_wedge_set_simple, verify_wedge_set)

__all__ = [
    "ArcBudgetError", "CDResult", "Clustering", "DEFAULT_ARC_BUDGET",
    "EdgeListParseError", "Graph", "HalfIntegralSolution", "InvariantError",
    "OpenWedge", "PivotAudit", "PivotStrategy", "WedgeSet", "apply_merge",
    "best_of_random", "clustering_lines", "enumerate_open_wedges", "er_graph",
    "exact_cluster_deletion", "exact_min_stc", "exact_stc_lp", "gallai_graph",
    "labeling_from_lp", "match_flip_pivot", "maximal_wedge_set_fast",
    "maximal_wedge_set_simple", "merge_clusters", "min_vertex_cover",
    "pack_edge", "parse_edge_list", "pivot", "serialize_edge_list",
    "solve_stc_lp", "stc_lp_round", "tight_instance", "unpack_edge",
    "verify_stc_feasible", "verify_wedge_set",
]
