"""End-to-end cluster deletion pipelines with certified lower bounds.

Both pipelines compute a weak edge set E_W, strip it, and pivot the
remaining graph.  Maximality of E_W guarantees every cluster is a clique
of the original graph, so the solution deletes exactly the edges between
clusters.

match-flip-pivot ("mfp"): E_W holds the two legs of each wedge in a
maximal edge-disjoint set W of open wedges.  Any valid solution deletes
at least one edge per matched wedge, so |W| lower-bounds the optimum and
the pivot accounting bounds deletions by 3|W|.

lp rounding ("stclp"): E_W holds the edges at weakness >= 1/2 in the
half-integral STC relaxation; half the relaxation value lower-bounds the
optimum and deletions stay within 3x of it.

A certified bound is one ``Certificate``, which holds no reference to its
graph.  The bound is the expensive stage, and every pipeline call on one
graph shares it: the first call computes it (mfp, or stclp per arc
budget), strips its weak edges into adjacency lists, and memoizes both on
the graph, and later calls, whatever their strategy, reuse them.  Each
result, and each merge of one, holds that same certificate beside the
graph, and ``clusterdel lb`` prints the fields of the two it computes.  A
call's ``runtime_ms["lower_bound"]`` is that call's own preparation time,
the lookup or the computation of the bound and the strip, so it is near 0
when they are reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .graph import Graph, InvariantError
from .pivoting import (Clustering, PivotAudit, PivotStrategy,
                       adjacency_lists, pivot_lists)
from .stc import DEFAULT_ARC_BUDGET, solve_stc_lp
from .wedges import maximal_wedge_set_fast


class Certificate(NamedTuple):
    """A certified lower bound on a graph's deletions and its weak edges
    E_W, held only as a mask.  It holds no reference to the graph: the
    graph's memo keeps it beside the stripped lists, and every result on
    the graph shares it.  Both arrays are read-only."""

    algorithm: str
    wedges: int | None
    lp_value_half_units: int | None
    lower_bound_half_units: int
    # weak_mask[e]: edge e of the graph is in E_W
    weak_mask: np.ndarray
    # stclp: the relaxation's values by edge id, in half-units
    values: np.ndarray | None


@dataclass
class CDResult:
    """One pipeline run.  boundary_edges / internal_nonedges audit the
    pivot stage and are not recomputed after merging."""

    algorithm: str
    strategy: str
    seed: int | None
    n: int
    m: int
    wedges: int | None
    weak_edges: int
    lp_value_half_units: int | None
    deletions: int
    lower_bound_half_units: int
    ratio: Fraction | None
    m_w: int
    m_s: int
    m_1: int | None
    b_half: int | None
    n_half: int | None
    boundary_edges: int
    internal_nonedges: int
    clustering: Clustering
    audit: PivotAudit
    merged: bool
    runtime_ms: dict[str, float | None]
    certificate: Certificate = field(repr=False)
    graph: Graph = field(repr=False)

    @property
    def weak_set(self) -> set[int]:
        """E_W as packed keys, in a new set on each read."""
        return self.graph.masked_keys(self.certificate.weak_mask)

    def to_json_dict(self) -> dict:
        if self.ratio is None:
            ratio = None
        else:
            ratio = {"num": self.ratio.numerator,
                     "den": self.ratio.denominator,
                     "float": float(self.ratio)}
        return {"algorithm": self.algorithm, "strategy": self.strategy,
                "seed": self.seed, "n": self.n, "m": self.m,
                "wedges": self.wedges, "weak_edges": self.weak_edges,
                "lp_value_half_units": self.lp_value_half_units,
                "deletions": self.deletions,
                "lower_bound_half_units": self.lower_bound_half_units,
                "ratio": ratio, "m_W": self.m_w, "m_S": self.m_s,
                "m_1": self.m_1, "b_half": self.b_half,
                "n_half": self.n_half,
                "boundary_edges": self.boundary_edges,
                "internal_nonedges": self.internal_nonedges,
                "clusters": self.clustering.num_clusters,
                "merged": self.merged,
                "runtime_ms": dict(self.runtime_ms)}


def _lower_bound(g: Graph, algorithm: str, arc_budget: int) -> Certificate:
    if algorithm == "mfp":
        ws = maximal_wedge_set_fast(g)
        count = ws.wedge_count
        cert = Certificate(algorithm, count, None, 2 * count, ws.weak_mask,
                           None)
    else:
        sol = solve_stc_lp(g, arc_budget)
        lp_half = sol.objective_half_units
        values = np.array(sol.values, dtype=np.int64)
        cert = Certificate(algorithm, None, lp_half, lp_half, values >= 1,
                           values)
    cert.weak_mask.flags.writeable = False
    if cert.values is not None:
        cert.values.flags.writeable = False
    return cert


@dataclass
class _Preparation:
    """Stage 1, shared by every pivot run of one pipeline call: the graph,
    its certificate, the adjacency lists of the graph stripped of its weak
    edges, taken from the graph's CSR through the weak mask (each pivot
    only reads them), and the milliseconds the call took to get both."""

    graph: Graph
    cert: Certificate
    adj: list[list[int]]
    ms: float


def _prepare(g: Graph, algorithm: str, arc_budget: int = DEFAULT_ARC_BUDGET
             ) -> _Preparation:
    """The certificate and the stripped lists come from g's memo, keyed
    "mfp" or ("stclp", arc_budget), which holds no reference to g; a bound
    that fails (an ArcBudgetError, say) is not memoized.  Both live as
    long as g, and every call on g hands out the same ones."""
    t0 = perf_counter()
    if algorithm == "mfp":
        key = "mfp"
    elif algorithm == "stclp":
        key = ("stclp", arc_budget)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    memo = g._bounds.get(key)
    if memo is None:
        cert = _lower_bound(g, algorithm, arc_budget)
        memo = g._bounds[key] = cert, adjacency_lists(g, ~cert.weak_mask)
    cert, adj = memo
    return _Preparation(g, cert, adj, (perf_counter() - t0) * 1000.0)


def _score(g: Graph, cert: Certificate, clustering: Clustering,
           audit: PivotAudit, strategy: str, seed: int | None, merged: bool,
           runtime_ms: dict[str, float | None]) -> CDResult:
    weak, values = cert.weak_mask, cert.values
    assignment = np.array(clustering.assignment, dtype=np.int64)
    cut = assignment[g._edge_u] != assignment[g._edge_v]
    cut_weak = cut & weak
    deletions = int(np.count_nonzero(cut))
    weak_edges = int(np.count_nonzero(weak))
    m_w = int(np.count_nonzero(cut_weak))
    m_s = deletions - m_w
    m_1 = b_half = n_half = None
    if values is not None:
        m_1 = int(np.count_nonzero(cut_weak & (values == 2)))
        b_half = m_w - m_1
        n_half = int(np.count_nonzero(weak & ~cut & (values == 1)))
    # every cluster must be a clique of g, which holds exactly when the
    # pairs inside clusters are as many as the edges not cut
    sizes = np.bincount(assignment)
    internal_pairs = int(np.sum(sizes * (sizes - 1) // 2))
    if internal_pairs != g.m - deletions:
        raise InvariantError("non-clique cluster")
    if not merged:
        # strong deletions are exactly the audited boundary edges, and
        # kept weak edges are exactly the audited internal non-edges
        if m_s != audit.boundary_edges:
            raise InvariantError(
                f"{m_s} strong deletions != {audit.boundary_edges} "
                "audited boundary edges")
        if weak_edges - m_w != audit.internal_nonedges:
            raise InvariantError(
                f"{weak_edges - m_w} kept weak edges != "
                f"{audit.internal_nonedges} audited internal non-edges")
    lb = cert.lower_bound_half_units
    ratio = Fraction(2 * deletions, lb) if lb > 0 else None
    return CDResult(
        algorithm=cert.algorithm, strategy=strategy, seed=seed, n=g.n,
        m=g.m, wedges=cert.wedges,
        weak_edges=weak_edges, lp_value_half_units=cert.lp_value_half_units,
        deletions=deletions, lower_bound_half_units=lb, ratio=ratio,
        m_w=m_w, m_s=m_s, m_1=m_1, b_half=b_half, n_half=n_half,
        boundary_edges=audit.boundary_edges,
        internal_nonedges=audit.internal_nonedges,
        clustering=clustering, audit=audit, merged=merged,
        runtime_ms=runtime_ms, certificate=cert, graph=g)


def _finish(prep: _Preparation, strategy: PivotStrategy) -> CDResult:
    t0 = perf_counter()
    clustering, audit = pivot_lists(prep.adj, strategy)
    pivot_ms = (perf_counter() - t0) * 1000.0
    runtime_ms = {"lower_bound": prep.ms, "pivot": pivot_ms, "merge": None}
    return _score(prep.graph, prep.cert, clustering, audit, strategy.kind,
                  strategy.seed, False, runtime_ms)


def match_flip_pivot(g: Graph, strategy: PivotStrategy) -> CDResult:
    """Match a maximal wedge set, strip its legs, pivot."""
    return _finish(_prepare(g, "mfp"), strategy)


def stc_lp_round(g: Graph, strategy: PivotStrategy,
                 arc_budget: int = DEFAULT_ARC_BUDGET) -> CDResult:
    """Solve the STC relaxation, strip edges at weakness >= 1/2, pivot."""
    return _finish(_prepare(g, "stclp", arc_budget), strategy)


def best_of_random(g: Graph, trials: int, base_seed: int = 0,
                   algorithm: str = "mfp",
                   arc_budget: int = DEFAULT_ARC_BUDGET
                   ) -> tuple[CDResult, dict]:
    """Run the random strategy with seeds base_seed..base_seed+trials-1
    over a single stage-1 preparation, whose bound is shared with every
    other pipeline call on g; returns the best run (fewest deletions,
    earliest seed on ties) and summary statistics.  base_seed must not be
    negative: random.Random(-s) is seeded as Random(s)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if base_seed < 0:
        raise ValueError(f"base seed must not be negative, not {base_seed}")
    prep = _prepare(g, algorithm, arc_budget)
    best: CDResult | None = None
    total_deletions = 0
    total_ratio = 0.0
    for i in range(trials):
        res = _finish(prep, PivotStrategy.random(base_seed + i))
        total_deletions += res.deletions
        if res.ratio is not None:
            total_ratio += float(res.ratio)
        if best is None or res.deletions < best.deletions:
            best = res
    summary = {"trials": trials,
               "mean_deletions": total_deletions / trials,
               "mean_ratio": (total_ratio / trials
                              if best.ratio is not None else None)}
    return best, summary


def merge_clusters(g: Graph, clustering: Clustering,
                   max_passes: int | None = None,
                   budget_ms: float | None = None) -> Clustering:
    """Greedily merge cluster pairs whose union is still a clique.

    A pass visits the clusters largest-first (ties by cluster id), and
    each visited cluster absorbs every later cluster it still can, in that
    order.  One pass runs, unless max_passes is 0 or less (no merge) or
    the budget runs out; budget_ms must be a non-negative number of
    milliseconds (inf means no budget).  Deletions never increase, so
    stopping early is always safe.

    Call a pair of clusters complete when every pair of their members is
    an edge.  A cluster grows only during its own turn, so when a takes
    its turn, every later cluster is as the pass found it.  A later b can
    then join a, which has absorbed b1, b2, ... so far in this turn,
    exactly when each of (a, b), (b1, b), (b2, b), ... is complete.

    So the pass starts with one numpy count of the cut edges per pair of
    clusters, a pair being complete when its count is the product of the
    two sizes, and only the complete pairs reach Python.  The pass costs
    that count (a sort of the cut edges) plus, per complete pair, one set
    lookup for each cluster absorbed earlier in the turn.

    A second pass would merge nothing, so a max_passes above 1 runs one
    pass too: a pass that the budget did not cut leaves no two survivors
    that could merge.  Take survivors X, owned by a, and Y, owned by c,
    with a visited before c, and suppose X and Y complete.  At a's turn,
    c was live and as the pass found it, a part of Y, and all that a had
    absorbed when it reached c lay in X.  So a and each cluster it had
    absorbed were complete with c, and a would have absorbed c.

    clustering must partition g's nodes into non-empty clusters, as
    pivoting and merging do (ValueError otherwise).  Its assignment is
    read, and of its clusters only their sizes: member lists passed in
    must match the assignment's, and a clustering made by pivoting or
    merging holds none unless they have been read.  The merged clustering
    is recorded the same way, as its assignment and count; its lists are
    built when first read.
    """
    if budget_ms is not None and not budget_ms >= 0:
        raise ValueError("merge budget must be a non-negative number of "
                         f"milliseconds, not {budget_ms!r}")
    k0 = clustering.num_clusters
    # owner[v]: the id of the cluster holding node v
    owner = np.array(clustering.assignment, dtype=np.int64)
    if len(owner) != g.n or np.any((owner < 0) | (owner >= k0)):
        raise ValueError(f"assignment must give each of the {g.n} nodes a "
                         f"cluster id in [0, {k0})")
    sizes = np.bincount(owner, minlength=k0)
    if not sizes.all():
        raise ValueError(f"cluster {int(np.argmin(sizes))} is empty")
    # lists passed in must agree; pivoting and merging pass none
    if clustering._lists is not None:
        listed = list(map(len, clustering._lists))
        if sizes.tolist() != listed:
            c = next(c for c in range(k0) if sizes[c] != listed[c])
            raise ValueError(f"cluster {c} lists {listed[c]} nodes, but "
                             f"the assignment gives it {sizes[c]}")
    alive = [True] * k0
    if max_passes is None or max_passes > 0:
        deadline = (perf_counter() + budget_ms / 1000.0
                    if budget_ms is not None else None)
        # the clusters at the two ends of each cut edge
        ou, ov = owner[g._edge_u], owner[g._edge_v]
        cut = ou != ov
        # cluster ids in visiting order, and each cluster's position in it
        order = np.argsort(-sizes, kind="stable")
        size_at = sizes[order]
        position = np.empty(k0, dtype=np.int64)
        position[order] = np.arange(k0)
        pu, pv = position[ou[cut]], position[ov[cut]]
        keys, counts = np.unique(np.minimum(pu, pv) * k0
                                 + np.maximum(pu, pv), return_counts=True)
        # complete pairs as keys p * k0 + q (p < q), by p then q
        keys = keys[counts == size_at[keys // k0] * size_at[keys % k0]]
        complete = set(keys.tolist())
        ps, qs = np.divmod(keys, k0)
        # root[b]: the cluster that absorbed b, or b
        root = list(range(k0))
        turn, absorbed = -1, []
        for p, q, a, b in zip(ps.tolist(), qs.tolist(), order[ps].tolist(),
                              order[qs].tolist()):
            if p != turn:
                turn, absorbed = p, []
            if not (alive[a] and alive[b]):
                continue
            if deadline is not None and perf_counter() > deadline:
                break
            if absorbed and any(r * k0 + q not in complete
                                for r in absorbed):
                continue
            absorbed.append(q)
            root[b] = a
            alive[b] = False
        owner = np.array(root, dtype=np.int64)[owner]
    # survivors renumbered 0, 1, ... in id order
    renumber = np.cumsum(alive, dtype=np.int64) - 1
    return Clustering._of_assignment(renumber[owner].tolist(), sum(alive))


def apply_merge(g: Graph, result: CDResult,
                budget_ms: float | None = None) -> CDResult:
    """Post-process a pipeline result with clique-preserving merges and
    rescore it; the pivot-stage audit fields carry over unchanged."""
    if g is not result.graph:
        raise ValueError("g is not the graph the result was computed on")
    t0 = perf_counter()
    merged = merge_clusters(g, result.clustering, budget_ms=budget_ms)
    merge_ms = (perf_counter() - t0) * 1000.0
    runtime_ms = dict(result.runtime_ms)
    runtime_ms["merge"] = merge_ms
    out = _score(g, result.certificate, merged, result.audit,
                 result.strategy, result.seed, True, runtime_ms)
    if out.deletions > result.deletions:
        raise InvariantError("merge increased deletions")
    return out
