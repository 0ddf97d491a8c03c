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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

from .graph import Graph, InvariantError
from .pivoting import (Clustering, PivotAudit, PivotStrategy,
                       adjacency_lists, pivot_lists)
from .stc import DEFAULT_ARC_BUDGET, solve_stc_lp
from .wedges import maximal_wedge_set_fast


@dataclass
class Certificate:
    """A certified lower bound on graph and its weak edges E_W, held only
    as a mask (results keep this for rescoring, never the stripped graph)."""

    algorithm: str
    graph: Graph
    wedges: int | None
    lp_value_half_units: int | None
    lower_bound_half_units: int
    # weak_mask[e]: edge e of graph is in E_W
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

    @property
    def weak_set(self) -> set[int]:
        """E_W as packed keys, in a new set on each read."""
        return self.certificate.graph.masked_keys(self.certificate.weak_mask)

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


@dataclass
class _Preparation:
    """Stage 1, shared by every pivot run on one input: the certificate,
    the adjacency lists of the graph stripped of its weak edges, taken
    from the graph's CSR through the weak mask (each pivot only reads
    them), and the milliseconds both took."""

    cert: Certificate
    adj: list[list[int]]
    ms: float


def _prepare(g: Graph, algorithm: str, arc_budget: int = DEFAULT_ARC_BUDGET
             ) -> _Preparation:
    t0 = perf_counter()
    if algorithm == "mfp":
        ws = maximal_wedge_set_fast(g)
        wedges, lp_half, values = ws.wedge_count, None, None
        lower_bound, weak_mask = 2 * wedges, ws.weak_mask
    elif algorithm == "stclp":
        sol = solve_stc_lp(g, arc_budget)
        wedges, lp_half = None, sol.objective_half_units
        values = np.array(sol.values, dtype=np.int64)
        lower_bound, weak_mask = sol.objective_half_units, values >= 1
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    cert = Certificate(algorithm, g, wedges, lp_half, lower_bound,
                       weak_mask, values)
    adj = adjacency_lists(g, ~weak_mask)
    return _Preparation(cert, adj, (perf_counter() - t0) * 1000.0)


def _score(cert: Certificate, clustering: Clustering, audit: PivotAudit,
           strategy: str, seed: int | None, merged: bool,
           runtime_ms: dict[str, float | None]) -> CDResult:
    g, weak, values = cert.graph, cert.weak_mask, cert.values
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
    # every cluster must be a clique of g
    sizes = np.fromiter(map(len, clustering.clusters), dtype=np.int64,
                        count=len(clustering.clusters))
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
        runtime_ms=runtime_ms, certificate=cert)


def _finish(prep: _Preparation, strategy: PivotStrategy) -> CDResult:
    t0 = perf_counter()
    clustering, audit = pivot_lists(prep.adj, strategy)
    pivot_ms = (perf_counter() - t0) * 1000.0
    runtime_ms = {"lower_bound": prep.ms, "pivot": pivot_ms, "merge": None}
    return _score(prep.cert, clustering, audit, strategy.kind, strategy.seed,
                  False, runtime_ms)


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
    over a single stage-1 preparation; returns the best run (fewest
    deletions, earliest seed on ties) and summary statistics."""
    if trials < 1:
        raise ValueError("trials must be positive")
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

    Each pass visits the clusters largest-first (ties by cluster id), and
    each visited cluster absorbs every later cluster it still can, in that
    order.  Passes repeat until one makes no merge or a budget runs out;
    budget_ms must be a non-negative number of milliseconds (inf means no
    budget).  Deletions never increase, so stopping early is always safe.

    Call a pair of clusters complete when every pair of their members is
    an edge.  A cluster grows only during its own turn, so when a takes
    its turn, every later cluster is as the pass found it.  A later b can
    then join a, which has absorbed b1, b2, ... so far in this turn,
    exactly when each of (a, b), (b1, b), (b2, b), ... is complete.  So a
    pass starts with one numpy count of the cut edges per pair of
    clusters, a pair being complete when its count is the product of the
    two sizes, and only the complete pairs reach Python.  A pass costs
    that count (a sort of the cut edges) plus, per complete pair, one set
    lookup for each cluster absorbed earlier in the turn; the pass that
    finds nothing to merge is the count alone.

    clustering must partition g's nodes into non-empty clusters, as
    pivoting and merging do (ValueError otherwise).  Its assignment is
    read; of its clusters, only their sizes, which must match it.
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
    sizes = np.bincount(owner, minlength=k0).tolist()
    if 0 in sizes:
        raise ValueError(f"cluster {sizes.index(0)} is empty")
    listed = list(map(len, clustering.clusters))
    if sizes != listed:
        c = next(c for c in range(k0) if sizes[c] != listed[c])
        raise ValueError(f"cluster {c} lists {listed[c]} nodes, but the "
                         f"assignment gives it {sizes[c]}")
    # the clusters at the two ends of each cut edge
    ou, ov = owner[g._edge_u], owner[g._edge_v]
    cut = ou != ov
    ou, ov = ou[cut], ov[cut]
    alive = [True] * k0
    root = list(range(k0))
    deadline = (perf_counter() + budget_ms / 1000.0
                if budget_ms is not None else None)
    passes = 0
    out_of_time = False
    while not out_of_time and (max_passes is None or passes < max_passes):
        passes += 1
        sizes_now = np.array(sizes, dtype=np.int64)
        live = np.flatnonzero(alive)
        live = live[np.argsort(-sizes_now[live], kind="stable")]
        size_at = sizes_now[live]
        k = len(live)
        position = np.empty(k0, dtype=np.int64)
        position[live] = np.arange(k)
        pu, pv = position[ou], position[ov]
        keys, counts = np.unique(np.minimum(pu, pv) * k + np.maximum(pu, pv),
                                 return_counts=True)
        # complete pairs as keys p * k + q (p < q), by p then q
        keys = keys[counts == size_at[keys // k] * size_at[keys % k]]
        complete = set(keys.tolist())
        ps, qs = np.divmod(keys, k)
        merged_any = False
        turn, absorbed = -1, []
        for p, q, a, b in zip(ps.tolist(), qs.tolist(), live[ps].tolist(),
                              live[qs].tolist()):
            if p != turn:
                turn, absorbed = p, []
            if not (alive[a] and alive[b]):
                continue
            if deadline is not None and perf_counter() > deadline:
                out_of_time = True
                break
            if absorbed and any(r * k + q not in complete for r in absorbed):
                continue
            absorbed.append(q)
            root[b] = a
            alive[b] = False
            sizes[a] += sizes[b]
            merged_any = True
        if not merged_any:
            break
        root_of = np.array(root, dtype=np.int64)
        owner = root_of[owner]
        ou, ov = root_of[ou], root_of[ov]
        cut = ou != ov
        ou, ov = ou[cut], ov[cut]
    # survivors renumbered 0, 1, ... in id order; members in that order,
    # each cluster's sorted
    owner = (np.cumsum(alive, dtype=np.int64) - 1)[owner]
    members = np.argsort(owner, kind="stable").tolist()
    bounds = [0] + np.cumsum(np.bincount(owner)).tolist()
    return Clustering(owner.tolist(),
                      [members[i:j] for i, j in zip(bounds, bounds[1:])])


def apply_merge(g: Graph, result: CDResult,
                budget_ms: float | None = None) -> CDResult:
    """Post-process a pipeline result with clique-preserving merges and
    rescore it; the pivot-stage audit fields carry over unchanged."""
    if g is not result.certificate.graph:
        raise ValueError("g is not the graph the result was computed on")
    t0 = perf_counter()
    merged = merge_clusters(g, result.clustering, budget_ms=budget_ms)
    merge_ms = (perf_counter() - t0) * 1000.0
    runtime_ms = dict(result.runtime_ms)
    runtime_ms["merge"] = merge_ms
    out = _score(result.certificate, merged, result.audit, result.strategy,
                 result.seed, True, runtime_ms)
    if out.deletions > result.deletions:
        raise InvariantError("merge increased deletions")
    return out
