"""The benchmark's workloads: which graphs, and which pipeline calls.

Every workload runs the same shape of round on each of its graphs: one
pipeline call per fixed pivot strategy, then one best-of-T random run,
then, where the workload merges, ``apply_merge`` on each result.  The
calls use only the public pipeline functions; ``run.replay`` runs the
same work again through the public building blocks, for the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from inputs import PlantedSpec

# Seeds of the best-of-T random pivots: fixed, so that a workload's calls
# depend on --seed only through its input graphs.
RANDOM_BASE_SEED = 1


@dataclass(frozen=True)
class Workload:
    """``algorithm`` is "mfp" or "stclp"; ``strategies`` are the fixed
    pivot strategies run one call each; ``trials`` is T of the best-of-T
    random run; ``merge`` says whether every result is merged."""

    name: str
    specs: tuple[PlantedSpec, ...]
    algorithm: str
    strategies: tuple[str, ...]
    trials: int
    merge: bool


# Many mid-sized graphs rather than one large one: the push-relabel solve
# time of a single large planted graph varies by about 16% (quartile
# spread) from seed to seed, while the summed time over several smaller
# graphs of the same total size varies by about 3%.
_LP_SPEC = PlantedSpec("lp", sizes=(8, 10, 12, 14), repeat=6, drop=0.05,
                       noise=100)
_PIVOT_SPEC = PlantedSpec("pivot", sizes=(2, 3, 4, 5), repeat=40, drop=0.3,
                          noise=50)
_BIG_SPEC = PlantedSpec("big", sizes=(6, 8, 10, 12, 14, 16), repeat=270,
                        drop=0.1, noise=11_500, hub_exponent=1.0)

WORKLOADS = {w.name: w for w in (
    Workload("planted-lp",
             tuple(replace(_LP_SPEC, name=f"lp{i}") for i in range(8)),
             "stclp", ("degree",), 8, True),
    Workload("planted-pivot",
             tuple(replace(_PIVOT_SPEC, name=f"pivot{i}") for i in range(4)),
             "mfp", ("degree", "ratio"), 8, True),
    Workload("big-mfp", (_BIG_SPEC,), "mfp", ("degree",), 2, False),
)}

SPECS_BY_NAME = {s.name: s for w in WORKLOADS.values() for s in w.specs}
