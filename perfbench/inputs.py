"""Seeded input generators owned by the benchmark.

The program under test never sees these functions: each workload's graphs
are generated here, written once as edge-list files into a cache directory
and handed to ``parse_edge_list``.  They do not use
``clusterdel.generators`` on purpose, so a change to the program's own
generators cannot change a workload.

A planted-clusters graph is a disjoint union of cliques with fixed sizes.
A seeded share of the clique edges is dropped and a fixed number of noise
edges is added between random nodes.  Only which edges are dropped, which
noise edges appear and how the nodes are labelled depend on the seed, so
every seed gives graphs of nearly the same size and difficulty.
"""

from __future__ import annotations

import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bump when the generator's code changes; cache files are keyed by it and
# by the spec, so a stale file is never reused.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class PlantedSpec:
    """One planted-clusters graph.

    ``sizes`` lists the clique sizes, repeated ``repeat`` times.
    ``drop`` is the chance that a clique edge is left out.  ``noise`` is
    the number of extra edges drawn between random nodes.  With
    ``hub_exponent`` set, one endpoint of every noise edge is drawn with
    weight rank**-hub_exponent over a seeded node ranking, which yields a
    few hub nodes; otherwise both endpoints are uniform.
    """

    name: str
    sizes: tuple[int, ...]
    repeat: int
    drop: float
    noise: int
    hub_exponent: float | None = None

    @property
    def n(self) -> int:
        return sum(self.sizes) * self.repeat


def planted_edges(spec: PlantedSpec, seed: int) -> np.ndarray:
    """Edges of the graph as an (m, 2) array of node labels, file order.

    Labels are a seeded permutation of 0..n-1 and the rows are shuffled,
    so neither node ids nor edge order reveal the planted clusters.
    Duplicate and self-loop noise draws are removed.
    """
    rng = np.random.default_rng(
        [seed, GENERATOR_VERSION, zlib.crc32(spec.name.encode())])
    parts = []
    start = 0
    for size in spec.sizes * spec.repeat:
        iu, ju = np.triu_indices(size, k=1)
        parts.append(np.stack([iu + start, ju + start], axis=1))
        start += size
    clique = np.concatenate(parts)
    clique = clique[rng.random(len(clique)) >= spec.drop]
    n = spec.n
    if spec.hub_exponent is None:
        a = rng.integers(0, n, spec.noise)
    else:
        ranked = rng.permutation(n)
        weights = np.arange(1, n + 1, dtype=np.float64) ** -spec.hub_exponent
        a = ranked[rng.choice(n, spec.noise, p=weights / weights.sum())]
    b = rng.integers(0, n, spec.noise)
    noise = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    noise = noise[noise[:, 0] != noise[:, 1]]
    edges = np.concatenate([clique, noise])
    keys = np.unique(edges[:, 0] * n + edges[:, 1])
    edges = np.stack([keys // n, keys % n], axis=1)
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return rng.permutation(n)[edges]


def write_edge_list(path: Path, edges: np.ndarray) -> None:
    """Write 'u v' lines atomically (temporary file, then rename)."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    np.savetxt(tmp, edges, fmt="%d")
    os.replace(tmp, path)


def cache_path(cache_dir: Path, spec: PlantedSpec, seed: int) -> Path:
    key = zlib.crc32(repr((GENERATOR_VERSION, spec)).encode())
    return cache_dir / f"{spec.name}-{seed}-{key:08x}.txt"


def ensure_inputs(cache_dir: Path, specs: list[PlantedSpec],
                  seed: int) -> list[Path]:
    """Edge-list files for the specs, generated once per seed.

    Missing files are generated in a child process, so the generator's
    memory never counts towards the measured process's peak RSS.
    """
    paths = [cache_path(cache_dir, spec, seed) for spec in specs]
    missing = [spec.name for spec, p in zip(specs, paths) if not p.exists()]
    if missing:
        cache_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        str(cache_dir), str(seed), *missing],
                       check=True, timeout=120)
    return paths


def _generate(cache_dir: Path, seed: int, names: list[str]) -> None:
    from workloads import SPECS_BY_NAME
    for name in names:
        spec = SPECS_BY_NAME[name]
        write_edge_list(cache_path(cache_dir, spec, seed),
                        planted_edges(spec, seed))


if __name__ == "__main__":
    _generate(Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:])
