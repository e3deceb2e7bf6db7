"""Modularity and seeded Louvain community detection.

Directed inputs are symmetrized (max of antiparallel weights) before
anything else. The local-move phase sweeps nodes in a seeded shuffled
order and only accepts moves whose modularity gain exceeds ``min_gain``;
an optional hook observes per-phase modularity so tests can assert the
two-phase loop never decreases it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import generator
from .graph import EdgeSet


def modularity(g: EdgeSet, labels: np.ndarray, resolution: float = 1.0) -> float:
    """Q = sum_c (e_c / m - (d_c / 2m)^2) over the symmetrized view.

    e_c is intra-community edge weight, d_c the community degree sum and
    m the total edge weight. An empty graph has modularity 0.
    """
    labels = np.asarray(labels)
    if len(labels) != g.n_nodes:
        raise ValueError("labels length must equal n_nodes")
    sym = g.undirected_view()
    m = float(sym.weights.sum())
    if m == 0.0:
        return 0.0
    intra = labels[sym.src] == labels[sym.dst]
    _, dense = np.unique(labels, return_inverse=True)
    n_comm = dense.max() + 1
    e_c = np.bincount(dense[sym.src[intra]],
                      weights=sym.weights[intra], minlength=n_comm)
    deg = np.zeros(g.n_nodes)
    np.add.at(deg, sym.src, sym.weights)
    np.add.at(deg, sym.dst, sym.weights)
    d_c = np.bincount(dense, weights=deg, minlength=n_comm)
    return float(np.sum(e_c / m - resolution * (d_c / (2.0 * m)) ** 2))


@dataclass
class CommunityAssignment:
    """Result of community detection on a fixed node universe."""

    labels: np.ndarray
    modularity: float
    n_levels: int
    seed: int

    @property
    def n_communities(self) -> int:
        return len(np.unique(self.labels)) if len(self.labels) else 0

    def members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.labels == c)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_communities)


class _LevelGraph:
    """Weighted working graph; A[v][v] counts internal weight twice so
    degrees are plain row sums."""

    def __init__(self, adj: list[dict], total: float) -> None:
        self.adj = adj
        self.n = len(adj)
        self.deg = np.array([sum(d.values()) for d in adj])
        self.two_m = total  # sum of all degrees = 2m

    @staticmethod
    def from_edgeset(g: EdgeSet) -> "_LevelGraph":
        sym = g.undirected_view()
        adj: list[dict] = [dict() for _ in range(g.n_nodes)]
        for u, v, w in zip(sym.src, sym.dst, sym.weights):
            w = float(w)
            adj[u][int(v)] = adj[u].get(int(v), 0.0) + w
            adj[v][int(u)] = adj[v].get(int(u), 0.0) + w
        total = 2.0 * float(sym.weights.sum())
        return _LevelGraph(adj, total)

    def aggregate(self, comm: np.ndarray) -> "_LevelGraph":
        n_comm = comm.max() + 1
        adj: list[dict] = [dict() for _ in range(n_comm)]
        for v, nbrs in enumerate(self.adj):
            cv = int(comm[v])
            row = adj[cv]
            for u, w in nbrs.items():
                cu = int(comm[u])
                row[cu] = row.get(cu, 0.0) + w
        return _LevelGraph(adj, self.two_m)


def _one_level(
    graph: _LevelGraph,
    rng: np.random.Generator,
    resolution: float,
    min_gain: float,
) -> tuple[np.ndarray, bool]:
    """Local-move phase. Returns (community per node, any move made)."""
    n = graph.n
    comm = np.arange(n)
    tot = graph.deg.copy().astype(np.float64)
    two_m = graph.two_m
    if two_m == 0:
        return comm, False
    moved_any = False
    while True:
        moved = 0
        for v in rng.permutation(n):
            v = int(v)
            cv = comm[v]
            k_v = graph.deg[v]
            # weights from v to each adjacent community, self excluded
            w_to: dict[int, float] = {}
            for u, w in graph.adj[v].items():
                if u != v:
                    cu = comm[u]
                    w_to[cu] = w_to.get(cu, 0.0) + w
            tot[cv] -= k_v
            base = w_to.get(cv, 0.0) - resolution * tot[cv] * k_v / two_m
            best_c, best_gain = cv, 0.0
            for c in sorted(w_to):
                if c == cv:
                    continue
                gain = ((w_to[c] - resolution * tot[c] * k_v / two_m)
                        - base) * 2.0 / two_m
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            move = best_c != cv and best_gain > min_gain
            target = best_c if move else cv
            tot[target] += k_v
            if move:
                comm[v] = target
                moved += 1
        moved_any = moved_any or moved > 0
        if moved == 0:
            break
    return comm, moved_any


def louvain(
    g: EdgeSet,
    seed: int,
    resolution: float = 1.0,
    min_gain: float = 1e-7,
    phase_hook=None,
) -> CommunityAssignment:
    """Two-phase Louvain with deterministic seeded sweeps.

    ``phase_hook(level, q_before, q_after)`` is called once per level with
    ``modularity`` of g's node partition before and after the level's
    local-move phase.
    The reported modularity is modularity(g, labels) exactly.
    """
    n = g.n_nodes
    mapping = np.arange(n)
    graph = _LevelGraph.from_edgeset(g)
    rng = generator(seed, "louvain")
    level = 0
    while True:
        comm, moved = _one_level(graph, rng, resolution, min_gain)
        # dense relabel ordered by first appearance over node ids
        uniq, dense = np.unique(comm, return_inverse=True)
        if phase_hook is not None:
            phase_hook(level, modularity(g, mapping, resolution),
                       modularity(g, dense[mapping], resolution))
        if moved:
            mapping = dense[mapping]
        if not moved or len(uniq) == graph.n:
            break
        graph = graph.aggregate(dense)
        level += 1
    # canonical labels: communities numbered by their smallest member
    order = np.full(mapping.max() + 1, n, dtype=np.int64)
    for node in range(n - 1, -1, -1):
        order[mapping[node]] = node
    rank = {c: i for i, c in enumerate(np.argsort(order, kind="stable"))
            if order[c] < n}
    labels = np.array([rank[c] for c in mapping], dtype=np.int64)
    return CommunityAssignment(
        labels=labels,
        modularity=modularity(g, labels, resolution),
        n_levels=level + 1,
        seed=seed,
    )
