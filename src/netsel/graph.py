"""Edge-set container and neighborhood/pair machinery.

An EdgeSet is immutable once built: adjacency is precomputed so concurrent
readers need no locks. Directed sets keep (src, dst) pairs; undirected sets
canonicalize pairs as (min, max). The symmetrized view of a directed graph
merges antiparallel edges with the max of their weights.
"""

from __future__ import annotations

import functools
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._rng import generator


class GraphError(ValueError):
    """Fatal problem with graph inputs."""


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Canonical int64 key for undirected pairs; caller guarantees u < v."""
    return u.astype(np.int64) * n + v.astype(np.int64)


@dataclass
class EdgeSet:
    """Simple graph (no self loops, no duplicate edges) over n_nodes."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    directed: bool
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (len(self.src) == len(self.dst) == len(self.weights)):
            raise GraphError("edge columns must have equal length")
        if len(self.src):
            if self.src.min() < 0 or self.dst.min() < 0:
                raise GraphError("negative node id")
            if max(self.src.max(), self.dst.max()) >= self.n_nodes:
                raise GraphError("node id out of range")
            if np.any(self.src == self.dst):
                raise GraphError("self loop")
        if not self.directed:
            lo = np.minimum(self.src, self.dst)
            hi = np.maximum(self.src, self.dst)
            self.src, self.dst = lo, hi
        order = np.lexsort((self.dst, self.src))
        self.src = self.src[order]
        self.dst = self.dst[order]
        self.weights = self.weights[order]
        key = self.src * self.n_nodes + self.dst
        if len(key) > 1 and np.any(key[1:] == key[:-1]):
            raise GraphError("duplicate edge")

    @property
    def n_edges(self) -> int:
        return len(self.src)

    @property
    def density(self) -> float:
        n = self.n_nodes
        budget = n * (n - 1) if self.directed else n * (n - 1) // 2
        return self.n_edges / budget if budget else 0.0

    @functools.cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, indices): out-neighbors if directed,
        both endpoints if undirected. Neighbor lists are sorted."""
        if self.directed:
            heads, tails = self.src, self.dst
        else:
            heads = np.concatenate([self.src, self.dst])
            tails = np.concatenate([self.dst, self.src])
        order = np.lexsort((tails, heads))
        heads = heads[order]
        tails = tails[order]
        return np.searchsorted(heads, np.arange(self.n_nodes + 1)), tails

    def neighbors(self, i: int) -> np.ndarray:
        """Out-neighbors (directed) or adjacent nodes (undirected)."""
        if not 0 <= i < self.n_nodes:
            raise GraphError(f"node {i} out of range")
        indptr, indices = self._adjacency
        return indices[indptr[i]:indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        indptr, _ = self._adjacency
        return np.diff(indptr)

    def undirected_view(self) -> "EdgeSet":
        """Symmetrized graph; antiparallel weights merge with max."""
        return self._und if self.directed else self

    @functools.cached_property
    def _und(self) -> "EdgeSet":
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        key = _pair_keys(lo, hi, self.n_nodes)
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        w_s = self.weights[order]
        uniq, start = np.unique(key_s, return_index=True)
        wmax = np.maximum.reduceat(w_s, start) if len(w_s) else w_s
        return EdgeSet(
            n_nodes=self.n_nodes,
            src=uniq // self.n_nodes,
            dst=uniq % self.n_nodes,
            weights=wmax,
            directed=False,
            provenance=dict(self.provenance, symmetrized=True),
        )

    def pair_keys(self) -> np.ndarray:
        """Sorted canonical keys of the undirected pair set."""
        return self._keys

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        und = self.undirected_view()
        return _pair_keys(und.src, und.dst, self.n_nodes)

    def has_pair(self, u: int, v: int) -> bool:
        if u == v:
            return False
        lo, hi = (u, v) if u < v else (v, u)
        keys = self.pair_keys()
        k = lo * self.n_nodes + hi
        pos = np.searchsorted(keys, k)
        return pos < len(keys) and keys[pos] == k


def bfs_neighborhood(g: EdgeSet, i: int, k: int = 200) -> np.ndarray:
    """First k nodes reached from i, excluding i.

    Expansion is level by level with each level visited in ascending node
    id order, so bfs(i, k1) is a prefix of bfs(i, k2) for k1 <= k2.
    """
    if k < 0:
        raise GraphError("k must be >= 0")
    if not 0 <= i < g.n_nodes:
        raise GraphError(f"node {i} out of range")
    indptr, indices = g.undirected_view()._adjacency
    visited = np.zeros(g.n_nodes, dtype=bool)
    visited[i] = True
    levels = []
    reached = 0
    frontier = np.array([i], dtype=np.int64)
    while len(frontier) and reached < k:
        # the frontier's neighbour slices in one gather; the next level is
        # their unvisited nodes, ascending
        nb = indices[_gather(indptr, frontier)[1]]
        frontier = np.unique(nb[~visited[nb]])
        visited[frontier] = True
        levels.append(frontier)
        reached += len(frontier)
    return np.concatenate([np.empty(0, np.int64), *levels])[:k]


def _gather(indptr: np.ndarray, rows: np.ndarray):
    """CSR row selection: the selected rows' indptr and the positions of
    their entries in the source's indices and data, row after row."""
    starts = indptr[rows]
    return _expand(starts, indptr[rows + 1] - starts)


def _expand(starts: np.ndarray, counts: np.ndarray):
    """The indptr of runs of ``counts`` entries from ``starts`` laid end to
    end, and the source positions of their entries, run after run."""
    out = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    at = np.arange(out[-1]) + np.repeat(starts - out[:-1], counts)
    return out, at


def induced_pairs(
    g: EdgeSet, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges and non-edges of the induced subgraph on ``nodes``.

    Returns two (m, 2) arrays of global-id pairs (u < v). Uses the
    symmetrized view.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    m = len(nodes)
    local = np.arange(m)
    indptr, indices = g.undirected_view()._adjacency
    # every scope node's neighbour slice in one gather, then one
    # membership test of those neighbours against the sorted scope
    ptr, at = _gather(indptr, nodes)
    row = np.repeat(local, np.diff(ptr))
    nb = indices[at]
    col = np.minimum(np.searchsorted(nodes, nb), m - 1)
    hit = nodes[col] == nb
    adj = np.zeros((m, m), dtype=bool)
    adj[row[hit], col[hit]] = True
    # np.triu_indices(m, 1), without its fixed cost of tens of microseconds
    iu, ju = np.nonzero(local[:, None] < local)
    on = adj[iu, ju]
    edges = np.column_stack([nodes[iu[on]], nodes[ju[on]]])
    nonedges = np.column_stack([nodes[iu[~on]], nodes[ju[~on]]])
    return edges, nonedges


def egonet(g: EdgeSet, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, edges and non-edges of the egonet of i.

    The egonet is the induced subgraph on {i} union N(i) in the symmetrized
    view.
    """
    sym = g.undirected_view()
    nodes = np.unique(np.append(sym.neighbors(i), i))
    edges, nonedges = induced_pairs(g, nodes)
    return nodes, edges, nonedges


def split_edges_random(g: EdgeSet, fractions, seed: int) -> list[EdgeSet]:
    """Random disjoint edge split with floor sizes; the remainder is handed
    out one edge at a time starting from the first fraction."""
    fractions = [float(f) for f in fractions]
    if any(f < 0 for f in fractions):
        raise GraphError("negative fraction")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise GraphError(f"fractions must sum to 1, got {sum(fractions)}")
    n_e = g.n_edges
    sizes = [int(np.floor(f * n_e)) for f in fractions]
    rest = n_e - sum(sizes)
    pos = 0
    while rest > 0:
        sizes[pos % len(sizes)] += 1
        rest -= 1
        pos += 1
    rng = generator(seed, "edge-split")
    perm = rng.permutation(n_e)
    parts = []
    start = 0
    for idx, size in enumerate(sizes):
        sel = perm[start:start + size]
        start += size
        parts.append(EdgeSet(
            n_nodes=g.n_nodes,
            src=g.src[sel],
            dst=g.dst[sel],
            weights=g.weights[sel],
            directed=g.directed,
            provenance=dict(g.provenance, split_part=idx,
                            split_fractions=fractions),
        ))
    return parts


def absent_pairs(n: int, keys: np.ndarray, count: int,
                 seed: int) -> np.ndarray:
    """Uniform sample of ``count`` distinct node pairs of an n-node
    universe whose canonical keys are not in ``keys`` (sorted, unique).

    Rejection sampling with dedup; enumeration of the complement when the
    requested count is a large share of it (or the universe is small).
    Returns an (count, 2) array with u < v. Fatal if fewer than ``count``
    such pairs exist.
    """
    population = n * (n - 1) // 2 - len(keys)
    if count > population:
        raise GraphError(
            f"requested {count} non-edges, only {population} exist")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    rng = generator(seed, "nonedges")
    total_pairs = n * (n - 1) // 2
    if total_pairs <= 2_000_000 or 2 * count >= population:
        if total_pairs > 50_000_000:
            raise GraphError("non-edge enumeration too large; "
                             "reduce the requested count")
        iu, ju = np.triu_indices(n, 1)
        all_keys = _pair_keys(iu, ju, n)
        mask = ~np.isin(all_keys, keys, assume_unique=True)
        cand = all_keys[mask]
        chosen = rng.choice(len(cand), size=count, replace=False)
        sel = cand[np.sort(chosen)]
    else:
        got: list[np.ndarray] = []
        seen = np.empty(0, dtype=np.int64)
        need = count
        while need > 0:
            draw = rng.integers(0, n, size=(max(4 * need, 1024), 2))
            lo = np.minimum(draw[:, 0], draw[:, 1])
            hi = np.maximum(draw[:, 0], draw[:, 1])
            ok = lo != hi
            k = _pair_keys(lo[ok], hi[ok], n)
            # drop known edges and already-drawn pairs, keep first occurrences
            k = k[~np.isin(k, keys)]
            k = k[~np.isin(k, seen)]
            _, first = np.unique(k, return_index=True)
            k = k[np.sort(first)]
            take = k[:need]
            got.append(take)
            seen = np.union1d(seen, take)
            need = count - sum(len(x) for x in got)
        sel = np.concatenate(got)
    return np.column_stack([sel // n, sel % n])


def incident_nonedges(
    n: int, union_keys: np.ndarray, node: int, count: int, seed: int
) -> np.ndarray:
    """Seeded sample of ``count`` partners j such that (node, j) is absent
    from the union pair set. Returns fewer when the complement at this node
    is exhausted."""
    others = np.delete(np.arange(n, dtype=np.int64), node)
    if len(union_keys):
        lo = np.minimum(others, node)
        hi = np.maximum(others, node)
        k = _pair_keys(lo, hi, n)
        pos = np.searchsorted(union_keys, k)
        pos_c = np.minimum(pos, len(union_keys) - 1)
        is_edge = (pos < len(union_keys)) & (union_keys[pos_c] == k)
        cand = others[~is_edge]
    else:
        cand = others
    if len(cand) <= count:
        return cand
    rng = generator(seed, "incident-nonedges", node)
    chosen = rng.choice(len(cand), size=count, replace=False)
    return cand[chosen]


def load_explicit_edges(path: str | Path, n_nodes: int) -> EdgeSet:
    """Read an undirected edge list of (u, v) lines.

    Out-of-range ids are fatal; self loops and duplicates are dropped and
    counted in the provenance.
    """
    path = Path(path)
    if not path.exists():
        raise GraphError(f"edge file not found: {path}")
    us: list[int] = []
    vs: list[int] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.replace(",", " ").split()
            if len(tok) < 2:
                raise GraphError(f"{path}:{lineno + 1}: expected (u, v)")
            u, v = int(tok[0]), int(tok[1])
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise GraphError(
                    f"{path}:{lineno + 1}: node id out of range [0, {n_nodes})")
            us.append(u)
            vs.append(v)
    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    loops = u == v
    n_loops = int(loops.sum())
    u, v = u[~loops], v[~loops]
    key = _pair_keys(np.minimum(u, v), np.maximum(u, v), n_nodes)
    uniq, first = np.unique(key, return_index=True)
    n_dups = len(key) - len(uniq)
    first = np.sort(first)
    return EdgeSet(
        n_nodes=n_nodes,
        src=u[first],
        dst=v[first],
        weights=np.ones(len(first)),
        directed=False,
        provenance={"model": "EXPLICIT", "source": str(path),
                    "self_loops_dropped": n_loops,
                    "duplicates_dropped": n_dups},
    )


SAVE_ROWS = 2**15  # edge rows formatted at once


def save_edgeset(g: EdgeSet, path: str | Path) -> None:
    """TSV rows (u, v, weight) under a JSON provenance header line, written
    SAVE_ROWS rows at a time."""
    header = dict(g.provenance)
    header.update(n_nodes=g.n_nodes, directed=g.directed, n_edges=g.n_edges)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        for a in range(0, g.n_edges, SAVE_ROWS):
            b = a + SAVE_ROWS
            fh.write("".join(map("{}\t{}\t{:.10g}\n".format,
                                 g.src[a:b].tolist(), g.dst[a:b].tolist(),
                                 g.weights[a:b].tolist())))


_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def load_edgeset(path: str | Path) -> EdgeSet:
    """Read a file ``save_edgeset`` wrote. A row that is not three
    tab-separated fields, or a row count other than the header's
    ``n_edges``, is an error naming the file."""
    with open(path) as fh:
        head = fh.readline()
        body = fh.read()
    if not head.startswith("# "):
        raise GraphError(f"{path}: missing provenance header")
    header = json.loads(head[2:])
    rows = np.empty(0, dtype=_EDGE_ROW)
    if body.strip():  # loadtxt warns on input without rows
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=_EDGE_ROW,
                              delimiter="\t", ndmin=1)
        except ValueError as exc:
            raise GraphError(f"{path}: {exc}") from None
    n_nodes = int(header.pop("n_nodes"))
    directed = bool(header.pop("directed"))
    n_edges = header.pop("n_edges", None)
    if n_edges is not None and n_edges != len(rows):
        raise GraphError(f"{path}: header says {n_edges} edges, "
                         f"found {len(rows)} rows")
    return EdgeSet(
        n_nodes=n_nodes,
        src=rows["u"].copy(),
        dst=rows["v"].copy(),
        weights=rows["w"].copy(),
        directed=directed,
        provenance=header,
    )


LOCALITIES = ("local-adjacency", "local-bfs", "community", "ensemble",
              "global")
ORDERINGS = ("degree", "attr-sum", "attr-unique", "random")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Where a test instance's training data comes from.

    The constants default to the sizes used throughout: bfs_k nodes
    collected in search order, ensemble_k member nodes with ensemble_knn
    voters, global_sample training nodes for the global scope.
    """

    locality: str
    bfs_k: int = 200
    ensemble_k: int = 30
    ensemble_knn: int = 3
    ensemble_order: str = "degree"
    global_sample: int = 500

    def __post_init__(self) -> None:
        if self.locality not in LOCALITIES:
            raise GraphError(f"unknown locality: {self.locality}")
        if self.bfs_k < 1:
            raise GraphError("bfs_k must be >= 1")
        if self.ensemble_knn > self.ensemble_k:
            raise GraphError("ensemble_knn must be <= ensemble_k")
        if self.ensemble_order not in ORDERINGS:
            raise GraphError(
                f"unknown ensemble ordering: {self.ensemble_order}")
        if self.global_sample < 1:
            raise GraphError("global_sample must be >= 1")

    def key(self) -> str:
        """Canonical short form used inside config keys."""
        if self.locality == "local-bfs" and self.bfs_k != 200:
            return f"local-bfs:{self.bfs_k}"
        if self.locality == "ensemble":
            return f"ensemble:{self.ensemble_order}"
        if self.locality == "global" and self.global_sample != 500:
            return f"global:{self.global_sample}"
        return self.locality

    @staticmethod
    def parse(text: str) -> "NeighborhoodSpec":
        """Inverse of key() for config files and CLI flags. An argument on
        a locality that takes none, or a size that is not an integer,
        raises GraphError."""
        name, sep, arg = text.partition(":")
        if name == "ensemble":
            return NeighborhoodSpec(
                "ensemble", ensemble_order=arg or "degree")
        if not sep or name not in LOCALITIES:
            return NeighborhoodSpec(name)
        size = {"local-bfs": "bfs_k", "global": "global_sample"}.get(name)
        if size is None or not re.fullmatch(r"-?[0-9]+", arg):
            raise GraphError(f"bad locality {text!r}: {name} takes "
                             + ("an integer size" if size else "no argument"))
        return NeighborhoodSpec(name, **{size: int(arg)})
