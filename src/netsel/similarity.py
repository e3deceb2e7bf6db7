"""Attribute-intersection similarity and network model construction.

Two measures over non-negative sparse attribute vectors:

* intersection: sum_d min(a_d, b_d)
* normalized intersection: sum_d min(a_d, b_d) / sum_d max(a_d, b_d),
  with 0/0 defined as 0. Bounded in [0, 1] and invariant under joint
  scaling of both vectors.

All-pairs similarities come from an inverted index over items: only pairs
that co-support at least one item are materialized, so cost scales with
sum over items of (nodes per item)^2 rather than with n^2. This is the
documented bottleneck for very popular items.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AttributeMatrix
from .graph import EdgeSet

MEASURES = ("INT", "INT-N")
MODELS = ("KNN", "TH")


class SimilarityError(ValueError):
    pass


def _as_vector(a) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(a, dict):
        idx = np.array(sorted(a), dtype=np.int64)
        val = np.array([a[k] for k in idx], dtype=np.float64)
    else:
        idx = np.asarray(a[0], dtype=np.int64)
        val = np.asarray(a[1], dtype=np.float64)
    if len(val) and val.min() < 0:
        raise SimilarityError("negative attribute value")
    return idx, val


def sim(a, b, measure: str = "INT") -> float:
    """Similarity of two sparse vectors given as {index: value} dicts or
    (indices, values) pairs."""
    if measure not in MEASURES:
        raise SimilarityError(f"unknown measure: {measure}")
    ai, av = _as_vector(a)
    bi, bv = _as_vector(b)
    common, ka, kb = np.intersect1d(ai, bi, return_indices=True)
    inter = float(np.minimum(av[ka], bv[kb]).sum())
    if measure == "INT":
        return inter
    union = float(av.sum() + bv.sum() - inter)
    if union == 0.0:
        return 0.0
    return inter / union


class RowBlock:
    """Selected matrix rows, dense over the union of their columns.

    ``similarities`` scores one sparse vector against every row in a
    single min-sum pass, with the arithmetic of ``sim``: summation order
    aside, row k's score is ``sim(vector, matrix.row(ids[k]), measure)``.
    Integer-valued rows therefore score bit for bit alike.
    """

    def __init__(self, ids, matrix: AttributeMatrix) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        rows = [_as_vector(matrix.row(int(i))) for i in self.ids]
        self.cols = (np.unique(np.concatenate([c for c, _ in rows]))
                     if rows else np.empty(0, dtype=np.int64))
        self.block = np.zeros((len(rows), len(self.cols)))
        for k, (c, v) in enumerate(rows):
            self.block[k, np.searchsorted(self.cols, c)] = v
        self.row_sums = np.array([v.sum() for _, v in rows])

    def similarities(self, cols, vals, measure: str) -> np.ndarray:
        if measure not in MEASURES:
            raise SimilarityError(f"unknown measure: {measure}")
        cols, vals = _as_vector((cols, vals))
        pos = np.searchsorted(self.cols, cols)
        hit = pos < len(self.cols)
        hit[hit] = self.cols[pos[hit]] == cols[hit]
        inter = np.minimum(self.block[:, pos[hit]], vals[hit]).sum(axis=1)
        if measure == "INT":
            return inter
        union = (vals.sum() + self.row_sums) - inter
        out = np.zeros_like(inter)
        nz = union != 0.0
        out[nz] = inter[nz] / union[nz]
        return out

    def nearest(self, cols, vals, measure: str, k: int) -> np.ndarray:
        """Positions of the k rows most similar to the vector, most
        similar first; equal similarities go to the lower id."""
        s = self.similarities(cols, vals, measure)
        return np.lexsort((self.ids, -s))[:k]


class _PairAccumulator:
    """Accumulates (pair key, value) contributions with periodic reduction
    to bound memory."""

    def __init__(self, flush_at: int = 4_000_000) -> None:
        self.keys: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.pending = 0
        self.flush_at = flush_at

    def add(self, keys: np.ndarray, vals: np.ndarray) -> None:
        self.keys.append(keys)
        self.vals.append(vals)
        self.pending += len(keys)
        if self.pending >= self.flush_at:
            self.reduce()

    def reduce(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.keys:
            return np.empty(0, dtype=np.int64), np.empty(0)
        keys = np.concatenate(self.keys)
        vals = np.concatenate(self.vals)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=vals, minlength=len(uniq))
        self.keys = [uniq]
        self.vals = [sums]
        self.pending = len(uniq)
        return uniq, sums


def pairwise_intersections(
    matrix: AttributeMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All co-supported pairs and their intersection values.

    Returns (i, j, inter) with i < j and inter > 0. Pairs sharing no item
    never appear, which is what makes sparse inputs tractable.
    """
    n = matrix.n_nodes
    csc = matrix.data.tocsc()
    acc = _PairAccumulator()
    indptr, indices, values = csc.indptr, csc.indices, csc.data
    for col in range(csc.shape[1]):
        lo, hi = indptr[col], indptr[col + 1]
        m = hi - lo
        if m < 2:
            continue
        rows = indices[lo:hi].astype(np.int64)
        vals = values[lo:hi]
        iu, ju = np.triu_indices(m, 1)
        acc.add(rows[iu] * n + rows[ju], np.minimum(vals[iu], vals[ju]))
    keys, sums = acc.reduce()
    pos = sums > 0
    keys, sums = keys[pos], sums[pos]
    return keys // n, keys % n, sums


def pairwise_similarities(
    matrix: AttributeMatrix, measure: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive-similarity pairs (i < j) under the given measure."""
    if measure not in MEASURES:
        raise SimilarityError(f"unknown measure: {measure}")
    ii, jj, inter = pairwise_intersections(matrix)
    if measure == "INT":
        return ii, jj, inter
    sums = matrix.row_sums
    union = sums[ii] + sums[jj] - inter
    out = np.zeros_like(inter)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return ii, jj, out


def lambda_from_density(n_nodes: int, density: float, directed: bool) -> int:
    """Edge budget for a target density; round half up, at least 1."""
    if n_nodes < 2:
        raise SimilarityError("need at least 2 nodes")
    if density <= 0:
        raise SimilarityError("density must be > 0")
    budget = n_nodes * (n_nodes - 1)
    if not directed:
        budget //= 2
    return max(1, int(np.floor(density * budget + 0.5)))


def knn_graph(matrix: AttributeMatrix, measure: str, lam: int) -> EdgeSet:
    """Directed graph with k = lam // n out-edges per node.

    Each node links to its k most similar positive-similarity peers;
    ties break toward the smaller node id. Nodes with fewer than k
    positive-similarity peers contribute to the reported shortfall:
    zero-similarity pairs never become edges.
    """
    n = matrix.n_nodes
    k = lam // n
    if k < 1:
        raise SimilarityError(
            f"lambda {lam} gives no out-edges for {n} nodes (need lambda >= n)")
    ii, jj, s = pairwise_similarities(matrix, measure)
    src = np.concatenate([ii, jj])
    dst = np.concatenate([jj, ii])
    ss = np.concatenate([s, s])
    order = np.lexsort((dst, -ss, src))
    src, dst, ss = src[order], dst[order], ss[order]
    starts = np.searchsorted(src, np.arange(n + 1))
    take: list[np.ndarray] = []
    shortfall = 0
    for v in range(n):
        lo, hi = starts[v], starts[v + 1]
        avail = hi - lo
        take.append(np.arange(lo, min(lo + k, hi)))
        if avail < k:
            shortfall += k - avail
    sel = np.concatenate(take) if take else np.empty(0, dtype=np.int64)
    return EdgeSet(
        n_nodes=n,
        src=src[sel],
        dst=dst[sel],
        weights=ss[sel],
        directed=True,
        provenance={"model": "KNN", "measure": measure, "lambda": int(lam),
                    "k": int(k), "source": matrix.role,
                    "shortfall": int(shortfall)},
    )


def threshold_graph(matrix: AttributeMatrix, measure: str, lam: int) -> EdgeSet:
    """Undirected graph of the lam most similar positive pairs.

    Ties at the cutoff break lexicographically by (i, j). When fewer than
    lam positive pairs exist the difference is reported as shortfall.
    """
    if lam < 1:
        raise SimilarityError("lambda must be >= 1")
    n = matrix.n_nodes
    ii, jj, s = pairwise_similarities(matrix, measure)
    order = np.lexsort((jj, ii, -s))
    sel = order[:lam]
    shortfall = max(0, lam - len(sel))
    return EdgeSet(
        n_nodes=n,
        src=ii[sel],
        dst=jj[sel],
        weights=s[sel],
        directed=False,
        provenance={"model": "TH", "measure": measure, "lambda": int(lam),
                    "source": matrix.role, "shortfall": int(shortfall)},
    )


@dataclass(frozen=True)
class NetworkModelSpec:
    """How to obtain a network: similarity-built (KNN, TH) or an explicit
    edge-set handed in from outside.

    For EXPLICIT the measure/density fields are unused and ``edges`` names
    the source (a file path or a tag the caller resolves).
    """

    model: str
    measure: str = ""
    density: float = 0.0
    edges: str = ""

    def __post_init__(self) -> None:
        if self.model == "EXPLICIT":
            if not self.edges:
                raise SimilarityError("EXPLICIT model needs an edge source")
            return
        if self.model not in MODELS:
            raise SimilarityError(f"unknown model: {self.model}")
        if self.measure not in MEASURES:
            raise SimilarityError(f"unknown measure: {self.measure}")
        if self.density <= 0:
            raise SimilarityError("density must be > 0")

    @property
    def directed(self) -> bool:
        return self.model == "KNN"

    def lam(self, n_nodes: int) -> int:
        return lambda_from_density(n_nodes, self.density, self.directed)

    def build(self, matrix: AttributeMatrix) -> EdgeSet:
        if self.model == "EXPLICIT":
            raise SimilarityError(
                "EXPLICIT networks are loaded, not built from attributes")
        lam = self.lam(matrix.n_nodes)
        if self.model == "KNN":
            g = knn_graph(matrix, self.measure, lam)
        else:
            g = threshold_graph(matrix, self.measure, lam)
        g.provenance["density"] = self.density
        return g
