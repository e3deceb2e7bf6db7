"""Attribute-intersection similarity and network model construction.

Two measures over non-negative sparse attribute vectors:

* intersection: sum_d min(a_d, b_d)
* normalized intersection: sum_d min(a_d, b_d) / sum_d max(a_d, b_d),
  with 0/0 defined as 0. Bounded in [0, 1] and invariant under joint
  scaling of both vectors.

All-pairs similarities come from an inverted index over items: an item
held by m nodes contributes m(m-1)/2 raw (pair, min) terms. The terms are
summed into a dense accumulator over one block of rows at a time, and its
positive cells are read out in (i, j) order. Cost is the raw contributions
plus n^2/2 accumulator cells streamed in blocks; memory is bounded by
BLOCK_CELLS accumulator cells and CHUNK_LEN terms in flight, however
popular an item is. Each training matrix gets one such pass, shared by
every KNN / TH family built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AttributeMatrix
from .graph import EdgeSet

MEASURES = ("INT", "INT-N")
MODELS = ("KNN", "TH")

BLOCK_CELLS = 2**22  # float64 cells of one dense row block (32 MB)
CHUNK_LEN = 2**15  # (pair, min) terms generated at once


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


def pairwise_intersections(
    matrix: AttributeMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All co-supported pairs and their intersection values.

    Returns (i, j, inter) with i < j and inter > 0, in (i, j) order. Pairs
    sharing no item never appear. Each pair's terms are summed in column
    order, one float64 addition at a time.
    """
    n = matrix.n_nodes
    csc = matrix.data.tocsc()
    step = max(1, BLOCK_CELLS // max(n, 1))
    parts = [_row_block_pairs(csc, r0, min(n, r0 + step))
             for r0 in range(0, n, step)]
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), \
            np.empty(0)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _row_block_pairs(csc, r0: int, r1: int):
    """pairwise_intersections restricted to pairs whose i is in [r0, r1)."""
    n = csc.shape[0]
    indptr, rows, vals = csc.indptr, csc.indices.astype(np.int64), csc.data
    # entry p pairs with the entries after it up to its column's end;
    # walking p in CSC order yields each column's triu pairs in turn
    seg = np.flatnonzero((rows >= r0) & (rows < r1))
    length = np.repeat(indptr[1:], np.diff(indptr))[seg] - seg - 1
    start = np.concatenate(([0], np.cumsum(length)))
    # per entry: its row's offset in the block, its value, and the shift
    # from a term's index t to its partner entry q = t + shift
    row_off = (rows[seg] - r0) * n
    own = vals[seg]
    shift = seg + 1 - start[:-1]
    block = np.zeros((r1 - r0) * n)
    for t0 in range(0, int(start[-1]), CHUNK_LEN):
        t1 = min(int(start[-1]), t0 + CHUNK_LEN)
        s0 = np.searchsorted(start, t0, side="right") - 1
        s1 = np.searchsorted(start, t1, side="left")
        reps = length[s0:s1]
        lo, hi = t0 - start[s0], t1 - start[s0]
        q = np.repeat(shift[s0:s1], reps)[lo:hi] + np.arange(t0, t1)
        cell = np.repeat(row_off[s0:s1], reps)[lo:hi] + rows[q]
        term = np.minimum(np.repeat(own[s0:s1], reps)[lo:hi], vals[q])
        np.add.at(block, cell, term)
    cells = np.flatnonzero(block > 0)
    i, j = np.divmod(cells, n)
    return i + r0, j, block[cells]


def _intersections(matrix: AttributeMatrix):
    """pairwise_intersections of the matrix, computed once per matrix: every
    KNN / TH family over one training matrix shares the pass."""
    if matrix._pairs is None:
        pairs = pairwise_intersections(matrix)
        for col in pairs:
            col.setflags(write=False)
        matrix._pairs = pairs
    return matrix._pairs


def pairwise_similarities(
    matrix: AttributeMatrix, measure: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive-similarity pairs (i < j) under the given measure."""
    if measure not in MEASURES:
        raise SimilarityError(f"unknown measure: {measure}")
    ii, jj, inter = _intersections(matrix)
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
    kth = max(n - k, 0)
    step = max(1, BLOCK_CELLS // n)
    src, dst, weights = [], [], []
    shortfall = 0
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        # the block's rows of the symmetric similarity matrix: pairs come
        # in (i, j) order, so its upper half is one slice of them
        block = np.zeros((r1 - r0, n))
        a, b = np.searchsorted(ii, [r0, r1])
        block[ii[a:b] - r0, jj[a:b]] = s[a:b]
        low = np.flatnonzero((jj >= r0) & (jj < r1))
        block[jj[low] - r0, ii[low]] = s[low]
        # each row's k-th largest value; 0 when it has fewer than k peers,
        # and then every positive entry is taken
        cut = np.partition(block, kth, axis=1)[:, [kth]]
        take = block > cut
        need = np.where(cut[:, 0] > 0, k - take.sum(axis=1), 0)
        tied = (block == cut) & (need[:, None] > 0)
        take |= tied & (np.cumsum(tied, axis=1) <= need[:, None])
        shortfall += int(np.maximum(k - (block > 0).sum(axis=1), 0).sum())
        r, c = np.nonzero(take)
        src.append(r0 + r)
        dst.append(c)
        weights.append(block[r, c])
    return EdgeSet(
        n_nodes=n,
        src=np.concatenate(src),
        dst=np.concatenate(dst),
        weights=np.concatenate(weights),
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
    shortfall = max(0, lam - len(s))
    if shortfall:
        sel = np.arange(len(s))
    else:
        # the lam-th largest value; pairs come in (i, j) order, so the
        # first ties at it are the lexicographically smallest
        cut = np.partition(s, len(s) - lam)[len(s) - lam]
        take = s > cut
        take[np.flatnonzero(s == cut)[:lam - take.sum()]] = True
        sel = np.flatnonzero(take)
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
