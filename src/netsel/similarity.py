"""Attribute-intersection similarity and network model construction.

Two measures over non-negative sparse attribute vectors:

* intersection: sum_d min(a_d, b_d)
* normalized intersection: sum_d min(a_d, b_d) / sum_d max(a_d, b_d),
  with 0/0 defined as 0. Bounded in [0, 1] and invariant under joint
  scaling of both vectors.

All-pairs similarities come from an inverted index over items: an item
held by m nodes contributes m(m-1)/2 raw (pair, min) terms. The terms are
summed into a dense accumulator over one block of rows at a time, and each
block goes straight to the consumers of the pass: every KNN / TH family
built from one training matrix (``build_networks``) keeps only its running
top-k winners, so one pass serves them all.

Memory contract: a pass holds O(BLOCK_CELLS) accumulator cells (a few
dense temporaries of that size), CHUNK_LEN terms in flight and the
matrix's CSC copy, plus O(n k) per KNN family and O(lam) per TH family.
No pair arrays are held while networks are built; only
``pairwise_intersections`` and ``pairwise_similarities``, which return
every pair, take O(pairs) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AttributeMatrix
from .graph import EdgeSet

MEASURES = ("INT", "INT-N")
MODELS = ("KNN", "TH")

BLOCK_CELLS = 2**19  # float64 cells of one dense row block (4 MB)
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


def _row_blocks(matrix: AttributeMatrix):
    """The upper triangle of the intersection matrix, a block of rows at a
    time.

    Yields ``(r0, block)``: ``block[r, j]`` is the intersection of rows
    ``r0 + r`` and ``j`` when ``j > r0 + r``, else 0. Blocks hold at most
    BLOCK_CELLS cells (one row when n exceeds it). Each cell sums its terms
    in column order, one float64 addition at a time. The generator drops
    a block before it makes the next, so a caller that drops it too holds
    one block at a time.
    """
    n = matrix.n_nodes
    csr = matrix.data
    if not csr.has_sorted_indices:
        csr = csr.sorted_indices()
    indptr, cols, vals = csr.indptr, csr.indices, csr.data
    csc = csr.tocsc()  # a column's entries ascend by row
    csc_rows, csc_vals = csc.indices, csc.data
    # blocks come in row order, so each column's next CSC position moves
    # down the column block by block
    nxt = csc.indptr[:-1].astype(np.int64)
    col_end = csc.indptr[1:]
    step = max(1, BLOCK_CELLS // max(n, 1))
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        # the block's entries are one CSR slice; each row's ascend by
        # column, so every cell receives its terms in column order
        e0, e1 = indptr[r0], indptr[r1]
        col = cols[e0:e1]
        # an entry's CSC position: its column's next one plus the number
        # of the block's earlier entries in that column; it pairs with the
        # entries after it to its column's end
        count = np.bincount(col, minlength=csr.shape[1])
        by_col = np.argsort(col, kind="stable")
        pos = np.empty(len(col), dtype=np.int64)
        pos[by_col] = np.arange(len(col)) - (np.cumsum(count) - count)[
            col[by_col]]
        pos += nxt[col]
        nxt += count
        length = col_end[col] - pos - 1
        start = np.zeros(len(length) + 1, dtype=np.int64)
        np.cumsum(length, out=start[1:])
        # per entry: its row's offset in the block, its value, and the
        # shift from a term's index t to its partner entry q = t + shift
        row_off = np.repeat(np.arange(r1 - r0) * n, np.diff(indptr[r0:r1 + 1]))
        own = vals[e0:e1]
        shift = pos + 1 - start[:-1]
        block = np.zeros((r1 - r0) * n)
        for t0 in range(0, int(start[-1]), CHUNK_LEN):
            t1 = min(int(start[-1]), t0 + CHUNK_LEN)
            s0 = np.searchsorted(start, t0, side="right") - 1
            s1 = np.searchsorted(start, t1, side="left")
            reps = length[s0:s1]
            lo, hi = t0 - start[s0], t1 - start[s0]
            q = np.repeat(shift[s0:s1], reps)[lo:hi] + np.arange(t0, t1)
            cell = np.repeat(row_off[s0:s1], reps)[lo:hi] + csc_rows[q]
            term = np.minimum(np.repeat(own[s0:s1], reps)[lo:hi], csc_vals[q])
            np.add.at(block, cell, term)
        yield r0, block.reshape(r1 - r0, n)
        del block  # before the next block is allocated


def _normalized(inter: np.ndarray, r0: int, sums: np.ndarray) -> np.ndarray:
    """INT-N of a block of intersections: inter / (sum_i + sum_j - inter),
    0 where that union is not positive."""
    union = sums[r0:r0 + len(inter), None] + sums
    union -= inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def _ranked(major, value, minor, span: int) -> np.ndarray:
    """Positions that order entries by (major asc, value desc, minor asc),
    where 0 <= minor < span. One sort of a packed integer key when it fits
    in int64 (a lexsort is several times slower)."""
    uniq, rank = np.unique(value, return_inverse=True)
    r = len(uniq)
    top = int(major.max()) + 1 if len(major) else 1
    if top * r * span < 2**63:
        return np.argsort((major * r + (r - 1 - rank)) * span + minor)
    return np.lexsort((minor, -value, major))


def _lane_best(vals: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Mask holding each lane's k largest positive cells along axis (equal
    values going to the lower position) and at most 2k cells per lane on
    average: ties at a lane's k-th value are cut only when they exceed
    that."""
    size = vals.shape[axis]
    if size <= k:
        return vals > 0
    kth = np.take(np.partition(vals, size - k, axis=axis), [size - k],
                  axis=axis)
    # a lane with fewer than k positive cells keeps them all
    np.maximum(kth, np.nextafter(0.0, 1.0), out=kth)
    take = vals >= kth
    if np.count_nonzero(take) > 2 * k * (vals.size // size):
        take = vals > kth
        need = k - np.count_nonzero(take, axis=axis, keepdims=True)
        tied = vals == kth
        take |= tied & (np.cumsum(tied, axis=axis) <= need)
    return take


class _Selection:
    """Winners of one family's top-k selection, merged block by block.

    Candidates that beat the current last winner are buffered and merged
    once they outnumber the winners. A stale last winner only lets more
    candidates in, and the merge of per-block winners under a total order
    is the whole matrix's selection, so the result does not depend on the
    block or buffer sizes.
    """

    def __init__(self, measure: str) -> None:
        if measure not in MEASURES:
            raise SimilarityError(f"unknown measure: {measure}")
        self.measure = measure
        self.buf: list = []
        self.pending = 0

    def _add(self, *cand) -> None:
        self.buf.append(cand)
        self.pending += len(cand[0])
        if self.pending >= self.budget:
            self._merge()

    def _drain(self) -> tuple:
        cand = tuple(np.concatenate(c) for c in zip(*self.buf))
        self.buf, self.pending = [], 0
        return cand


class _Nearest(_Selection):
    """KNN: each node's k best peers under (value desc, id asc), positive
    values only, plus each node's count of positive peers. Candidates come
    from a block's rows (peers above the node) and columns (below it)."""

    def __init__(self, n: int, measure: str, lam: int) -> None:
        super().__init__(measure)
        self.k = lam // n
        if self.k < 1:
            raise SimilarityError(
                f"lambda {lam} gives no out-edges for {n} nodes "
                f"(need lambda >= n)")
        self.lam = lam
        self.budget = n * self.k
        self.val = np.zeros((n, self.k))  # best first; 0 marks a free slot
        self.peer = np.full((n, self.k), n, dtype=np.int64)
        self.count = np.zeros(n, dtype=np.int64)

    def take(self, r0: int, vals: np.ndarray, inter: np.ndarray) -> None:
        h, n = vals.shape
        k = self.k
        pos = vals > 0
        self.count[r0:r0 + h] += np.count_nonzero(pos, axis=1)
        self.count += np.count_nonzero(pos, axis=0)
        # blocks come in row order, so a pair's id exceeds every id in
        # the lists it may enter: it must beat the k-th value strictly
        # (any positive value, while a list has a free slot)
        cut = self.val[:, -1]
        col = vals > cut
        row = vals > cut[r0:r0 + h, None]
        # a block holds at most k winners per lane: keep only those when
        # the cuts let more than a buffer's worth through (while the lists
        # are still filling)
        if np.count_nonzero(col) > self.budget:
            col &= _lane_best(vals, k, 0)
        if np.count_nonzero(row) > self.budget:
            row &= _lane_best(vals, k, 1)
        i, v = np.nonzero(col)
        r, j = np.nonzero(row)
        self._add(np.concatenate([v, r + r0]), np.concatenate([i + r0, j]),
                  np.concatenate([vals[i, v], vals[r, j]]))

    def _merge(self) -> None:
        node, peer, val = self._drain()
        n, k = self.val.shape
        hit = np.unique(node)
        node = np.concatenate([np.repeat(hit, k), node])
        peer = np.concatenate([self.peer[hit].ravel(), peer])
        val = np.concatenate([self.val[hit].ravel(), val])
        order = _ranked(node, val, peer, n + 1)
        # every touched node has its k slots among the entries, so the
        # first k of each node's run are its new list
        first = np.searchsorted(node[order], hit)
        keep = (first[:, None] + np.arange(k)).ravel()
        self.peer[hit] = peer[order[keep]].reshape(-1, k)
        self.val[hit] = val[order[keep]].reshape(-1, k)

    def graph(self, role: str) -> EdgeSet:
        if self.pending:
            self._merge()
        n, k = self.val.shape
        by_id = np.argsort(self.peer, axis=1)
        peer = np.take_along_axis(self.peer, by_id, axis=1)
        val = np.take_along_axis(self.val, by_id, axis=1)
        live = val > 0
        shortfall = int(np.maximum(k - self.count, 0).sum())
        return EdgeSet(
            n_nodes=n,
            src=np.repeat(np.arange(n, dtype=np.int64),
                          np.count_nonzero(live, axis=1)),
            dst=peer[live],
            weights=val[live],
            directed=True,
            provenance={"model": "KNN", "measure": self.measure,
                        "lambda": int(self.lam), "k": int(k),
                        "source": role, "shortfall": shortfall},
        )


class _Strongest(_Selection):
    """TH: the lam best co-supported pairs (i < j) under (value desc,
    (i, j) asc), plus the count of co-supported pairs."""

    def __init__(self, n: int, measure: str, lam: int) -> None:
        super().__init__(measure)
        if lam < 1:
            raise SimilarityError("lambda must be >= 1")
        self.n, self.lam = n, lam
        self.budget = lam
        self.key = np.empty(0, dtype=np.int64)  # i * n + j, best first
        self.val = np.empty(0)
        self.pairs = 0

    def take(self, r0: int, vals: np.ndarray, inter: np.ndarray) -> None:
        n = self.n
        sup = inter > 0
        self.pairs += np.count_nonzero(sup)
        if len(self.key) == self.lam:
            # blocks come in key order: a pair must beat the lam-th value
            sup &= vals > self.val[-1]
        cells = np.flatnonzero(sup)
        val = vals.ravel()[cells]
        if len(cells) > self.lam:
            # the block's own lam best, equal values to the smaller key
            kth = np.partition(val, len(val) - self.lam)[len(val) - self.lam]
            keep = val > kth
            tied = np.flatnonzero(val == kth)
            keep[tied[:self.lam - np.count_nonzero(keep)]] = True
            cells, val = cells[keep], val[keep]
        self._add(cells + r0 * n, val)

    def _merge(self) -> None:
        key, val = self._drain()
        key = np.concatenate([self.key, key])
        val = np.concatenate([self.val, val])
        order = _ranked(np.zeros(len(key), dtype=np.int64), val, key,
                        self.n * self.n)[:self.lam]
        self.key, self.val = key[order], val[order]

    def graph(self, role: str) -> EdgeSet:
        if self.pending:
            self._merge()
        by_key = np.argsort(self.key)
        i, j = np.divmod(self.key[by_key], self.n)
        return EdgeSet(
            n_nodes=self.n,
            src=i,
            dst=j,
            weights=self.val[by_key],
            directed=False,
            provenance={"model": "TH", "measure": self.measure,
                        "lambda": int(self.lam), "source": role,
                        "shortfall": max(0, self.lam - self.pairs)},
        )


def _one_pass(matrix: AttributeMatrix, reducers: list) -> None:
    """Feed every block of one intersection pass to each reducer, in its
    measure; the INT-N block is computed once, when a reducer needs it."""
    sums = matrix.row_sums if any(
        red.measure == "INT-N" for red in reducers) else None
    for r0, inter in _row_blocks(matrix):
        norm = _normalized(inter, r0, sums) if sums is not None else None
        for red in reducers:
            red.take(r0, inter if red.measure == "INT" else norm, inter)
        del inter, norm  # so that one block is alive at a time


def build_networks(matrix: AttributeMatrix,
                   specs: list[NetworkModelSpec]) -> list[EdgeSet]:
    """The KNN / TH networks of the specs over one matrix, in spec order,
    from one pass over its intersections: each block of the pass feeds
    every family's selection, and no pair list is held."""
    n = matrix.n_nodes
    reducers = []
    for spec in specs:
        if spec.model == "EXPLICIT":
            raise SimilarityError(
                "EXPLICIT networks are loaded, not built from attributes")
        select = _Nearest if spec.model == "KNN" else _Strongest
        reducers.append(select(n, spec.measure, spec.lam(n)))
    if reducers:
        _one_pass(matrix, reducers)
    graphs = []
    for spec, red in zip(specs, reducers):
        g = red.graph(matrix.role)
        g.provenance["density"] = spec.density
        graphs.append(g)
    return graphs


def pairwise_intersections(
    matrix: AttributeMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All co-supported pairs and their intersection values.

    Returns (i, j, inter) with i < j and inter > 0, in (i, j) order. Pairs
    sharing no item never appear. Each pair's terms are summed in column
    order, one float64 addition at a time.
    """
    return pairwise_similarities(matrix, "INT")


def pairwise_similarities(
    matrix: AttributeMatrix, measure: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Co-supported pairs (i < j) and their similarities under the given
    measure, in (i, j) order. This holds every pair: O(pairs) memory."""
    if measure not in MEASURES:
        raise SimilarityError(f"unknown measure: {measure}")
    parts = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
    for r0, inter in _row_blocks(matrix):
        vals = inter if measure == "INT" else \
            _normalized(inter, r0, matrix.row_sums)
        cells = np.flatnonzero(inter > 0)
        i, j = np.divmod(cells, matrix.n_nodes)
        parts.append((i + r0, j, vals.ravel()[cells]))
    return tuple(np.concatenate(col) for col in zip(*parts))


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
    knn = _Nearest(matrix.n_nodes, measure, lam)
    _one_pass(matrix, [knn])
    return knn.graph(matrix.role)


def threshold_graph(matrix: AttributeMatrix, measure: str, lam: int) -> EdgeSet:
    """Undirected graph of the lam most similar positive pairs.

    Ties at the cutoff break lexicographically by (i, j). When fewer than
    lam positive pairs exist the difference is reported as shortfall.
    """
    th = _Strongest(matrix.n_nodes, measure, lam)
    _one_pass(matrix, [th])
    return th.graph(matrix.role)


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
        return build_networks(matrix, [self])[0]
