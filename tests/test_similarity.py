"""Similarity measures and candidate-network construction."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from netsel import similarity
from netsel.data import AttributeMatrix, EventLog, build_matrix
from netsel.graph import EdgeSet
from netsel.similarity import (
    MEASURES,
    MODELS,
    NetworkModelSpec,
    SimilarityError,
    knn_graph,
    lambda_from_density,
    pairwise_similarities,
    sim,
    threshold_graph,
)


def matrix_from_rows(rows, n_items=None):
    """Dense list-of-dict rows -> AttributeMatrix."""
    recs = []
    items = set()
    for node, pairs in enumerate(rows):
        for item, val in pairs.items():
            recs.append((node, item, float(val), 1))
            items.add(item)
    if n_items is None:
        n_items = (max(items) + 1) if items else 1
    log = EventLog.from_records(recs, n_nodes=len(rows))
    return build_matrix(log, np.arange(n_items), "training")


def random_matrix(seed, n, m, density=0.3):
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 10, size=(n, m)).astype(float)
    dense[rng.random((n, m)) >= density] = 0.0
    recs = [(i, j, dense[i, j], 1) for i in range(n) for j in range(m)
            if dense[i, j] > 0]
    log = EventLog.from_records(recs, n_nodes=n)
    return build_matrix(log, np.arange(m), "training"), dense


def dense_pairs(dense, measure):
    """O(n^2) reference for the pairwise similarity kernels."""
    n = dense.shape[0]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            inter = np.minimum(dense[i], dense[j]).sum()
            if inter <= 0:
                continue
            if measure == "INT":
                out[(i, j)] = inter
            else:
                out[(i, j)] = inter / np.maximum(dense[i], dense[j]).sum()
    return out


# -------------------------------------------------------------- point kernel


def test_intersection_example():
    a, b = {1: 1.0, 2: 2.0}, {1: 2.0, 2: 1.0, 3: 3.0}
    assert sim(a, b, "INT") == pytest.approx(2.0)
    assert sim(a, b, "INT-N") == pytest.approx(2.0 / 7.0)


def test_identity_normalizes_to_one():
    a = {4: 2.5, 9: 1.0}
    assert sim(a, a, "INT-N") == pytest.approx(1.0)


def test_disjoint_vectors():
    assert sim({1: 2.0}, {2: 3.0}, "INT") == 0.0
    assert sim({1: 2.0}, {2: 3.0}, "INT-N") == 0.0


def test_empty_vectors_define_zero():
    assert sim({}, {}, "INT-N") == 0.0
    assert sim({}, {1: 1.0}, "INT") == 0.0


def test_array_form_matches_dict_form():
    a = (np.array([1, 2]), np.array([1.0, 2.0]))
    b = (np.array([1, 2, 3]), np.array([2.0, 1.0, 3.0]))
    assert sim(a, b, "INT") == pytest.approx(2.0)
    assert sim(a, b, "INT-N") == pytest.approx(2.0 / 7.0)


def test_kernel_validation():
    with pytest.raises(SimilarityError):
        sim({1: -1.0}, {1: 2.0})
    with pytest.raises(SimilarityError):
        sim({1: 1.0}, {1: 2.0}, measure="cosine")


def test_symmetry_and_scaling():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = {int(k): float(v) for k, v in
             zip(rng.integers(0, 12, 6), rng.integers(1, 9, 6))}
        b = {int(k): float(v) for k, v in
             zip(rng.integers(0, 12, 6), rng.integers(1, 9, 6))}
        for measure in MEASURES:
            assert sim(a, b, measure) == pytest.approx(sim(b, a, measure))
        a3 = {k: 3.0 * v for k, v in a.items()}
        b3 = {k: 3.0 * v for k, v in b.items()}
        # scaling all values multiplies INT and cancels in INT-N
        assert sim(a3, b3, "INT") == pytest.approx(3.0 * sim(a, b, "INT"))
        assert sim(a3, b3, "INT-N") == pytest.approx(sim(a, b, "INT-N"))


# ---------------------------------------------------------- pairwise kernels


@pytest.mark.parametrize("measure", MEASURES)
def test_pairwise_matches_dense_reference(measure):
    for seed in range(20):
        n = 5 + seed
        m = 3 + (seed * 7) % 23
        density = 1.0 if seed == 0 else 0.3
        mat, dense = random_matrix(seed, n, m, density)
        ii, jj, vals = pairwise_similarities(mat, measure)
        got = {(int(i), int(j)): v for i, j, v in zip(ii, jj, vals)}
        want = dense_pairs(dense, measure)
        assert set(got) == set(want)
        for key, v in want.items():
            assert got[key] == pytest.approx(v)
        assert (ii < jj).all()


def test_pairwise_unknown_measure():
    mat = matrix_from_rows([{0: 1.0}, {0: 1.0}])
    with pytest.raises(SimilarityError):
        pairwise_similarities(mat, "jaccard")


# ----------------------------------------------------------------- lambda


def test_lambda_examples():
    assert lambda_from_density(100, 0.01, directed=False) == 50
    assert lambda_from_density(10, 1.0, directed=False) == 45
    assert lambda_from_density(20_000, 0.0025, directed=True) == 999_950
    # round half up, floor of 1
    assert lambda_from_density(5, 0.25, directed=False) == 3
    assert lambda_from_density(100, 1e-9, directed=False) == 1


def test_lambda_validation():
    with pytest.raises(SimilarityError):
        lambda_from_density(1, 0.5, directed=False)
    with pytest.raises(SimilarityError):
        lambda_from_density(10, 0.0, directed=False)


# -------------------------------------------------------------------- knn


def test_knn_links_each_node_to_its_best_peer():
    mat = matrix_from_rows([
        {0: 5.0, 1: 1.0},   # best peer 1 (INT 4 beats 1 with node 2)
        {0: 4.0},
        {1: 3.0, 2: 9.0},
        {2: 8.0},
    ])
    g = knn_graph(mat, "INT", lam=4)
    assert g.directed
    assert set(zip(g.src.tolist(), g.dst.tolist())) == {
        (0, 1), (1, 0), (2, 3), (3, 2)}
    assert g.provenance["shortfall"] == 0
    assert g.provenance["k"] == 1


def test_knn_zero_similarity_is_never_an_edge():
    mat = matrix_from_rows([{i: 1.0} for i in range(4)])
    g = knn_graph(mat, "INT", lam=4)
    assert len(g.src) == 0
    assert g.provenance["shortfall"] == 4


def test_knn_tie_breaks_toward_smaller_id():
    rows = [{9: 2.0}, {1: 1.0}, {9: 2.0}, {2: 1.0}, {3: 1.0}, {9: 2.0}]
    g = knn_graph(matrix_from_rows(rows), "INT", lam=6)
    edges = set(zip(g.src.tolist(), g.dst.tolist()))
    assert (0, 2) in edges and (0, 5) not in edges
    assert (2, 0) in edges
    assert (5, 0) in edges


def test_knn_needs_at_least_one_out_edge():
    mat = matrix_from_rows([{0: 1.0}, {0: 1.0}, {0: 1.0}])
    with pytest.raises(SimilarityError):
        knn_graph(mat, "INT", lam=2)


def test_knn_against_per_node_ranking_oracle():
    for seed in range(10):
        n = 12 + seed
        mat, dense = random_matrix(100 + seed, n, 10, density=0.5)
        k = 1 + seed % 3
        g = knn_graph(mat, "INT", lam=k * n)
        sims = dense_pairs(dense, "INT")
        shortfall = 0
        out = {v: [] for v in range(n)}
        for (i, j), s in sims.items():
            out[i].append((-s, j))
            out[j].append((-s, i))
        want = set()
        for v in range(n):
            ranked = sorted(out[v])[:k]
            shortfall += max(0, k - len(out[v]))
            want |= {(v, j) for _, j in ranked}
        assert set(zip(g.src.tolist(), g.dst.tolist())) == want
        assert g.provenance["shortfall"] == shortfall
        deg = np.bincount(g.src, minlength=n)
        assert (deg <= k).all()
        assert (g.weights > 0).all()


# --------------------------------------------------------------- threshold


def _th_fixture():
    return matrix_from_rows([
        {0: 6.0, 1: 5.0, 2: 4.0},
        {0: 9.0},
        {1: 9.0},
        {2: 9.0},
    ])


def test_threshold_takes_top_pairs():
    g = threshold_graph(_th_fixture(), "INT", lam=2)
    assert not g.directed
    assert set(zip(g.src.tolist(), g.dst.tolist())) == {(0, 1), (0, 2)}
    np.testing.assert_allclose(sorted(g.weights), [5.0, 6.0])


def test_threshold_single_edge_is_argmax():
    g = threshold_graph(_th_fixture(), "INT", lam=1)
    assert set(zip(g.src.tolist(), g.dst.tolist())) == {(0, 1)}


def test_threshold_saturation_reports_shortfall():
    g = threshold_graph(_th_fixture(), "INT", lam=5)
    assert len(g.src) == 3
    assert g.provenance["shortfall"] == 2


def test_threshold_cutoff_tie_is_lexicographic():
    mat = matrix_from_rows([{0: 1.0}, {0: 1.0}, {0: 1.0}])
    g = threshold_graph(mat, "INT", lam=2)
    assert set(zip(g.src.tolist(), g.dst.tolist())) == {(0, 1), (0, 2)}


def test_threshold_lambda_validation():
    with pytest.raises(SimilarityError):
        threshold_graph(_th_fixture(), "INT", lam=0)


def test_threshold_budgets_nest():
    mat, _ = random_matrix(42, 15, 8, density=0.6)
    prev = set()
    top = len(pairwise_similarities(mat, "INT")[0])
    for lam in range(1, top + 1):
        g = threshold_graph(mat, "INT", lam)
        cur = set(zip(g.src.tolist(), g.dst.tolist()))
        assert len(cur) == lam
        assert prev <= cur
        prev = cur


def test_threshold_against_sorted_pair_oracle():
    for seed in range(10):
        mat, dense = random_matrix(200 + seed, 14, 9, density=0.5)
        sims = dense_pairs(dense, "INT-N")
        ranked = sorted(((-s, i, j) for (i, j), s in sims.items()))
        lam = 1 + (seed * 3) % max(1, len(ranked))
        g = threshold_graph(mat, "INT-N", lam)
        want = {(i, j) for _, i, j in ranked[:lam]}
        assert set(zip(g.src.tolist(), g.dst.tolist())) == want


# ------------------------------------------------------------ model specs


def test_spec_direction_and_budget():
    knn = NetworkModelSpec(model="KNN", measure="INT", density=0.01)
    th = NetworkModelSpec(model="TH", measure="INT-N", density=0.01)
    assert knn.directed and not th.directed
    assert knn.lam(100) == lambda_from_density(100, 0.01, directed=True)
    assert th.lam(100) == lambda_from_density(100, 0.01, directed=False)


def test_spec_build_stamps_density():
    mat, _ = random_matrix(7, 30, 12, density=0.5)
    spec = NetworkModelSpec(model="TH", measure="INT", density=0.05)
    g = spec.build(mat)
    assert g.provenance["model"] == "TH"
    assert g.provenance["density"] == 0.05
    assert len(g.src) == spec.lam(30)


def test_spec_validation():
    with pytest.raises(SimilarityError):
        NetworkModelSpec(model="EXPLICIT")  # needs an edge source
    with pytest.raises(SimilarityError):
        NetworkModelSpec(model="GNN", measure="INT", density=0.1)
    with pytest.raises(SimilarityError):
        NetworkModelSpec(model="KNN", measure="overlap", density=0.1)
    with pytest.raises(SimilarityError):
        NetworkModelSpec(model="KNN", measure="INT", density=0.0)
    explicit = NetworkModelSpec(model="EXPLICIT", edges="some.tsv")
    mat, _ = random_matrix(7, 10, 5)
    with pytest.raises(SimilarityError):
        explicit.build(mat)


# ------------------------------------- one bounded pass against the old path
#
# The pass below is the sort-and-reduce accumulator and lexsort selection
# that preceded the row-blocked pass, frozen as the byte-level reference.


def _ref_pairwise_intersections(matrix, flush_at=4_000_000):
    n = matrix.n_nodes
    csc = matrix.data.tocsc()
    keys_l, vals_l, pending = [], [], 0

    def reduce():
        keys = np.concatenate(keys_l)
        vals = np.concatenate(vals_l)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=vals, minlength=len(uniq))
        keys_l[:] = [uniq]
        vals_l[:] = [sums]
        return uniq, sums

    indptr, indices, values = csc.indptr, csc.indices, csc.data
    for col in range(csc.shape[1]):
        lo, hi = indptr[col], indptr[col + 1]
        m = hi - lo
        if m < 2:
            continue
        rows = indices[lo:hi].astype(np.int64)
        vals = values[lo:hi]
        iu, ju = np.triu_indices(m, 1)
        keys_l.append(rows[iu] * n + rows[ju])
        vals_l.append(np.minimum(vals[iu], vals[ju]))
        pending += m * (m - 1) // 2
        if pending >= flush_at:
            pending = len(reduce()[0])
    if not keys_l:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), \
            np.empty(0)
    keys, sums = reduce()
    pos = sums > 0
    keys, sums = keys[pos], sums[pos]
    return keys // n, keys % n, sums


def _ref_similarities(matrix, measure):
    ii, jj, inter = _ref_pairwise_intersections(matrix)
    if measure == "INT":
        return ii, jj, inter
    sums = matrix.row_sums
    union = sums[ii] + sums[jj] - inter
    out = np.zeros_like(inter)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return ii, jj, out


def _ref_knn(matrix, measure, lam):
    n = matrix.n_nodes
    k = lam // n
    ii, jj, s = _ref_similarities(matrix, measure)
    src = np.concatenate([ii, jj])
    dst = np.concatenate([jj, ii])
    ss = np.concatenate([s, s])
    order = np.lexsort((dst, -ss, src))
    src, dst, ss = src[order], dst[order], ss[order]
    starts = np.searchsorted(src, np.arange(n + 1))
    take, shortfall = [], 0
    for v in range(n):
        lo, hi = starts[v], starts[v + 1]
        take.append(np.arange(lo, min(lo + k, hi)))
        shortfall += max(0, k - (hi - lo))
    sel = np.concatenate(take)
    return EdgeSet(n_nodes=n, src=src[sel], dst=dst[sel], weights=ss[sel],
                   directed=True,
                   provenance={"model": "KNN", "measure": measure,
                               "lambda": int(lam), "k": int(k),
                               "source": matrix.role,
                               "shortfall": int(shortfall)})


def _ref_threshold(matrix, measure, lam):
    ii, jj, s = _ref_similarities(matrix, measure)
    sel = np.lexsort((jj, ii, -s))[:lam]
    return EdgeSet(n_nodes=matrix.n_nodes, src=ii[sel], dst=jj[sel],
                   weights=s[sel], directed=False,
                   provenance={"model": "TH", "measure": measure,
                               "lambda": int(lam), "source": matrix.role,
                               "shortfall": max(0, lam - len(sel))})


def _csr_matrix(dense):
    return AttributeMatrix(data=sparse.csr_matrix(dense),
                           item_ids=np.arange(dense.shape[1]),
                           role="training")


def _pass_case(seed):
    """A seeded random matrix for the pass comparison: integer or
    seven-decade float values, with empty, single-entry and full columns
    and duplicated rows (ties at every KNN k and TH cutoff)."""
    rng = np.random.default_rng([9, seed])
    n = int(rng.integers(2, 41))
    m = int(rng.integers(1, 31))
    if seed % 2:
        dense = rng.integers(1, 5, size=(n, m)).astype(float)
    else:
        dense = 10.0 ** rng.uniform(-3, 4, size=(n, m))
    dense[rng.random((n, m)) >= rng.uniform(0.05, 0.9)] = 0.0
    if m > 1 and seed % 3 == 0:
        dense[:, rng.integers(m)] = 0.0  # empty column
    if m > 2 and seed % 5 == 0:
        col = rng.integers(m)
        dense[:, col] = 0.0
        dense[rng.integers(n), col] = 1.0  # single-entry column
    if seed % 4 == 0:
        dense[:, rng.integers(m)] = 2.0  # one column holding every node
    if n > 3 and seed % 7 == 0:
        dense[rng.integers(n)] = dense[rng.integers(n)]  # tied rows
    return _csr_matrix(dense), dense


def _same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_edges(got, want):
    _same_arrays((got.src, got.dst, got.weights),
                 (want.src, want.dst, want.weights))
    assert got.directed == want.directed
    assert got.provenance == want.provenance


def _small_budgets(monkeypatch, seed):
    """Budgets for the seed: defaults, multi-block, multi-chunk or both."""
    if seed % 4 in (1, 3):
        monkeypatch.setattr(similarity, "BLOCK_CELLS", 64)
    if seed % 4 in (2, 3):
        monkeypatch.setattr(similarity, "CHUNK_LEN", 5)


@pytest.mark.parametrize("block", range(10))
def test_pass_matches_frozen_reference(block, monkeypatch):
    """300 seeded matrices, 30 per block: pairs, KNN at every k up to the
    pair count and TH at four budgets, including above the pair count,
    byte for byte with provenance, under default and forced budgets, and
    again in one-row blocks."""
    for seed in range(30 * block, 30 * block + 30):
        mat, _ = _pass_case(seed)
        n = mat.n_nodes
        n_pairs = len(_ref_similarities(mat, "INT")[0])
        rng = np.random.default_rng([10, seed])
        cases = []  # (builder, measure, lam, reference)
        for measure in MEASURES:
            ks = sorted({1, 2, n - 1, n, n_pairs, n_pairs + 1,
                         int(rng.integers(1, n_pairs + 2))} - {0})
            for k in ks:
                lam = k * n + int(rng.integers(n))
                cases.append((knn_graph, measure, lam,
                              _ref_knn(mat, measure, lam)))
            for lam in sorted({1, max(1, n_pairs // 2),
                               max(1, n_pairs), n_pairs + 3}):
                cases.append((threshold_graph, measure, lam,
                              _ref_threshold(mat, measure, lam)))
        for cells in ("seeded", 1):
            with monkeypatch.context() as mp:
                if cells == "seeded":
                    _small_budgets(mp, seed)
                else:
                    mp.setattr(similarity, "BLOCK_CELLS", cells)
                _same_arrays(similarity.pairwise_intersections(mat),
                             _ref_pairwise_intersections(mat))
                for build, measure, lam, ref in cases:
                    _same_edges(build(mat, measure, lam), ref)


def test_pass_sums_in_column_order(monkeypatch):
    """Three terms whose float sum depends on their order: the pair's
    value is the left-to-right sum in column order, under any budget."""
    dense = np.array([[1e16, 1.0, 1.0], [1e16, 1.0, 1.0]])
    mat = _csr_matrix(dense)
    want = (1e16 + 1.0) + 1.0
    assert want != 1e16 + (1.0 + 1.0)
    for cells, chunk in ((2**22, 2**20), (1, 1), (64, 2)):
        monkeypatch.setattr(similarity, "BLOCK_CELLS", cells)
        monkeypatch.setattr(similarity, "CHUNK_LEN", chunk)
        ii, jj, inter = similarity.pairwise_intersections(mat)
        assert ii.tolist() == [0] and jj.tolist() == [1]
        assert inter.tolist() == [want]
    mat = _csr_matrix(dense[:, ::-1].copy())
    assert similarity.pairwise_intersections(mat)[2].tolist() == \
        [1.0 + 1.0 + 1e16]


def _count_passes(monkeypatch):
    """Matrices the intersection pass runs over, one entry per pass."""
    calls = []
    real = similarity._row_blocks

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(similarity, "_row_blocks", counting)
    return calls


def _all_specs(densities=(0.1, 0.2)):
    return [NetworkModelSpec(model, measure, density) for model in MODELS
            for measure in MEASURES for density in densities]


def test_pairs_computed_once_per_matrix(monkeypatch):
    """build_networks makes one pass per matrix for all families; each
    one-family call makes a pass of its own."""
    calls = _count_passes(monkeypatch)
    mat, _ = random_matrix(11, 20, 8, density=0.5)
    specs = _all_specs()
    graphs = similarity.build_networks(mat, specs)
    assert calls == [mat] and len(graphs) == 8
    for spec, g in zip(specs, graphs):
        _same_edges(g, spec.build(mat))
    assert len(calls) == 9
    other, _ = random_matrix(11, 20, 8, density=0.5)
    knn_graph(other, "INT", lam=20)
    assert len(calls) == 10 and calls[-1] is other
    assert similarity.build_networks(other, []) == []
    assert len(calls) == 10
    explicit = NetworkModelSpec(model="EXPLICIT", edges="some.tsv")
    with pytest.raises(SimilarityError, match="EXPLICIT"):
        similarity.build_networks(mat, specs + [explicit])
    assert len(calls) == 10


@pytest.mark.parametrize("seed", range(12))
def test_one_pass_for_every_family_matches_the_references(seed,
                                                          monkeypatch):
    """One multi-family call over all 8 (model x measure x density) specs
    equals 8 one-family calls and the frozen references, byte for byte,
    under default and forced budgets."""
    mat, _ = _pass_case(seed)
    n = mat.n_nodes
    if n < 3:
        return
    densities = (2.0 / (n - 1), 0.5)  # KNN k = 2 and (n - 1) // 2
    specs = _all_specs(densities)
    with monkeypatch.context() as mp:
        _small_budgets(mp, seed)
        graphs = similarity.build_networks(mat, specs)
        singles = [spec.build(mat) for spec in specs]
    for spec, g, one in zip(specs, graphs, singles):
        lam = spec.lam(n)
        ref = _ref_knn(mat, spec.measure, lam) if spec.model == "KNN" \
            else _ref_threshold(mat, spec.measure, lam)
        ref.provenance["density"] = spec.density
        _same_edges(g, one)
        _same_edges(g, ref)


def test_pass_memory_is_bounded_by_its_blocks(monkeypatch):
    """All 8 families over a matrix of about 3.1 M co-supported pairs,
    whose pair list (i, j, inter) would take 75 MB: the pass's traced peak
    stays within a few blocks, plus the selections' O(n k + lam) and the
    matrix's O(nnz)."""
    cells = 2**15
    monkeypatch.setattr(similarity, "BLOCK_CELLS", cells)
    rng = np.random.default_rng(4)
    n, m = 2500, 24
    dense = rng.integers(1, 50, size=(n, m)).astype(float)
    dense[rng.random((n, m)) >= 0.5] = 0.0
    mat = _csr_matrix(dense)
    mat.row_sums  # cached on the matrix, as after ingest
    specs = _all_specs((1.0 / (n - 1), 3.0 / (n - 1)))  # KNN k = 1 and 3
    held = sum(spec.lam(n) for spec in specs)  # n k per KNN, lam per TH
    bound = 16 * cells * 8 + 100 * held + 40 * mat.data.nnz
    pair_list = 24 * n * (n - 1) // 2 * 0.99
    assert pair_list > 8 * bound
    tracemalloc.start()
    try:
        graphs = similarity.build_networks(mat, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
    assert [g.n_edges for g in graphs] == [spec.lam(n) for spec in specs]
