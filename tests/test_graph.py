"""Edge-set container, neighborhood extraction, sampling, persistence."""

import hashlib

import numpy as np
import pytest

from netsel import graph as graph_mod
from netsel.graph import (
    EdgeSet,
    GraphError,
    NeighborhoodSpec,
    absent_pairs,
    bfs_neighborhood,
    egonet,
    incident_nonedges,
    induced_pairs,
    load_edgeset,
    load_explicit_edges,
    save_edgeset,
    split_edges_random,
)


def mk(n, pairs, directed=False, weights=None):
    pairs = list(pairs)
    if weights is None:
        weights = np.ones(len(pairs))
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return EdgeSet(n_nodes=n, src=src, dst=dst,
                   weights=np.asarray(weights, dtype=np.float64),
                   directed=directed)


def pairs_of(g):
    return set(zip(g.src.tolist(), g.dst.tolist()))


# ----------------------------------------------------------------- EdgeSet


def test_undirected_edges_are_canonicalized():
    g = mk(4, [(2, 0), (3, 1)])
    assert pairs_of(g) == {(0, 2), (1, 3)}
    assert (g.src < g.dst).all()


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        mk(3, [(0, 1), (1, 0)])  # same undirected pair
    with pytest.raises(GraphError):
        mk(3, [(0, 1), (0, 1)], directed=True)


def test_directed_allows_antiparallel():
    g = mk(3, [(0, 1), (1, 0)], directed=True)
    assert g.n_edges == 2


def test_edge_validation():
    with pytest.raises(GraphError):
        mk(3, [(1, 1)])
    with pytest.raises(GraphError):
        mk(3, [(0, 3)])
    with pytest.raises(GraphError):
        mk(3, [(-1, 2)])
    with pytest.raises(GraphError):
        EdgeSet(n_nodes=3, src=np.array([0]), dst=np.array([1, 2]),
                weights=np.ones(1), directed=False)


def test_density():
    assert mk(3, [(0, 1), (0, 2), (1, 2)]).density == pytest.approx(1.0)
    assert mk(3, [(0, 1), (1, 0)], directed=True).density == pytest.approx(2 / 6)


def test_neighbors_on_a_path():
    g = mk(3, [(0, 1), (1, 2)])
    np.testing.assert_array_equal(g.neighbors(1), [0, 2])
    np.testing.assert_array_equal(g.neighbors(0), [1])


def test_neighbors_directed_are_out_neighbors():
    g = mk(3, [(0, 1), (2, 0)], directed=True)
    np.testing.assert_array_equal(g.neighbors(0), [1])
    np.testing.assert_array_equal(g.neighbors(1), [])
    np.testing.assert_array_equal(g.neighbors(2), [0])


def test_isolated_node_has_no_neighbors():
    g = mk(4, [(0, 1)])
    assert len(g.neighbors(3)) == 0
    with pytest.raises(GraphError):
        g.neighbors(4)


def test_degrees_on_star():
    g = mk(4, [(0, 1), (0, 2), (0, 3)])
    np.testing.assert_array_equal(g.degrees(), [3, 1, 1, 1])


def test_undirected_view_merges_antiparallel_with_max():
    g = mk(4, [(0, 1), (1, 0), (2, 3)], directed=True, weights=[2.0, 3.0, 1.0])
    und = g.undirected_view()
    assert not und.directed
    assert pairs_of(und) == {(0, 1), (2, 3)}
    assert dict(zip(pairs_of(und), und.weights))  # no crash
    w = {(u, v): w for u, v, w in zip(und.src, und.dst, und.weights)}
    assert w[(0, 1)] == 3.0


def test_pair_keys_and_has_pair():
    g = mk(5, [(1, 3), (0, 2)])
    keys = g.pair_keys()
    assert list(keys) == sorted(keys)
    assert g.has_pair(3, 1) and g.has_pair(1, 3)
    assert not g.has_pair(0, 1)
    assert not g.has_pair(2, 2)


# ------------------------------------------------------------ neighborhoods


def test_bfs_collects_level_by_level():
    g = mk(4, [(0, 1), (1, 2), (2, 3)])
    np.testing.assert_array_equal(bfs_neighborhood(g, 0, k=2), [1, 2])
    np.testing.assert_array_equal(bfs_neighborhood(g, 0, k=10), [1, 2, 3])


def test_bfs_levels_come_out_in_ascending_id_order():
    g = mk(6, [(0, 5), (0, 3)])
    np.testing.assert_array_equal(bfs_neighborhood(g, 0, k=2), [3, 5])


def test_bfs_prefix_property():
    rng = np.random.default_rng(3)
    n = 30
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, (80, 2)) if a < b}
    g = mk(n, sorted(pairs))
    full = bfs_neighborhood(g, 0, k=n)
    for k in range(len(full) + 1):
        np.testing.assert_array_equal(bfs_neighborhood(g, 0, k=k), full[:k])


def test_bfs_stays_in_component():
    g = mk(5, [(0, 1), (2, 3)])
    np.testing.assert_array_equal(bfs_neighborhood(g, 0, k=10), [1])
    assert len(bfs_neighborhood(g, 4, k=10)) == 0


def _frozen_bfs_neighborhood(g, i, k=200):
    """bfs_neighborhood as a per-neighbour loop over a Python set, before
    each level became one gather; kept verbatim as the reference."""
    sym = g.undirected_view()
    visited = np.zeros(g.n_nodes, dtype=bool)
    visited[i] = True
    out: list[int] = []
    frontier = [i]
    while frontier and len(out) < k:
        nxt: set[int] = set()
        for u in frontier:
            for v in sym.neighbors(u):
                if not visited[v]:
                    nxt.add(int(v))
        frontier = sorted(nxt)
        for v in frontier:
            visited[v] = True
            out.append(v)
            if len(out) == k:
                break
    return np.array(out[:k], dtype=np.int64)


@pytest.mark.parametrize("directed", [False, True])
def test_bfs_matches_the_frozen_loop(directed):
    rng = np.random.default_rng(5)
    for n, m in ((1, 0), (12, 10), (40, 60), (60, 400)):
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n - n // 6,
                                                           (m, 2))
                 if a != b}  # the last sixth of the nodes stay isolated
        if not directed:
            pairs = {(min(p), max(p)) for p in pairs}
        g = mk(n, sorted(pairs), directed=directed)
        for i in range(n):
            for k in (0, 1, 3, 7, 50, n):
                got = bfs_neighborhood(g, i, k)
                want = _frozen_bfs_neighborhood(g, i, k)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    with pytest.raises(GraphError, match="out of range"):
        bfs_neighborhood(g, n, 3)


def test_egonet_triangle_with_pendant():
    g = mk(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    nodes, edges, nonedges = egonet(g, 0)
    np.testing.assert_array_equal(nodes, [0, 1, 2, 3])
    assert {tuple(e) for e in edges} == {(0, 1), (0, 2), (0, 3), (1, 2)}
    assert {tuple(e) for e in nonedges} == {(1, 3), (2, 3)}


def test_egonet_of_star_center_lists_leaf_pairs_as_nonedges():
    g = mk(4, [(0, 1), (0, 2), (0, 3)])
    _, edges, nonedges = egonet(g, 0)
    assert {tuple(e) for e in nonedges} == {(1, 2), (1, 3), (2, 3)}
    _, edges, nonedges = egonet(g, 1)
    assert {tuple(e) for e in edges} == {(0, 1)}
    assert len(nonedges) == 0


def test_induced_pairs_on_subset():
    g = mk(6, [(0, 1), (1, 2), (3, 4)])
    edges, nonedges = induced_pairs(g, np.array([0, 1, 4]))
    assert {tuple(e) for e in edges} == {(0, 1)}
    assert {tuple(e) for e in nonedges} == {(0, 4), (1, 4)}


def _reference_induced_pairs(g, nodes):
    """The per-node fill: each node's neighbours tested with np.isin."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    m = len(nodes)
    sym = g.undirected_view()
    adj = np.zeros((m, m), dtype=bool)
    for li, u in enumerate(nodes):
        nb = sym.neighbors(int(u))
        hit = nb[np.isin(nb, nodes, assume_unique=True)]
        adj[li, np.searchsorted(nodes, hit)] = True
    iu, ju = np.triu_indices(m, 1)
    on = adj[iu, ju]
    return (np.column_stack([nodes[iu[on]], nodes[ju[on]]]),
            np.column_stack([nodes[iu[~on]], nodes[ju[~on]]]))


@pytest.mark.parametrize("directed", [False, True])
def test_induced_pairs_match_per_node_reference(directed):
    rng = np.random.default_rng(11)
    n = 40
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, 35, (120, 2))
             if a != b}  # nodes 35-39 stay isolated
    if not directed:
        pairs = {(min(p), max(p)) for p in pairs}
    g = mk(n, sorted(pairs), directed=directed)
    scopes = [np.arange(n), rng.permutation(n)[:15],
              np.concatenate([rng.integers(0, n, 12), [36, 36, 38]]),
              np.array([37, 39]), np.array([5]),
              np.empty(0, dtype=np.int64)]
    for nodes in scopes:
        got = induced_pairs(g, nodes)
        want = _reference_induced_pairs(g, nodes)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()


# ------------------------------------------------------------------ splits


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < m:
        a, b = rng.integers(0, n, 2)
        if a < b:
            pairs.add((int(a), int(b)))
    return mk(n, sorted(pairs))


def test_split_floor_sizes_with_remainder_to_first():
    g = _random_graph(10, 8, 0)
    parts = split_edges_random(g, (0.5, 0.25, 0.25), seed=1)
    assert [p.n_edges for p in parts] == [4, 2, 2]
    g3 = _random_graph(10, 3, 1)
    parts = split_edges_random(g3, (0.5, 0.25, 0.25), seed=1)
    assert [p.n_edges for p in parts] == [2, 1, 0]


def test_split_is_a_disjoint_cover():
    g = _random_graph(12, 20, 2)
    parts = split_edges_random(g, (0.5, 0.25, 0.25), seed=7)
    seen = [pairs_of(p) for p in parts]
    assert seen[0] | seen[1] | seen[2] == pairs_of(g)
    assert not (seen[0] & seen[1]) and not (seen[0] & seen[2]) \
        and not (seen[1] & seen[2])


def test_split_determinism():
    g = _random_graph(12, 20, 2)
    a = split_edges_random(g, (0.5, 0.25, 0.25), seed=7)
    b = split_edges_random(g, (0.5, 0.25, 0.25), seed=7)
    c = split_edges_random(g, (0.5, 0.25, 0.25), seed=8)
    assert [pairs_of(x) for x in a] == [pairs_of(x) for x in b]
    assert [pairs_of(x) for x in a] != [pairs_of(x) for x in c]


def test_split_fraction_validation():
    g = _random_graph(10, 5, 3)
    with pytest.raises(GraphError):
        split_edges_random(g, (0.5, 0.25), seed=0)
    with pytest.raises(GraphError):
        split_edges_random(g, (1.5, -0.5), seed=0)


# ---------------------------------------------------------------- sampling


def union_keys(*graphs):
    """Sorted union of the graphs' undirected pair keys."""
    return np.unique(np.concatenate([g.pair_keys() for g in graphs]))


def test_sample_nonedges_complete_graph_is_fatal():
    g = mk(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(GraphError):
        absent_pairs(3, union_keys(g), 1, seed=0)


def test_sample_nonedges_empty_graph_enumerates_all_pairs():
    g = mk(4, [])
    got = absent_pairs(4, union_keys(g), 6, seed=0)
    assert {tuple(p) for p in got} == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_sample_nonedges_avoids_every_given_graph():
    a = _random_graph(20, 30, 4)
    b = _random_graph(20, 30, 5)
    got = absent_pairs(20, union_keys(a, b), 40, seed=1)
    assert len(got) == 40
    assert len({tuple(p) for p in got}) == 40
    for u, v in got:
        assert u < v
        assert not a.has_pair(int(u), int(v))
        assert not b.has_pair(int(u), int(v))


def test_sample_nonedges_zero_count_and_determinism():
    g = _random_graph(20, 30, 4)
    keys = union_keys(g)
    assert absent_pairs(20, keys, 0, seed=0).shape == (0, 2)
    x = absent_pairs(20, keys, 10, seed=3)
    y = absent_pairs(20, keys, 10, seed=3)
    np.testing.assert_array_equal(x, y)


def test_sample_nonedges_rejection_path():
    # big enough universe to skip enumeration
    g = mk(3000, [])
    keys = union_keys(g)
    got = absent_pairs(3000, keys, 50, seed=2)
    again = absent_pairs(3000, keys, 50, seed=2)
    np.testing.assert_array_equal(got, again)
    assert len({tuple(p) for p in got}) == 50
    assert (got[:, 0] < got[:, 1]).all()


def test_incident_nonedges_small_complement_returns_all():
    g = mk(4, [(0, 1)])
    keys = union_keys(g)
    got = incident_nonedges(4, keys, 0, count=5, seed=0)
    np.testing.assert_array_equal(got, [2, 3])


def test_incident_nonedges_sampled_subset():
    g = mk(50, [(0, 1)])
    keys = union_keys(g)
    got = incident_nonedges(50, keys, 0, count=10, seed=9)
    assert len(got) == 10
    assert 0 not in got and 1 not in got
    np.testing.assert_array_equal(
        got, incident_nonedges(50, keys, 0, count=10, seed=9))


def test_incident_nonedges_empty_union():
    got = incident_nonedges(5, np.empty(0, dtype=np.int64), 2, count=10, seed=0)
    np.testing.assert_array_equal(got, [0, 1, 3, 4])


# -------------------------------------------------------------- persistence


def test_edgeset_roundtrip(tmp_path):
    g = mk(6, [(0, 1), (2, 0), (4, 5)], directed=True,
           weights=[0.5, 2.0, 1.25])
    g.provenance["model"] = "KNN"
    save_edgeset(g, tmp_path / "g.tsv")
    back = load_edgeset(tmp_path / "g.tsv")
    assert back.directed == g.directed
    assert back.n_nodes == g.n_nodes
    assert pairs_of(back) == pairs_of(g)
    np.testing.assert_allclose(back.weights, g.weights)
    assert back.provenance["model"] == "KNN"


def test_load_edgeset_requires_header(tmp_path):
    (tmp_path / "bad.tsv").write_text("0\t1\t1.0\n")
    with pytest.raises(GraphError):
        load_edgeset(tmp_path / "bad.tsv")


def _pinned_edgesets():
    k = np.arange(60)
    return {
        "weighted": EdgeSet(n_nodes=200, src=k, dst=k + 61 + k % 5,
                            weights=(k + 1) / 7.0 * 10.0 ** (k % 9 - 4),
                            directed=False,
                            provenance={"model": "KNN", "measure": "INT-N",
                                        "shortfall": 2}),
        "empty": EdgeSet(n_nodes=3, src=np.empty(0, np.int64),
                         dst=np.empty(0, np.int64), weights=np.empty(0),
                         directed=True, provenance={}),
        "unit": EdgeSet(n_nodes=1000, src=k * 16, dst=k * 16 + 1,
                        weights=np.ones(60), directed=True,
                        provenance={"model": "EXPLICIT", "source": "e.tsv"}),
    }


# sha256 of the files the line-by-line writer produced for these edge sets
_PINNED_EDGE_FILES = {
    "weighted":
        "becbfb2d6fdcf09997fcceaba825d7ed41a6757c28a4dc13e8b49856400eb1d2",
    "empty":
        "0f60e6d96b95fae92ac3cdc2c3b8ed219d9352c0548dde0b6c559d6f05dffc27",
    "unit":
        "becc245b0a569f06206b12410d54c93d27c364d8a8f6926c0c023934ec893fa8",
}


@pytest.mark.parametrize("name", sorted(_PINNED_EDGE_FILES))
def test_save_edgeset_bytes_are_pinned(tmp_path, name):
    g = _pinned_edgesets()[name]
    save_edgeset(g, tmp_path / "g.tsv")
    data = (tmp_path / "g.tsv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _PINNED_EDGE_FILES[name]
    back = load_edgeset(tmp_path / "g.tsv")
    assert back.src.tobytes() == g.src.tobytes()
    assert back.dst.tobytes() == g.dst.tobytes()
    # weights are written to 10 significant digits
    assert back.weights.tobytes() == np.array(
        [float(f"{w:.10g}") for w in g.weights.tolist()]).tobytes()
    assert back.directed == g.directed and back.n_nodes == g.n_nodes
    assert back.provenance == g.provenance


@pytest.mark.parametrize("rows", [1, 7])
def test_save_edgeset_writes_the_pinned_bytes_in_chunks(tmp_path,
                                                        monkeypatch, rows):
    """A chunk of one row, or of 7 (60 edges: 8 full chunks and a short
    one), writes the same bytes as the pinned whole-file writer."""
    monkeypatch.setattr(graph_mod, "SAVE_ROWS", rows)
    for name, g in _pinned_edgesets().items():
        save_edgeset(g, tmp_path / f"{name}.tsv")
        data = (tmp_path / f"{name}.tsv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == _PINNED_EDGE_FILES[name]


def test_load_edgeset_rejects_a_truncated_file(tmp_path):
    path = tmp_path / "g.tsv"
    save_edgeset(_pinned_edgesets()["unit"], path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    with pytest.raises(GraphError, match="g.tsv.*60 edges, found 57"):
        load_edgeset(path)


@pytest.mark.parametrize("row", ["3\t4\n", "3\t4\t1\t9\n", "3 4 1\n"])
def test_load_edgeset_rejects_a_row_without_three_fields(tmp_path, row):
    path = tmp_path / "g.tsv"
    save_edgeset(mk(6, [(0, 1), (2, 0)]), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + [row] + lines[2:]))
    with pytest.raises(GraphError, match="g.tsv"):
        load_edgeset(path)


def test_load_explicit_edges(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 0\n2 3\n")
    g = load_explicit_edges(p, 5)
    assert pairs_of(g) == {(0, 1), (2, 3)}
    assert g.provenance["duplicates_dropped"] == 1


def test_load_explicit_edges_drops_self_loops(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("4 4\n0 2\n")
    g = load_explicit_edges(p, 5)
    assert pairs_of(g) == {(0, 2)}
    assert g.provenance["self_loops_dropped"] == 1


def test_load_explicit_edges_validation(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 9\n")
    with pytest.raises(GraphError):
        load_explicit_edges(p, 5)
    p.write_text("")
    assert load_explicit_edges(p, 5).n_edges == 0
    with pytest.raises(GraphError):
        load_explicit_edges(tmp_path / "missing.txt", 5)


# ------------------------------------------------------- neighborhood specs


def test_neighborhood_key_roundtrip():
    for text in ("local-adjacency", "local-bfs", "local-bfs:50", "community",
                 "ensemble:degree", "ensemble:attr-sum", "ensemble:random",
                 "global", "global:100"):
        spec = NeighborhoodSpec.parse(text)
        assert NeighborhoodSpec.parse(spec.key()) == spec
    assert NeighborhoodSpec.parse("local-bfs:50").bfs_k == 50
    assert NeighborhoodSpec.parse("global:100").global_sample == 100
    assert NeighborhoodSpec.parse("ensemble").ensemble_order == "degree"
    # an argument where none is taken, or a size that is not an integer
    for text in ("local-adjacency:5", "community:3", "local-bfs:x",
                 "global:2.5", "global:", "local-bfs:"):
        with pytest.raises(GraphError, match="argument|integer"):
            NeighborhoodSpec.parse(text)
    # defaults are omitted from the key
    assert NeighborhoodSpec("local-bfs").key() == "local-bfs"
    assert NeighborhoodSpec("global").key() == "global"
    assert NeighborhoodSpec("ensemble").key() == "ensemble:degree"


def test_neighborhood_validation():
    with pytest.raises(GraphError):
        NeighborhoodSpec("nearby")
    with pytest.raises(GraphError):
        NeighborhoodSpec("local-bfs", bfs_k=0)
    with pytest.raises(GraphError):
        NeighborhoodSpec("ensemble", ensemble_k=2, ensemble_knn=3)
    with pytest.raises(GraphError):
        NeighborhoodSpec("ensemble", ensemble_order="best")
    with pytest.raises(GraphError):
        NeighborhoodSpec("global", global_sample=0)
