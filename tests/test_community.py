"""Modularity and the greedy agglomerative community finder."""

import itertools

import numpy as np
import pytest

from netsel.community import louvain, modularity
from netsel.graph import EdgeSet


def mk(n, pairs):
    pairs = list(pairs)
    return EdgeSet(n_nodes=n,
                   src=np.array([p[0] for p in pairs], dtype=np.int64),
                   dst=np.array([p[1] for p in pairs], dtype=np.int64),
                   weights=np.ones(len(pairs)), directed=False)


def clique(nodes):
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


def two_cliques_bridge():
    """Two 5-cliques joined by one edge."""
    return mk(10, clique(range(5)) + clique(range(5, 10)) + [(4, 5)])


# -------------------------------------------------------------- modularity


def test_two_disjoint_triangles_split_scores_half():
    g = mk(6, clique([0, 1, 2]) + clique([3, 4, 5]))
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert modularity(g, labels) == pytest.approx(0.5, abs=1e-12)


def test_single_community_scores_zero():
    g = mk(6, clique([0, 1, 2]) + clique([3, 4, 5]))
    assert modularity(g, np.zeros(6, dtype=np.int64)) == pytest.approx(0.0, abs=1e-12)


def test_singletons_on_a_clique_score_negative():
    g = mk(5, clique(range(5)))
    assert modularity(g, np.arange(5)) < 0


def test_empty_graph_modularity_is_zero():
    g = mk(4, [])
    assert modularity(g, np.zeros(4, dtype=np.int64)) == 0.0


def test_modularity_label_length_checked():
    g = mk(4, [(0, 1)])
    with pytest.raises(ValueError):
        modularity(g, np.zeros(3, dtype=np.int64))


# ------------------------------------------------------------------ louvain


def test_recovers_two_bridged_cliques():
    g = two_cliques_bridge()
    res = louvain(g, seed=0)
    groups = {tuple(res.members(c).tolist()) for c in range(res.n_communities)}
    assert groups == {(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)}
    # and that split is the best bipartition there is
    best = max(
        modularity(g, np.array([0] + [1 if (m >> i) & 1 else 0
                                      for i in range(9)]))
        for m in range(1 << 9))
    assert res.modularity == pytest.approx(best, abs=1e-12)


def test_reported_modularity_matches_recomputation():
    g = two_cliques_bridge()
    res = louvain(g, seed=3)
    assert res.modularity == pytest.approx(modularity(g, res.labels), abs=1e-12)


def test_edgeless_graph_yields_singletons():
    g = mk(5, [])
    res = louvain(g, seed=0)
    np.testing.assert_array_equal(res.labels, np.arange(5))
    assert res.modularity == 0.0


def test_single_clique_collapses_to_one_community():
    g = mk(6, clique(range(6)))
    res = louvain(g, seed=1)
    assert res.n_communities == 1


def test_never_worse_than_singletons():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = 25
        pairs = {(int(a), int(b))
                 for a, b in rng.integers(0, n, (60, 2)) if a < b}
        g = mk(n, sorted(pairs))
        res = louvain(g, seed=trial)
        assert res.modularity >= modularity(g, np.arange(n)) - 1e-12


def test_phases_never_decrease_quality():
    g = two_cliques_bridge()
    seen = []
    louvain(g, seed=0, phase_hook=lambda lvl, before, after:
            seen.append((lvl, before, after)))
    assert seen
    for _, before, after in seen:
        assert after >= before - 1e-12


def test_louvain_is_deterministic_per_seed():
    rng = np.random.default_rng(11)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, 40, (150, 2)) if a < b}
    g = mk(40, sorted(pairs))
    a = louvain(g, seed=5)
    b = louvain(g, seed=5)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.modularity == b.modularity


def test_labels_are_canonical_and_helpers_agree():
    g = two_cliques_bridge()
    res = louvain(g, seed=2)
    # community ids are assigned in order of smallest member
    assert res.labels[0] == 0
    firsts = [res.members(c)[0] for c in range(res.n_communities)]
    assert firsts == sorted(firsts)
    assert res.sizes().sum() == 10
    for c in range(res.n_communities):
        np.testing.assert_array_equal(
            res.members(c), np.flatnonzero(res.labels == c))


def test_resolution_shifts_partition_size():
    g = two_cliques_bridge()
    coarse = louvain(g, seed=0, resolution=0.1)
    fine = louvain(g, seed=0, resolution=8.0)
    assert coarse.n_communities <= fine.n_communities


@pytest.mark.parametrize("resolution", [0.5, 2.0])
def test_phase_hook_reports_generalized_modularity(resolution):
    rng = np.random.default_rng(3)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, 40, (150, 2))
             if a < b}
    for g in (two_cliques_bridge(), mk(40, sorted(pairs))):
        seen = []
        res = louvain(g, seed=1, resolution=resolution,
                      phase_hook=lambda lvl, before, after:
                      seen.append(after))
        assert seen
        assert seen[-1] == pytest.approx(res.modularity, abs=1e-12)
