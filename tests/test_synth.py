"""Planted-structure generator: determinism, guarantees, truth graphs."""

import hashlib

import numpy as np
import pytest

from netsel.data import DataError, build_dataset
from netsel.similarity import pairwise_similarities
from netsel.synth import PlantSpec, synth_bundle, synth_generate


def _pairs(g):
    return set(zip(g.src.tolist(), g.dst.tolist()))


def test_same_seed_reproduces_everything():
    a = synth_bundle(3, 40, 120)
    b = synth_bundle(3, 40, 120)
    for col in ("nodes", "items", "values", "timestamps"):
        np.testing.assert_array_equal(getattr(a.log, col), getattr(b.log, col))
    assert _pairs(a.label_graph) == _pairs(b.label_graph)
    assert _pairs(a.structure_graph) == _pairs(b.structure_graph)
    assert a.rules == b.rules


def test_different_seeds_differ():
    a = synth_bundle(3, 40, 120)
    b = synth_bundle(4, 40, 120)
    assert not np.array_equal(a.log.values, b.log.values)


def test_two_community_intersection_separation():
    # two quiet subgroups on disjoint item blocks: within-community INT must
    # strictly dominate cross-community INT (which is exactly zero)
    plant = PlantSpec(n_groups=2, subgroups_per_group=1).quiet()
    bundle = synth_bundle(9, 20, 80, plant)
    ds = build_dataset(bundle.log, bundle.rules, boundaries=bundle.boundaries)
    ii, jj, vals = pairwise_similarities(ds.matrix("training"), "INT")
    got = {(int(i), int(j)): v for i, j, v in zip(ii, jj, vals)}
    for i in range(20):
        for j in range(i + 1, 20):
            if i % 2 == j % 2:
                assert got[(i, j)] > 0
            else:
                assert (i, j) not in got


def test_small_budget_every_node_emits_in_every_partition():
    bundle = synth_bundle(1, 10, 5)
    ds = build_dataset(bundle.log, bundle.rules, boundaries=bundle.boundaries)
    _, parts = (bundle.boundaries, None)
    for role in ("validation", "training", "testing"):
        m = ds.matrix(role)
        assert (np.asarray(m.data.sum(axis=1)).ravel() > 0).all()


def test_labels_track_planted_membership_in_all_partitions():
    bundle = synth_bundle(5, 60, 400)
    lay = bundle.layout
    ds = build_dataset(bundle.log, bundle.rules, boundaries=bundle.boundaries)
    for role in ("validation", "training", "testing"):
        labs = ds.labelset(role)
        for sg in range(lay.n_subgroups):
            want = np.array([lay.subgroup(i) == sg for i in range(60)])
            np.testing.assert_array_equal(labs.array(f"sub-{sg}"), want)
        for g in range(lay.n_groups):
            want = np.array([lay.group(i) == g for i in range(60)])
            np.testing.assert_array_equal(labs.array(f"grp-{g}"), want)


def test_truth_graphs_match_layout():
    bundle = synth_bundle(2, 20, 200)
    lay = bundle.layout
    want_label = set()
    for sg in range(lay.n_subgroups):
        members = [i for i in range(20) if lay.subgroup(i) == sg]
        want_label |= {(a, b) for ai, a in enumerate(members)
                       for b in members[ai + 1:]}
    assert _pairs(bundle.label_graph) == want_label
    want_pods = set()
    for p in range(lay.n_pods):
        pod = list(range(p * lay.pod_size, (p + 1) * lay.pod_size))
        want_pods |= {(a, b) for ai, a in enumerate(pod) for b in pod[ai + 1:]}
    assert _pairs(bundle.structure_graph) == want_pods


def test_near_miss_nodes_are_excluded_from_label_truth():
    plant = PlantSpec(group_items=0, emit_items=10, doppel_per_subgroup=2,
                      contamination_items=0, refresh_per_segment=True)
    bundle = synth_bundle(7, 60, 300, plant)
    assert bundle.doppel_start < 60
    if len(bundle.label_graph.src):
        assert max(bundle.label_graph.src.max(),
                   bundle.label_graph.dst.max()) < bundle.doppel_start
    assert bundle.structure_graph.dst.max() >= bundle.doppel_start
    # near-misses stay under the label threshold in every window
    ds = build_dataset(bundle.log, bundle.rules, boundaries=bundle.boundaries)
    for role in ("validation", "training", "testing"):
        labs = ds.labelset(role)
        for name in labs.names:
            assert not labs.array(name)[bundle.doppel_start:].any()


def test_segment_boundaries_align_with_partitions():
    bundle = synth_bundle(6, 30, 120)
    assert bundle.boundaries == (10_000, 20_000)
    ds = build_dataset(bundle.log, bundle.rules, boundaries=bundle.boundaries)
    assert all(c > 0 for c in ds.event_counts.values())


def test_generate_returns_log_and_truth_pair():
    log, (label_g, struct_g) = synth_generate(1, 20, 100)
    assert len(log) > 0
    assert label_g.provenance["structure"] == "label-homophily"
    assert struct_g.provenance["structure"] == "edge-formation"


def test_plant_guards():
    with pytest.raises(DataError):
        synth_bundle(0, 5, 100)  # too few nodes
    with pytest.raises(DataError):
        synth_bundle(0, 20, 1)  # too few items
    with pytest.raises(DataError):
        synth_bundle(0, 24, 400, PlantSpec(weight_lo=3))
    with pytest.raises(DataError):
        synth_bundle(0, 24, 400, PlantSpec(weight_lo=9, weight_hi=8))
    with pytest.raises(DataError):
        synth_bundle(0, 24, 400, PlantSpec(doppel_per_subgroup=40))
    with pytest.raises(DataError):
        synth_bundle(0, 24, 400, PlantSpec(emit_items=3))
    with pytest.raises(DataError):
        synth_bundle(0, 60, 400, PlantSpec(doppel_per_subgroup=1,
                                           doppel_emit=16))


# sha256 over (dtype, bytes) of the event-log columns, taken from the
# generator before its events were assembled in one pass at the end
EVENT_LOG_SHA256 = {
    "default":
        "6539d6dadc51c9967364a6d3ae1f3a6800bec2ead2a82b708351881fa95386d2",
    "divergent":
        "f48fd325f0bd4b15ba74623aafd1fa7915255a3fdf6d32ba4237301f57662920",
    "quiet":
        "5d4b6984241cd366e62b5c4f44ae0cab0cb663ae5baea06d33affd96ec5f1021",
}


@pytest.mark.parametrize("name", sorted(EVENT_LOG_SHA256))
def test_event_log_bytes_are_pinned(name):
    plant = getattr(PlantSpec(), name)() if name != "default" \
        else PlantSpec()
    log = synth_bundle(11, 600, 400, plant).log
    h = hashlib.sha256()
    for col in (log.nodes, log.items, log.values, log.timestamps):
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    assert h.hexdigest() == EVENT_LOG_SHA256[name]
