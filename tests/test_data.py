"""Event ingestion, temporal partitioning, attributes and label rules."""

import json

import numpy as np
import pytest

from netsel.data import (
    DataError,
    EventLog,
    LabelRule,
    build_dataset,
    build_matrix,
    derive_labels,
    ingest_events,
    load_dataset,
    load_label_rules,
    partition_by_time,
    save_dataset,
    save_label_rules,
    time_boundaries,
)


def _write(path, text):
    path.write_text(text)
    return path


# ---------------------------------------------------------------- ingestion


def test_ingest_three_line_file(tmp_path):
    p = _write(tmp_path / "ev.tsv", "10 7 1.5 100\n11 7 2 100\n10 8 1 200\n")
    log = ingest_events(p)
    assert len(log) == 3
    assert log.n_nodes == 2
    assert log.skipped_lines == 0
    np.testing.assert_array_equal(log.nodes, [0, 1, 0])
    np.testing.assert_array_equal(log.items, [7, 7, 8])
    np.testing.assert_array_equal(log.values, [1.5, 2.0, 1.0])
    np.testing.assert_array_equal(log.timestamps, [100, 100, 200])


def test_ingest_remaps_by_first_appearance(tmp_path):
    p = _write(tmp_path / "ev.tsv", "99 1 1 1\n5 1 1 2\n99 2 1 3\n")
    log = ingest_events(p)
    np.testing.assert_array_equal(log.node_ids, [99, 5])
    np.testing.assert_array_equal(log.nodes, [0, 1, 0])


def test_ingest_comma_separated(tmp_path):
    p = _write(tmp_path / "ev.csv", "1,2,3,4\n2,2,1,5\n")
    log = ingest_events(p)
    assert len(log) == 2
    np.testing.assert_array_equal(log.items, [2, 2])


def test_ingest_header_line_skipped(tmp_path):
    p = _write(tmp_path / "ev.tsv", "node item value ts\n1 2 3 4\n")
    log = ingest_events(p)
    assert len(log) == 1
    assert log.skipped_lines == 0


def test_ingest_malformed_line_skipped_and_counted(tmp_path):
    p = _write(tmp_path / "ev.tsv", "1 2 3 4\n1 2 oops 5\n2 2 1 6\n3 1 1 7\n")
    log = ingest_events(p)
    assert len(log) == 3
    assert log.skipped_lines == 1


def test_ingest_strict_mode_is_fatal(tmp_path):
    p = _write(tmp_path / "ev.tsv", "1 2 3 4\n1 2 oops 5\n")
    with pytest.raises(DataError):
        ingest_events(p, strict=True)


def test_ingest_negative_value_rejected(tmp_path):
    # a negative value is malformed on any line; the first line is
    # test_ingest_numeric_first_line_is_not_a_header's case
    p = _write(tmp_path / "ev.tsv", "1 2 1 5\n1 2 -3 4\n")
    assert len(ingest_events(p)) == 1
    with pytest.raises(DataError):
        ingest_events(p, strict=True)


@pytest.mark.parametrize("first", ["1 2 -3 4", "1 2 3", "1.5 2 3 4"])
def test_ingest_numeric_first_line_is_not_a_header(tmp_path, first):
    # only a first line holding a token that is not a number is a header
    p = _write(tmp_path / "ev.tsv", first + "\n2 2 1 5\n")
    with pytest.raises(DataError, match=":1:"):
        ingest_events(p, strict=True)
    log = ingest_events(p)
    assert len(log) == 1
    assert log.skipped_lines == 1


def test_ingest_empty_file(tmp_path):
    p = _write(tmp_path / "ev.tsv", "")
    log = ingest_events(p)
    assert len(log) == 0
    assert log.n_nodes == 0


def test_ingest_missing_file_fatal(tmp_path):
    with pytest.raises(DataError):
        ingest_events(tmp_path / "nope.tsv")


def test_from_records_rejects_out_of_range_node():
    with pytest.raises(DataError):
        EventLog.from_records([(3, 1, 1.0, 1)], n_nodes=2)


def test_negative_event_value_rejected():
    with pytest.raises(DataError):
        EventLog.from_records([(0, 1, -1.0, 1)])


# ------------------------------------------------------------- partitioning


def test_equal_frequency_thirds():
    log = EventLog.from_records([(0, 1, 1.0, t) for t in range(1, 10)])
    (t1, t2), parts = partition_by_time(log)
    assert [len(p) for p in parts] == [3, 3, 3]
    assert (t1, t2) == (4, 7)


def test_explicit_boundaries_are_half_open():
    log = EventLog.from_records([(0, 1, 1.0, t) for t in range(1, 10)])
    _, parts = partition_by_time(log, boundaries=(5, 7))
    assert sorted(parts[0].timestamps) == [1, 2, 3, 4]
    assert sorted(parts[1].timestamps) == [5, 6]
    assert sorted(parts[2].timestamps) == [7, 8, 9]
    # an event at exactly t1 belongs to the middle window
    assert 5 in parts[1].timestamps and 5 not in parts[0].timestamps


def test_boundaries_out_of_order_fatal():
    log = EventLog.from_records([(0, 1, 1.0, t) for t in range(5)])
    with pytest.raises(DataError):
        partition_by_time(log, boundaries=(7, 5))


def test_single_timestamp_collapses_with_warning():
    log = EventLog.from_records([(0, 1, 1.0, 9)] * 4)
    with pytest.warns(UserWarning):
        _, parts = partition_by_time(log)
    assert len(parts[0]) == 4
    assert len(parts[1]) == 0 and len(parts[2]) == 0


def test_empty_log_cannot_be_partitioned():
    log = EventLog.from_records([])
    with pytest.raises(DataError):
        time_boundaries(log)


def test_no_event_lands_in_two_partitions():
    rng = np.random.default_rng(0)
    ts = rng.integers(0, 50, size=300)
    log = EventLog.from_records(
        [(int(i % 7), 1, 1.0, int(t)) for i, t in enumerate(ts)])
    _, parts = partition_by_time(log)
    assert sum(len(p) for p in parts) == len(log)
    pooled = np.sort(np.concatenate([p.timestamps for p in parts]))
    np.testing.assert_array_equal(pooled, np.sort(ts))


def test_roles_follow_time_validation_training_testing():
    # each event touches the item named after its timestamp, so a role's
    # matrix shows which time window it was built from
    log = EventLog.from_records([(0, t, 1.0, t) for t in range(1, 10)])
    ds = build_dataset(log, [])
    windows = {role: sorted(ds.item_ids[ds.matrix(role).data.indices])
               for role in ("validation", "training", "testing")}
    assert windows == {"validation": [1, 2, 3], "training": [4, 5, 6],
                       "testing": [7, 8, 9]}


# ------------------------------------------------------------- attributes


def test_sum_aggregation_conserves_mass():
    rng = np.random.default_rng(1)
    recs = [(int(rng.integers(0, 6)), int(rng.integers(10, 15)),
             float(rng.integers(1, 5)), int(t)) for t in range(200)]
    log = EventLog.from_records(recs, n_nodes=6)
    ds = build_dataset(log, [LabelRule("r", (10,), min_count=1)])
    total = sum(ds.matrix(r).data.sum() for r in ("validation", "training", "testing"))
    assert total == pytest.approx(log.values.sum())


def test_duplicate_events_are_summed():
    log = EventLog.from_records(
        [(0, 5, 2.0, 1), (0, 5, 3.0, 2), (1, 5, 1.0, 1)], n_nodes=2)
    m = build_matrix(log, np.array([5]), "training")
    cols, vals = m.row(0)
    np.testing.assert_array_equal(cols, [0])
    np.testing.assert_array_equal(vals, [5.0])


def test_mean_aggregation():
    log = EventLog.from_records(
        [(0, 5, 2.0, 1), (0, 5, 4.0, 2), (1, 5, 1.0, 1)], n_nodes=2)
    m = build_matrix(log, np.array([5]), "training", aggregation="mean")
    assert m.row(0)[1][0] == pytest.approx(3.0)
    assert m.row(1)[1][0] == pytest.approx(1.0)


def test_unknown_aggregation_fatal():
    log = EventLog.from_records([(0, 5, 1.0, 1)])
    with pytest.raises(DataError):
        build_matrix(log, np.array([5]), "training", aggregation="max")


def test_items_outside_the_dictionary_are_fatal():
    log = EventLog.from_records([(0, 5, 1.0, 1), (1, 7, 1.0, 1)], n_nodes=2)
    for ids in ([5], [7], [], [6, 7], [1, 5]):
        with pytest.raises(DataError, match="not in the item dictionary"):
            build_matrix(log, np.array(ids, dtype=np.int64), "training")
    for ids in ([7, 5], [5, 5, 7]):
        with pytest.raises(DataError, match="strictly ascending"):
            build_matrix(log, np.array(ids), "training")
    m = build_matrix(log, np.array([2, 5, 7, 9]), "training")
    np.testing.assert_array_equal(m.data.toarray(),
                                  [[0, 1, 0, 0], [0, 0, 1, 0]])


def test_zero_value_events_leave_no_stored_entry():
    log = EventLog.from_records([(0, 5, 0.0, 1), (1, 5, 2.0, 1)], n_nodes=2)
    m = build_matrix(log, np.array([5]), "training")
    assert len(m.row(0)[0]) == 0
    assert m.data.nnz == 1


def test_row_sums_and_item_index():
    log = EventLog.from_records([(0, 5, 2.0, 1), (0, 9, 1.0, 1)], n_nodes=2)
    m = build_matrix(log, np.array([5, 9]), "training")
    np.testing.assert_array_equal(m.row_sums, [3.0, 0.0])
    assert m.item_index == {5: 0, 9: 1}
    assert m.n_nodes == 2 and m.n_items == 2


# ------------------------------------------------------------------ labels


def _matrix_from_rows(rows, item_ids):
    recs = []
    for node, pairs in enumerate(rows):
        for item, val in pairs.items():
            recs.append((node, item, float(val), 1))
    log = EventLog.from_records(recs, n_nodes=len(rows))
    return build_matrix(log, np.asarray(item_ids), "training")


def test_threshold_rule_example():
    m = _matrix_from_rows(
        [{7: 6.0, 8: 5.0, 9: 1.0}, {7: 4.0, 8: 4.0}, {1: 9.0}],
        [1, 7, 8, 9])
    rule = LabelRule("g", (7, 8, 9), min_count=2, min_value=5.0)
    lab = derive_labels(m, [rule])
    np.testing.assert_array_equal(lab.array("g"), [True, False, False])
    np.testing.assert_array_equal(lab.positives("g"), [0])


def test_presence_rule_counts_touched_items_only():
    m = _matrix_from_rows([{7: 0.5}, {9: 3.0}, {1: 9.0}], [1, 7, 8, 9])
    rule = LabelRule("g", (7, 8, 9), min_count=1, min_value=0)
    lab = derive_labels(m, [rule])
    np.testing.assert_array_equal(lab.array("g"), [True, True, False])


def test_rule_items_absent_from_dictionary():
    m = _matrix_from_rows([{7: 6.0}], [7])
    lab = derive_labels(m, [LabelRule("g", (42, 43), min_count=1)])
    np.testing.assert_array_equal(lab.array("g"), [False])


def test_rule_validation():
    with pytest.raises(DataError):
        LabelRule("g", (1,), min_count=0)
    with pytest.raises(DataError):
        LabelRule("g", (1,), min_value=-0.5)
    with pytest.raises(DataError):
        LabelRule("g", ())


def test_duplicate_rule_names_fatal():
    m = _matrix_from_rows([{7: 6.0}], [7])
    rules = [LabelRule("g", (7,), min_count=1), LabelRule("g", (8,), min_count=1)]
    with pytest.raises(DataError):
        derive_labels(m, rules)


def test_label_rules_roundtrip(tmp_path):
    rules = [
        LabelRule("a", (1, 2, 3), min_count=2, min_value=4.0),
        LabelRule("b", (9,), min_count=1, min_value=0.0),
    ]
    save_label_rules(rules, tmp_path / "rules.json")
    assert load_label_rules(tmp_path / "rules.json") == rules


_RULE = {"name": "a", "items": [1, 2], "min_count": 1, "min_value": 1.0}


@pytest.mark.parametrize("raw, match", [
    ({"a": _RULE}, "must be a list"),
    (["a"], r"rules\[0\] must be an object"),
    ([_RULE, {**_RULE, "min_count": 2.7}], r"rules\[1\]\.min_count"),
    ([{**_RULE, "min_count": True}], r"rules\[0\]\.min_count"),
    ([{**_RULE, "min_count": 0}], r"rules\[0\]: min_count must be >= 1"),
    ([{**_RULE, "items": "12"}], r"rules\[0\]\.items must be a list"),
    ([{**_RULE, "items": [1, True]}], r"rules\[0\]\.items\[1\]"),
    ([{**_RULE, "items": [1, "2"]}], r"rules\[0\]\.items\[1\]"),
    ([{k: v for k, v in _RULE.items() if k != "items"}],
     r"rules\[0\]: missing key 'items'"),
    ([{**_RULE, "min_cout": 2}], r"rules\[0\]: unknown key 'min_cout'"),
    ([{**_RULE, "name": 7}], r"rules\[0\]\.name must be a str"),
    ([{**_RULE, "min_value": "3"}], r"rules\[0\]\.min_value"),
    ([{**_RULE, "min_value": False}], r"rules\[0\]\.min_value"),
], ids=["top-level-object", "rule-not-object", "fractional-count",
        "bool-count", "zero-count", "string-items", "bool-item",
        "string-item", "missing-items", "unknown-key", "numeric-name",
        "string-value", "bool-value"])
def test_label_rules_refuse_wrong_values(tmp_path, raw, match):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=match):
        load_label_rules(path)


# ----------------------------------------------------------------- dataset


def test_build_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    recs = [(int(rng.integers(0, 8)), int(rng.integers(0, 12)),
             float(rng.integers(1, 9)), int(rng.integers(0, 30)))
            for _ in range(400)]
    log = EventLog.from_records(recs, n_nodes=8)
    rules = [LabelRule("hot", tuple(range(6)), min_count=3, min_value=2.0)]
    ds = build_dataset(log, rules)
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.boundaries == ds.boundaries
    assert back.event_counts == ds.event_counts
    np.testing.assert_array_equal(back.node_ids, ds.node_ids)
    np.testing.assert_array_equal(back.item_ids, ds.item_ids)
    for role in ("validation", "training", "testing"):
        a, b = ds.matrix(role), back.matrix(role)
        assert (a.data != b.data).nnz == 0
        np.testing.assert_array_equal(
            ds.labelset(role).array("hot"), back.labelset(role).array("hot"))
    assert back.n_nodes == 8


def _tampered_dataset(tmp_path, **arrays):
    """A saved 6-node, 4-item dataset with some npz arrays replaced."""
    recs = [(node, item, 1.0 + node, 10 * node + item)
            for node in range(6) for item in range(4) if (node + item) % 2]
    log = EventLog.from_records(recs, n_nodes=6)
    rules = [LabelRule("hot", (1, 3), min_count=1, min_value=2.0)]
    save_dataset(build_dataset(log, rules), tmp_path)
    blob = dict(np.load(tmp_path / "dataset.npz"))
    blob.update(arrays)
    np.savez_compressed(tmp_path / "dataset.npz", **blob)
    return tmp_path


def _row0(cols, vals):
    """training_* arrays of a 6 x 4 matrix whose only stored row is 0."""
    return {"training_indptr": np.array([0] + [len(cols)] * 6),
            "training_indices": np.array(cols, dtype=np.int32),
            "training_data": np.array(vals, dtype=np.float64)}


@pytest.mark.parametrize("arrays, fault", [
    (_row0([0, 0], [1.0, 2.0]), "training matrix: a row holds a column "
                                "twice"),
    (_row0([2, 0], [1.0, 2.0]), "training matrix: a row holds a column "
                                "twice or out of order"),
    (_row0([0], [-1.0]), "training matrix: negative value"),
    (_row0([0], [np.nan]), "training matrix: non-finite value"),
    (_row0([0], [np.inf]), "training matrix: non-finite value"),
    (_row0([99], [1.0]), r"training matrix: .* < 4"),
    ({"testing_label_hot": np.zeros(3, dtype=bool)},
     "testing label 'hot': 3 entries for 6 nodes"),
], ids=["duplicate-column", "unsorted-columns", "negative-value",
        "nan-value", "inf-value", "column-out-of-range", "short-labels"])
def test_malformed_dataset_fails_on_load(tmp_path, arrays, fault):
    with pytest.raises(DataError, match=fault):
        load_dataset(_tampered_dataset(tmp_path, **arrays))
