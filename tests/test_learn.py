"""Training-set assembly and the from-scratch classifiers."""

import numpy as np
import pytest
from scipy import sparse

from netsel import learn
from netsel._rng import generator
from netsel.data import AttributeMatrix, EventLog, build_matrix
from netsel.learn import (
    CoinClassifier,
    ConstantClassifier,
    LearnError,
    LinearSVM,
    RFHyper,
    SVMHyper,
    TrainingSet,
    _best_split,
    _unit_rows,
    edge_features,
    pair_features,
    settle_svms,
    single_class_label,
    train_classifier,
    train_rf,
    train_svm,
    train_svms,
)
from netsel.similarity import sim

COLS2 = np.array([0, 1])


def stack_rows(rows):
    """A list of canonical (cols, vals) instances as one CSR triple."""
    cols = [np.asarray(c, dtype=np.int64) for c, _ in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cols], out=indptr[1:])
    return (indptr, np.concatenate([np.empty(0, np.int64), *cols]),
            np.concatenate([np.empty(0), *(np.asarray(v, dtype=np.float64)
                                           for _, v in rows)]))


def ts_from(rows, labels, ids=None):
    if ids is None:
        ids = list(range(len(rows)))
    return TrainingSet(stack_rows(rows), labels, ids)


def csr(ts):
    """A training set as a scipy matrix, for the reference formulations."""
    return sparse.csr_matrix((ts.data, ts.indices, ts.indptr),
                             shape=(ts.n, ts.n_features))


def svm_objective(w: np.ndarray, b: float, X: sparse.csr_matrix,
                  y_signed: np.ndarray, reg: float) -> float:
    """Regularized mean hinge loss on pre-normalized instances."""
    margins = y_signed * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(0.5 * reg * (w @ w) + hinge)


def dense_rows(X):
    return [(np.flatnonzero(x), x[np.flatnonzero(x)].astype(float))
            for x in X]


# ------------------------------------------------------------- TrainingSet


def test_training_set_sorts_by_id():
    rows = [(np.array([0]), np.array([5.0])),
            (np.array([1]), np.array([7.0]))]
    ts = ts_from(rows, [1, 0], ids=[9, 2])
    assert ts.ids == (2, 9)
    np.testing.assert_array_equal(ts.y, [0, 1])
    # row for id 2 carries column 1
    np.testing.assert_array_equal(csr(ts).toarray(), [[0, 7.0], [5.0, 0]])


def test_training_set_dictionary_is_sorted_union():
    rows = [(np.array([3, 7]), np.array([2.0, 1.0])),
            (np.array([5]), np.array([4.0]))]
    ts = ts_from(rows, [0, 1])
    np.testing.assert_array_equal(ts.dictionary, [3, 5, 7])
    assert ts.n == 2 and ts.n_features == 3
    np.testing.assert_array_equal(ts.classes(), [0, 1])


def test_training_set_validation():
    row = (np.array([0]), np.array([1.0]))
    with pytest.raises(LearnError):
        ts_from([row], [1, 0], ids=[0])
    with pytest.raises(LearnError):
        ts_from([], [], ids=[])
    with pytest.raises(LearnError):
        ts_from([row], [2])
    with pytest.raises(LearnError):
        ts_from([(np.array([0]), np.array([-1.0]))], [1])


def test_single_class_label_makes_the_training_set_checks():
    m = AttributeMatrix(
        data=sparse.csr_matrix(np.array([[1.0, -2.0], [1.0, 0.0],
                                         [0.0, 3.0]])),
        item_ids=np.arange(2), role="training")
    assert single_class_label(m, [1, 1], [2, 1]) == 1
    assert single_class_label(m, [0], [1]) == 0
    assert single_class_label(m, [0, 1], [1, 2]) is None  # two classes
    for labels, ids, what in (([1, 1], [2, 0], "negative"),
                              ([2, 2], [1, 2], "0/1")):
        for check in (single_class_label, TrainingSet):
            with pytest.raises(LearnError, match=what):
                check(m, labels, ids)


def test_training_set_from_matrix_rows_equals_row_list():
    rng = np.random.default_rng(2)
    recs = [(i, int(item), float(rng.random() * 5), 1)
            for i in range(12) if i != 4  # node 4 has an empty row
            for item in rng.choice(40, size=rng.integers(1, 15),
                                   replace=False)]
    m = build_matrix(EventLog.from_records(recs, n_nodes=12),
                     np.arange(40), "training", "mean")
    nodes = np.array([9, 4, 0, 11, 3, 7])
    labels = np.array([1, 0, 0, 1, 1, 0])
    got = TrainingSet(m, labels, nodes)
    want = ts_from([m.row(int(j)) for j in nodes], labels.tolist(),
                   nodes.tolist())
    assert got.ids == want.ids == (0, 3, 4, 7, 9, 11)
    assert all(type(i) is int for i in got.ids)
    np.testing.assert_array_equal(got.y, want.y)
    assert got.y.dtype == want.y.dtype
    np.testing.assert_array_equal(got.dictionary, want.dictionary)
    assert got.dictionary.dtype == want.dictionary.dtype
    assert (got.n, got.n_features) == (want.n, want.n_features)
    for a in ("indptr", "indices", "data"):
        x, y = getattr(got, a), getattr(want, a)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert got.indptr[3] == got.indptr[2]  # node 4's empty row
    assert csr(got).has_canonical_format


# ----------------------------------------------------------- edge features


def _attr_matrix(rows, n_items):
    recs = [(i, item, float(v), 1)
            for i, d in enumerate(rows) for item, v in d.items()]
    log = EventLog.from_records(recs, n_nodes=len(rows))
    return build_matrix(log, np.arange(n_items), "training")


def test_edge_features_example():
    m = _attr_matrix([{1: 3.0, 2: 1.0}, {1: 2.0, 3: 5.0}], 4)
    cols, vals = edge_features(m, 0, 1)
    np.testing.assert_array_equal(cols, [1])
    np.testing.assert_array_equal(vals, [2.0])


def test_edge_features_disjoint_and_identity():
    m = _attr_matrix([{0: 2.0}, {3: 1.0}, {0: 2.0}], 4)
    cols, vals = edge_features(m, 0, 1)
    assert len(cols) == 0 and len(vals) == 0
    cols, vals = edge_features(m, 0, 2)
    np.testing.assert_array_equal(cols, [0])
    np.testing.assert_array_equal(vals, [2.0])


def test_edge_features_symmetric_and_sum_to_intersection():
    rng = np.random.default_rng(4)
    rows = []
    for _ in range(8):
        items = rng.choice(12, size=5, replace=False)
        rows.append({int(i): float(v) for i, v in
                     zip(items, rng.integers(1, 9, 5))})
    m = _attr_matrix(rows, 12)
    for u in range(8):
        for v in range(u + 1, 8):
            cu, mu = edge_features(m, u, v)
            cv, mv = edge_features(m, v, u)
            np.testing.assert_array_equal(cu, cv)
            np.testing.assert_array_equal(mu, mv)
            assert mu.sum() == pytest.approx(sim(rows[u], rows[v], "INT"))


def _reference_edge_features(matrix, u, v):
    """Per-pair features as two row intersections."""
    cu, vu = matrix.row(u)
    cv, vv = matrix.row(v)
    common, ku, kv = np.intersect1d(cu, cv, return_indices=True)
    return common, np.minimum(vu[ku], vv[kv])


@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_pair_features_match_per_pair_reference(aggregation):
    for seed in range(6):
        rng = np.random.default_rng([seed, aggregation == "mean"])
        n, n_items = 30, 60
        # nodes 0-4 have empty rows; nodes 5-9 draw from items 50-59
        # only, so they share no column with nodes 10 and up
        recs = []
        for i in range(5, n):
            pool = np.arange(50, 60) if i < 10 else np.arange(50)
            for item in rng.choice(pool, size=rng.integers(1, 10),
                                   replace=False):
                for _ in range(rng.integers(1, 3)):  # repeats aggregate
                    recs.append((i, int(item), float(rng.random() * 4), 1))
        m = build_matrix(EventLog.from_records(recs, n_nodes=n),
                         np.arange(n_items), "training", aggregation)
        pairs = rng.integers(0, n, size=(200, 2))  # u > v and u == v too
        pairs = np.concatenate([pairs, pairs[:20], [(3, 7), (7, 12)]])
        indptr, cols, vals = pair_features(m, pairs)
        assert len(indptr) == len(pairs) + 1
        assert cols.dtype == m.data.indices.dtype
        assert vals.dtype == np.float64
        assert (np.diff(indptr) == 0).any() and (np.diff(indptr) > 1).any()
        for t, (u, v) in enumerate(pairs.tolist()):
            want_c, want_v = _reference_edge_features(m, u, v)
            got_c = cols[indptr[t]:indptr[t + 1]]
            got_v = vals[indptr[t]:indptr[t + 1]]
            one_c, one_v = edge_features(m, u, v)
            for c, x in ((got_c, got_v), (one_c, one_v)):
                assert c.dtype == want_c.dtype
                assert c.tobytes() == want_c.tobytes()
                assert x.tobytes() == want_v.tobytes()


def test_pair_features_of_no_pairs():
    m = _attr_matrix([{0: 1.0}, {0: 2.0}], 2)
    indptr, cols, vals = pair_features(m, np.empty((0, 2), dtype=np.int64))
    assert indptr.tolist() == [0] and len(cols) == len(vals) == 0


def test_training_set_from_pair_features_equals_row_list():
    rng = np.random.default_rng(8)
    recs = [(i, int(item), float(rng.integers(1, 5)), 1)
            for i in range(15) if i != 6
            for item in rng.choice(30, size=rng.integers(1, 12),
                                   replace=False)]
    m = build_matrix(EventLog.from_records(recs, n_nodes=15),
                     np.arange(30), "training")
    pairs = np.array([(4, 9), (0, 6), (2, 3), (0, 5), (11, 14), (2, 1)])
    labels = np.array([1, 0, 1, 1, 0, 0])
    got = TrainingSet(pair_features(m, pairs), labels, pairs)
    want = ts_from([_reference_edge_features(m, a, b)
                    for a, b in pairs.tolist()], labels.tolist(),
                   [tuple(p) for p in pairs.tolist()])
    assert got.ids == want.ids == tuple(sorted(map(tuple, pairs.tolist())))
    assert all(type(a) is int for p in got.ids for a in p)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.dictionary.tobytes() == want.dictionary.tobytes()
    for a in ("indptr", "indices", "data"):
        x, y = getattr(got, a), getattr(want, a)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert csr(got).has_canonical_format


# -------------------------------------------------------------- linear SVM


def _separable():
    rows = [(np.array([0]), np.array([1.0])) for _ in range(5)]
    rows += [(np.array([1]), np.array([1.0])) for _ in range(5)]
    return ts_from(rows, [1] * 5 + [0] * 5)


def test_svm_separates_a_separable_set():
    model = train_svm(_separable(), SVMHyper(), seed=0)
    assert isinstance(model, LinearSVM)
    assert model.predict(np.array([0]), np.array([1.0])) == 1
    assert model.predict(np.array([1]), np.array([1.0])) == 0


def test_svm_single_class_degenerates_to_constant():
    rows = [(np.array([0]), np.array([1.0])) for _ in range(4)]
    model = train_svm(ts_from(rows, [1] * 4), SVMHyper(), seed=0)
    assert isinstance(model, ConstantClassifier)
    assert model.predict(np.array([5]), np.array([9.0])) == 1
    assert model.reason == "single-class"


def test_svm_zero_decision_predicts_positive():
    model = LinearSVM(np.zeros(2), 0.0, COLS2)
    assert model.decision(np.array([0]), np.array([3.0])) == 0.0
    assert model.predict(np.array([0]), np.array([3.0])) == 1


def test_svm_empty_input_follows_bias_sign():
    model = train_svm(_separable(), SVMHyper(), seed=0)
    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    assert model.predict(*empty) == (1 if model.b >= 0 else 0)


def test_svm_training_is_deterministic():
    a = train_svm(_separable(), SVMHyper(), seed=3)
    b = train_svm(_separable(), SVMHyper(), seed=3)
    np.testing.assert_array_equal(a.w, b.w)
    assert a.b == b.b


def test_svm_input_order_does_not_matter():
    rows = [(np.array([i % 3]), np.array([float(i + 1)])) for i in range(6)]
    labels = [0, 1, 0, 1, 0, 1]
    ids = list(range(6))
    fwd = train_svm(ts_from(rows, labels, ids), SVMHyper(), seed=1)
    perm = [4, 0, 5, 2, 1, 3]
    bwd = train_svm(
        ts_from([rows[p] for p in perm], [labels[p] for p in perm],
                [ids[p] for p in perm]),
        SVMHyper(), seed=1)
    np.testing.assert_array_equal(fwd.w, bwd.w)
    assert fwd.b == bwd.b


def test_svm_objective_never_worse_than_zero_model():
    rng = np.random.default_rng(6)
    for trial in range(10):
        n, d = 12 + trial, 5
        rows = []
        for _ in range(n):
            nz = rng.choice(d, size=rng.integers(1, d + 1), replace=False)
            rows.append((np.sort(nz),
                         rng.integers(1, 6, len(nz)).astype(float)))
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        ts = ts_from(rows, y.tolist())
        hyper = SVMHyper()
        model = train_svm(ts, hyper, seed=trial)
        X = csr(ts)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        inv = np.where(norms > 0, 1.0 / np.maximum(norms, 1e-300), 1.0)
        Xn = (sparse.diags(inv) @ X).tocsr()
        y_signed = ts.y.astype(float) * 2 - 1
        obj = svm_objective(model.w, model.b, Xn, y_signed, hyper.reg)
        zero = svm_objective(np.zeros(ts.n_features), 0.0, Xn, y_signed,
                             hyper.reg)
        assert obj <= zero + 1e-9
        assert zero == pytest.approx(1.0)


def _reference_train_svm(ts, hyper, seed):
    """train_svm as first written, on scipy's normalization and
    ndarray.mean; the fast path must reproduce its bits."""
    from netsel._rng import generator
    classes = ts.classes()
    if len(classes) == 1:
        return ConstantClassifier(int(classes[0]), "single-class")
    X = csr(ts)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    scale = np.ones_like(norms)
    nz = norms > 0
    scale[nz] = 1.0 / norms[nz]
    X = sparse.diags(scale) @ X
    X = X.tocsr()
    y = ts.y.astype(np.float64) * 2.0 - 1.0
    w = np.zeros(ts.n_features)
    b = 0.0
    rng = generator(seed, "svm")
    t = 0
    for _ in range(hyper.epochs):
        for i in rng.permutation(ts.n):
            t += 1
            eta = 1.0 / (hyper.reg * t)
            lo, hi = X.indptr[i], X.indptr[i + 1]
            cols = X.indices[lo:hi]
            vals = X.data[lo:hi]
            margin = y[i] * (w[cols] @ vals + b)
            decay = 1.0 - eta * hyper.reg
            w *= decay
            b *= decay
            if margin < 1.0:
                w[cols] += eta * y[i] * vals
                b += eta * y[i]
    c = _reference_best_scale(w, b, X, y, hyper.reg)
    return LinearSVM(c * w, c * b, ts.dictionary)


def _reference_best_scale(w, b, X, y, reg):
    margins = y * (X @ w + b)
    quad = 0.5 * reg * float(w @ w)

    def obj(c):
        return quad * c * c + float(np.maximum(0.0, 1.0 - c * margins)
                                    .mean())

    pos = margins[margins > 0]
    hi = float(max(1.0, (1.0 / pos).max())) if len(pos) else 1.0
    lo = 0.0
    for _ in range(100):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if obj(m1) <= obj(m2):
            hi = m2
        else:
            lo = m1
    best = (lo + hi) / 2.0
    return best if obj(best) < obj(0.0) else 0.0


def _random_svm_set(rng, aggregation):
    """Up to 40 rows over up to 60 columns, rows long enough for numpy's
    pairwise sums; some rows empty, some duplicated."""
    n, d = int(rng.integers(2, 41)), int(rng.integers(1, 61))
    rows = []
    for _ in range(n):
        r = rng.random()
        if r < 0.1:
            rows.append((np.empty(0, dtype=np.int64), np.empty(0)))
            continue
        if r < 0.25 and rows:
            rows.append(rows[int(rng.integers(len(rows)))])
            continue
        cols = np.sort(rng.choice(d, size=rng.integers(1, min(d, 35) + 1),
                                  replace=False))
        vals = (rng.integers(1, 6, size=len(cols)).astype(float)
                if aggregation == "sum"
                else rng.random(len(cols)) * 10.0 ** rng.integers(-3, 4))
        rows.append((cols, vals))
    return rows, rng.integers(0, 2, n)


def _same_model(a, b):
    assert type(a) is type(b)
    if isinstance(a, ConstantClassifier):
        assert a.label == b.label
        return
    assert a.w.tobytes() == b.w.tobytes()
    assert np.float64(a.b).tobytes() == np.float64(b.b).tobytes()
    np.testing.assert_array_equal(a.dictionary, b.dictionary)


@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_svm_is_bit_identical_to_reference(aggregation):
    rng = np.random.default_rng(11 if aggregation == "sum" else 12)
    hypers = [SVMHyper(), SVMHyper(reg=1e-2, epochs=3),
              SVMHyper(reg=0.5, epochs=4)]
    kinds = set()
    for trial in range(40):
        rows, labels = _random_svm_set(rng, aggregation)
        if trial % 10 == 0:
            labels[:] = trial % 20 // 10  # single-class
        ts = ts_from(rows, labels.tolist())
        hyper = hypers[trial % len(hypers)]
        got = train_svm(ts, hyper, seed=trial)
        _same_model(got, _reference_train_svm(ts, hyper, seed=trial))
        kinds.add(type(got).__name__)
    assert kinds == {"LinearSVM", "ConstantClassifier"}


def test_svm_matches_reference_at_scale_zero():
    # identical rows with opposite labels: every scale above 0 loses to
    # the zero solution
    rows = [(np.array([0, 2, 5]), np.array([1.0, 3.0, 2.0]))] * 6
    rows += [(np.empty(0, dtype=np.int64), np.empty(0))] * 2
    ts = ts_from(rows, [1, 0, 1, 0, 1, 0, 1, 0])
    want = _reference_train_svm(ts, SVMHyper(), seed=4)
    assert not want.w.any() and want.b == 0.0
    _same_model(train_svm(ts, SVMHyper(), seed=4), want)


def _frozen_best_scale(w, margins, reg):
    """The scale search as it ran once per model, before settle_svms ran
    them in lock step; kept verbatim as the bit-level reference."""
    n = len(margins)
    quad = 0.5 * reg * float(w @ w)
    probe = np.empty((2, 1))
    buf = np.empty((2, n))

    def obj(c1, c2):
        probe[0, 0] = c1
        probe[1, 0] = c2
        np.multiply(probe, margins, out=buf)
        np.subtract(1.0, buf, out=buf)
        np.maximum(0.0, buf, out=buf)
        s1, s2 = np.add.reduce(buf, axis=1).tolist()
        return quad * c1 * c1 + s1 / n, quad * c2 * c2 + s2 / n

    pos = margins[margins > 0]
    hi = float(max(1.0, (1.0 / pos).max())) if len(pos) else 1.0
    lo = 0.0
    for _ in range(100):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        o1, o2 = obj(m1, m2)
        if o1 <= o2:
            hi = m2
        else:
            lo = m1
    best = (lo + hi) / 2.0
    o_best, o_zero = obj(best, 0.0)
    return best if o_best < o_zero else 0.0


def _random_pending(rng):
    """A pending model over 1 to 60 rows: margins of mixed magnitude, some
    with no positive entry, some mirrored (+m, -m) so that no scale beats
    zero, some from w = 0."""
    n = int(rng.integers(1, 61))
    d = int(rng.integers(0, 8))
    w = rng.normal(size=d) * 10.0 ** int(rng.integers(-3, 3))
    b = float(rng.normal())
    margins = rng.normal(size=n) * 10.0 ** int(rng.integers(-4, 3))
    kind = rng.random()
    if kind < 0.1:
        margins = -np.abs(margins)
    elif kind < 0.2 and n > 1:
        margins[n // 2:2 * (n // 2)] = -margins[:n // 2]
    elif kind < 0.3:
        w[:] = 0.0
        margins = np.full(n, b) * rng.choice([-1.0, 1.0], size=n)
    reg = float(rng.choice([1e-4, 1e-2, 0.5]))
    return w, b, margins, reg


def test_settle_svms_matches_the_frozen_search():
    rng = np.random.default_rng(2024)
    seen = {"zero": 0, "scaled": 0, "shared_n": 0}
    for _ in range(500):
        drawn = [_random_pending(rng) for _ in range(int(rng.integers(1, 9)))]
        models = [LinearSVM(w, b, np.arange(len(w)), m, reg)
                  for w, b, m, reg in drawn]
        twin = int(rng.integers(len(drawn)))  # equal content, own object
        w, b, m, reg = drawn[twin]
        models.append(LinearSVM(w.copy(), b, np.arange(len(w)), m.copy(),
                                reg))
        drawn.append(drawn[twin])
        ns = [len(m) for _, _, m, _ in drawn]
        seen["shared_n"] += len(ns) - len(set(ns))
        settle_svms(models + models[:2])  # listed twice: settled once
        for model, (w, b, m, reg) in zip(models, drawn):
            assert model.margins is None
            c = _frozen_best_scale(w, m, reg)
            seen["zero" if c == 0.0 else "scaled"] += 1
            assert model.w.tobytes() == (c * w).tobytes()
            assert np.float64(model.b).tobytes() == \
                np.float64(c * b).tobytes()
    assert min(seen.values()) > 100


def test_settle_svms_skips_other_and_settled_models():
    settled = LinearSVM(np.ones(2), 0.5, COLS2)
    const = ConstantClassifier(1)
    settle_svms([settled, const, None])
    assert settled.w.tolist() == [1.0, 1.0] and settled.b == 0.5


def test_model_read_before_settling_equals_one_settled_in_a_batch():
    rng = np.random.default_rng(5)
    sets = [ts_from(*_random_svm_set(rng, "sum")) for _ in range(6)]
    sets = [ts for ts in sets if len(ts.classes()) == 2]
    batch = [train_svm(ts, SVMHyper(), seed=k) for k, ts in enumerate(sets)]
    alone = train_svm(sets[0], SVMHyper(), seed=0)
    assert alone.sgd is not None and alone.pending  # training pending
    alone_pred = alone.predict(np.array([0, 1]), np.array([1.0, 2.0]))
    assert not alone.pending  # predicting trained and settled it, alone
    settle_svms(batch)
    _same_model(alone, batch[0])
    assert batch[0].predict(np.array([0, 1]), np.array([1.0, 2.0])) == \
        alone_pred
    for k, ts in enumerate(sets):
        _same_model(batch[k], _reference_train_svm(ts, SVMHyper(), seed=k))


def _frozen_sgd(ts, hyper, seed):
    """train_svm's SGD as it ran once per model, before train_svms ran the
    models in lock step; kept verbatim as the bit-level reference. Returns
    the final iterate (w, b) and its signed training margins."""
    ptr, cols, vals = _unit_rows(ts)
    cols = cols.astype(np.intp)
    row = np.repeat(np.arange(ts.n)[::-1], np.diff(ptr))
    rows = [(cols[a:z], vals[a:z])
            for a, z in zip(ptr[:-1].tolist(), ptr[1:].tolist())][::-1]
    y = ts.y.astype(np.float64) * 2.0 - 1.0
    y_list = y.tolist()
    reg = hyper.reg
    w = np.zeros(ts.n_features)
    take, put = w.take, w.put
    b = 0.0
    rng = generator(seed, "svm")
    t = 0
    for _ in range(hyper.epochs):
        for i in rng.permutation(ts.n).tolist():
            t += 1
            eta = 1.0 / (reg * t)
            c, v = rows[i]
            yi = y_list[i]
            margin = yi * (take(c).dot(v) + b)
            decay = 1.0 - eta * reg
            w *= decay
            b *= decay
            if margin < 1.0:
                put(c, take(c) + eta * yi * v)
                b += eta * yi
    margins = y * (np.bincount(row, weights=vals * w[cols], minlength=ts.n)
                   + b)
    return w, b, margins


def _assert_trained_as_frozen(model, ts, hyper, seed):
    assert model.sgd is None and model.margins is not None
    w, b, margins = _frozen_sgd(ts, hyper, seed)
    assert model._w.tobytes() == w.tobytes()
    assert np.float64(model._b).tobytes() == np.float64(b).tobytes()
    assert np.ascontiguousarray(model.margins).tobytes() == margins.tobytes()
    assert model.reg == hyper.reg


def _exact_margin_counter(monkeypatch):
    """Count the margins the lock-step trainer takes with the per-model
    dot."""
    calls = []
    real = learn._exact_margin

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(learn, "_exact_margin", count)
    return calls


_SGD_HYPERS = [SVMHyper(), SVMHyper(reg=1e-2, epochs=3),
               SVMHyper(reg=0.5, epochs=4), SVMHyper(reg=2.0, epochs=2)]


def _random_sgd_group(rng):
    """Up to 18 two-class training sets of 2 to 60 rows over up to 60
    columns (some rows empty, some repeated), each with a seed and a
    hyperparameter set, mostly the group's main one; an equal-content twin
    of one of them is appended."""
    main = _SGD_HYPERS[int(rng.integers(len(_SGD_HYPERS)))]
    group = []
    for _ in range(int(rng.integers(1, 19))):
        n, d = 2 + int(59 * rng.random() ** 2), int(rng.integers(1, 61))
        X = rng.integers(1, 6, size=(n, d)).astype(float)
        if rng.random() < 0.5:
            X = rng.random((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        X[rng.random((n, d)) > rng.random()] = 0.0
        X[rng.random(n) < 0.1] = 0.0  # empty rows
        dup = rng.random(n) < 0.15
        X[dup] = X[rng.integers(n, size=int(dup.sum()))]
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        rows, cols = np.nonzero(X)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        ts = TrainingSet((indptr, cols, X[rows, cols]), labels, np.arange(n))
        hyper = main if rng.random() < 0.75 else \
            _SGD_HYPERS[int(rng.integers(len(_SGD_HYPERS)))]
        group.append((ts, hyper, int(rng.integers(2**31))))
    group.append(group[int(rng.integers(len(group)))])
    return group


def test_lockstep_sgd_matches_the_frozen_loop(monkeypatch):
    exact = _exact_margin_counter(monkeypatch)
    rng = np.random.default_rng(2026)
    lockstep = 0
    for _ in range(500):
        group = _random_sgd_group(rng)
        models = [train_svm(ts, hyper, seed) for ts, hyper, seed in group]
        assert all(m.sgd is not None for m in models)
        train_svms(models + models[:2])  # listed twice: trained once
        for model, (ts, hyper, seed) in zip(models, group):
            _assert_trained_as_frozen(model, ts, hyper, seed)
        per_hyper = [sum(h == hyper for _, h, _ in group)
                     for hyper in _SGD_HYPERS]
        lockstep += max(per_hyper) >= learn._TAIL
    assert lockstep > 100  # groups whose models stepped in lock step
    assert exact  # some margins landed within the slack of 1


def test_lockstep_sgd_with_every_margin_taken_exactly(monkeypatch):
    exact = _exact_margin_counter(monkeypatch)
    monkeypatch.setattr(learn, "_SLACK_ABS", np.inf)
    rng = np.random.default_rng(7)
    for _ in range(40):
        group = _random_sgd_group(rng)
        models = [train_svm(ts, hyper, seed) for ts, hyper, seed in group]
        train_svms(models)
        for model, (ts, hyper, seed) in zip(models, group):
            _assert_trained_as_frozen(model, ts, hyper, seed)
    assert len(exact) > 1000


def test_margin_within_the_slack_takes_the_per_model_dot(monkeypatch):
    # reg = 2: the first step sets (w, b) to (v, 1) / 2, so when the second
    # step repeats the same positive unit row v, its margin (|v|^2 + 1) / 2
    # is 1 up to rounding, well inside the certificate's slack
    exact = _exact_margin_counter(monkeypatch)
    rng = np.random.default_rng(3)
    hyper = SVMHyper(reg=2.0, epochs=1)
    group = []
    for k in range(12):
        cols = np.sort(rng.choice(40, size=int(rng.integers(3, 30)),
                                  replace=False))
        row = (cols, rng.random(len(cols)) * 10.0 ** int(rng.integers(-2, 3)))
        rows = [row] * 9 + [(np.array([40 + k]), np.array([1.0]))]
        group.append((ts_from(rows, [1] * 9 + [0]), hyper, k))
    models = [train_svm(ts, hyper, seed) for ts, hyper, seed in group]
    train_svms(models)
    for model, (ts, hyper, seed) in zip(models, group):
        _assert_trained_as_frozen(model, ts, hyper, seed)
    # the second step of every model whose first two rows are positive
    assert len(exact) >= 8


def test_pending_model_trains_alone_as_in_a_group():
    rng = np.random.default_rng(8)
    group = _random_sgd_group(rng)
    while len(group) < 2 * learn._TAIL:
        group += _random_sgd_group(rng)
    group = [(ts, SVMHyper(), seed) for ts, _, seed in group]
    batch = [train_svm(ts, hyper, seed) for ts, hyper, seed in group]
    train_svms(batch)
    for model, (ts, hyper, seed) in zip(batch, group):
        alone = train_svm(ts, hyper, seed)
        train_svms([alone])
        assert alone._w.tobytes() == model._w.tobytes()
        assert alone._b == model._b
        assert alone.margins.tobytes() == \
            np.ascontiguousarray(model.margins).tobytes()


# ------------------------------------------------------------ random forest


def _xor_set(seed=0):
    rng = np.random.default_rng(seed)
    corners = np.repeat(np.array(
        [[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float), 10, axis=0)
    labels = np.repeat([0, 1, 1, 0], 10)
    feats = corners + rng.uniform(0.0, 0.05, corners.shape)
    rows = [(COLS2, feats[i]) for i in range(len(feats))]
    return ts_from(rows, labels.tolist()), feats, labels


def test_rf_learns_xor_style_interaction():
    ts, feats, labels = _xor_set()
    model = train_rf(ts, RFHyper(), seed=0)
    preds = np.array([model.predict(COLS2, feats[i])
                      for i in range(len(feats))])
    assert (preds == labels).mean() >= 0.95


def test_rf_single_class_degenerates_to_constant():
    rows = [(COLS2, np.array([1.0, 2.0]))] * 3
    model = train_rf(ts_from(rows, [0, 0, 0]), RFHyper(), seed=0)
    assert isinstance(model, ConstantClassifier)
    assert model.predict(COLS2, np.array([9.0, 9.0])) == 0


def test_rf_is_deterministic_per_seed():
    ts, feats, _ = _xor_set()
    a = train_rf(ts, RFHyper(trees=10), seed=5)
    b = train_rf(ts, RFHyper(trees=10), seed=5)
    pa = [a.predict(COLS2, f) for f in feats]
    pb = [b.predict(COLS2, f) for f in feats]
    assert pa == pb


def test_rf_unsplittable_tie_predicts_positive():
    # all rows identical, labels balanced: no valid split, majority tie -> 1
    rows = [(COLS2, np.array([1.0, 1.0]))] * 4
    model = train_rf(ts_from(rows, [0, 0, 1, 1]),
                     RFHyper(trees=1, feature_frac=1.0, bootstrap=False),
                     seed=0)
    assert model.predict(COLS2, np.array([1.0, 1.0])) == 1


def _ref_cart(X, y, max_depth, min_leaf):
    """Plain recursive CART mirroring the published tie rules: strict gain
    over the parent, lowest feature then lowest threshold."""

    def grow(idx, depth):
        yn = y[idx]
        if depth >= max_depth or len(idx) < 2 * min_leaf \
                or yn.min() == yn.max():
            return ("leaf", 1 if 2 * yn.sum() >= len(yn) else 0)
        nn = len(idx)
        p1 = yn.sum() / nn
        best = None
        best_score = (1.0 - p1 ** 2 - (1.0 - p1) ** 2) - 1e-12
        for f in range(X.shape[1]):
            xs_all = X[idx, f]
            order = np.argsort(xs_all, kind="stable")
            xs, ys = xs_all[order], yn[order]
            pos = np.cumsum(ys)
            found = None
            for k in range(1, nn):
                if xs[k] <= xs[k - 1]:
                    continue
                if min_leaf > 1 and (k < min_leaf or nn - k < min_leaf):
                    continue
                kk, rn = float(k), float(nn - k)
                lp = pos[k - 1].astype(np.float64)
                rp = pos[-1].astype(np.float64) - lp
                gini_l = 1.0 - (lp / kk) ** 2 - ((kk - lp) / kk) ** 2
                gini_r = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
                s = (kk * gini_l + rn * gini_r) / nn
                if found is None or s < found[0]:
                    found = (s, 0.5 * (xs[k - 1] + xs[k]))
            if found is not None and found[0] < best_score:
                best_score = found[0]
                best = (f, found[1])
        if best is None:
            return ("leaf", 1 if 2 * yn.sum() >= len(yn) else 0)
        f, thr = best
        go = X[idx, f] <= thr
        return ("split", f, thr, grow(idx[go], depth + 1),
                grow(idx[~go], depth + 1))

    return grow(np.arange(len(y)), 0)


def _ref_predict(node, x):
    while node[0] == "split":
        _, f, thr, left, right = node
        node = left if x[f] <= thr else right
    return node[1]


@pytest.mark.parametrize("max_depth,min_leaf", [(16, 1), (3, 1), (16, 2)])
def test_single_deterministic_tree_matches_reference_cart(max_depth, min_leaf):
    rng = np.random.default_rng(9)
    for trial in range(8):
        n, d = 10 + 4 * trial, 2 + trial % 4
        dense = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        ts = ts_from(dense_rows(dense), y.tolist())
        hyper = RFHyper(trees=1, max_depth=max_depth, min_leaf=min_leaf,
                        feature_frac=1.0, bootstrap=False)
        model = train_rf(ts, hyper, seed=trial)
        local = csr(ts).toarray()
        ref = _ref_cart(local, ts.y.astype(np.int64), max_depth, min_leaf)
        for i in range(n):
            cols = np.flatnonzero(dense[i])
            got = model.predict(cols, dense[i][cols])
            assert got == _ref_predict(ref, local[i]), (trial, i)


def _per_column_best_split(X, idx, y, feats, min_leaf):
    """Split search with the Gini score of every (threshold, feature)
    position, invalid ones set to inf, and one argmin per column."""
    nn = len(y)
    Xs = X[np.ix_(idx, feats)]
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    ys = y[order]
    pos = np.cumsum(ys, axis=0)
    k = np.arange(1, nn)[:, None].astype(np.float64)
    lp = pos[:-1].astype(np.float64)
    rp = pos[-1] - lp
    rn = nn - k
    gini_l = 1.0 - (lp / k) ** 2 - ((k - lp) / k) ** 2
    gini_r = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
    score = (k * gini_l + rn * gini_r) / nn
    valid = xs[1:] > xs[:-1]
    if min_leaf > 1:
        ks = np.arange(1, nn)
        ok = (ks >= min_leaf) & (nn - ks >= min_leaf)
        valid &= ok[:, None]
    score = np.where(valid, score, np.inf)
    p1 = y.sum() / nn
    parent = 1.0 - p1 ** 2 - (1.0 - p1) ** 2
    best = None
    best_score = parent - 1e-12
    for c in range(len(feats)):
        kidx = int(np.argmin(score[:, c]))
        s = score[kidx, c]
        if s < best_score:
            best_score = s
            thr = 0.5 * (xs[kidx, c] + xs[kidx + 1, c])
            best = (int(feats[c]), float(thr))
    return best


def _random_node(rng, t):
    """One split-search input: a dense matrix, the node's rows (bootstrap
    duplicates or not), their labels, a feature sample and min_leaf."""
    n, d = int(rng.integers(2, 40)), int(rng.integers(1, 30))
    kind = t % 4
    if kind == 0:  # item counts: mostly small integers and zeros
        X = rng.poisson(rng.uniform(0.1, 2.0), size=(n, d)).astype(float)
    elif kind == 1:  # floats, rounded so some values repeat
        X = rng.random((n, d)).round(int(rng.integers(0, 4)))
    elif kind == 2:  # sparse item columns
        X = (rng.random((n, d)) < 0.1) * rng.integers(1, 4, (n, d)) * 1.0
    else:  # exact ties: copied and mirrored columns
        X = rng.poisson(1.0, size=(n, d)).astype(float)
        for j in range(1, d):
            i = int(rng.integers(0, j))
            X[:, j] = X[:, i] if rng.random() < 0.5 else 9.0 - X[:, i]
    if rng.random() < 0.2:  # all-tied columns
        X[:, rng.random(d) < 0.5] = float(rng.integers(0, 3))
    if rng.random() < 0.7:
        idx = rng.integers(0, n, size=n)
    else:
        idx = rng.permutation(n)[:int(rng.integers(2, n + 1))]
    y = rng.integers(0, 2, len(idx))
    feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)),
                               replace=False))
    return X, idx, y, feats, int(rng.integers(1, 4))


def test_best_split_matches_per_column_search():
    rng = np.random.default_rng(2024)
    nones = 0
    for t in range(3200):
        X, idx, y, feats, min_leaf = _random_node(rng, t)
        want = _per_column_best_split(X, idx, y, feats, min_leaf)
        got = _best_split(X, idx, y, feats, min_leaf)
        assert got == want, t
        if want is None:
            nones += 1
        else:  # the same threshold bits, not just an equal float
            assert np.float64(got[1]).tobytes() == \
                np.float64(want[1]).tobytes(), t
    assert 100 < nones < 3000


def test_best_split_tie_rules():
    idx = np.arange(5)
    y = np.array([0, 0, 0, 0, 1])
    # both columns split the positive off with Gini 0: column 0 at its
    # highest threshold, column 1 at its lowest; the lower feature wins
    X = np.column_stack([[0.0, 1, 2, 3, 4], [4.0, 3, 2, 1, 0]])
    assert _best_split(X, idx, y, np.arange(2), 1) == (0, 3.5)
    assert _best_split(X[:, ::-1], idx, y, np.arange(2), 1) == (0, 0.5)
    # one column, equal scores at its first and last threshold
    X = np.array([[0.0], [1], [2], [3]])
    assert _best_split(X, np.arange(4), np.array([0, 1, 1, 0]),
                       np.array([0]), 1) == (0, 0.5)
    # tied values never split, even when the labels differ
    tied = np.ones((4, 3))
    assert _best_split(tied, np.arange(4), np.array([0, 1, 0, 1]),
                       np.arange(3), 1) is None
    # min_leaf moves the split off the pure threshold
    y = np.array([1, 0, 0, 0])
    assert _best_split(X, np.arange(4), y, np.array([0]), 1) == (0, 0.5)
    assert _best_split(X, np.arange(4), y, np.array([0]), 2) == (0, 1.5)


# -------------------------------------------------------------------- coin


def test_coin_is_deterministic_and_roughly_fair():
    coin = CoinClassifier(seed=12)
    rng = np.random.default_rng(0)
    flips = []
    for i in range(1200):
        cols = np.sort(rng.choice(20, size=4, replace=False))
        vals = rng.integers(1, 9, 4).astype(float)
        first = coin.predict(cols, vals)
        assert coin.predict(cols, vals) == first
        flips.append(first)
    assert 0.45 <= np.mean(flips) <= 0.55


def test_coin_depends_on_seed_and_content():
    a = CoinClassifier(seed=1)
    b = CoinClassifier(seed=2)
    inputs = [(np.array([i]), np.array([1.0])) for i in range(64)]
    va = [a.predict(*x) for x in inputs]
    vb = [b.predict(*x) for x in inputs]
    assert va != vb
    assert len(set(va)) == 2


# ---------------------------------------------------------------- dispatch


def test_train_classifier_dispatch():
    ts = _separable()
    assert train_classifier("linear-svm", ts, seed=0).kind == "linear-svm"
    assert train_classifier("random-forest", ts, seed=0).kind == "random-forest"
    assert train_classifier("coin", ts, seed=0).kind == "coin"
    with pytest.raises(LearnError):
        train_classifier("mlp", ts, seed=0)
