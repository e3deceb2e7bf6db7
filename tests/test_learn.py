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
    edge_features,
    pair_features,
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


def matrix_of(rows, ids=None):
    """An AttributeMatrix whose row ``ids[t]`` is the canonical instance
    ``rows[t]`` (row t when ids are left out); other rows are empty."""
    if ids is None:
        ids = range(len(rows))
    ids = list(ids)
    n = max(ids, default=-1) + 1
    at = dict(zip(ids, rows))
    empty = (np.empty(0, np.int64), np.empty(0))
    indptr, cols, vals = stack_rows([at.get(i, empty) for i in range(n)])
    n_cols = int(cols.max(initial=0)) + 1
    return AttributeMatrix(
        data=sparse.csr_matrix((vals, cols, indptr), shape=(n, n_cols)),
        item_ids=np.arange(n_cols), role="training")


def ts_from(rows, labels, ids=None):
    """A training set whose instance ``ids[t]`` (t by default) has the row
    ``rows[t]``."""
    if ids is None:
        ids = list(range(len(rows)))
    return TrainingSet(matrix_of(rows, ids), labels, ids)


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


def test_single_class_material_makes_the_training_set_checks():
    m = AttributeMatrix(
        data=sparse.csr_matrix(np.array([[1.0, -2.0], [1.0, 0.0],
                                         [0.0, 3.0]])),
        item_ids=np.arange(2), role="training")
    assert TrainingSet(m, [1, 1], [2, 1]).classes().tolist() == [1]
    assert TrainingSet(m, [0], [1]).classes().tolist() == [0]
    assert TrainingSet(m, [0, 1], [1, 2]).classes().tolist() == [0, 1]
    for labels, ids, what in (([1, 1], [2, 0], "negative"),
                              ([2, 2], [1, 2], "0/1")):
        with pytest.raises(LearnError, match=what):
            TrainingSet(m, labels, ids)
    # pair material: a negative value on a column both endpoints store
    for labels, pairs, what in (([1], [(0, 2)], "negative"),
                                ([2], [(1, 2)], "0/1")):
        with pytest.raises(LearnError, match=what):
            TrainingSet(m, labels, np.array(pairs))
    # column 1 is negative in row 0, but row 1 does not store it
    assert TrainingSet(m, [1], np.array([(0, 1)])).classes().tolist() == [1]


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
    m = _attr_matrix([{0: 1.0}, {0: 2.0}, {}], 2)
    indptr, cols, vals = pair_features(m, np.empty((0, 2), dtype=np.int64))
    assert indptr.tolist() == [0] and len(cols) == len(vals) == 0
    # an endpoint with an empty row: no entry on that side at all
    for pairs in ([(0, 2), (1, 2)], [(2, 0), (2, 1)]):
        indptr, cols, vals = pair_features(m, pairs)
        assert indptr.tolist() == [0, 0, 0] and len(cols) == len(vals) == 0


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
    got = TrainingSet(m, labels, pairs)
    # the reference rows under node ids that sort as the pairs do
    rank = np.argsort(np.lexsort(pairs.T[::-1]))
    want = ts_from([_reference_edge_features(m, a, b)
                    for a, b in pairs.tolist()], labels.tolist(),
                   rank.tolist())
    assert got.ids == tuple(sorted(map(tuple, pairs.tolist())))
    assert want.ids == tuple(range(len(pairs)))
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


def test_svm_with_zero_and_underflowing_values_matches_reference():
    # explicit zeros and values whose squares underflow: the dictionary
    # keeps their columns, the unit rows drop what scales to 0, and rows
    # whose norm underflows keep scale 1, in lock step as in the reference
    rng = np.random.default_rng(1)
    for trial in range(40):
        n, d = int(rng.integers(2, 20)), int(rng.integers(1, 15))
        rows = []
        for _ in range(n):
            cols = np.sort(rng.choice(d, size=int(rng.integers(0, d + 1)),
                                      replace=False))
            vals = rng.random(len(cols)) * 10.0 ** rng.choice(
                [-170, 0, 3], size=len(cols))
            vals[rng.random(len(cols)) < 0.2] = 0.0
            rows.append((cols, vals))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        hyper = SVMHyper(reg=float(rng.choice([1e-4, 1e-2, 0.5])),
                         epochs=int(rng.integers(1, 4)))
        models = [train_svm(ts_from(rows, labels.tolist()), hyper, seed=k)
                  for k in range(2 * learn._TAIL)]
        # tiny margins put the scale search's probes near 1e170, where its
        # objective overflows to inf, as the reference's floats do
        with np.errstate(over="ignore"):
            train_svms(models)
            for k, model in enumerate(models):
                _same_model(model, _reference_train_svm(
                    ts_from(rows, labels.tolist()), hyper, seed=k))


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


def test_svm_scale_search_matches_the_frozen_search():
    rng = np.random.default_rng(2024)
    seen = {"zero": 0, "scaled": 0, "shared_n": 0}
    for _ in range(500):
        drawn = [_random_pending(rng) for _ in range(int(rng.integers(1, 9)))]
        models = [LinearSVM(w, b, np.arange(len(w))) for w, b, _, _ in drawn]
        twin = int(rng.integers(len(drawn)))  # equal content, own object
        w, b, m, reg = drawn[twin]
        models.append(LinearSVM(w.copy(), b, np.arange(len(w))))
        drawn.append((w, b, m.copy(), reg))
        ns = [len(m) for _, _, m, _ in drawn]
        seen["shared_n"] += len(ns) - len(set(ns))
        # the search train_svms runs on what its SGD step returns
        learn._scale_svms([(model, m, reg) for model, (_, _, m, reg)
                           in zip(models, drawn)])
        for model, (w, b, m, reg) in zip(models, drawn):
            c = _frozen_best_scale(w, m, reg)
            seen["zero" if c == 0.0 else "scaled"] += 1
            assert model.w.tobytes() == (c * w).tobytes()
            assert np.float64(model.b).tobytes() == \
                np.float64(c * b).tobytes()
    assert min(seen.values()) > 100


def test_train_svms_skips_other_and_trained_models():
    trained = LinearSVM(np.ones(2), 0.5, COLS2)
    const = ConstantClassifier(1)
    train_svms([trained, const, None])
    assert trained.w.tolist() == [1.0, 1.0] and trained.b == 0.5


def test_model_read_before_settling_equals_one_settled_in_a_batch():
    rng = np.random.default_rng(5)
    sets = [ts_from(*_random_svm_set(rng, "sum")) for _ in range(6)]
    sets = [ts for ts in sets if len(ts.classes()) == 2]
    batch = [train_svm(ts, SVMHyper(), seed=k) for k, ts in enumerate(sets)]
    alone = train_svm(sets[0], SVMHyper(), seed=0)
    assert alone.material is not None  # training pending
    alone_pred = alone.predict(np.array([0, 1]), np.array([1.0, 2.0]))
    assert alone.material is None  # predicting trained it, alone
    train_svms(iter(batch + batch[:2]))  # listed twice: trained once
    _same_model(alone, batch[0])
    assert batch[0].predict(np.array([0, 1]), np.array([1.0, 2.0])) == \
        alone_pred
    for k, ts in enumerate(sets):
        _same_model(batch[k], _reference_train_svm(ts, SVMHyper(), seed=k))


def _unit_rows(ts: TrainingSet):
    """Rows of a training set scaled to unit L2 norm, stored last to first.

    Returns CSR arrays (ptr, cols, vals) whose row j is training row
    n - 1 - j: the entries of ``ts`` reversed end to end, so each row's
    entries run in reverse column order, with int32 columns. Norms are
    scipy's row sums of the nonzero squares (``np.add.reduceat``, not a
    sequential sum), empty rows keep scale 1, and entries that scale to 0
    are dropped, exactly as ``sparse.diags(scale) @ X`` emits them.

    The per-set normalization as train_svm ran it before train_svms
    gathered many sets in one pass; kept verbatim as the reference.
    """
    n = ts.n
    data = ts.data
    row = np.repeat(np.arange(n), np.diff(ts.indptr))
    sq = data * data
    keep = sq != 0
    sq_row = row[keep]
    norms = np.zeros(n)
    if len(sq_row):
        starts = np.flatnonzero(np.diff(sq_row, prepend=-1))
        norms[sq_row[starts]] = np.add.reduceat(sq[keep], starts)
    norms = np.sqrt(norms)
    scale = np.ones(n)
    nz = norms > 0
    scale[nz] = 1.0 / norms[nz]
    vals = data * scale[row]
    keep = vals != 0
    cols = ts.indices[keep][::-1].astype(np.int32)
    vals = np.ascontiguousarray(vals[keep][::-1])
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[keep], minlength=n)[::-1], out=ptr[1:])
    return ptr, cols, vals


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


def _sgd_step(models):
    """The SGD step of ``train_svms`` on distinct pending models, one
    lock-step group per hyperparameter set: each model's final training
    margins and regularization, by model id."""
    groups = {}
    for m in models:
        groups.setdefault(m.material.hyper, []).append(m)
    return {id(m): (margins, reg) for hyper, group in groups.items()
            for m, margins, reg in learn._train_group(group, hyper.reg,
                                                      hyper.epochs)}


def _assert_trained_as_frozen(model, after, ts, hyper, seed):
    """``after`` is what ``_sgd_step`` returned for the model."""
    model_margins, reg = after
    assert model.material is None
    w, b, margins = _frozen_sgd(ts, hyper, seed)
    assert model._w.tobytes() == w.tobytes()
    assert np.float64(model._b).tobytes() == np.float64(b).tobytes()
    assert np.ascontiguousarray(model_margins).tobytes() == margins.tobytes()
    assert reg == hyper.reg


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
        m = AttributeMatrix(data=sparse.csr_matrix(X),
                            item_ids=np.arange(d), role="training")
        ts = TrainingSet(m, labels, np.arange(n))
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
        assert all(m.material is not None for m in models)
        after = _sgd_step(models)
        assert len(after) == len(models)
        for model, (ts, hyper, seed) in zip(models, group):
            _assert_trained_as_frozen(model, after[id(model)], ts, hyper,
                                      seed)
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
        after = _sgd_step(models)
        for model, (ts, hyper, seed) in zip(models, group):
            _assert_trained_as_frozen(model, after[id(model)], ts, hyper,
                                      seed)
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
    after = _sgd_step(models)
    for model, (ts, hyper, seed) in zip(models, group):
        _assert_trained_as_frozen(model, after[id(model)], ts, hyper, seed)
    # the second step of every model whose first two rows are positive
    assert len(exact) >= 8


def test_pending_model_trains_alone_as_in_a_group():
    rng = np.random.default_rng(8)
    group = _random_sgd_group(rng)
    while len(group) < 2 * learn._TAIL:
        group += _random_sgd_group(rng)
    group = [(ts, SVMHyper(), seed) for ts, _, seed in group]
    batch = [train_svm(ts, hyper, seed) for ts, hyper, seed in group]
    after = _sgd_step(batch)
    for model, (ts, hyper, seed) in zip(batch, group):
        alone = train_svm(ts, hyper, seed)
        (alone_margins, _), = _sgd_step([alone]).values()
        assert alone._w.tobytes() == model._w.tobytes()
        assert alone._b == model._b
        assert alone_margins.tobytes() == \
            np.ascontiguousarray(after[id(model)][0]).tobytes()


def test_sgd_epoch_orders_equal_successive_permutations():
    # the trainer draws a model's epoch orders in one ``permuted`` call;
    # they must be the orders, and leave the stream in the state, of one
    # ``permutation`` call per epoch, as the per-model loop draws them
    for seed in range(4):
        for n in range(1, 61):
            epochs = 1 + (seed + n) % 5
            one, many = generator(seed, "svm"), generator(seed, "svm")
            got = one.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)
            assert got.tolist() == [many.permutation(n).tolist()
                                    for _ in range(epochs)]
            assert one.bit_generator.state == many.bit_generator.state


def _weight_sums(ts, hyper, seed):
    """``_frozen_sgd``'s loop, instrumented: ``sum |w_c v_c| + |b|`` over
    the row of each step, before the step."""
    ptr, cols, vals = _unit_rows(ts)
    cols = cols.astype(np.intp)
    rows = [(cols[a:z], vals[a:z])
            for a, z in zip(ptr[:-1].tolist(), ptr[1:].tolist())][::-1]
    y_list = (ts.y.astype(np.float64) * 2.0 - 1.0).tolist()
    reg = hyper.reg
    w = np.zeros(ts.n_features)
    take, put = w.take, w.put
    b = 0.0
    sums = []
    rng = generator(seed, "svm")
    t = 0
    for _ in range(hyper.epochs):
        for i in rng.permutation(ts.n).tolist():
            t += 1
            eta = 1.0 / (reg * t)
            c, v = rows[i]
            yi = y_list[i]
            sums.append(float(np.abs(take(c) * v).sum()) + abs(b))
            margin = yi * (take(c).dot(v) + b)
            decay = 1.0 - eta * reg
            w *= decay
            b *= decay
            if margin < 1.0:
                put(c, take(c) + eta * yi * v)
                b += eta * yi
    return sums, int(np.diff(ptr).max(initial=0))


def test_sgd_weight_bound_holds_at_every_step():
    # the lock-step trainer's margin slack takes sum |w_c v_c| + |b| as
    # the constant _weight_bound; at every step of the per-model loop the
    # sum must stay within it, on the group's sets and on sets whose
    # values span 7 decades, at every hyperparameter set and reg = 1e-8
    rng = np.random.default_rng(17)
    hypers = _SGD_HYPERS + [SVMHyper(reg=1e-8, epochs=3)]
    worst = 0.0
    for trial in range(60):
        sets = [ts for ts, _, _ in _random_sgd_group(rng)][:4]
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 30))
        X = rng.random((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
        X[rng.random((n, d)) < 0.4] = 0.0
        sets.append(ts_from(dense_rows(X), [0, 1] * (n // 2) + [1] * (n % 2)))
        for k, ts in enumerate(sets):
            hyper = hypers[(trial + k) % len(hypers)]
            sums, width = _weight_sums(ts, hyper, seed=trial + k)
            bound = learn._weight_bound(hyper.reg, hyper.epochs * ts.n,
                                        width + 1)
            assert bound >= 2.0 / hyper.reg
            assert max(sums) <= bound
            worst = max(worst, max(sums) * hyper.reg)
    # the sums reach 2 / reg itself (a repeated row at step 2 does), so a
    # constant of exactly 2 / reg would be no bound in floating point
    assert worst > 1.99


# ---------------------------------------------------- batched prediction


def _predict_rows_cases(rng):
    """Settled SVMs of one random SGD group, each with rows to score: up
    to 40 rows over the model's dictionary and 5 columns past it, some
    empty, some only past it, some repeated, values of mixed
    magnitudes."""
    group = _random_sgd_group(rng)
    models = [train_svm(ts, hyper, seed) for ts, hyper, seed in group]
    train_svms(models)
    for model in models:
        d = int(model.dictionary.max(initial=-1)) + 6
        rows = []
        for _ in range(int(rng.integers(1, 41))):
            r = rng.random()
            if r < 0.1:
                cols = np.empty(0, dtype=np.int64)
            elif r < 0.2:
                cols = np.arange(d - 5, d)[rng.random(5) < 0.5]
            elif r < 0.3 and rows:
                rows.append(rows[int(rng.integers(len(rows)))])
                continue
            else:
                cols = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)),
                                          replace=False))
            rows.append((cols, rng.random(len(cols))
                         * 10.0 ** int(rng.integers(-3, 4))))
        yield model, rows


def _decision_counter(monkeypatch):
    """Count the rows LinearSVM decides with its own per-row decision."""
    calls = []
    real = LinearSVM.decision

    def count(self, cols, vals):
        calls.append(len(cols))
        return real(self, cols, vals)

    monkeypatch.setattr(LinearSVM, "decision", count)
    return calls


def _row_by_row(clf, rows):
    return np.array([clf.predict(c, v) for c, v in rows], dtype=np.int8)


def test_svm_predict_rows_matches_row_by_row_predict():
    rng = np.random.default_rng(41)
    zero_w = 0
    for _ in range(150):
        for model, rows in _predict_rows_cases(rng):
            got = model.predict_rows(*stack_rows(rows))
            assert got.dtype == np.int8
            np.testing.assert_array_equal(got, _row_by_row(model, rows))
            zero_w += not model.w.any()
    assert zero_w  # some models settled at scale 0


@pytest.mark.parametrize("b", [0.75, -0.75, 0.0, -0.0])
def test_svm_predict_rows_decides_on_the_bias_alone_exactly(monkeypatch, b):
    # an all-zero w, and rows with no dictionary column (or only zero
    # weights), have decision b: no row needs the per-row fallback
    rows = [(np.array([0, 2]), np.array([1.0, 3.0])),
            (np.empty(0, dtype=np.int64), np.empty(0)),
            (np.array([7, 9]), np.array([2.0, 0.5])),
            (np.array([1, 8]), np.array([4.0, 1.0]))]
    models = [LinearSVM(np.zeros(3), b, np.arange(3)),
              LinearSVM(np.array([0.0, 0.0, 5.0]), b, np.array([1, 3, 5])),
              LinearSVM(np.empty(0), b, np.empty(0, dtype=np.int64))]
    want = [_row_by_row(m, rows) for m in models]
    calls = _decision_counter(monkeypatch)
    for model, w in zip(models, want):
        got = model.predict_rows(*stack_rows(rows))
        np.testing.assert_array_equal(got, w)
        np.testing.assert_array_equal(got, 1 if b >= 0 else 0)
    assert not calls


def test_svm_predict_rows_falls_back_inside_the_bound(monkeypatch):
    # b cancels one row's dot, so that row's decision is 0 up to rounding:
    # inside the bound, where only the per-row decision may decide
    rng = np.random.default_rng(43)
    planted = 0
    calls = _decision_counter(monkeypatch)
    for _ in range(60):
        for model, rows in _predict_rows_cases(rng):
            cols, vals = rows[int(rng.integers(len(rows)))]
            loc, v = learn._project(model.dictionary, cols, vals)
            if not ((model.w[loc] != 0) & (v != 0)).any():
                continue  # no dot to cancel
            model._b = 0.0
            model._b = -model.decision(cols, vals)
            rows = rows + [(cols, vals)] * 3
            want = _row_by_row(model, rows)
            calls.clear()
            np.testing.assert_array_equal(
                model.predict_rows(*stack_rows(rows)), want)
            assert len(calls) >= 3  # the planted rows fell back
            planted += 1
    assert planted > 100


def test_predict_rows_of_other_classifiers_goes_row_by_row():
    rng = np.random.default_rng(44)
    ts = _xor_set()[0]
    rows = [(np.sort(rng.choice(4, size=int(rng.integers(0, 5)),
                                replace=False)),
             rng.integers(1, 4, size=4).astype(float)) for _ in range(30)]
    rows = [(c, v[:len(c)]) for c, v in rows]
    for clf in (CoinClassifier(5), ConstantClassifier(1),
                train_rf(ts, RFHyper(trees=5), seed=2)):
        got = learn.predict_rows(clf, *stack_rows(rows))
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, _row_by_row(clf, rows))
    svm = train_svm(_separable(), SVMHyper(), seed=0)
    np.testing.assert_array_equal(learn.predict_rows(svm, *stack_rows(rows)),
                                  _row_by_row(svm, rows))


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


def _frozen_rf(ts, hyper, seed):
    """train_rf as it grew one forest at a time, tree by tree and node by
    node (``_Tree``, ``_grow``, ``_best_split``), before forests grew in
    lock step; kept verbatim as the bit-level reference. Returns each
    tree's (feature, threshold, left, right) lists, or the label of a
    single-class set."""

    class _Tree:
        def __init__(self) -> None:
            self.feature, self.threshold = [], []
            self.left, self.right = [], []

        def add_leaf(self, label: int) -> int:
            self.feature.append(-1)
            self.threshold.append(float(label))
            self.left.append(-1)
            self.right.append(-1)
            return len(self.feature) - 1

        def add_split(self, feat: int, thr: float) -> int:
            self.feature.append(feat)
            self.threshold.append(thr)
            self.left.append(-1)
            self.right.append(-1)
            return len(self.feature) - 1

    def _majority(y):
        pos = int(y.sum())
        return 1 if 2 * pos >= len(y) else 0

    def _grow(tree, X, y, idx, depth, hyper, m_feats, rng):
        yn = y[idx]
        if (depth >= hyper.max_depth or len(idx) < 2 * hyper.min_leaf
                or yn.min() == yn.max()):
            return tree.add_leaf(_majority(yn))
        d = X.shape[1]
        feats = np.sort(rng.choice(d, size=min(m_feats, d), replace=False))
        split = _frozen_best_split(X, idx, yn, feats, hyper.min_leaf)
        if split is None:
            return tree.add_leaf(_majority(yn))
        feat, thr = split
        node = tree.add_split(feat, thr)
        go_left = X[idx, feat] <= thr
        tree.left[node] = _grow(tree, X, y, idx[go_left], depth + 1,
                                hyper, m_feats, rng)
        tree.right[node] = _grow(tree, X, y, idx[~go_left], depth + 1,
                                 hyper, m_feats, rng)
        return node

    classes = ts.classes()
    if len(classes) == 1:
        return int(classes[0])
    n = ts.n
    X = np.zeros((n, ts.n_features))
    X[np.repeat(np.arange(n), np.diff(ts.indptr)), ts.indices] = ts.data
    y = ts.y.astype(np.int64)
    d = ts.n_features
    if hyper.feature_frac == "sqrt":
        m_feats = max(1, int(np.floor(np.sqrt(d))))
    else:
        m_feats = max(1, int(round(float(hyper.feature_frac) * d)))
    trees = []
    for t in range(hyper.trees):
        rng = generator(seed, "tree", t)
        idx = rng.integers(0, n, size=n) if hyper.bootstrap else np.arange(n)
        tree = _Tree()
        if y[idx].min() == y[idx].max():
            tree.add_leaf(_majority(y[idx]))
        else:
            _grow(tree, X, y, np.asarray(idx), 0, hyper, m_feats, rng)
        trees.append((tree.feature, tree.threshold, tree.left, tree.right))
    return trees


def _frozen_best_split(X, idx, y, feats, min_leaf):
    """``_best_split`` of ``_frozen_rf``, verbatim."""
    nn = len(y)
    Xs = X[idx[:, None], feats]
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = Xs[order, np.arange(len(feats))]
    valid = xs[1:] > xs[:-1]
    if min_leaf > 1:
        ks = np.arange(1, nn)
        ok = (ks >= min_leaf) & (nn - ks >= min_leaf)
        valid &= ok[:, None]
    c, r = np.nonzero(valid.T)
    if len(c) == 0:
        return None
    pos = np.cumsum(y[order], axis=0)
    k = (r + 1).astype(np.float64)
    lp = pos[r, c].astype(np.float64)
    rp = pos[-1, c] - lp
    rn = nn - k
    gini_l = 1.0 - (lp / k) ** 2 - ((k - lp) / k) ** 2
    gini_r = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
    score = (k * gini_l + rn * gini_r) / nn
    j = int(np.argmin(score))
    p1 = y.sum() / nn
    parent = 1.0 - p1 ** 2 - (1.0 - p1) ** 2
    if not score[j] < parent - 1e-12:
        return None
    c, r = c[j], r[j]
    return int(feats[c]), float(0.5 * (xs[r, c] + xs[r + 1, c]))


def _same_trees(got, want):
    """Equal features and children, and thresholds with the same bits."""
    assert len(got) == len(want)
    for (f, t, lt, rt), (wf, wt, wl, wr) in zip(got, want):
        assert (f, lt, rt) == (wf, wl, wr)
        assert np.array(t).tobytes() == np.array(wt).tobytes()


def _random_forest_set(rng, t):
    """A training set for one forest, with hyperparameters: count, float,
    sparse, tied or all-tied columns, stored zeros, and few or imbalanced
    rows, so that some bootstraps draw a single class."""
    n = int(rng.integers(2, 12)) if t % 5 == 0 else int(rng.integers(2, 60))
    d = int(rng.integers(1, 25))
    kind = t % 4
    if kind == 0:
        X = rng.poisson(rng.uniform(0.1, 2.0), size=(n, d)).astype(float)
    elif kind == 1:
        X = rng.random((n, d)).round(int(rng.integers(0, 4)))
    elif kind == 2:
        X = (rng.random((n, d)) < 0.15) * rng.integers(1, 4, (n, d)) * 1.0
    else:
        X = rng.poisson(1.0, size=(n, d)).astype(float)
        for j in range(1, d):
            i = int(rng.integers(0, j))
            X[:, j] = X[:, i] if rng.random() < 0.5 else 9.0 - X[:, i]
        X = np.maximum(X, 0.0)
    if rng.random() < 0.3:  # all-tied columns
        X[:, rng.random(d) < 0.5] = float(rng.integers(0, 3))
    # stored zeros: some zero cells are kept as entries
    stored = (X != 0) | (rng.random((n, d)) < 0.1)
    rows = [(np.flatnonzero(stored[i]), X[i][stored[i]]) for i in range(n)]
    y = (rng.random(n) < rng.choice([0.1, 0.5, 0.9])).astype(int)
    if len(np.unique(y)) < 2 and rng.random() < 0.8:
        y[0] = 1 - y[0]
    hyper = RFHyper(trees=int(rng.integers(1, 6)),
                    max_depth=int(rng.choice([1, 2, 3, 16])),
                    min_leaf=int(rng.integers(1, 4)),
                    feature_frac=("sqrt", 0.3, 0.5, 1.0)[rng.integers(4)],
                    bootstrap=bool(rng.random() < 0.7))
    return ts_from(rows, y.tolist()), hyper


@pytest.mark.parametrize("cells,entries", [(learn._SEARCH_CELLS,
                                             learn.SGD_BATCH_ENTRIES),
                                            (40, 300)])
def test_lockstep_forests_match_the_frozen_growth(monkeypatch, cells,
                                                  entries):
    # the default budgets, then searches of a few nodes and chunks of a few
    # forests: neither changes a tree
    monkeypatch.setattr(learn, "_SEARCH_CELLS", cells)
    monkeypatch.setattr(learn, "SGD_BATCH_ENTRIES", entries)
    rng = np.random.default_rng(77)
    cases = [(*_random_forest_set(rng, t), int(rng.integers(0, 2**31)))
             for t in range(240)]
    models = [train_rf(ts, hyper, seed) for ts, hyper, seed in cases]
    pending = [m for m in models if isinstance(m, learn.RandomForest)]
    assert all(m.material is not None for m in pending)
    learn.train_forests(iter(models + pending[:3]))  # listed twice: once
    splits = leaves = 0
    for model, (ts, hyper, seed) in zip(models, cases):
        want = _frozen_rf(ts, hyper, seed)
        if isinstance(model, ConstantClassifier):
            assert model.label == want
            continue
        assert model.material is None
        np.testing.assert_array_equal(model.dictionary, ts.dictionary)
        _same_trees(model.trees, want)
        splits += sum(f >= 0 for tree in want for f in tree[0])
        leaves += sum(len(tree[0]) == 1 for tree in want)
    # 1,273 splits; 113 one-leaf trees: single-class bootstraps and roots
    # with no split
    assert splits > 1000 and leaves > 50


def test_pending_forest_grows_alone_as_in_a_chunk():
    rng = np.random.default_rng(5)
    cases = [(*_random_forest_set(rng, t), t) for t in range(1, 30)]
    batch = [train_rf(ts, hyper, seed) for ts, hyper, seed in cases]
    alone = [train_rf(ts, hyper, seed) for ts, hyper, seed in cases]
    learn.train_forests(batch)
    for a, b in zip(alone, batch):
        if isinstance(a, learn.RandomForest):
            _same_trees(a.trees, b.trees)  # reading trees grows it alone


def _search_split(nodes):
    """The split that one lock-step search (``_split_nodes``) gives each
    node of ``nodes``, ``(X, idx, y, feats, min_leaf)`` as
    ``_frozen_best_split`` takes them: (feature, threshold) or None. Each
    node's rows are its own ``X[idx]``, so bootstrap duplicates may carry
    different labels."""
    blocks = [X[idx] for X, idx, _, _, _ in nodes]
    uniq, inv = np.unique(np.concatenate([b.ravel() for b in blocks]),
                          return_inverse=True)
    sizes = [len(b) for b in blocks]
    widths = [b.shape[1] for b in blocks]
    off = np.cumsum([0] + [m * w for m, w in zip(sizes, widths)])
    base = np.concatenate([off[j] + np.arange(m) * w for j, (m, w)
                           in enumerate(zip(sizes, widths))])
    y = np.concatenate([np.asarray(n[2], dtype=np.int64) for n in nodes])
    starts = np.cumsum([0] + sizes)[:-1].tolist()
    found = []
    for (X, idx, yn, feats, min_leaf), start, m in zip(nodes, starts, sizes):
        g = learn._Growth(None, X.shape[1], len(feats),
                          RFHyper(min_leaf=min_leaf))
        for lst in g.lists:
            lst.append(-1)
        found.append((g, (0, start, m, int(np.sum(yn)), 0,
                          np.asarray(feats, dtype=np.int64))))
    learn._split_nodes(found, np.arange(len(y)), inv.astype(np.int32), base,
                       y, uniq)
    return [None if g.lists[0][0] < 0 else (g.lists[0][0], g.lists[1][0])
            for g, _ in found]


def test_best_split_matches_per_column_search():
    rng = np.random.default_rng(2024)
    nodes = [_random_node(rng, t) for t in range(3200)]
    nones = 0
    for lo in range(0, len(nodes), 64):  # 64 nodes per lock-step search
        got = _search_split(nodes[lo:lo + 64])
        for t, (node, split) in enumerate(zip(nodes[lo:lo + 64], got)):
            want = _per_column_best_split(*node)
            assert split == want == _frozen_best_split(*node), lo + t
            if want is None:
                nones += 1
            else:  # the same threshold bits, not just an equal float
                assert np.float64(split[1]).tobytes() == \
                    np.float64(want[1]).tobytes(), lo + t
    assert 100 < nones < 3000


def test_best_split_tie_rules():
    def search(X, idx, y, feats, min_leaf):
        return _search_split([(X, idx, y, feats, min_leaf)])[0]

    idx = np.arange(5)
    y = np.array([0, 0, 0, 0, 1])
    # both columns split the positive off with Gini 0: column 0 at its
    # highest threshold, column 1 at its lowest; the lower feature wins
    X = np.column_stack([[0.0, 1, 2, 3, 4], [4.0, 3, 2, 1, 0]])
    assert search(X, idx, y, np.arange(2), 1) == (0, 3.5)
    assert search(X[:, ::-1], idx, y, np.arange(2), 1) == (0, 0.5)
    # one column, equal scores at its first and last threshold
    X = np.array([[0.0], [1], [2], [3]])
    assert search(X, np.arange(4), np.array([0, 1, 1, 0]),
                  np.array([0]), 1) == (0, 0.5)
    # tied values never split, even when the labels differ
    tied = np.ones((4, 3))
    assert search(tied, np.arange(4), np.array([0, 1, 0, 1]),
                  np.arange(3), 1) is None
    # min_leaf moves the split off the pure threshold
    y = np.array([1, 0, 0, 0])
    assert search(X, np.arange(4), y, np.array([0]), 1) == (0, 0.5)
    assert search(X, np.arange(4), y, np.array([0]), 2) == (0, 1.5)


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
