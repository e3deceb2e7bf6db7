"""Task runners: config keys, neighborhoods, node and pair evaluation."""

import numpy as np
import pytest
from scipy import sparse

from netsel import tasks
from netsel._rng import derive_seed
from netsel.community import CommunityAssignment, louvain
from netsel.data import (AttributeMatrix, EventLog, LabelRule,
                         build_dataset, build_matrix)
from netsel.experiment import _write_batches, family_key, prepare_family
from netsel.graph import (EdgeSet, NeighborhoodSpec, egonet,
                          incident_nonedges)
from netsel.learn import (ConstantClassifier, LearnError, LinearSVM,
                          RFHyper, TrainingSet, edge_features,
                          train_classifier)
from netsel.similarity import (NetworkModelSpec, RowBlock, SimilarityError,
                               sim)
from netsel.synth import PlantSpec, synth_bundle
from netsel.tasks import (
    ClassifierPool,
    LeakageAudit,
    ModelConfig,
    PredictionBatch,
    TaskError,
    assign_lp_eval,
    config_key_fields,
    ensemble_members,
    ensemble_vote,
    global_training_nodes,
    resolve_neighborhood,
    run_cc,
    run_lp,
)

KNN_NET = NetworkModelSpec(model="KNN", measure="INT", density=0.0025)


def cfg(locality, task="CC", classifier="linear-svm", seed=3, network=KNN_NET):
    if isinstance(locality, str):
        locality = NeighborhoodSpec.parse(locality)
    return ModelConfig(network=network, locality=locality, task=task,
                       classifier=classifier, seed=seed)


def mk(n, pairs, directed=False):
    pairs = list(pairs)
    return EdgeSet(n_nodes=n,
                   src=np.array([p[0] for p in pairs], dtype=np.int64),
                   dst=np.array([p[1] for p in pairs], dtype=np.int64),
                   weights=np.ones(len(pairs)), directed=directed)


def clique(nodes):
    nodes = list(nodes)
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]


def _attr_matrix(rows, n_items, role="training"):
    recs = [(i, item, float(v), 1)
            for i, d in enumerate(rows) for item, v in d.items()]
    log = EventLog.from_records(recs, n_nodes=len(rows))
    return build_matrix(log, np.arange(n_items), role)


# -------------------------------------------------------------- config keys


def test_config_key_format():
    c = cfg("local-adjacency", seed=3)
    assert c.config_key == ("model=KNN|measure=INT|density=0.0025"
                            "|locality=local-adjacency|task=CC"
                            "|clf=linear-svm|seed=3")


def test_config_key_for_explicit_networks():
    net = NetworkModelSpec(model="EXPLICIT", edges="truth-label")
    c = cfg("global", network=net, task="LP", seed=0)
    assert c.config_key == ("model=EXPLICIT:truth-label|measure=-|density=-"
                            "|locality=global|task=LP|clf=linear-svm|seed=0")
    assert c.vote_measure == "INT"
    assert cfg("global", network=NetworkModelSpec(
        model="TH", measure="INT-N", density=0.01)).vote_measure == "INT-N"


def test_config_key_fields_roundtrip():
    c = cfg("ensemble:attr-sum", task="LP", classifier="random-forest", seed=9)
    f = config_key_fields(c.config_key)
    assert f == {"model": "KNN", "measure": "INT", "density": "0.0025",
                 "locality": "ensemble:attr-sum", "task": "LP",
                 "clf": "random-forest", "seed": "9"}


def test_config_keys_are_injective_over_a_grid():
    keys = set()
    count = 0
    for model, measure in (("KNN", "INT"), ("KNN", "INT-N"), ("TH", "INT")):
        for dens in (0.0025, 0.01):
            for loc in ("local-adjacency", "local-bfs:50", "global"):
                for task in ("CC", "LP"):
                    for clf in ("linear-svm", "coin"):
                        net = NetworkModelSpec(model=model, measure=measure,
                                               density=dens)
                        keys.add(cfg(loc, task=task, classifier=clf,
                                     network=net).config_key)
                        count += 1
    assert len(keys) == count


def test_config_validation():
    with pytest.raises(TaskError):
        cfg("global", task="ranking")
    with pytest.raises(TaskError):
        cfg("global", classifier="mlp")
    with pytest.raises(TaskError):
        run_cc(cfg("global", task="LP"), mk(3, []), None, "testing")


# ------------------------------------------------------------ leakage audit


def test_leakage_audit_counts_and_raises():
    audit = LeakageAudit()
    audit.check(True, "fine")
    with pytest.raises(TaskError):
        audit.check(False, "boom")
    assert audit.assertions == 2
    assert audit.violations == 1
    with pytest.raises(TaskError):
        audit.expect_role("testing", "training", "features")
    audit.disjoint(np.array([1, 2]), np.array([3]), "ok")
    with pytest.raises(TaskError):
        audit.disjoint(np.array([1, 2]), np.array([2]), "overlap")
    other = LeakageAudit()
    other.check(True, "fine")
    audit.merge(other)
    assert audit.assertions == 6
    assert audit.violations == 3


def test_disjoint_finds_a_planted_overlap():
    rng = np.random.default_rng(3)
    keys = rng.choice(10**6, size=900, replace=False)
    ref = np.sort(keys[:600])
    # unsorted, with keys below and above every reference key
    clean = np.concatenate([keys[600:], [-1, 10**6 + 5]])
    audit = LeakageAudit()
    audit.disjoint(clean, ref, "clean")
    audit.disjoint(clean, np.empty(0, dtype=np.int64), "empty reference")
    planted = np.insert(clean, 150, ref[417])
    with pytest.raises(TaskError, match="planted"):
        audit.disjoint(planted, ref, "planted")
    assert audit.assertions == 3
    assert audit.violations == 1

# --------------------------------------------------------- prediction batch


def _batch(task, predicted, actual, fallback=None):
    m = len(predicted)
    return PredictionBatch(
        config_key="k", task=task, partition="testing",
        nodes=np.arange(m), targets=[str(i) for i in range(m)],
        predicted=np.array(predicted, dtype=np.int8),
        actual=np.array(actual, dtype=np.int8),
        fallback=np.array(fallback or [False] * m, dtype=bool))


def test_cc_precision_is_positive_rate():
    b = _batch("CC", [1, 1, 0, 1], [1, 1, 1, 1])
    assert b.precision == pytest.approx(0.75)
    assert not b.degenerate
    assert _batch("CC", [], []).degenerate
    assert _batch("CC", [], []).precision == 0.0


def test_lp_precision_counts_only_positive_predictions():
    b = _batch("LP", [1, 1, 0, 0], [1, 0, 1, 0])
    assert b.precision == pytest.approx(0.5)
    z = _batch("LP", [0, 0], [1, 0])
    assert z.degenerate and z.precision == 0.0


def test_batch_rows_and_fallback_count():
    b = _batch("LP", [1, 0], [1, 1], fallback=[False, True])
    assert list(b.rows()) == [(0, "0", 1, 1, 0), (1, "1", 0, 1, 1)]
    assert b.n_fallback == 1


# ----------------------------------------------------------- classifier pool


def test_pool_is_content_addressed():
    pool = ClassifierPool(cfg("global"))
    calls = []

    def builder(seed):
        calls.append(seed)
        return ConstantClassifier(1)

    a = pool.get("mat-1", builder)
    b = pool.get("mat-1", builder)
    c = pool.get("mat-2", builder)
    assert a is b and a is not c
    assert pool.trained == 2
    assert pool.hits == 1
    assert calls[0] == derive_seed(cfg("global").seed, "clf", "mat-1")


# ------------------------------------------------------------- neighborhoods


def test_global_training_nodes_shared_sample():
    c = cfg("global:10", seed=5)
    got = global_training_nodes(c, 40)
    assert len(got) == 10
    assert (np.diff(got) > 0).all()
    np.testing.assert_array_equal(got, global_training_nodes(c, 40))
    assert len(global_training_nodes(cfg("global"), 7)) == 7


def test_resolve_neighborhood_scopes():
    g = mk(10, clique(range(5)) + clique(range(5, 10)))
    spec_adj = NeighborhoodSpec("local-adjacency")
    np.testing.assert_array_equal(
        resolve_neighborhood(g, spec_adj, 0), [1, 2, 3, 4])
    spec_bfs = NeighborhoodSpec("local-bfs", bfs_k=2)
    np.testing.assert_array_equal(
        resolve_neighborhood(g, spec_bfs, 0), [1, 2])
    comm = louvain(g, seed=0)
    got = resolve_neighborhood(g, NeighborhoodSpec("community"), 7, comm=comm)
    np.testing.assert_array_equal(got, [5, 6, 8, 9])
    sample = np.array([1, 2, 3])
    np.testing.assert_array_equal(
        resolve_neighborhood(g, NeighborhoodSpec("global"), 0,
                             global_nodes=sample), sample)
    with pytest.raises(TaskError):
        resolve_neighborhood(g, NeighborhoodSpec("community"), 0)
    with pytest.raises(TaskError):
        resolve_neighborhood(g, NeighborhoodSpec("global"), 0)
    with pytest.raises(TaskError):
        resolve_neighborhood(g, NeighborhoodSpec("ensemble"), 0)


# ---------------------------------------------------------------- ensembles


def test_ensemble_member_orderings():
    star = mk(6, [(0, i) for i in range(1, 6)])
    m = _attr_matrix([{0: 9.0}, {0: 1.0, 1: 1.0, 2: 1.0}, {1: 5.0},
                      {2: 2.0}, {3: 1.0}, {4: 1.0}], 6)
    by_degree = ensemble_members(cfg("ensemble:degree"), star, m)
    np.testing.assert_array_equal(by_degree, [0, 1, 2, 3, 4, 5])
    by_sum = ensemble_members(cfg("ensemble:attr-sum"), star, m)
    assert by_sum[0] == 0 and by_sum[1] == 2
    by_unique = ensemble_members(cfg("ensemble:attr-unique"), star, m)
    assert by_unique[0] == 1  # three distinct items beats larger totals
    rnd = ensemble_members(cfg("ensemble:random", seed=1), star, m)
    np.testing.assert_array_equal(
        rnd, ensemble_members(cfg("ensemble:random", seed=1), star, m))
    assert sorted(rnd.tolist()) == list(range(6))
    spec = NeighborhoodSpec("ensemble", ensemble_k=3)
    short = ensemble_members(cfg(spec), star, m)
    assert len(short) == 3


def test_ensemble_vote_majority_and_ties():
    m = _attr_matrix([{0: 1.0}, {0: 1.0}, {0: 1.0}], 2)
    one, zero = ConstantClassifier(1), ConstantClassifier(0)
    test_vec = (np.array([0]), np.array([1.0]))
    members = [(0, one), (1, one), (2, zero)]
    assert ensemble_vote(members, *test_vec, "INT", 3, m) == 1
    assert ensemble_vote([(0, zero), (1, zero), (2, one)],
                         *test_vec, "INT", 3, m) == 0
    # equal similarities: the two lowest ids vote
    assert ensemble_vote(members, *test_vec, "INT", 2, m) == 1
    assert ensemble_vote([(0, zero), (1, zero), (2, one)],
                         *test_vec, "INT", 2, m) == 0
    # an even split goes positive
    assert ensemble_vote([(0, one), (1, zero)], *test_vec, "INT", 2, m) == 1


def test_ensemble_vote_knn_one_takes_nearest():
    m = _attr_matrix([{1: 5.0}, {1: 5.0}, {0: 5.0}], 2)
    members = [(0, ConstantClassifier(1)), (1, ConstantClassifier(1)),
               (2, ConstantClassifier(0))]
    test_vec = (np.array([0]), np.array([5.0]))
    assert ensemble_vote(members, *test_vec, "INT", 1, m) == 0


def _reference_vote(members, cols, vals, measure, knn, matrix, top=None):
    """The vote with one scalar sim() per member, ignoring any ranking
    passed in."""
    ids = np.array([m for m, _ in members], dtype=np.int64)
    sims = np.array([sim((cols, vals), matrix.row(int(m)), measure)
                     for m in ids])
    top = np.lexsort((ids, -sims))[:knn]
    votes = sum(members[j][1].predict(cols, vals) for j in top)
    return 1 if 2 * votes >= knn else 0


def _kernel_cases(aggregation):
    """A random matrix over even items with empty and duplicated rows, and
    test vectors that are empty, fall between or past the rows' columns,
    or repeat a row."""
    rng = np.random.default_rng(4)
    n, n_items = 40, 110
    recs = []
    for i in range(n):
        if i % 9 == 0:
            continue  # empty rows: zero unions against an empty vector
        for item in 2 * rng.choice(50, size=rng.integers(1, 25),
                                   replace=False):
            for _ in range(rng.integers(1, 3)):
                value = (float(rng.integers(1, 6)) if aggregation == "sum"
                         else float(rng.random() * 5))
                recs.append((i, int(item), value, 1))
    for j, src in ((37, 5), (38, 5)):  # exact ties: copies of row 5
        recs = [r for r in recs if r[0] != j]
        recs += [(j, r[1], r[2], r[3]) for r in recs if r[0] == src]
    log = EventLog.from_records(recs, n_nodes=n)
    m = build_matrix(log, np.arange(n_items), "training", aggregation)
    vecs = [m.row(5), m.row(12), (np.empty(0, np.int64), np.empty(0)),
            (np.array([1, 51, 99]), np.array([2.0, 1.0, 3.0])),
            (np.array([2, 99, 105]), np.array([1.0, 4.0, 2.0]))]
    for _ in range(20):
        cols = np.sort(rng.choice(n_items, size=rng.integers(1, 30),
                                  replace=False))
        vals = (rng.integers(1, 6, size=len(cols)).astype(float)
                if aggregation == "sum" else rng.random(len(cols)) * 5)
        vecs.append((cols, vals))
    return m, vecs


@pytest.mark.parametrize("measure", ["INT", "INT-N"])
@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_row_block_kernel_matches_sim(measure, aggregation):
    m, vecs = _kernel_cases(aggregation)
    ids = np.array([37, 3, 5, 9, 0, 38] + list(range(10, 36)))
    block = RowBlock(ids, m)
    knn = 7
    for cols, vals in vecs:
        got = block.similarities(cols, vals, measure)
        want = np.array([sim((cols, vals), m.row(int(j)), measure)
                         for j in ids])
        if aggregation == "sum":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(block.nearest(cols, vals, measure, knn),
                                      np.lexsort((ids, -want))[:knn])
    # the copies of row 5 tie with it exactly; the lowest id ranks first
    top = block.nearest(*m.row(5), measure, 3)
    assert ids[top].tolist() == [5, 37, 38]


def test_ensemble_vote_rejects_negative_values():
    m = _attr_matrix([{0: 1.0}, {1: 2.0}], 2)
    members = [(0, ConstantClassifier(1)), (1, ConstantClassifier(0))]
    with pytest.raises(SimilarityError):
        ensemble_vote(members, np.array([0]), np.array([-1.0]), "INT", 1, m)
    bad = AttributeMatrix(data=sparse.csr_matrix(np.array([[1.0, -2.0]])),
                          item_ids=np.arange(2), role="training")
    with pytest.raises(SimilarityError):
        ensemble_vote([(0, ConstantClassifier(1))], np.array([0]),
                      np.array([1.0]), "INT", 1, bad)


@pytest.mark.parametrize("measure", ["INT", "INT-N"])
def test_ensemble_runs_match_per_member_sim_reference(homophily, measure,
                                                      monkeypatch):
    _, ds = homophily
    spec = NetworkModelSpec(model="KNN", measure=measure, density=0.03)
    g = spec.build(ds.matrix("training"))
    fam = prepare_family(spec, g, 5, False, True, False)
    locality = NeighborhoodSpec("ensemble", ensemble_order="attr-sum",
                                ensemble_knn=5)

    def run_both():
        cc = run_cc(cfg(locality, network=spec), g, ds, "testing")
        lp = run_lp(cfg(locality, task="LP", network=spec), fam.lp_train,
                    fam.lp_plans["testing"], ds.matrix("training"),
                    excl_keys=fam.excl_keys)
        return cc, lp

    got = run_both()
    monkeypatch.setattr(tasks, "ensemble_vote", _reference_vote)
    want = run_both()
    for a, b in zip(got, want):
        assert not a.ensemble_fallback and a.n_records > 0
        assert a.targets == b.targets
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.predicted, b.predicted)


# ------------------------------------------------- collective classification


def _micro_cc_dataset():
    """5 nodes, items {0, 1}, rules a=touch item 0, b=touch item 1.

    Testing window: only nodes 0, 1, 4 touch item 0; nobody touches item 1.
    """
    events = []
    for i in range(5):
        events += [(i, 0, 5.0, 1), (i, 1, 5.0, 2)]
    for node, item in ((0, 0), (1, 0), (2, 1), (3, 1), (4, 1)):
        events.append((node, item, 5.0, 12))
    for node in (0, 1, 4):
        events.append((node, 0, 5.0, 25))
    log = EventLog.from_records(events, n_nodes=5)
    rules = [LabelRule("a", (0,), min_count=1, min_value=1.0),
             LabelRule("b", (1,), min_count=1, min_value=1.0)]
    return build_dataset(log, rules, boundaries=(10, 20))


def test_cc_local_adjacency_micro():
    ds = _micro_cc_dataset()
    g = mk(5, [(0, 1), (2, 3)])
    audit = LeakageAudit()
    batch = run_cc(cfg("local-adjacency"), g, ds, "testing", audit=audit)
    assert batch.n_records == 3  # a-positives {0, 1, 4}; b has none
    by_node = {n: (p, f) for n, _, p, _, f in batch.rows()}
    assert by_node[0] == (1, 0) and by_node[1] == (1, 0)
    assert by_node[4] == (0, 1)  # isolated: no neighborhood, fallback
    assert batch.precision == pytest.approx(2 / 3)
    assert batch.n_fallback == 1
    assert audit.assertions > 0 and audit.violations == 0


def test_cc_counts_one_record_per_positive():
    ds = _micro_cc_dataset()
    g = mk(5, [(0, 1), (2, 3)])
    batch = run_cc(cfg("local-adjacency"), g, ds, "validation")
    want = sum(len(ds.labelset("validation").positives(n))
               for n in ds.labelset("validation").names)
    assert batch.n_records == want == 10
    np.testing.assert_array_equal(batch.actual, 1)


def test_cc_global_trains_once_per_labelset():
    ds = _micro_cc_dataset()
    g = mk(5, [(0, 1), (2, 3)])
    pool = ClassifierPool(cfg("global"))
    batch = run_cc(cfg("global"), g, ds, "validation", pool=pool)
    assert pool.trained == 2
    assert batch.notes["classifiers_trained"] == 2
    assert batch.n_fallback == 0


def _always_assembled_cc_classifier(config, pool, audit, train_m, name,
                                    y_train, nodes):
    """``_cc_classifier`` with no shortcut: every build assembles a
    TrainingSet and hands it to ``train_classifier``."""
    if len(nodes) == 0:
        return None

    def build(seed):
        audit.expect_role(train_m.role, "training",
                          f"CC features for labelset '{name}'")
        ts = TrainingSet(train_m, y_train[nodes].astype(int), nodes)
        return train_classifier(config.classifier, ts, seed, config.svm,
                                config.rf)

    return pool.get(tasks._digest("cc", name, np.sort(nodes)), build)


@pytest.mark.parametrize("classifier",
                         ["linear-svm", "random-forest", "coin"])
def test_cc_single_class_shortcut_matches_always_assembled(
        homophily, tmp_path, monkeypatch, classifier):
    _, ds = homophily
    spec = NetworkModelSpec(model="KNN", measure="INT", density=0.03)
    g = spec.build(ds.matrix("training"))
    single = trained = 0
    for loc in ("local-adjacency", "community", "ensemble:degree",
                "global:60"):
        config = ModelConfig(network=spec,
                             locality=NeighborhoodSpec.parse(loc),
                             task="CC", classifier=classifier, seed=3,
                             rf=RFHyper(trees=3))

        def run():
            pool, audit = ClassifierPool(config), LeakageAudit()
            batches = [run_cc(config, g, ds, role, audit=audit, pool=pool)
                       for role in ("validation", "testing")]
            return batches, pool, audit.assertions

        got, pool, got_asserts = run()
        with monkeypatch.context() as mp:
            mp.setattr(tasks, "_cc_classifier",
                       _always_assembled_cc_classifier)
            want, ref_pool, want_asserts = run()
        dirs = (tmp_path / loc / "got", tmp_path / loc / "want")
        for batches, d in zip((got, want), dirs):
            d.mkdir(parents=True)
            _write_batches(d / "batches.tsv", batches)
        for name in ("batches.tsv", "batches_meta.json"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes(), (loc, name)
        assert got_asserts == want_asserts
        assert not any(b.ensemble_fallback for b in got)
        # the shortcut answers exactly the builds that trained a constant
        assert pool.single_class == sum(
            isinstance(c, ConstantClassifier)
            for c in ref_pool.cache.values())
        single += pool.single_class
        trained += pool.trained
    if classifier == "coin":
        assert single == 0
    else:  # both kinds of material occur
        assert 0 < single < trained


def test_cc_single_class_material_is_still_checked():
    m = AttributeMatrix(
        data=sparse.csr_matrix(np.array([[1.0, -2.0], [1.0, 0.0],
                                         [0.0, 3.0]])),
        item_ids=np.arange(2), role="training")
    for classifier in ("linear-svm", "random-forest"):
        config = cfg("global", classifier=classifier)
        pool = ClassifierPool(config)
        for y, nodes, what in (([1, 1, 1], [0, 1], "negative"),
                               ([2, 2, 2], [1, 2], "0/1")):
            with pytest.raises(LearnError, match=what):
                tasks._cc_classifier(config, pool, LeakageAudit(), m, "a",
                                     np.array(y), np.array(nodes))
        clf = tasks._cc_classifier(config, pool, LeakageAudit(), m, "a",
                                   np.array([1, 1, 1]), np.array([1, 2]))
        assert isinstance(clf, ConstantClassifier)
        assert (clf.label, clf.reason) == (1, "single-class")
        assert pool.single_class == 1


def test_cc_empty_evaluation_is_degenerate():
    events = [(i, 0, 5.0, t) for i in range(4) for t in (1, 12)]
    events += [(i, 0, 0.5, 25) for i in range(4)]  # below min_value
    log = EventLog.from_records(events, n_nodes=4)
    ds = build_dataset(log, [LabelRule("a", (0,), min_count=1)],
                       boundaries=(10, 20))
    batch = run_cc(cfg("local-adjacency"), mk(4, [(0, 1)]), ds, "testing")
    assert batch.n_records == 0
    assert batch.degenerate and batch.precision == 0.0


@pytest.fixture(scope="module")
def homophily():
    bundle = synth_bundle(5, 120, 300, PlantSpec())
    ds = build_dataset(bundle.log, bundle.rules, boundaries=bundle.boundaries)
    return bundle, ds


def test_cc_on_membership_truth_graph(homophily):
    bundle, ds = homophily
    g = bundle.label_graph
    config = cfg("local-adjacency", network=NetworkModelSpec(
        model="EXPLICIT", edges="truth-label"), seed=11)
    audit = LeakageAudit()
    batch = run_cc(config, g, ds, "testing", audit=audit)
    assert batch.precision >= 0.9
    assert audit.violations == 0

    # independent 1-nearest-neighbor check over the same neighborhoods
    train_m = ds.matrix("training")
    train_l = ds.labelset("training")
    eval_m = ds.matrix("testing")
    eval_l = ds.labelset("testing")
    hits = total = 0
    for name in eval_l.names:
        y = train_l.array(name)
        for i in eval_l.positives(name):
            nb = g.neighbors(int(i))
            if len(nb) == 0:
                continue
            target = eval_m.row(int(i))
            best = max(nb, key=lambda j: (sim(target, train_m.row(int(j)),
                                              "INT"), -j))
            hits += int(y[int(best)])
            total += 1
    assert total > 0
    assert hits / total >= 0.9


def test_cc_ensemble_votes_on_rich_graph(homophily):
    bundle, ds = homophily
    batch = run_cc(cfg("ensemble:degree", seed=2), bundle.label_graph,
                   ds, "testing")
    assert not batch.ensemble_fallback
    assert batch.precision >= 0.9


def test_cc_ensemble_falls_back_when_members_are_untrainable():
    ds = _micro_cc_dataset()
    g = mk(5, [(0, 1)])  # almost no structure to train members on
    batch = run_cc(cfg("ensemble:degree"), g, ds, "testing")
    assert batch.ensemble_fallback
    assert batch.n_fallback == 0  # the global fallback still classifies


def test_cc_community_locality_self_excluded():
    ds = _micro_cc_dataset()
    g = mk(5, clique(range(4)))
    comm = louvain(g, seed=0)
    batch = run_cc(cfg("community"), g, ds, "testing", comm=comm)
    assert batch.n_records == 3
    assert batch.precision > 0


def _settle_recorder(monkeypatch):
    """Replace the runners' settle_svms with one that records, per call,
    the ids of the pending SVMs it was given."""
    calls = []
    real = tasks.settle_svms

    def record(models):
        models = list(models)
        calls.append([id(m) for m in models
                      if isinstance(m, LinearSVM) and m.margins is not None])
        real(models)

    monkeypatch.setattr(tasks, "settle_svms", record)
    return calls


def _assert_settled_once(calls, n_runs, pool):
    built = [id(m) for m in pool.cache.values() if isinstance(m, LinearSVM)]
    settled = [k for call in calls for k in call]
    assert len(calls) == n_runs  # one settle per runner call
    assert built and sorted(settled) == sorted(built)
    assert all(m.margins is None for m in pool.cache.values()
               if isinstance(m, LinearSVM))


@pytest.mark.parametrize("locality", ["local-adjacency", "global",
                                      "ensemble:degree", "community"])
def test_run_cc_settles_each_built_svm_once(homophily, monkeypatch,
                                            locality):
    _, ds = homophily
    # random edges: neighborhoods mix both labels, so SVMs get trained
    ends = np.random.default_rng(0).integers(0, 120, size=(700, 2))
    g = mk(120, {(min(a, b), max(a, b)) for a, b in ends.tolist() if a != b})
    config = cfg(locality, seed=2)
    pool = ClassifierPool(config)
    calls = _settle_recorder(monkeypatch)
    for role in ("validation", "testing"):
        run_cc(config, g, ds, role, pool=pool)
    _assert_settled_once(calls, 2, pool)
    assert pool.hits > 0


# ------------------------------------------------------------ link prediction


def _lp_fixture(n_bridges=10):
    """Two 10-cliques with disjoint attribute blocks, hand-picked edge
    partitions: held-out pairs stay within cliques, bridges stay in
    training."""
    bridges = [(i, i + 10) for i in range(n_bridges)]
    full = mk(20, clique(range(10)) + clique(range(10, 20)) + bridges)
    test_held = [(0, 1), (2, 3), (4, 5), (10, 11), (12, 13), (14, 15)]
    val_held = [(6, 7), (8, 9), (16, 17), (18, 19)]
    held = set(test_held) | set(val_held)
    train_pairs = [p for p in zip(full.src.tolist(), full.dst.tolist())
                   if p not in held]
    g_train = mk(20, train_pairs)
    g_val, g_test = mk(20, val_held), mk(20, test_held)
    matrix = _attr_matrix(
        [{k: 10.0 for k in range(5)}] * 10
        + [{k: 10.0 for k in range(10, 15)}] * 10, 20)
    plans = {
        "validation": assign_lp_eval(full, g_val, "validation", seed=7),
        "testing": assign_lp_eval(full, g_test, "testing", seed=7),
    }
    excl = np.union1d(np.union1d(full.pair_keys(),
                                 plans["validation"].reserved_keys),
                      plans["testing"].reserved_keys)
    return full, g_train, matrix, plans, excl


def test_lp_eval_plan_is_owner_balanced():
    full, _, _, plans, _ = _lp_fixture()
    for plan in plans.values():
        assert plan.dropped_pos == 0
        for i in np.unique(plan.pos_owner):
            assert (plan.pos_owner == i).sum() == (plan.neg_owner == i).sum()
        # reserved pairs never collide with real network edges
        for u, v in plan.neg:
            assert not full.has_pair(int(u), int(v))
        keys = set(map(tuple, plan.pos)) | set(map(tuple, plan.neg))
        assert len(keys) == len(plan.pos) + len(plan.neg)


def _reference_lp_negatives(full, plan, seed):
    """assign_lp_eval's non-edge draws with one growing union of every
    network and reserved key, owner by owner."""
    n = full.n_nodes
    excl = full.pair_keys()
    neg = []
    for i in np.unique(np.concatenate([plan.pos_owner, plan.neg_owner])):
        i = int(i)
        count = int((plan.pos_owner == i).sum())
        partners = incident_nonedges(
            n, excl, i, count, derive_seed(seed, "lp-neg", plan.partition))
        lo, hi = np.minimum(partners, i), np.maximum(partners, i)
        neg += list(zip(lo.tolist(), hi.tolist()))
        excl = np.union1d(excl, lo * n + hi)
    return neg


def test_lp_eval_plan_matches_union_reference(homophily):
    _, ds = homophily
    spec = NetworkModelSpec(model="KNN", measure="INT", density=0.05)
    fam = prepare_family(spec, spec.build(ds.matrix("training")), 5,
                         False, True, False)
    for plan in fam.lp_plans.values():
        assert plan.dropped_pos == 0 and len(plan.neg) > 50
        want = _reference_lp_negatives(
            fam.graph.undirected_view(), plan,
            derive_seed(5, "lp-eval", family_key(spec)))
        assert [tuple(p) for p in plan.neg.tolist()] == want


def test_lp_eval_plan_is_deterministic():
    a = _lp_fixture()[3]
    b = _lp_fixture()[3]
    for part in ("validation", "testing"):
        np.testing.assert_array_equal(a[part].pos, b[part].pos)
        np.testing.assert_array_equal(a[part].neg, b[part].neg)
        np.testing.assert_array_equal(a[part].pos_owner, b[part].pos_owner)


def _int_oracle(matrix, batch):
    """Predict edge iff the pair shares any attribute mass."""
    want = []
    for _, target, _, _, _ in batch.rows():
        a, b = (int(x) for x in target.split("-"))
        want.append(1 if edge_features(matrix, a, b)[1].sum() > 0 else 0)
    return np.array(want, dtype=np.int8)


def test_lp_local_adjacency_on_two_cliques():
    _, g_train, matrix, plans, excl = _lp_fixture()
    audit = LeakageAudit()
    batch = run_lp(cfg("local-adjacency", task="LP"), g_train,
                   plans["testing"], matrix, excl_keys=excl, audit=audit)
    assert batch.n_records == 12
    assert batch.n_fallback == 0
    assert not batch.degenerate
    assert batch.precision == pytest.approx(1.0)
    np.testing.assert_array_equal(batch.predicted, _int_oracle(matrix, batch))
    assert audit.violations == 0


def test_lp_global_shares_one_classifier():
    _, g_train, matrix, plans, excl = _lp_fixture()
    config = cfg(NeighborhoodSpec("global", global_sample=20), task="LP")
    pool = ClassifierPool(config)
    batch = run_lp(config, g_train, plans["testing"], matrix,
                   excl_keys=excl, pool=pool)
    assert pool.trained == 1
    assert batch.precision == pytest.approx(1.0)
    np.testing.assert_array_equal(batch.predicted, _int_oracle(matrix, batch))


def test_lp_ensemble_votes_without_fallback():
    _, g_train, matrix, plans, excl = _lp_fixture()
    spec = NeighborhoodSpec("ensemble", ensemble_order="degree",
                            global_sample=20)
    batch = run_lp(cfg(spec, task="LP"), g_train, plans["testing"],
                   matrix, excl_keys=excl)
    assert not batch.ensemble_fallback
    assert batch.precision == pytest.approx(1.0)


def test_lp_ensemble_config_level_fallback():
    _, g_train, matrix, plans, excl = _lp_fixture(n_bridges=0)
    spec = NeighborhoodSpec("ensemble", ensemble_order="degree",
                            global_sample=8)
    batch = run_lp(cfg(spec, task="LP"), g_train, plans["testing"],
                   matrix, excl_keys=excl)
    assert batch.ensemble_fallback
    assert batch.precision == pytest.approx(1.0)
    assert batch.n_fallback == 0


def test_lp_local_without_trainable_nonedges_degenerates():
    # no bridges: every within-clique non-edge is a held-out network edge,
    # so local scopes cannot assemble a negative class
    _, g_train, matrix, plans, excl = _lp_fixture(n_bridges=0)
    batch = run_lp(cfg("local-adjacency", task="LP"), g_train,
                   plans["testing"], matrix, excl_keys=excl)
    assert batch.n_fallback == batch.n_records > 0
    assert batch.degenerate
    assert batch.precision == 0.0


def test_lp_community_scope():
    _, g_train, matrix, plans, excl = _lp_fixture()
    # the detected communities are the cliques themselves: complete inside
    # the full network, so they hold no trainable non-edges at all
    comm = louvain(g_train, seed=1)
    batch = run_lp(cfg("community", task="LP"), g_train, plans["testing"],
                   matrix, excl_keys=excl, comm=comm)
    assert batch.n_records == 12
    assert batch.n_fallback == batch.n_records
    # a community spanning both cliques sees cross non-edges and trains
    whole = CommunityAssignment(labels=np.zeros(20, dtype=np.int64),
                                modularity=0.0, n_levels=1, seed=0)
    batch = run_lp(cfg("community", task="LP"), g_train, plans["testing"],
                   matrix, excl_keys=excl, comm=whole)
    assert batch.n_fallback == 0
    assert batch.precision == pytest.approx(1.0)


def _per_owner_lp(config, g_train, plan, matrix, excl, comm):
    """run_lp's owner loop with one pair set and classifier lookup per
    owner and whole-plan masks per owner."""
    pool = ClassifierPool(config)
    n = g_train.n_nodes
    out = {"nodes": [], "targets": [], "pred": [], "act": [], "fb": []}
    for i in np.unique(np.concatenate([plan.pos_owner, plan.neg_owner])):
        i = int(i)
        edges, nonedges = tasks._lp_local_pair_sets(config, g_train, i, comm)
        clf = tasks._lp_classifier_for_pairs(config, pool, LeakageAudit(),
                                             matrix, edges, nonedges, excl, n)
        for pairs, lab in ((plan.pos[plan.pos_owner == i], 1),
                           (plan.neg[plan.neg_owner == i], 0)):
            for a, b in pairs.tolist():
                out["nodes"].append(i)
                out["targets"].append(f"{a}-{b}")
                out["pred"].append(0 if clf is None else int(
                    clf.predict(*edge_features(matrix, a, b))))
                out["act"].append(lab)
                out["fb"].append(clf is None)
    return PredictionBatch(
        config_key=config.config_key, task="LP", partition=plan.partition,
        nodes=np.array(out["nodes"], dtype=np.int64), targets=out["targets"],
        predicted=np.array(out["pred"], dtype=np.int8),
        actual=np.array(out["act"], dtype=np.int8),
        fallback=np.array(out["fb"], dtype=bool),
        notes={"classifiers_trained": pool.trained,
               "dropped_pos": plan.dropped_pos})


def test_lp_community_shares_pairs_per_community(homophily, tmp_path):
    _, ds = homophily
    spec = NetworkModelSpec(model="KNN", measure="INT", density=0.03)
    fam = prepare_family(spec, spec.build(ds.matrix("training")), 5,
                         False, True, True)
    assert len(np.unique(fam.comm_lp.labels)) > 1
    config = cfg("community", task="LP", network=spec)
    matrix = ds.matrix("training")
    for role, plan in fam.lp_plans.items():
        got = run_lp(config, fam.lp_train, plan, matrix,
                     excl_keys=fam.excl_keys, comm=fam.comm_lp)
        want = _per_owner_lp(config, fam.lp_train, plan, matrix,
                             fam.excl_keys, fam.comm_lp)
        assert 0 < got.n_fallback < got.n_records
        dirs = (tmp_path / role / "got", tmp_path / role / "want")
        for batch, d in zip((got, want), dirs):
            d.mkdir(parents=True)
            _write_batches(d / "batches.tsv", [batch])
        for name in ("batches.tsv", "batches_meta.json"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()



def _reference_edge_features(matrix, a, b):
    """One pair's features as two row intersections."""
    ca, va = matrix.row(a)
    cb, vb = matrix.row(b)
    common, ka, kb = np.intersect1d(ca, cb, return_indices=True)
    return common, np.minimum(va[ka], vb[kb])


def _per_pair_features(matrix, pairs):
    """``pair_features`` as a loop over ``_reference_edge_features``."""
    rows = [_reference_edge_features(matrix, a, b)
            for a, b in np.asarray(pairs).reshape(-1, 2).tolist()]
    return (np.concatenate([[0], np.cumsum([len(c) for c, _ in rows])]),
            np.concatenate([np.empty(0, matrix.data.indices.dtype),
                            *(c for c, _ in rows)]),
            np.concatenate([np.empty(0), *(v for _, v in rows)]))


def _per_pair_lp(config, g_train, plan, matrix, excl, comm):
    """run_lp with one classifier lookup per owner and one
    ``_reference_edge_features`` call per evaluation pair."""
    pool, audit = ClassifierPool(config), LeakageAudit()
    n = g_train.n_nodes
    spec = config.locality
    shared = None
    if spec.locality == "global":
        shared = tasks._lp_global_classifier(config, pool, audit, g_train,
                                             excl, matrix)
    elif spec.locality == "ensemble":
        members = []
        for mnode in ensemble_members(config, g_train, matrix).tolist():
            _, edges, nonedges = egonet(g_train, mnode)
            clf = tasks._lp_classifier_for_pairs(
                config, pool, audit, matrix, edges, nonedges, excl, n)
            if clf is not None:
                members.append((mnode, clf))
        assert len(members) >= spec.ensemble_knn  # no fallback here
        shared = tasks._EnsembleVoter(members, config.vote_measure,
                                      spec.ensemble_knn, matrix)
    out = {"nodes": [], "targets": [], "pred": [], "act": [], "fb": []}
    for i in np.unique(np.concatenate([plan.pos_owner, plan.neg_owner])):
        i = int(i)
        clf = shared
        if clf is None:
            edges, nonedges = tasks._lp_local_pair_sets(config, g_train, i,
                                                        comm)
            clf = tasks._lp_classifier_for_pairs(
                config, pool, audit, matrix, edges, nonedges, excl, n)
        for pairs, lab in ((plan.pos[plan.pos_owner == i], 1),
                           (plan.neg[plan.neg_owner == i], 0)):
            for a, b in pairs.tolist():
                out["nodes"].append(i)
                out["targets"].append(f"{a}-{b}")
                out["pred"].append(0 if clf is None else int(
                    clf.predict(*_reference_edge_features(matrix, a, b))))
                out["act"].append(lab)
                out["fb"].append(clf is None)
    return PredictionBatch(
        config_key=config.config_key, task="LP", partition=plan.partition,
        nodes=np.array(out["nodes"], dtype=np.int64), targets=out["targets"],
        predicted=np.array(out["pred"], dtype=np.int8),
        actual=np.array(out["act"], dtype=np.int8),
        fallback=np.array(out["fb"], dtype=bool),
        notes={"classifiers_trained": pool.trained,
               "dropped_pos": plan.dropped_pos})


@pytest.mark.parametrize("classifier", ["linear-svm", "coin"])
def test_lp_batched_pair_features_match_per_pair_loop(
        homophily, tmp_path, monkeypatch, classifier):
    _, ds = homophily
    spec = NetworkModelSpec(model="KNN", measure="INT", density=0.03)
    matrix = ds.matrix("training")
    fam = prepare_family(spec, spec.build(matrix), 5, False, True, True)
    plans = list(fam.lp_plans.values())
    for loc in ("local-adjacency", "community", "global:60",
                "ensemble:degree"):
        config = cfg(loc, task="LP", classifier=classifier, network=spec)
        got = [run_lp(config, fam.lp_train, plan, matrix,
                      excl_keys=fam.excl_keys, comm=fam.comm_lp)
               for plan in plans]
        with monkeypatch.context() as mp:  # per-pair training features
            mp.setattr(tasks, "pair_features", _per_pair_features)
            want = [_per_pair_lp(config, fam.lp_train, plan, matrix,
                                 fam.excl_keys, fam.comm_lp)
                    for plan in plans]
        assert not any(b.ensemble_fallback for b in got)
        assert sum(b.n_fallback for b in got) < \
            sum(b.n_records for b in got)
        dirs = (tmp_path / loc / "got", tmp_path / loc / "want")
        for batches, d in zip((got, want), dirs):
            d.mkdir(parents=True)
            _write_batches(d / "batches.tsv", batches)
        for name in ("batches.tsv", "batches_meta.json"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes(), (loc, name)


@pytest.mark.parametrize("locality", ["local-adjacency", "global",
                                      "ensemble:degree", "community"])
def test_run_lp_settles_each_built_svm_once(homophily, monkeypatch,
                                            locality):
    _, ds = homophily
    spec = NetworkModelSpec(model="KNN", measure="INT", density=0.03)
    fam = prepare_family(spec, spec.build(ds.matrix("training")), 5,
                         False, True, True)
    config = cfg(NeighborhoodSpec.parse(locality), task="LP", network=spec)
    pool = ClassifierPool(config)
    calls = _settle_recorder(monkeypatch)
    for plan in fam.lp_plans.values():
        run_lp(config, fam.lp_train, plan, ds.matrix("training"),
               excl_keys=fam.excl_keys, comm=fam.comm_lp, pool=pool)
    _assert_settled_once(calls, 2, pool)


def _train_recorder(monkeypatch):
    """Replace the pool's train_svms with one that records, per call, the
    ids of the SVMs whose SGD it ran."""
    calls = []
    real = tasks.train_svms

    def record(models):
        models = list(models)
        calls.append([id(m) for m in models
                      if isinstance(m, LinearSVM) and m.sgd is not None])
        real(models)

    monkeypatch.setattr(tasks, "train_svms", record)
    return calls


@pytest.mark.parametrize("task", ["CC", "LP"])
def test_pool_trains_pending_svms_past_the_entry_budget(homophily,
                                                        monkeypatch, task):
    _, ds = homophily
    spec = NetworkModelSpec(model="KNN", measure="INT", density=0.03)
    fam = prepare_family(spec, spec.build(ds.matrix("training")), 5,
                         False, task == "LP", False)
    config = cfg("local-adjacency", task=task, network=spec)
    # random edges: neighborhoods mix both labels, so SVMs get trained
    ends = np.random.default_rng(0).integers(0, 120, size=(700, 2))
    g = mk(120, {(min(a, b), max(a, b)) for a, b in ends.tolist() if a != b})

    def run(pool):
        if task == "CC":
            return [run_cc(config, g, ds, role, pool=pool)
                    for role in ("validation", "testing")]
        return [run_lp(config, fam.lp_train, plan, ds.matrix("training"),
                       excl_keys=fam.excl_keys, pool=pool)
                for plan in fam.lp_plans.values()]

    want = run(ClassifierPool(config))
    monkeypatch.setattr(tasks, "SGD_BATCH_ENTRIES", 200)
    trained = _train_recorder(monkeypatch)
    settled = _settle_recorder(monkeypatch)
    pool = ClassifierPool(config)
    got = run(pool)
    built = [id(m) for m in pool.cache.values() if isinstance(m, LinearSVM)]
    flushes = [ids for ids in trained if ids]
    assert len(flushes) > 4  # more than the two settles
    assert sorted(i for ids in flushes for i in ids) == sorted(built)
    _assert_settled_once(settled, 2, pool)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.predicted, b.predicted)


def test_lp_training_edges_may_not_touch_eval_pairs():
    full, _, matrix, plans, excl = _lp_fixture()
    with pytest.raises(TaskError):
        # the full network still contains the held-out evaluation edges
        run_lp(cfg("local-adjacency", task="LP"), full, plans["testing"],
               matrix, excl_keys=excl)


def test_lp_rejects_non_lp_config():
    _, g_train, matrix, plans, excl = _lp_fixture()
    with pytest.raises(TaskError):
        run_lp(cfg("local-adjacency", task="CC"), g_train, plans["testing"],
               matrix, excl_keys=excl)
