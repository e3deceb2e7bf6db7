"""Collective classification and link prediction over one network model.

A configuration names a network, a neighborhood scope, a task and a
classifier. Evaluation runs once per evaluation partition and yields a
PredictionBatch of per-instance records.

Leakage discipline: training features and labels come from the training
partition only, link-prediction training pairs come from the training edge
split only, and every assembly point asserts this through a LeakageAudit
so a full run can report its assertion and violation counts.

Classifier reuse: training material is digested (content-addressed), so
two test instances with identical neighborhoods share one classifier and
one derived seed. This keeps results independent of evaluation order and
of how configs are scheduled across workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_seed, generator
from .community import CommunityAssignment, louvain
from .data import AttributeMatrix, PartitionedDataset
from .graph import (EdgeSet, NeighborhoodSpec, _pair_keys, absent_pairs,
                    bfs_neighborhood, egonet, incident_nonedges,
                    induced_pairs)
from .learn import (CoinClassifier, ConstantClassifier, LinearSVM, RFHyper,
                    SVMHyper, TrainingSet, pair_features, settle_svms,
                    single_class_label, train_classifier, train_svms)
from .similarity import NetworkModelSpec, RowBlock

TASKS = ("CC", "LP")
CLASSIFIER_KINDS = ("linear-svm", "random-forest", "coin")
# unit-row entries that SVMs awaiting their SGD may hold before the pool
# trains them together: bounds the memory of the material they keep
SGD_BATCH_ENTRIES = 2**16


class TaskError(ValueError):
    pass


def _fmt_density(d: float) -> str:
    return np.format_float_positional(d, trim="-")


@dataclass(frozen=True)
class ModelConfig:
    """One cell of the experiment grid."""

    network: NetworkModelSpec
    locality: NeighborhoodSpec
    task: str
    classifier: str
    seed: int
    svm: SVMHyper = SVMHyper()
    rf: RFHyper = RFHyper()

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise TaskError(f"unknown task: {self.task}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise TaskError(f"unknown classifier: {self.classifier}")

    @property
    def config_key(self) -> str:
        net = self.network
        if net.model == "EXPLICIT":
            model, measure, dens = f"EXPLICIT:{net.edges}", "-", "-"
        else:
            model, measure = net.model, net.measure
            dens = _fmt_density(net.density)
        return (f"model={model}|measure={measure}|density={dens}"
                f"|locality={self.locality.key()}|task={self.task}"
                f"|clf={self.classifier}|seed={self.seed}")

    @property
    def vote_measure(self) -> str:
        """Similarity measure for ensemble voting; explicit networks have
        no measure of their own, so plain intersection is used."""
        return self.network.measure if self.network.measure else "INT"


def config_key_fields(key: str) -> dict:
    out = {}
    for part in key.split("|"):
        name, _, value = part.partition("=")
        out[name] = value
    return out


class LeakageAudit:
    """Counts every leakage assertion; a failed one is fatal."""

    def __init__(self) -> None:
        self.assertions = 0
        self.violations = 0

    def check(self, ok: bool, what: str) -> None:
        self.assertions += 1
        if not ok:
            self.violations += 1
            raise TaskError(f"leakage: {what}")

    def expect_role(self, got: str, want: str, what: str) -> None:
        self.check(got == want,
                   f"{what} drawn from partition '{got}', need '{want}'")

    def disjoint(self, a: np.ndarray, b: np.ndarray, what: str) -> None:
        """Assert that no key of ``a`` is in ``b``, which must be sorted."""
        self.check(not _in_sorted(a, b).any(), what)

    def merge(self, other: "LeakageAudit") -> None:
        self.assertions += other.assertions
        self.violations += other.violations


@dataclass
class PredictionBatch:
    """Per-instance evaluation records for one config on one partition."""

    config_key: str
    task: str
    partition: str
    nodes: np.ndarray
    targets: list
    predicted: np.ndarray
    actual: np.ndarray
    fallback: np.ndarray
    ensemble_fallback: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def n_records(self) -> int:
        return len(self.predicted)

    @property
    def n_fallback(self) -> int:
        return int(self.fallback.sum())

    @property
    def degenerate(self) -> bool:
        """True when the precision denominator is empty."""
        if self.task == "CC":
            return self.n_records == 0
        return int(self.predicted.sum()) == 0

    @property
    def precision(self) -> float:
        """CC: fraction of positive-oracle instances predicted positive.
        LP: fraction of positive predictions that are true edges.
        Empty denominators score 0 (see ``degenerate``)."""
        if self.task == "CC":
            if self.n_records == 0:
                return 0.0
            return float(self.predicted.mean())
        pred1 = self.predicted == 1
        if not pred1.any():
            return 0.0
        return float((self.actual[pred1] == 1).mean())

    def rows(self):
        """(node, target, predicted, actual, fallback) record tuples."""
        for i in range(self.n_records):
            yield (int(self.nodes[i]), self.targets[i],
                   int(self.predicted[i]), int(self.actual[i]),
                   int(self.fallback[i]))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(str(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


class ClassifierPool:
    """Content-addressed classifier cache for one config.

    The training seed is derived from the material digest, so identical
    training sets reached through different test instances (or partitions)
    produce the same classifier. ``trained`` counts builds, ``hits`` the
    lookups answered from the cache, and ``single_class`` the CC builds
    answered without training because the material carries one label.
    SVMs come out of ``train_svm`` with their SGD pending. The pool runs
    the SGD of those it holds in one lock-step ``train_svms`` call once
    their unit rows pass ``SGD_BATCH_ENTRIES`` entries; ``settle`` trains
    the rest, then scales every SVM built since its last call in one
    search.
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.cache: dict = {}
        self.trained = 0
        self.hits = 0
        self.single_class = 0
        self.unsettled: list = []
        self.sgd_entries = 0

    def get(self, material: str, builder):
        if material in self.cache:
            self.hits += 1
        else:
            seed = derive_seed(self.config.seed, "clf", material)
            clf = self.cache[material] = builder(seed)
            self.unsettled.append(clf)
            self.trained += 1
            if isinstance(clf, LinearSVM) and clf.sgd is not None:
                self.sgd_entries += len(clf.sgd.vals)
                if self.sgd_entries > SGD_BATCH_ENTRIES:
                    train_svms(self.unsettled)
                    self.sgd_entries = 0
        return self.cache[material]

    def settle(self) -> None:
        train_svms(self.unsettled)
        self.sgd_entries = 0
        settle_svms(self.unsettled)
        self.unsettled.clear()


def _group_by(keys: np.ndarray):
    """(key, positions) for each distinct key in ascending order; the
    positions ascend, as ``np.flatnonzero(keys == key)`` gives them."""
    order = np.argsort(keys, kind="stable")
    distinct, starts = np.unique(keys[order], return_index=True)
    bounds = np.append(starts, len(keys)).tolist()
    for j, key in enumerate(distinct.tolist()):
        yield key, order[bounds[j]:bounds[j + 1]]


def _in_sorted(keys: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in the sorted array ``ref``."""
    if len(ref) == 0 or len(keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(ref, keys)
    pos_c = np.minimum(pos, len(ref) - 1)
    return ref[pos_c] == keys


# --- neighborhood resolution ------------------------------------------------

def global_training_nodes(config: ModelConfig, n: int) -> np.ndarray:
    """Fixed seeded node sample shared by every test instance of the
    config."""
    k = min(config.locality.global_sample, n)
    rng = generator(config.seed, "global-sample")
    return np.sort(rng.choice(n, size=k, replace=False))


def resolve_neighborhood(g: EdgeSet, spec: NeighborhoodSpec, i: int,
                         comm: CommunityAssignment | None = None,
                         global_nodes: np.ndarray | None = None
                         ) -> np.ndarray:
    """Training nodes for test node i under the given scope (CC form).

    LP pair scopes are derived from the same node sets by the LP runner.
    """
    kind = spec.locality
    if kind == "local-adjacency":
        return g.neighbors(i)
    if kind == "local-bfs":
        return bfs_neighborhood(g, i, spec.bfs_k)
    if kind == "community":
        if comm is None:
            raise TaskError("community locality needs a CommunityAssignment")
        members = comm.members(int(comm.labels[i]))
        return members[members != i]
    if kind == "global":
        if global_nodes is None:
            raise TaskError("global locality needs the shared node sample")
        return global_nodes
    raise TaskError(f"no single neighborhood for locality '{kind}'")


# --- ensembles ---------------------------------------------------------------

def ensemble_members(config: ModelConfig, g: EdgeSet,
                     matrix: AttributeMatrix) -> np.ndarray:
    """Top ensemble_k nodes under the configured ordering.

    degree is on the symmetrized graph; attr-sum and attr-unique are on
    training-partition attributes; random is one seeded ordering per
    config. Ties go to the lower node id.
    """
    spec = config.locality
    n = g.n_nodes
    if spec.ensemble_order == "degree":
        scores = g.undirected_view().degrees().astype(np.float64)
    elif spec.ensemble_order == "attr-sum":
        scores = matrix.row_sums
    elif spec.ensemble_order == "attr-unique":
        scores = np.diff(matrix.data.indptr).astype(np.float64)
    else:
        scores = generator(config.seed, "ensemble-order").permutation(n)
        scores = scores.astype(np.float64)
    order = np.lexsort((np.arange(n), -scores))
    return order[:min(spec.ensemble_k, n)]


def ensemble_vote(members, cols, vals, measure: str,
                  knn: int, matrix: AttributeMatrix,
                  top: np.ndarray | None = None) -> int:
    """Majority vote of the knn members most similar to the test vector.

    ``members`` is a list of (node, classifier). Similarity is between the
    test vector and each member's training-partition attribute row; equal
    similarities resolve to the lower member node id. A tied vote goes to
    the positive class. ``top`` is the members' nearest-first positions
    for this vector when the caller already ranked them against a
    prebuilt ``RowBlock``; otherwise they are ranked here.
    """
    if top is None:
        top = RowBlock([m for m, _ in members], matrix).nearest(
            cols, vals, measure, knn)
    votes = sum(members[j][1].predict(cols, vals) for j in top)
    return 1 if 2 * votes >= knn else 0


class _EnsembleVoter:
    """Classifier-shaped wrapper around a trained member population; the
    members' rows are gathered into one block when it is built."""

    def __init__(self, members, measure: str, knn: int,
                 matrix: AttributeMatrix) -> None:
        self.members = members
        self.measure = measure
        self.knn = knn
        self.matrix = matrix
        self.block = RowBlock([m for m, _ in members], matrix)

    def predict(self, cols, vals) -> int:
        top = self.block.nearest(cols, vals, self.measure, self.knn)
        return ensemble_vote(self.members, cols, vals, self.measure,
                             self.knn, self.matrix, top)


# --- collective classification ----------------------------------------------

def _cc_classifier(config: ModelConfig, pool: ClassifierPool,
                   audit: LeakageAudit, train_m: AttributeMatrix,
                   name: str, y_train: np.ndarray, nodes: np.ndarray):
    """Train (or fetch) the classifier for one labelset and one training
    node set; None when the set is empty. Material with one label gets the
    constant classifier both learners would train from it, with no
    training set."""
    if len(nodes) == 0:
        return None

    def build(seed: int):
        audit.expect_role(train_m.role, "training",
                          f"CC features for labelset '{name}'")
        if config.classifier == "coin":  # coin never reads its features
            return CoinClassifier(seed)
        labels = y_train[nodes].astype(int)
        label = single_class_label(train_m, labels, nodes)
        if label is not None:
            pool.single_class += 1
            return ConstantClassifier(label, "single-class")
        ts = TrainingSet(train_m, labels, nodes)
        return train_classifier(config.classifier, ts, seed,
                                config.svm, config.rf)

    return pool.get(_digest("cc", name, np.sort(nodes)), build)


def run_cc(config: ModelConfig, g: EdgeSet, parts: PartitionedDataset,
           eval_role: str, comm: CommunityAssignment | None = None,
           audit: LeakageAudit | None = None,
           pool: ClassifierPool | None = None) -> PredictionBatch:
    """Evaluate collective classification on one partition.

    Per labelset, every node positive in the evaluation partition is one
    test instance; its neighborhood supplies training-partition attribute
    vectors and labels. Empty neighborhoods predict 0 and are flagged.
    """
    if config.task != "CC":
        raise TaskError("run_cc called on a non-CC config")
    audit = audit if audit is not None else LeakageAudit()
    pool = pool if pool is not None else ClassifierPool(config)
    train_m = parts.matrix("training")
    train_l = parts.labelset("training")
    eval_m = parts.matrix(eval_role)
    eval_l = parts.labelset(eval_role)
    audit.expect_role(train_l.role, "training", "CC training labels")
    audit.expect_role(eval_m.role, eval_role, "CC evaluation features")
    audit.expect_role(eval_l.role, eval_role, "CC evaluation oracle")

    spec = config.locality
    kind = spec.locality
    if kind == "community" and comm is None:
        comm = louvain(g, derive_seed(config.seed, "louvain"))
    global_nodes = None
    if kind == "global":
        global_nodes = global_training_nodes(config, g.n_nodes)

    ensemble_fallback = False
    members_by_label: dict[str, list] = {}
    if kind == "ensemble":
        # a member is trainable iff it has neighbors, whatever the
        # labelset, so every labelset votes over the same member rows
        member_ids = [int(m) for m in ensemble_members(config, g, train_m)
                      if len(g.neighbors(int(m)))]
        for name in sorted(eval_l.names):
            y_tr = train_l.array(name)
            members_by_label[name] = [
                (m, _cc_classifier(config, pool, audit, train_m, name, y_tr,
                                   g.neighbors(m)))
                for m in member_ids]
        if members_by_label and len(member_ids) < spec.ensemble_knn:
            ensemble_fallback = True
            global_nodes = global_training_nodes(config, g.n_nodes)
        else:
            block = RowBlock(member_ids, train_m)
    voting = kind == "ensemble" and not ensemble_fallback
    # every record's classifier first (a vote needs none), then the SVMs
    # this call built settle in one search, then every record predicts
    nodes_out: list[int] = []
    targets: list[str] = []
    clfs: list = []
    for name in sorted(eval_l.names):
        y_tr = train_l.array(name)
        for i in eval_l.positives(name).tolist():
            clf = None
            if not voting:
                if kind == "ensemble":
                    tn = global_nodes
                else:
                    tn = resolve_neighborhood(g, spec, i, comm, global_nodes)
                clf = _cc_classifier(config, pool, audit, train_m, name,
                                     y_tr, tn)
            nodes_out.append(i)
            targets.append(name)
            clfs.append(clf)
    pool.settle()

    # a test node's vector, hence its member ranking, is the same for
    # every labelset
    tops: dict[int, np.ndarray] = {}
    preds: list[int] = []
    fbs: list[bool] = []
    for i, name, clf in zip(nodes_out, targets, clfs):
        cols, vals = eval_m.row(i)
        if voting:
            if i not in tops:
                tops[i] = block.nearest(cols, vals, config.vote_measure,
                                        spec.ensemble_knn)
            pred = ensemble_vote(members_by_label[name], cols, vals,
                                 config.vote_measure, spec.ensemble_knn,
                                 train_m, tops[i])
            fb = False
        else:
            fb = clf is None
            pred = 0 if fb else int(clf.predict(cols, vals))
        preds.append(pred)
        fbs.append(fb)
    m = len(preds)
    return PredictionBatch(
        config_key=config.config_key,
        task="CC",
        partition=eval_role,
        nodes=np.array(nodes_out, dtype=np.int64),
        targets=targets,
        predicted=np.array(preds, dtype=np.int8),
        actual=np.ones(m, dtype=np.int8),
        fallback=np.array(fbs, dtype=bool),
        ensemble_fallback=ensemble_fallback,
        notes={"classifiers_trained": pool.trained},
    )


# --- link prediction ----------------------------------------------------------

@dataclass
class LPEvalPlan:
    """Evaluation pairs for one edge-split partition.

    Each held-out edge is attributed to one seeded endpoint (its owner) and
    matched by a reserved non-edge incident to the same owner, so per-node
    batches are exactly class-balanced and every pair is unique.
    """

    partition: str
    pos: np.ndarray
    pos_owner: np.ndarray
    neg: np.ndarray
    neg_owner: np.ndarray
    reserved_keys: np.ndarray
    dropped_pos: int = 0


def assign_lp_eval(full: EdgeSet, g_eval: EdgeSet, partition: str,
                   seed: int, audit: LeakageAudit | None = None
                   ) -> LPEvalPlan:
    """Attribute evaluation edges to owners and reserve matching
    non-edges.

    Reserved pairs avoid the full network and each other; owners are
    processed in ascending order so the plan is independent of edge input
    order.
    """
    audit = audit if audit is not None else LeakageAudit()
    n = full.n_nodes
    u = np.minimum(g_eval.src, g_eval.dst)
    v = np.maximum(g_eval.src, g_eval.dst)
    keys = _pair_keys(u, v, n)
    order = np.argsort(keys)
    u, v = u[order], v[order]
    rng = generator(seed, "lp-owner", partition)
    pick = rng.integers(0, 2, size=len(u))
    owner = np.where(pick == 0, u, v)

    full_keys = full.pair_keys()
    # incident_nonedges only looks up pairs incident to the owner, so each
    # owner gets the network keys and the reserved keys incident to it
    ends = np.concatenate([full_keys // n, full_keys % n])
    by_end = np.argsort(ends, kind="stable")
    inc_keys = np.concatenate([full_keys, full_keys])[by_end]
    inc_ptr = np.searchsorted(ends[by_end], np.arange(n + 1))
    reserved_at: dict[int, list[int]] = {}
    keep_pos = np.ones(len(u), dtype=bool)
    neg_u: list[np.ndarray] = []
    neg_owner: list[np.ndarray] = []
    dropped = 0
    for i, at in _group_by(owner):
        excl = np.sort(np.concatenate([
            inc_keys[inc_ptr[i]:inc_ptr[i + 1]],
            np.array(reserved_at.get(i, ()), dtype=np.int64)]))
        partners = incident_nonedges(n, excl, i, len(at),
                                     derive_seed(seed, "lp-neg", partition))
        if len(partners) < len(at):
            dropped += len(at) - len(partners)
            keep_pos[at[len(partners):]] = False
        if len(partners) == 0:
            continue
        lo = np.minimum(partners, i)
        hi = np.maximum(partners, i)
        neg_u.append(np.column_stack([lo, hi]))
        neg_owner.append(np.full(len(partners), i, dtype=np.int64))
        for p, k in zip(partners.tolist(), _pair_keys(lo, hi, n).tolist()):
            reserved_at.setdefault(p, []).append(k)
    if neg_u:
        neg = np.concatenate(neg_u)
        neg_own = np.concatenate(neg_owner)
    else:
        neg = np.empty((0, 2), dtype=np.int64)
        neg_own = np.empty(0, dtype=np.int64)
    reserved = np.sort(_pair_keys(neg[:, 0], neg[:, 1], n)) if len(neg) \
        else np.empty(0, dtype=np.int64)
    audit.disjoint(reserved, full_keys,
                   "reserved non-edges overlap network edges")
    return LPEvalPlan(
        partition=partition,
        pos=np.column_stack([u[keep_pos], v[keep_pos]]),
        pos_owner=owner[keep_pos],
        neg=neg,
        neg_owner=neg_own,
        reserved_keys=reserved,
        dropped_pos=dropped,
    )


def _lp_local_pair_sets(config: ModelConfig, g_train: EdgeSet, i: int,
                        comm: CommunityAssignment | None
                        ) -> tuple[np.ndarray, np.ndarray]:
    kind = config.locality.locality
    if kind == "local-adjacency":
        _, edges, nonedges = egonet(g_train, i)
        return edges, nonedges
    if kind == "local-bfs":
        nodes = np.append(
            bfs_neighborhood(g_train, i, config.locality.bfs_k), i)
        return induced_pairs(g_train, nodes)
    if kind == "community":
        if comm is None:
            raise TaskError("community locality needs a CommunityAssignment")
        return induced_pairs(g_train, comm.members(int(comm.labels[i])))
    raise TaskError(f"no local pair scope for locality '{kind}'")


def _lp_classifier_for_pairs(config: ModelConfig, pool: ClassifierPool,
                             audit: LeakageAudit, matrix: AttributeMatrix,
                             edges: np.ndarray, nonedges: np.ndarray,
                             excl_keys: np.ndarray, n: int):
    """Balance the two pair classes, assemble features, train (cached).

    Candidate non-edges that are actually held-out network edges or
    reserved evaluation pairs are removed first. Returns None when a class
    is empty after that (the untrainable fallback).
    """
    if len(nonedges):
        k = _pair_keys(nonedges[:, 0], nonedges[:, 1], n)
        hit = _in_sorted(k, excl_keys)
        nonedges = nonedges[~hit]
    m = min(len(edges), len(nonedges))
    if m == 0:
        return None
    ek = _pair_keys(edges[:, 0], edges[:, 1], n)
    nk = _pair_keys(nonedges[:, 0], nonedges[:, 1], n)
    material = _digest("lp", np.sort(ek), np.sort(nk))
    if len(edges) > m:
        r = generator(derive_seed(config.seed, "lp-balance", material),
                      "pos")
        edges = edges[np.sort(r.choice(len(edges), size=m, replace=False))]
    if len(nonedges) > m:
        r = generator(derive_seed(config.seed, "lp-balance", material),
                      "neg")
        idx = np.sort(r.choice(len(nonedges), size=m, replace=False))
        nonedges = nonedges[idx]

    def build(seed: int):
        audit.expect_role(matrix.role, "training", "LP pair features")
        audit.disjoint(_pair_keys(nonedges[:, 0], nonedges[:, 1], n),
                       excl_keys,
                       "LP training non-edges overlap evaluation pairs")
        if config.classifier == "coin":  # coin never reads its features
            return CoinClassifier(seed)
        pairs = np.concatenate([edges, nonedges])
        labels = np.repeat([1, 0], [len(edges), len(nonedges)])
        ts = TrainingSet(pair_features(matrix, pairs), labels, pairs)
        return train_classifier(config.classifier, ts, seed,
                                config.svm, config.rf)

    return pool.get(material, build)


def _lp_global_classifier(config: ModelConfig, pool: ClassifierPool,
                          audit: LeakageAudit, g_train: EdgeSet,
                          excl_keys: np.ndarray, matrix: AttributeMatrix):
    """One seeded training sample of edges and complement non-edges,
    shared by every test instance of the config."""
    n = g_train.n_nodes
    n_pos = min(config.locality.global_sample, g_train.n_edges)
    if n_pos == 0:
        return None
    rng = generator(config.seed, "lp-global")
    pick = np.sort(rng.choice(g_train.n_edges, size=n_pos, replace=False))
    lo = np.minimum(g_train.src[pick], g_train.dst[pick])
    hi = np.maximum(g_train.src[pick], g_train.dst[pick])
    edges = np.column_stack([lo, hi])
    nonedges = absent_pairs(n, excl_keys if len(excl_keys)
                            else g_train.pair_keys(), n_pos,
                            derive_seed(config.seed, "lp-global-neg"))
    return _lp_classifier_for_pairs(config, pool, audit, matrix, edges,
                                    nonedges, excl_keys, n)


def run_lp(config: ModelConfig, g_train: EdgeSet, plan: LPEvalPlan,
           matrix: AttributeMatrix, excl_keys: np.ndarray | None = None,
           comm: CommunityAssignment | None = None,
           audit: LeakageAudit | None = None,
           pool: ClassifierPool | None = None) -> PredictionBatch:
    """Evaluate link prediction on one edge-split partition.

    ``excl_keys`` holds every pair key off-limits to training non-edges:
    the full network plus all reserved evaluation pairs (both partitions).
    Owners whose local scope lacks a pair class fall back to predicting
    non-edge for their whole balanced batch.
    """
    if config.task != "LP":
        raise TaskError("run_lp called on a non-LP config")
    audit = audit if audit is not None else LeakageAudit()
    pool = pool if pool is not None else ClassifierPool(config)
    n = g_train.n_nodes
    audit.expect_role(matrix.role, "training", "LP pair features")
    if excl_keys is None:
        excl_keys = np.union1d(g_train.pair_keys(), plan.reserved_keys)
    train_keys = g_train.pair_keys()
    eval_keys = np.sort(np.concatenate([
        _pair_keys(plan.pos[:, 0], plan.pos[:, 1], n) if len(plan.pos)
        else np.empty(0, dtype=np.int64),
        plan.reserved_keys,
    ]))
    audit.disjoint(train_keys, eval_keys,
                   "LP training edges overlap evaluation pairs")

    spec = config.locality
    kind = spec.locality
    if kind == "community" and comm is None:
        comm = louvain(g_train, derive_seed(config.seed, "louvain"))

    shared_clf = None
    ensemble_fallback = False
    if kind == "global":
        shared_clf = _lp_global_classifier(config, pool, audit, g_train,
                                           excl_keys, matrix)
    elif kind == "ensemble":
        member_ids = ensemble_members(config, g_train, matrix)
        trained = []
        for mnode in member_ids:
            _, edges, nonedges = egonet(g_train, int(mnode))
            clf = _lp_classifier_for_pairs(config, pool, audit, matrix,
                                           edges, nonedges, excl_keys, n)
            if clf is not None:
                trained.append((int(mnode), clf))
        if len(trained) < spec.ensemble_knn:
            ensemble_fallback = True
            shared_clf = _lp_global_classifier(config, pool, audit,
                                               g_train, excl_keys, matrix)
        else:
            shared_clf = _EnsembleVoter(trained, config.vote_measure,
                                        spec.ensemble_knn, matrix)

    # every plan pair's features in one batch, positives first; a pair's
    # row is sliced out for prediction (coin hashes it too)
    pairs = np.concatenate([plan.pos, plan.neg])
    ptr, feat_cols, feat_vals = pair_features(matrix, pairs)
    ptr = ptr.tolist()
    pairs = pairs.tolist()
    n_pos = len(plan.pos)
    community_clf: dict[int, object] = {}

    def local_classifier(i: int):
        edges, nonedges = _lp_local_pair_sets(config, g_train, i, comm)
        return _lp_classifier_for_pairs(config, pool, audit, matrix,
                                        edges, nonedges, excl_keys, n)

    # every owner's classifier first, then the SVMs this call built
    # settle in one search, then every pair predicts
    owners = []
    # an owner's positions ascend: its positives, then its negatives
    for i, at in _group_by(np.concatenate([plan.pos_owner,
                                           plan.neg_owner])):
        if kind in ("global", "ensemble"):
            clf = shared_clf
        elif kind == "community":
            # every owner in a community trains on the same induced pairs
            label = int(comm.labels[i])
            if label not in community_clf:
                community_clf[label] = local_classifier(i)
            clf = community_clf[label]
        else:
            clf = local_classifier(i)
        owners.append((i, at, clf))
    pool.settle()

    nodes_out: list[int] = []
    targets: list[str] = []
    preds: list[int] = []
    actuals: list[int] = []
    fbs: list[bool] = []
    for i, at, clf in owners:
        fb = clf is None
        for j in at.tolist():
            a, b = pairs[j]
            if fb:
                pred = 0
            else:
                lo, hi = ptr[j], ptr[j + 1]
                pred = int(clf.predict(feat_cols[lo:hi], feat_vals[lo:hi]))
            nodes_out.append(i)
            targets.append(f"{a}-{b}")
            preds.append(pred)
            actuals.append(1 if j < n_pos else 0)
            fbs.append(fb)
    return PredictionBatch(
        config_key=config.config_key,
        task="LP",
        partition=plan.partition,
        nodes=np.array(nodes_out, dtype=np.int64),
        targets=targets,
        predicted=np.array(preds, dtype=np.int8),
        actual=np.array(actuals, dtype=np.int8),
        fallback=np.array(fbs, dtype=bool),
        ensemble_fallback=ensemble_fallback,
        notes={"classifiers_trained": pool.trained,
               "dropped_pos": plan.dropped_pos},
    )
