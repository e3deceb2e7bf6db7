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
of how configs are scheduled across workers. A runner call works in three
phases: resolve (``resolve_cc``, ``resolve_lp``) every record's material
key in the config's ClassifierPool, whose builder for a miss names the
training set by its ids over the training matrix (node ids for CC, pairs
for LP) and hands it to ``train_classifier``; settle, where
``settle_pools`` trains the pool's pending SVMs and forests; predict,
where each record reads its classifier by key, and each LP classifier
scores all of its pairs in one call (CC records still predict one at a
time). The evaluate stage settles many configs' pools in one pass between
their resolve and predict phases. A pending classifier holds only its
set's ids: ``train_svms`` and ``train_forests`` build the rows of a whole
chunk in one pass (LP pair rows included), and train the chunk's SVMs in
lock-step SGD and grow every tree of its forests in lock step, so no more
rows exist at once than one chunk's. A
family's ``Scopes``, one over its network for CC and one over the LP
training graph, is the one holder of what a runner evaluates over: the
graph, its community assignment and, for LP, the family exclusion set. It
resolves each (locality, node) training node set once through
``resolve_neighborhood``, the one dispatch on locality, and each LP owner's
material once per distinct node set, for every config. An
SVM scoring a batch (``LinearSVM.predict_rows``) takes each sign from a
batched sum only where a rigorous rounding bound certifies it, and from
its per-row ``decision`` otherwise, so predictions match the per-row
path bit for bit whatever BLAS kernel runs.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rng import derive_seed, generator
from .community import CommunityAssignment
from .data import AttributeMatrix, PartitionedDataset
from .graph import (EdgeSet, NeighborhoodSpec, _gather, _pair_keys,
                    absent_pairs, bfs_neighborhood, incident_nonedges,
                    induced_pairs)
from .learn import (CoinClassifier, ConstantClassifier, RFHyper, SVMHyper,
                    TrainingSet, pair_features, predict_rows,
                    train_classifier, train_forests, train_svms)
from .similarity import NetworkModelSpec, RowBlock

TASKS = ("CC", "LP")
CLASSIFIER_KINDS = ("linear-svm", "random-forest", "coin")


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
    whose material carries one label, which the learners answer with a
    constant.

    A builder returns its classifier: a coin, the constant of single-class
    material, or a pending SVM or forest, which ``settle_pools`` trains
    from its ``material``. A runner settles its pool alone; the evaluate
    stage instead settles the pools of a window of configs in one pass, so
    that their SVMs share SGD chunks and their forests grow together, the
    windows and the chunks closed by one budget loop (``learn._budgeted``).
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.cache: dict = {}
        self.trained = 0
        self.hits = 0
        self.single_class = 0

    def get(self, material: str, builder):
        if material in self.cache:
            self.hits += 1
        else:
            seed = derive_seed(self.config.seed, "clf", material)
            self.trained += 1
            self.cache[material] = builder(seed)
        return self.cache[material]

    def pending_entries(self) -> int:
        """Stored row entries (``TrainingSet.nnz``) of the sets that the
        pool's pending classifiers train from."""
        return sum(m.material.ts.nnz for m in self.cache.values()
                   if m.material is not None)


def settle_pools(pools) -> None:
    """Train every pending classifier of ``pools`` in one pass, in lookup
    order: the SVMs in lock-step SGD chunks (``train_svms``), then the
    forests in lock-step growth chunks (``train_forests``), each chunk's
    rows built when it trains. No classifier depends on which pools share
    a pass."""
    models = [m for pool in pools for m in pool.cache.values()]
    train_svms(models)
    train_forests(models)


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
                         comm: CommunityAssignment | None = None
                         ) -> np.ndarray:
    """Training nodes for node i under a local scope, i excluded. An LP
    owner's pair scope is the induced pairs on these nodes and i
    (``Scopes.material``); the global sample is the runners' own."""
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
    raise TaskError(f"no single neighborhood for locality '{kind}'")


_EGONET = NeighborhoodSpec("local-adjacency")


class Scopes:
    """What a runner evaluates over: the graph ``g``, its community
    assignment ``comm`` (None when no cell needs one) and, for LP, the
    family exclusion set ``excl_keys``; and the local training scopes over
    them, resolved on first use and kept. ``nodes`` is a node's training
    node set under a locality; ``material`` is an LP owner's pair set on
    those nodes and the owner, filtered by ``excl_keys`` and digested, kept
    per distinct node set (the owners of a community share one); and
    ``cc_key`` is the CC material key of a labelset on a node's set. An
    ensemble member's scope is its local-adjacency one (``_EGONET``)."""

    def __init__(self, g: EdgeSet, comm: CommunityAssignment | None = None,
                 excl_keys: np.ndarray | None = None) -> None:
        self.g = g
        self.comm = comm
        self.excl_keys = excl_keys
        self._nodes: dict = {}
        self._material: dict = {}
        self._cc_keys: dict = {}

    def nodes(self, spec: NeighborhoodSpec, i: int) -> np.ndarray:
        key = (spec.key(), i)
        if key not in self._nodes:
            self._nodes[key] = resolve_neighborhood(self.g, spec, i,
                                                    self.comm)
        return self._nodes[key]

    def cc_key(self, name: str, spec: NeighborhoodSpec, i: int
               ) -> str | None:
        key = (name, spec.key(), i)
        if key not in self._cc_keys:
            self._cc_keys[key] = _cc_digest(name, self.nodes(spec, i))
        return self._cc_keys[key]

    def material(self, spec: NeighborhoodSpec, i: int
                 ) -> _LPMaterial | None:
        scope = np.unique(np.append(self.nodes(spec, i), i))
        key = scope.tobytes()
        if key not in self._material:
            self._material[key] = _lp_material(
                *induced_pairs(self.g, scope), self.excl_keys, self.g.n_nodes)
        return self._material[key]


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

def _cc_digest(name: str, nodes: np.ndarray) -> str | None:
    """The material key of one labelset on one training node set; None
    for an empty set."""
    return _digest("cc", name, np.sort(nodes)) if len(nodes) else None


def _cc_lookup(config: ModelConfig, pool: ClassifierPool,
               audit: LeakageAudit, train_m: AttributeMatrix, name: str,
               y_train: np.ndarray, nodes: np.ndarray, key: str | None
               ) -> str | None:
    """Look one labelset's material on one training node set, keyed
    ``key`` (``_cc_digest``), up in the pool and return the key; None for
    an empty set. Training waits for ``settle_pools``; material with one
    label gets the learners' constant classifier, which
    ``pool.single_class`` counts."""
    if key is None:
        return None

    def build(seed: int):
        audit.expect_role(train_m.role, "training",
                          f"CC features for labelset '{name}'")
        if config.classifier == "coin":  # coin never reads its features
            return CoinClassifier(seed)
        clf = train_classifier(
            config.classifier,
            TrainingSet(train_m, y_train[nodes].astype(int), nodes), seed,
            config.svm, config.rf)
        pool.single_class += isinstance(clf, ConstantClassifier)
        return clf

    pool.get(key, build)
    return key


def run_cc(config: ModelConfig, scopes: Scopes, parts: PartitionedDataset,
           eval_role: str, audit: LeakageAudit | None = None,
           pool: ClassifierPool | None = None) -> PredictionBatch:
    """Evaluate collective classification on one partition.

    Per labelset, every node positive in the evaluation partition is one
    test instance; its neighborhood supplies training-partition attribute
    vectors and labels. Empty neighborhoods predict 0 and are flagged.
    ``scopes`` carries the network, its community assignment (needed by a
    community locality) and the training node sets shared across calls.
    The call resolves (``resolve_cc``), settles the pool and predicts.
    """
    pool = pool if pool is not None else ClassifierPool(config)
    predict = resolve_cc(config, scopes, parts, eval_role, audit, pool)
    settle_pools([pool])
    return predict()


def resolve_cc(config: ModelConfig, scopes: Scopes, parts: PartitionedDataset,
               eval_role: str, audit: LeakageAudit | None,
               pool: ClassifierPool) -> Callable[[], PredictionBatch]:
    """``run_cc``'s resolve phase: look every record's material key up in
    the pool (a vote needs none). Returns the predict phase, which reads
    the classifiers once the pool is settled."""
    if config.task != "CC":
        raise TaskError("run_cc called on a non-CC config")
    audit = audit if audit is not None else LeakageAudit()
    train_m = parts.matrix("training")
    train_l = parts.labelset("training")
    eval_m = parts.matrix(eval_role)
    eval_l = parts.labelset(eval_role)
    audit.expect_role(train_l.role, "training", "CC training labels")
    audit.expect_role(eval_m.role, eval_role, "CC evaluation features")
    audit.expect_role(eval_l.role, eval_role, "CC evaluation oracle")

    g = scopes.g
    spec = config.locality
    kind = spec.locality
    global_nodes = None
    if kind == "global":
        global_nodes = global_training_nodes(config, g.n_nodes)

    ensemble_fallback = False
    member_keys: dict[str, list] = {}
    if kind == "ensemble":
        # a member is trainable iff it has neighbors, whatever the
        # labelset, so every labelset votes over the same member rows
        member_ids = [m for m in ensemble_members(config, g, train_m).tolist()
                      if len(scopes.nodes(_EGONET, m))]
        for name in sorted(eval_l.names):
            y_tr = train_l.array(name)
            member_keys[name] = [
                (m, _cc_lookup(config, pool, audit, train_m, name, y_tr,
                               scopes.nodes(_EGONET, m),
                               scopes.cc_key(name, _EGONET, m)))
                for m in member_ids]
        if member_keys and len(member_ids) < spec.ensemble_knn:
            ensemble_fallback = True
            global_nodes = global_training_nodes(config, g.n_nodes)
        else:
            block = RowBlock(member_ids, train_m)
    voting = kind == "ensemble" and not ensemble_fallback
    nodes_out: list[int] = []
    targets: list[str] = []
    keys: list = []
    for name in sorted(eval_l.names):
        y_tr = train_l.array(name)
        if global_nodes is not None:
            global_key = _cc_digest(name, global_nodes)
        for i in eval_l.positives(name).tolist():
            key = None
            if not voting:
                if global_nodes is None:
                    tn, tkey = scopes.nodes(spec, i), scopes.cc_key(name,
                                                                    spec, i)
                else:
                    tn, tkey = global_nodes, global_key
                key = _cc_lookup(config, pool, audit, train_m, name, y_tr,
                                 tn, tkey)
            nodes_out.append(i)
            targets.append(name)
            keys.append(key)

    def predict() -> PredictionBatch:
        members_by_label = {name: [(m, pool.cache[k]) for m, k in members]
                            for name, members in member_keys.items()}
        # a test node's vector, hence its member ranking, is the same for
        # every labelset
        tops: dict[int, np.ndarray] = {}
        preds: list[int] = []
        fbs: list[bool] = []
        for i, name, key in zip(nodes_out, targets, keys):
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
                fb = key is None
                pred = 0 if fb else int(pool.cache[key].predict(cols, vals))
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
        )

    return predict


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

    @functools.cached_property
    def targets(self) -> np.ndarray:
        """Every pair's record target ``"a-b"``, positives then negatives,
        as an object array; built once, read by every config."""
        return np.array([f"{a}-{b}" for a, b in
                         np.concatenate([self.pos, self.neg]).tolist()],
                        dtype=object)


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


@dataclass(frozen=True)
class _LPMaterial:
    """One LP training scope as pool material: its edges, the candidate
    non-edges left after the ``excl_keys`` filter, and their digest (the
    pool key)."""

    edges: np.ndarray
    nonedges: np.ndarray
    key: str


def _lp_material(edges: np.ndarray, nonedges: np.ndarray,
                 excl_keys: np.ndarray, n: int) -> _LPMaterial | None:
    """Remove candidate non-edges that are actually held-out network edges
    or reserved evaluation pairs, and digest what is left. None when a
    class is empty after that (the untrainable fallback)."""
    if len(nonedges):
        k = _pair_keys(nonedges[:, 0], nonedges[:, 1], n)
        nonedges = nonedges[~_in_sorted(k, excl_keys)]
    if min(len(edges), len(nonedges)) == 0:
        return None
    ek = _pair_keys(edges[:, 0], edges[:, 1], n)
    nk = _pair_keys(nonedges[:, 0], nonedges[:, 1], n)
    return _LPMaterial(edges, nonedges,
                       _digest("lp", np.sort(ek), np.sort(nk)))


def _lp_lookup(config: ModelConfig, pool: ClassifierPool,
               audit: LeakageAudit, matrix: AttributeMatrix,
               mat: _LPMaterial | None, excl_keys: np.ndarray, n: int
               ) -> str | None:
    """Look one scope's material up in the pool and return its key; None
    for untrainable material. A miss draws the class-balanced sample,
    seeded by the config and the material, and checks it; a classifier's
    pair rows and training wait for ``settle_pools`` (a coin needs
    neither)."""
    if mat is None:
        return None

    def build(seed: int):
        edges, nonedges = mat.edges, mat.nonedges
        m = min(len(edges), len(nonedges))
        balance = derive_seed(config.seed, "lp-balance", mat.key)
        if len(edges) > m:
            r = generator(balance, "pos")
            edges = edges[np.sort(r.choice(len(edges), size=m,
                                           replace=False))]
        if len(nonedges) > m:
            r = generator(balance, "neg")
            nonedges = nonedges[np.sort(r.choice(len(nonedges), size=m,
                                                 replace=False))]
        audit.expect_role(matrix.role, "training", "LP pair features")
        audit.disjoint(_pair_keys(nonedges[:, 0], nonedges[:, 1], n),
                       excl_keys,
                       "LP training non-edges overlap evaluation pairs")
        if config.classifier == "coin":  # coin never reads its features
            return CoinClassifier(seed)
        ts = TrainingSet(matrix, np.repeat([1, 0], m),
                         np.concatenate([edges, nonedges]))
        return train_classifier(config.classifier, ts, seed, config.svm,
                                config.rf)

    pool.get(mat.key, build)
    return mat.key


def _lp_global_material(config: ModelConfig, scopes: Scopes
                        ) -> _LPMaterial | None:
    """One seeded training sample of edges and non-edges outside the
    exclusion set (which holds the training graph's pairs), shared by
    every test instance of the config."""
    g_train, excl_keys = scopes.g, scopes.excl_keys
    n = g_train.n_nodes
    n_pos = min(config.locality.global_sample, g_train.n_edges)
    if n_pos == 0:
        return None
    rng = generator(config.seed, "lp-global")
    pick = np.sort(rng.choice(g_train.n_edges, size=n_pos, replace=False))
    lo = np.minimum(g_train.src[pick], g_train.dst[pick])
    hi = np.maximum(g_train.src[pick], g_train.dst[pick])
    edges = np.column_stack([lo, hi])
    nonedges = absent_pairs(n, excl_keys, n_pos,
                            derive_seed(config.seed, "lp-global-neg"))
    return _lp_material(edges, nonedges, excl_keys, n)


def run_lp(config: ModelConfig, scopes: Scopes, plan: LPEvalPlan,
           matrix: AttributeMatrix, audit: LeakageAudit | None = None,
           pool: ClassifierPool | None = None) -> PredictionBatch:
    """Evaluate link prediction on one edge-split partition.

    ``scopes`` carries the undirected LP training graph, its community
    assignment (needed by a community locality) and the family exclusion
    set: every pair key off-limits to training non-edges, the full network
    plus all reserved evaluation pairs of both partitions. Scopes over a
    directed graph, or whose set misses any of the plan's held-out
    positives or reserved pairs, are refused. It also holds the owners'
    local material shared across calls. Owners whose local scope lacks a
    pair class fall back to predicting non-edge for their whole balanced
    batch.

    The call runs in three phases, each bit-identical to the per-owner,
    per-pair loop it replaces:

    - resolve (``resolve_lp``): every owner's classifier material (from
      ``scopes``, or the config's global sample or ensemble members) is
      looked up in the pool, whose misses build their classifiers from
      the sets' pairs;
    - settle: ``settle_pools`` trains the pending classifiers, each
      chunk's pair rows built in one ``pair_features`` pass;
    - predict: one ``pair_features`` pass gives every plan pair's row in
      record order (owners ascending, each owner's positives then its
      negatives), and each classifier scores all of its pairs in one
      ``predict_rows`` call. An SVM takes each sign from a batched sum
      only where a rigorous rounding bound certifies it, and otherwise
      from its own per-row ``predict``.
    """
    pool = pool if pool is not None else ClassifierPool(config)
    predict = resolve_lp(config, scopes, plan, matrix, audit, pool)
    settle_pools([pool])
    return predict()


def resolve_lp(config: ModelConfig, scopes: Scopes, plan: LPEvalPlan,
               matrix: AttributeMatrix, audit: LeakageAudit | None,
               pool: ClassifierPool) -> Callable[[], PredictionBatch]:
    """``run_lp``'s resolve phase. Returns the predict phase, which reads
    the classifiers once the pool is settled."""
    if config.task != "LP":
        raise TaskError("run_lp called on a non-LP config")
    if scopes.excl_keys is None or scopes.g.directed:
        raise TaskError("LP scopes need the training graph's "
                        "undirected_view() and the family exclusion set")
    audit = audit if audit is not None else LeakageAudit()
    g_train, excl_keys = scopes.g, scopes.excl_keys
    n = g_train.n_nodes
    audit.expect_role(matrix.role, "training", "LP pair features")
    eval_keys = np.sort(np.concatenate([
        _pair_keys(plan.pos[:, 0], plan.pos[:, 1], n) if len(plan.pos)
        else np.empty(0, dtype=np.int64),
        plan.reserved_keys,
    ]))
    if not _in_sorted(eval_keys, excl_keys).all():
        raise TaskError("LP scopes' exclusion set misses held-out or "
                        "reserved pairs of the plan; use the family "
                        "exclusion set")
    audit.disjoint(g_train.pair_keys(), eval_keys,
                   "LP training edges overlap evaluation pairs")

    spec = config.locality
    kind = spec.locality

    def lookup(mat):
        return _lp_lookup(config, pool, audit, matrix, mat, excl_keys, n)

    # record order: owners ascending, each owner's plan positions
    # ascending (its positives, then its negatives)
    owner_all = np.concatenate([plan.pos_owner, plan.neg_owner])
    order = np.argsort(owner_all, kind="stable")
    owners, first = np.unique(owner_all[order], return_index=True)

    # each owner's material key, None where untrainable; no keys when
    # every owner's pairs go to the ensemble vote
    ensemble_fallback = False
    voters = []
    if kind == "ensemble":
        for mnode in ensemble_members(config, g_train, matrix).tolist():
            key = lookup(scopes.material(_EGONET, mnode))
            if key is not None:
                voters.append((mnode, key))
        ensemble_fallback = len(voters) < spec.ensemble_knn
    keys = None
    if kind == "global" or ensemble_fallback:
        keys = [lookup(_lp_global_material(config, scopes))] * len(owners)
    elif kind != "ensemble":
        # one lookup per community, else per owner; without an assignment
        # a community owner's scope is refused by resolve_neighborhood
        comm = scopes.comm if kind == "community" else None
        by_label: dict[int, str | None] = {}
        keys = []
        for i in owners.tolist():
            label = i if comm is None else int(comm.labels[i])
            if label not in by_label:
                by_label[label] = lookup(scopes.material(spec, i))
            keys.append(by_label[label])

    def predict() -> PredictionBatch:
        # each record's code indexes its classifier, -1 the fallback
        if keys is None:
            clfs = [_EnsembleVoter([(m, pool.cache[k]) for m, k in voters],
                                   config.vote_measure, spec.ensemble_knn,
                                   matrix)]
            code = np.zeros(len(order), dtype=np.int64)
        else:
            index = {k: c for c, k in enumerate(
                dict.fromkeys(k for k in keys if k is not None))}
            clfs = [pool.cache[k] for k in index]
            code = np.repeat(np.array([index.get(k, -1) for k in keys],
                                      dtype=np.int64),
                             np.diff(np.append(first, len(order))))
        ptr, cols, vals = pair_features(
            matrix, np.concatenate([plan.pos, plan.neg])[order])
        predicted = np.zeros(len(order), dtype=np.int8)
        for c, rows in _group_by(code):
            if c >= 0:
                sub, at = _gather(ptr, rows)
                predicted[rows] = predict_rows(clfs[c], sub, cols[at],
                                               vals[at])
        return PredictionBatch(
            config_key=config.config_key,
            task="LP",
            partition=plan.partition,
            nodes=owner_all[order].astype(np.int64),
            targets=plan.targets[order].tolist(),
            predicted=predicted,
            actual=(order < len(plan.pos)).astype(np.int8),
            fallback=code < 0,
            ensemble_fallback=ensemble_fallback,
        )

    return predict
