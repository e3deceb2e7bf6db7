"""Training-set assembly containers and from-scratch classifiers.

Both learners consume sparse instances over a per-training-set dictionary
(the union of item columns seen in the training instances; unseen columns
at prediction time are dropped). Instances are ordered by id at assembly
so that training is invariant to the order the caller collected them in;
all stochasticity comes from the seed. Rows must arrive canonical, each
row's columns ascending and distinct, as ``build_matrix``,
``load_dataset`` and ``pair_features`` emit them: assembly neither sorts
nor sums within a row.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._rng import generator
from .data import AttributeMatrix


class LearnError(ValueError):
    pass


def _integer(v, name: str, error: type = LearnError) -> int:
    """A config value as an int; a bool, a non-number or a fractional value
    raises ``error`` naming the key."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) \
            or not float(v).is_integer():
        raise error(f"{name} must be an integer, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class SVMHyper:
    """The ``svm`` config block; bad values fail here, naming their key."""

    reg: float = 1e-4
    epochs: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reg) and self.reg > 0):
            raise LearnError(f"svm.reg must be finite and > 0, "
                             f"got {self.reg!r}")
        if self.epochs < 1:
            raise LearnError(f"svm.epochs must be >= 1, got {self.epochs!r}")

    @staticmethod
    def from_dict(d: dict | None) -> "SVMHyper":
        d = d or {}
        reg = d.get("reg", 1e-4)
        if isinstance(reg, bool) or not isinstance(reg, numbers.Real):
            raise LearnError(f"svm.reg must be a number, got {reg!r}")
        return SVMHyper(reg=float(reg),
                        epochs=_integer(d.get("epochs", 10), "svm.epochs"))


@dataclass(frozen=True)
class RFHyper:
    """The ``rf`` config block; bad values fail here, naming their key."""

    trees: int = 50
    max_depth: int = 16
    min_leaf: int = 1
    feature_frac: float | str = "sqrt"
    bootstrap: bool = True

    def __post_init__(self) -> None:
        for key in ("trees", "max_depth", "min_leaf"):
            if getattr(self, key) < 1:
                raise LearnError(f"rf.{key} must be >= 1, "
                                 f"got {getattr(self, key)!r}")
        f = self.feature_frac
        if f != "sqrt" and not (isinstance(f, numbers.Real)
                                and not isinstance(f, bool) and 0 < f <= 1):
            raise LearnError(f'rf.feature_frac must be "sqrt" or a number '
                             f'in (0, 1], got {f!r}')

    @staticmethod
    def from_dict(d: dict | None) -> "RFHyper":
        d = d or {}
        bootstrap = d.get("bootstrap", True)
        if not isinstance(bootstrap, bool):
            raise LearnError(f"rf.bootstrap must be true or false, "
                             f"got {bootstrap!r}")
        return RFHyper(
            trees=_integer(d.get("trees", 50), "rf.trees"),
            max_depth=_integer(d.get("max_depth", 16), "rf.max_depth"),
            min_leaf=_integer(d.get("min_leaf", 1), "rf.min_leaf"),
            feature_frac=d.get("feature_frac", "sqrt"),
            bootstrap=bootstrap,
        )


class TrainingSet:
    """Sparse instances in a local column space, as the CSR arrays
    ``indptr``, ``indices`` and ``data``: row t is instance ``ids[t]``.

    ``dictionary`` maps local columns back to global item columns. ``ids``
    are the canonical instance keys (node ids, or pairs as ``(m, 2)``
    rows); instances are sorted by id at construction.

    ``rows`` holds the instances as an AttributeMatrix (``ids`` are node
    ids and the instances are those nodes' rows) or as a CSR triple
    ``(indptr, cols, vals)`` whose row t is instance t, as
    ``pair_features`` returns it. Both go through one row gather in id
    order. Rows must be canonical (columns ascending and distinct); the
    local columns keep that order, so the set is canonical too.
    """

    def __init__(self, rows, labels, ids) -> None:
        if isinstance(rows, AttributeMatrix):
            csr = rows.data
            indptr, cols, vals = csr.indptr, csr.indices, csr.data
            n_rows = None  # ids name the rows
        else:
            indptr, cols, vals = rows
            n_rows = len(indptr) - 1
        if len(labels) != len(ids) or n_rows not in (None, len(ids)):
            raise LearnError("rows, labels and ids must align")
        if len(ids) == 0:
            raise LearnError("empty training set")
        keys = np.asarray(ids)
        if keys.ndim == 1:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            self.ids = tuple(keys.tolist())
        else:  # tuple ids sort lexicographically
            order = np.lexsort(keys.T[::-1])
            keys = keys[order]
            self.ids = tuple(map(tuple, keys.tolist()))
        self.indptr, at = _gather(indptr,
                                  keys if n_rows is None else order)
        self.data = vals[at].astype(np.float64, copy=False)
        y = np.asarray(labels)[order].astype(np.int64)
        _check_material(y, self.data)
        self.y = y.astype(np.int8)
        self.dictionary, self.indices = np.unique(
            cols[at].astype(np.int64), return_inverse=True)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_features(self) -> int:
        return len(self.dictionary)

    def classes(self) -> np.ndarray:
        return np.unique(self.y)


def _check_material(y: np.ndarray, vals: np.ndarray) -> None:
    """What every piece of training material must satisfy: 0/1 labels and
    no negative feature value."""
    if ((y != 0) & (y != 1)).any():
        raise LearnError("labels must be 0/1")
    if len(vals) and vals.min() < 0:
        raise LearnError("negative feature value")


def single_class_label(matrix: AttributeMatrix, labels, ids) -> int | None:
    """The one label of node material whose labels are all one class;
    None when they are not (or there are none), so a TrainingSet is due.

    Both learners return ``ConstantClassifier(label, "single-class")`` for
    such material without reading the seed or the features, so a caller
    may return that itself and skip assembly and training. The material
    still passes the TrainingSet checks, on one gather of the selected
    rows' values: no sort, dictionary or CSR build.
    """
    y = np.asarray(labels)
    if len(y) == 0 or y.min() != y.max():
        return None
    csr = matrix.data
    _, at = _gather(csr.indptr, np.asarray(ids))
    _check_material(y, csr.data[at])
    return int(y[0])


def _gather(indptr: np.ndarray, rows: np.ndarray):
    """CSR row selection: the selected rows' indptr and the positions of
    their entries in the source's indices and data, row after row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    at = np.arange(out[-1]) + np.repeat(starts - out[:-1], counts)
    return out, at


def _project(dictionary: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """Map a global sparse vector into the dictionary space, dropping
    unknown columns."""
    if len(dictionary) == 0 or len(cols) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    pos = np.searchsorted(dictionary, cols)
    pos_c = np.minimum(pos, len(dictionary) - 1)
    hit = dictionary[pos_c] == cols
    return pos_c[hit], np.asarray(vals, dtype=np.float64)[hit]


class ConstantClassifier:
    """Predicts one label regardless of input; produced for single-class
    training sets."""

    kind = "constant"

    def __init__(self, label: int, reason: str = "") -> None:
        self.label = int(label)
        self.reason = reason

    def predict(self, cols, vals) -> int:
        return self.label


class CoinClassifier:
    """Seeded coin flip keyed on the instance content; a null model for
    calibration checks on balanced evaluation sets."""

    kind = "coin"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def predict(self, cols, vals) -> int:
        h = hashlib.sha256()
        h.update(str(self.seed).encode())
        h.update(np.asarray(cols, dtype=np.int64).tobytes())
        h.update(np.asarray(vals, dtype=np.float64).tobytes())
        return h.digest()[0] & 1


class LinearSVM:
    """Primal hinge-loss linear SVM with per-instance L2 normalization.

    ``train_svm`` returns a model whose training is pending: ``sgd`` holds
    the material its SGD reads. ``train_svms`` runs that SGD, leaving the
    final iterate and its signed training ``margins`` with the scale
    pending, and ``settle_svms`` trains what is still pending, then scales.
    Reading ``w`` or ``b``, or predicting, settles a pending model by
    itself first.
    """

    kind = "linear-svm"

    def __init__(self, w: np.ndarray | None, b: float,
                 dictionary: np.ndarray, margins: np.ndarray | None = None,
                 reg: float | None = None,
                 sgd: _SGDInput | None = None) -> None:
        self._w = w
        self._b = b
        self.dictionary = dictionary
        self.margins = margins
        self.reg = reg
        self.sgd = sgd

    @property
    def pending(self) -> bool:
        return self.sgd is not None or self.margins is not None

    @property
    def w(self) -> np.ndarray:
        if self.pending:
            settle_svms([self])
        return self._w

    @property
    def b(self) -> float:
        if self.pending:
            settle_svms([self])
        return self._b

    def decision(self, cols, vals) -> float:
        loc, v = _project(self.dictionary, np.asarray(cols), vals)
        norm = np.sqrt((v * v).sum())
        if norm > 0:
            v = v / norm
        return float(self.w[loc] @ v + self.b)

    def predict(self, cols, vals) -> int:
        return 1 if self.decision(cols, vals) >= 0 else 0


class _SGDInput:
    """What the SGD of a pending LinearSVM reads: its unit rows as
    ``_unit_rows`` stores them, its labels as -1/+1, its seed and its
    hyperparameters."""

    __slots__ = ("ptr", "cols", "vals", "y", "seed", "hyper")

    def __init__(self, ts: TrainingSet, seed: int, hyper: SVMHyper) -> None:
        self.ptr, self.cols, self.vals = _unit_rows(ts)
        self.y = ts.y.astype(np.float64) * 2.0 - 1.0
        self.seed = seed
        self.hyper = hyper


def train_svm(ts: TrainingSet, hyper: SVMHyper, seed: int):
    """Seeded stochastic subgradient descent with step 1 / (reg * t), after
    Pegasos (Shalev-Shwartz et al., ICML 2007).

    The bias is trained as an augmented always-on feature: under 1/(reg*t)
    steps a free bias keeps its first (huge) updates forever, while the
    multiplicative decay lets every regularized coordinate forget them.
    Single-class sets yield a constant classifier.

    Training is pending on the returned model, which holds its unit rows,
    labels and seed. ``train_svms`` runs the SGD of many pending models in
    lock step, and a pending model trains by itself when first read
    (``w``, ``b``, ``decision``, ``predict``). Either way the result is
    that of the per-model loop (``_sgd_loop``): each epoch visits the rows
    in a fresh permutation drawn from ``generator(seed, "svm")``; at step
    t the margin ``y * (w[c] @ v + b)`` of row (c, v) is taken, (w, b)
    decay by ``1 - eta * reg``, and a margin below 1 adds ``eta * y`` times
    the row to (w, b).

    Predictions are invariant under positive scaling of (w, b) but the
    objective is not, and short runs end with the right direction at the
    wrong norm. After training, the scale is pending: ``settle_svms``
    moves the model to the objective-minimizing scale of the final
    iterate, for many models in one search. Scale 0 is the zero solution,
    so the objective never exceeds its value at the zero vector.

    Summation order is part of the contract. The settled (w, b) are
    bit-identical to the plain scipy formulation (normalize with
    ``(sparse.diags(1 / norms) @ X).tocsr()``, take means with
    ``ndarray.mean``; tests/test_learn.py keeps it as the reference), so
    pinned outputs never move. That product stores each row's entries in
    reverse column order, so ``_unit_rows`` does too and every per-row dot
    product (the SGD margins and the final ``X @ w``) sums in that order.
    Each hinge mean of the scale search is ``np.add.reduce`` over one
    contiguous row of a ``(2, G, n)`` buffer, whose 2G rows are both
    probes of the G pending models with n training rows, divided by n,
    which is how ``ndarray.mean`` computes it. Floating-point addition is not
    associative: another order moves the last bits of (w, b) and, on
    degenerate sets, a few predictions.
    """
    classes = ts.classes()
    if len(classes) == 1:
        return ConstantClassifier(int(classes[0]), "single-class")
    return LinearSVM(None, 0.0, ts.dictionary, sgd=_SGDInput(ts, seed, hyper))


def _unit_rows(ts: TrainingSet):
    """Rows of a training set scaled to unit L2 norm, stored last to first.

    Returns CSR arrays (ptr, cols, vals) whose row j is training row
    n - 1 - j: the entries of ``ts`` reversed end to end, so each row's
    entries run in reverse column order, with int32 columns. Norms are
    scipy's row sums of the nonzero squares (``np.add.reduceat``, not a
    sequential sum), empty rows keep scale 1, and entries that scale to 0
    are dropped, exactly as ``sparse.diags(scale) @ X`` emits them.
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


def _sgd_loop(sgd: _SGDInput, w: np.ndarray, b: float, t: int,
              order: np.ndarray) -> float:
    """The per-model SGD, in place on ``w``, from step t on (t steps
    taken), visiting the rows ``order[t:]``; returns the bias. The
    reference that the lock-step trainer reproduces."""
    cols = sgd.cols.astype(np.intp)  # intp: cheapest to take
    ptr = sgd.ptr.tolist()
    rows = [(cols[a:z], sgd.vals[a:z])
            for a, z in zip(ptr[:-1], ptr[1:])][::-1]
    y_list = sgd.y.tolist()
    reg = sgd.hyper.reg
    take, put = w.take, w.put  # w[c] and w[c] = ..., with less overhead
    for i in order[t:].tolist():
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
    return b


def _exact_margin(sgd: _SGDInput, w: np.ndarray, b: float, i: int) -> float:
    """Row i's margin as ``_sgd_loop`` takes it, with the per-model dot."""
    j = len(sgd.y) - 1 - i
    a, z = sgd.ptr[j], sgd.ptr[j + 1]
    return sgd.y[i] * (w.take(sgd.cols[a:z]).dot(sgd.vals[a:z]) + b)


_TAIL = 8  # models still stepping below which each finishes by itself
_STEP_ENTRIES = 2**15  # row entries of lock-step steps expanded at a time
_U = 2.0**-53  # unit roundoff of float64
_SLACK_ABS = 16 * _U  # absolute part of the margin certificate's slack


def train_svms(models) -> None:
    """Run the pending SGD of every LinearSVM among ``models``; other
    classifiers and trained models are skipped, and a model listed twice is
    trained once. Models that share their hyperparameters train together
    in lock step, and each ends exactly as ``_sgd_loop`` alone leaves it.

    The models' weights are slices of one flat W, ordered by step count
    (epochs * n), so the models still stepping at step t are a prefix. At
    each step one gather takes every such model's row, and the decay of W
    and b, the violators' updates, and the margins run once over all of
    them, elementwise in the float operations of the per-model loop. Only
    the margin is summed differently: per model with ``np.bincount``,
    where the loop takes a BLAS dot whose bits depend on the kernel that
    runs. A margin is only compared with 1, so the sum decides when
    ``|m - 1|`` exceeds a rigorous bound on how far any evaluation order
    of the dot can move it (``8 * gamma_(K+1) * sum |w_c v_c| + 16u``, for
    rows of at most K entries and unit roundoff u; a floating-point
    filter after Shewchuk, 1997); within it, the model's own dot decides,
    as in the loop. When fewer than ``_TAIL`` models are still stepping,
    each finishes in ``_sgd_loop`` from its current state.
    """
    groups: dict = {}
    for m in {id(m): m for m in models
              if isinstance(m, LinearSVM) and m.sgd is not None}.values():
        groups.setdefault(m.sgd.hyper, []).append(m)
    for hyper, group in groups.items():
        _train_group(group, hyper.reg, hyper.epochs)


def _train_group(models: list, reg: float, epochs: int) -> None:
    models.sort(key=lambda m: len(m.sgd.y), reverse=True)
    inputs = [m.sgd for m in models]
    g = len(models)
    n = [len(s.y) for s in inputs]
    steps = [epochs * k for k in n]
    row_off = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(n, out=row_off[1:])
    w_off = np.zeros(g + 1, dtype=np.int64)
    np.cumsum([len(m.dictionary) for m in models], out=w_off[1:])
    w_off = w_off.tolist()
    e_len = [len(s.vals) for s in inputs]
    e_off = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(e_len, out=e_off[1:])
    # every model's rows end to end, columns shifted into the flat W
    C = np.concatenate([s.cols for s in inputs]).astype(np.intp)
    C += np.repeat(w_off[:-1], e_len)
    V = np.concatenate([s.vals for s in inputs])
    Y = np.concatenate([s.y[::-1] for s in inputs])
    ptr = np.concatenate([[0]] + [s.ptr[1:] + e
                                  for s, e in zip(inputs, e_off[:-1])])
    cnt = np.diff(ptr)
    W = np.zeros(w_off[-1])
    B = np.zeros(g)
    orders = []
    for s, k in zip(inputs, n):
        rng = generator(s.seed, "svm")
        orders.append(np.concatenate([rng.permutation(k)
                                      for _ in range(epochs)]))
    t_tail = steps[_TAIL - 1] if g >= _TAIL else 0

    # schedule: the layout row (row j of the model's CSR is training row
    # n - 1 - j) that each model stepping at step t takes, step by step
    active = np.searchsorted(-np.asarray(steps), -np.arange(t_tail))
    sptr = np.zeros(t_tail + 1, dtype=np.int64)
    np.cumsum(active, out=sptr[1:])
    sched = np.empty(sptr[-1], dtype=np.int64)
    for k in range(g):
        t = min(steps[k], t_tail)
        sched[sptr[:t] + k] = row_off[k + 1] - 1 - orders[k][:t]
    ecum = np.zeros(len(sched) + 1, dtype=np.int64)
    np.cumsum(cnt[sched], out=ecum[1:])
    estep = ecum[sptr]
    act = active.tolist()
    k1 = int(cnt.max(initial=0)) + 1
    rel = 8 * k1 * _U / (1 - k1 * _U)  # 8 * gamma_(K+1)
    t0 = 0
    while t0 < t_tail:
        t1 = int(np.searchsorted(estep, estep[t0] + _STEP_ENTRIES, "right"))
        t1 = min(max(t1 - 1, t0 + 1), t_tail)
        r = sched[sptr[t0]:sptr[t1]]
        _, at = _gather(ptr, r)
        counts = cnt[r]
        Cs, Vs = C[at], V[at]
        Yr = Y[r]
        YV = Vs * np.repeat(Yr, counts)
        S = np.repeat(np.arange(len(r))
                      - np.repeat(sptr[t0:t1] - sptr[t0], active[t0:t1]),
                      counts)
        eptr = (estep[t0:t1 + 1] - estep[t0]).tolist()
        rptr = (sptr[t0:t1 + 1] - sptr[t0]).tolist()
        for t in range(t0, t1):
            a = act[t]
            lo, hi = eptr[t - t0], eptr[t - t0 + 1]
            r0 = rptr[t - t0]
            c, s = Cs[lo:hi], S[lo:hi]
            b, y = B[:a], Yr[r0:r0 + a]
            wc = W.take(c)
            prod = wc * Vs[lo:hi]
            m = np.bincount(s, prod, a) + b
            m *= y
            slack = np.bincount(s, np.abs(prod), a) * rel
            slack += _SLACK_ABS
            near = np.abs(m - 1.0) <= slack
            if near.any():
                for k in np.flatnonzero(near).tolist():
                    i = int(row_off[k + 1] - 1 - r[r0 + k])
                    m[k] = _exact_margin(inputs[k],
                                         W[w_off[k]:w_off[k + 1]], B[k], i)
            eta = 1.0 / (reg * (t + 1))
            decay = 1.0 - eta * reg
            viol = m < 1.0
            W[:w_off[a]] *= decay
            b *= decay
            np.add(b, eta * y, b, where=viol)
            wc *= decay
            np.add(wc, eta * YV[lo:hi], wc, where=viol[s])
            W.put(c, wc)
        t0 = t1

    for k in range(g):
        if steps[k] <= t_tail:
            break
        B[k] = _sgd_loop(inputs[k], W[w_off[k]:w_off[k + 1]], float(B[k]),
                         t_tail, orders[k])
    # final margins, each row summed in its stored order as the loop does
    margins = np.bincount(np.repeat(np.arange(len(cnt)), cnt),
                          V * W.take(C), minlength=len(cnt)) + np.repeat(B, n)
    margins *= Y
    for k, m in enumerate(models):
        m._w = W[w_off[k]:w_off[k + 1]].copy()
        m._b = float(B[k])
        m.margins = margins[row_off[k]:row_off[k + 1]][::-1]
        m.reg = reg
        m.sgd = None


_SCALE_STEPS = 100


def settle_svms(models) -> None:
    """Scale every pending LinearSVM among ``models`` to its objective-
    minimizing scale, first running in one ``train_svms`` call the SGD of
    those whose training is still pending; other classifiers and settled
    models are skipped, and a model listed twice is settled once.

    A model's objective is convex in the scale (quadratic plus hinge
    terms), so a ternary search over ``[0, hi]`` finds the optimum, with
    ``hi = max(1, 1 / m)`` over the positive margins m; the scale stays 0
    when nothing beats the zero solution. The searches of all the models
    run in lock step: each step's bookkeeping (probes, objectives, the
    ``o1 <= o2`` test, the lo/hi update) is one elementwise pass over
    every model, in the float operations a single search makes. Hinge
    sums never mix row counts: models with n training rows share a
    ``(2, G, n)`` buffer whose rows are both probes of each of the G
    models, each summed with ``np.add.reduce`` over its own contiguous
    row. Padding rows to a common n or summing with ``np.add.reduceat``
    would move the last bits.
    """
    models = list(models)
    train_svms(models)
    todo = list({id(m): m for m in models
                 if isinstance(m, LinearSVM) and m.margins is not None
                 }.values())
    if not todo:
        return
    todo.sort(key=lambda m: len(m.margins))
    g = len(todo)
    lh = np.zeros((2, g))  # lo over hi
    quad = np.empty((2, g))
    n_rows = np.empty((2, g))
    probe = np.empty((2, g))
    step = np.empty((2, g))
    sums = np.empty((2, g))
    objective = np.empty((2, g))
    take = np.empty((2, g), dtype=bool)
    blocks = []  # per row count n: margins, buffer, probes, sums
    start = 0
    for n, group in itertools.groupby(todo, key=lambda m: len(m.margins)):
        margins = np.stack([m.margins for m in group])
        stop = start + len(margins)
        inv = np.zeros_like(margins)
        np.divide(1.0, margins, out=inv, where=margins > 0)
        lh[1, start:stop] = np.maximum(1.0, inv.max(axis=1))
        n_rows[:, start:stop] = n
        blocks.append((margins, np.empty((2, stop - start, n)),
                       probe[:, start:stop, None], sums[:, start:stop]))
        start = stop
    quad[:] = [0.5 * m.reg * float(m._w @ m._w) for m in todo]
    lo, hi, o1, o2 = lh[0], lh[1], objective[0], objective[1]
    best, zero, take_lo, take_hi = probe[0], probe[1], take[0], take[1]
    swapped = lh[::-1]

    # out= goes positionally where numpy allows: a keyword costs more
    # than the arithmetic on these few-element arrays
    def evaluate() -> None:
        """objective = quad * c * c + mean hinge, at every probe c."""
        for margins, buf, c, s in blocks:
            np.multiply(c, margins, buf)
            np.subtract(1.0, buf, buf)
            np.maximum(0.0, buf, out=buf)
            np.add.reduce(buf, 2, None, s)
        np.multiply(quad, probe, objective)
        np.multiply(objective, probe, objective)
        np.divide(sums, n_rows, sums)
        np.add(objective, sums, objective)

    for _ in range(_SCALE_STEPS):
        # d = (hi - lo) / 3 over -d, exactly: negation commutes with
        # rounding, and hi + (-d) is hi - d
        np.subtract(swapped, lh, step)
        np.divide(step, 3.0, step)
        np.add(lh, step, probe)  # m1 = lo + d over m2 = hi - d
        evaluate()
        np.less_equal(o1, o2, take_hi)  # o1 <= o2: hi = m2
        np.logical_not(take_hi, take_lo)  # otherwise lo = m1
        np.copyto(lh, probe, where=take)
    np.add(lo, hi, best)
    np.divide(best, 2.0, best)  # (lo + hi) / 2
    zero[:] = 0.0
    evaluate()
    scales = np.where(o1 < o2, best, 0.0).tolist()
    for m, c in zip(todo, scales):
        m._w = c * m._w
        m._b = c * m._b
        m.margins = m.reg = None


class _Tree:
    """CART arrays: feature < 0 marks a leaf storing its label in
    ``threshold``."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []

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

    def predict(self, x: np.ndarray) -> int:
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return int(self.threshold[node])


def _majority(y: np.ndarray) -> int:
    pos = int(y.sum())
    return 1 if 2 * pos >= len(y) else 0


def _best_split(X: np.ndarray, idx: np.ndarray, y: np.ndarray,
                feats: np.ndarray, min_leaf: int):
    """Exhaustive Gini split search over the sampled features.

    A threshold between sorted positions k and k + 1 of a column is valid
    when it separates two distinct values and leaves ``min_leaf`` rows on
    each side; the weighted Gini score is computed at valid positions
    only, so the runs of tied values that dominate sparse item columns
    cost no arithmetic. Positions are enumerated column-major (feature,
    then threshold), so the first minimum is the lowest feature id, then
    the lowest threshold: that is the tie rule. Returns (feature,
    threshold) or None when no impurity-reducing split exists.
    """
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


def _grow(tree: _Tree, X: np.ndarray, y: np.ndarray, idx: np.ndarray,
          depth: int, hyper: RFHyper, m_feats: int,
          rng: np.random.Generator) -> int:
    yn = y[idx]
    if (depth >= hyper.max_depth or len(idx) < 2 * hyper.min_leaf
            or yn.min() == yn.max()):
        return tree.add_leaf(_majority(yn))
    d = X.shape[1]
    feats = np.sort(rng.choice(d, size=min(m_feats, d), replace=False))
    split = _best_split(X, idx, yn, feats, hyper.min_leaf)
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


class RandomForest:
    kind = "random-forest"

    def __init__(self, trees: list[_Tree], dictionary: np.ndarray) -> None:
        self.trees = trees
        self.dictionary = dictionary

    def predict(self, cols, vals) -> int:
        x = np.zeros(len(self.dictionary))
        loc, v = _project(self.dictionary, np.asarray(cols), vals)
        x[loc] = v
        votes = sum(t.predict(x) for t in self.trees)
        return 1 if 2 * votes >= len(self.trees) else 0


def train_rf(ts: TrainingSet, hyper: RFHyper, seed: int):
    """Bootstrap-aggregated Gini CART trees with per-split feature
    sampling (sqrt of the dictionary size by default), after Breiman
    (2001). Single-class sets yield a constant classifier.

    Each tree draws its bootstrap rows and then, depth first, each node's
    feature sample from one stream seeded by (seed, tree index); split
    search (``_best_split``) scores only the thresholds a split can use,
    which leaves every tree exactly as scoring all of them would."""
    classes = ts.classes()
    if len(classes) == 1:
        return ConstantClassifier(int(classes[0]), "single-class")
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
        trees.append(tree)
    return RandomForest(trees, ts.dictionary)


def train_classifier(kind: str, ts: TrainingSet, seed: int,
                     svm_hyper: SVMHyper | None = None,
                     rf_hyper: RFHyper | None = None):
    if kind == "linear-svm":
        return train_svm(ts, svm_hyper or SVMHyper(), seed)
    if kind == "random-forest":
        return train_rf(ts, rf_hyper or RFHyper(), seed)
    if kind == "coin":
        return CoinClassifier(seed)
    raise LearnError(f"unknown classifier kind: {kind}")


def pair_features(matrix: AttributeMatrix, pairs):
    """Pair feature vectors of every row of an ``(m, 2)`` pair array, as a
    CSR triple ``(indptr, cols, vals)``.

    Row t holds the element-wise minima of the attribute rows of
    ``pairs[t]``: the columns both rows store, ascending, in the matrix's
    index dtype. Both endpoint rows of every pair are gathered at once and
    each entry is keyed ``t * n_cols + col``, so one intersection of the
    two key arrays finds every shared column. Matrix rows hold each column
    at most once, as a built or loaded AttributeMatrix does.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    csr = matrix.data
    n_cols = matrix.n_items
    sides = []
    for ends in (pairs[:, 0], pairs[:, 1]):
        indptr, at = _gather(csr.indptr, ends)
        owner = np.repeat(np.arange(len(pairs)), np.diff(indptr))
        sides.append((owner * n_cols + csr.indices[at], at))
    (ku, au), (kv, av) = sides
    common, iu, iv = np.intersect1d(ku, kv, assume_unique=True,
                                    return_indices=True)
    indptr = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(common // n_cols, minlength=len(pairs)),
              out=indptr[1:])
    cols = (common % n_cols).astype(csr.indices.dtype)
    vals = np.minimum(csr.data[au[iu]], csr.data[av[iv]])
    return indptr, cols, vals


def edge_features(matrix: AttributeMatrix, u: int, v: int):
    """Pair feature vector: element-wise minima of the two attribute rows.

    Summing the returned values gives exactly the intersection similarity
    of u and v. The one-pair case of ``pair_features``.
    """
    _, cols, vals = pair_features(matrix, [(u, v)])
    return cols, vals
