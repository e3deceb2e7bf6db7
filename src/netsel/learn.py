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

import functools
import hashlib
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rng import generator
from .data import AttributeMatrix
from .graph import _expand, _gather


class LearnError(ValueError):
    pass


@dataclass(frozen=True)
class SVMHyper:
    """The ``svm`` config block; bad values fail here, naming their key."""

    reg: float = 1e-4
    epochs: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reg) and self.reg > 0):
            raise LearnError(f"svm.reg must be finite and > 0, "
                             f"got {self.reg!r}")
        # an integral reg trains in floats, as a written 1.0 does
        object.__setattr__(self, "reg", float(self.reg))
        if self.epochs < 1:
            raise LearnError(f"svm.epochs must be >= 1, got {self.epochs!r}")


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


class TrainingSet:
    """Sparse instances in a local column space, as the CSR arrays
    ``indptr``, ``indices`` and ``data``: row t is instance ``ids[t]``.

    ``dictionary`` maps local columns back to global item columns. ``ids``
    are the canonical instance keys; instances are sorted by id.

    The instances are named by their ids over one AttributeMatrix
    (``instance_rows``): node ids name matrix rows, and an ``(m, 2)`` pair
    array names the rows that ``pair_features`` builds. Rows are canonical
    (columns ascending and distinct); the local columns keep that order, so
    the set is canonical too.

    Construction records the material and makes its checks (aligned,
    non-empty, 0/1 labels, no negative value); the arrays above are built
    by one row build in id order when first read. ``train_svms`` reads
    none of them: it builds the rows of many sets at once (``_assemble``).
    """

    _BUILT = ("ids", "indptr", "indices", "data", "y", "dictionary")

    def __init__(self, matrix: AttributeMatrix, labels, ids) -> None:
        keys = np.asarray(ids)
        if len(labels) != len(keys):
            raise LearnError("labels and ids must align")
        if len(keys) == 0:
            raise LearnError("empty training set")
        self.matrix = matrix
        self._keys = keys
        self._labels = np.asarray(labels).astype(np.int64)
        if ((self._labels != 0) & (self._labels != 1)).any():
            raise LearnError("labels must be 0/1")
        if not matrix.nonnegative and \
                (instance_rows(matrix, keys)[2] < 0).any():
            raise LearnError("negative feature value")

    def __getattr__(self, name: str):
        if name not in TrainingSet._BUILT:
            raise AttributeError(name)
        order = self._order
        keys = self._keys[order]
        if keys.ndim == 1:
            self.ids = tuple(keys.tolist())
        else:
            self.ids = tuple(map(tuple, keys.tolist()))
        self.indptr, cols, vals = instance_rows(self.matrix, keys)
        self.data = vals.astype(np.float64, copy=False)
        self.y = self._labels[order].astype(np.int8)
        self.dictionary, self.indices = np.unique(
            cols.astype(np.int64), return_inverse=True)
        return getattr(self, name)

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """The instances in id order; tuple ids sort lexicographically."""
        if self._keys.ndim == 1:
            return np.argsort(self._keys, kind="stable")
        return np.lexsort(self._keys.T[::-1])

    @property
    def n(self) -> int:
        return len(self._keys)

    @property
    def n_features(self) -> int:
        return len(self.dictionary)

    @property
    def nnz(self) -> int:
        """Stored entries of the instances' rows. A pair's row is not built
        until it is read, so for pairs this is an upper bound: the entries
        of each pair's shorter endpoint row."""
        indptr = self.matrix.data.indptr
        lens = indptr[self._keys + 1] - indptr[self._keys]
        return int(lens.sum() if lens.ndim == 1 else lens.min(axis=1).sum())

    def classes(self) -> np.ndarray:
        return np.flatnonzero(np.bincount(self._labels))  # labels are 0/1


def instance_rows(matrix: AttributeMatrix, ids: np.ndarray):
    """The rows that instance ids name over ``matrix``, as a CSR triple
    ``(indptr, cols, vals)`` whose row t is instance ``ids[t]``: node ids
    name matrix rows, and the rows of an ``(m, 2)`` pair array are built by
    ``pair_features``."""
    if ids.ndim == 2:
        return pair_features(matrix, ids)
    csr = matrix.data
    indptr, at = _gather(csr.indptr, ids)
    return indptr, csr.indices[at], csr.data[at]


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
    material = None  # never pending

    def __init__(self, label: int, reason: str = "") -> None:
        self.label = int(label)
        self.reason = reason

    def predict(self, cols, vals) -> int:
        return self.label


class CoinClassifier:
    """Seeded coin flip keyed on the instance content; a null model for
    calibration checks on balanced evaluation sets."""

    kind = "coin"
    material = None  # never pending

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

    A model is pending or trained: ``train_svm`` returns it holding its
    ``material``, and ``train_svms`` trains it, sets its ``dictionary`` and
    clears ``material``; reading ``w`` or ``b``, or predicting, trains a
    pending model by itself first.
    """

    kind = "linear-svm"

    def __init__(self, w: np.ndarray | None, b: float,
                 dictionary: np.ndarray | None,
                 material: _Material | None = None) -> None:
        self._w = w
        self._b = b
        self.dictionary = dictionary
        self.material = material

    @property
    def w(self) -> np.ndarray:
        if self.material is not None:
            train_svms([self])
        return self._w

    @property
    def b(self) -> float:
        if self.material is not None:
            train_svms([self])
        return self._b

    def decision(self, cols, vals) -> float:
        w, b = self.w, self.b
        loc, v = _project(self.dictionary, np.asarray(cols), vals)
        norm = np.sqrt((v * v).sum())
        if norm > 0:
            v = v / norm
        return float(w[loc] @ v + b)

    def predict(self, cols, vals) -> int:
        return 1 if self.decision(cols, vals) >= 0 else 0

    def predict_rows(self, indptr, cols, vals) -> np.ndarray:
        """``predict`` of every row of a CSR triple in one pass, as int8.

        The pass sums each row's norm and dot with ``np.bincount``, not as
        ``decision`` does, so its decision d may differ in the last bits;
        only the sign of d is used, and rounding never flips the sign of
        the final ``+ b``. The sign is taken from the pass when ``|d|``
        exceeds a rigorous bound on how far any evaluation order of the
        norm, the scaling and the dot can move it
        (``4 * gamma_(2K+5) * sum |w_c v_c| / ||v|| + 16u`` for rows of at
        most K dictionary columns), as ``train_svms`` certifies margins. A
        row whose every term has a zero weight or a zero value has a
        signed-zero dot in any order, so it decides on ``b >= 0`` exactly;
        that covers rows with no dictionary column. Every other row is
        decided by ``predict`` itself.
        """
        w, b = self.w, self.b
        cols, vals = np.asarray(cols), np.asarray(vals, np.float64)
        n_rows = len(indptr) - 1
        if len(self.dictionary) == 0:  # every decision is b
            return np.full(n_rows, 1 if b >= 0 else 0, dtype=np.int8)
        row = np.repeat(np.arange(n_rows), np.diff(indptr))
        loc = np.minimum(np.searchsorted(self.dictionary, cols),
                         len(self.dictionary) - 1)
        hit = self.dictionary[loc] == cols
        row, loc, v = row[hit], loc[hit], vals[hit]
        wc = w[loc]
        norm = np.sqrt(np.bincount(row, v * v, n_rows))
        norm[norm == 0] = 1.0
        prod = wc * (v / norm[row])
        d = np.bincount(row, prod, n_rows) + b
        k2 = 2 * int(np.bincount(row, minlength=n_rows).max(initial=0)) + 5
        rel = 4 * k2 * _U / (1 - k2 * _U)  # 4 * gamma_(2K+5)
        slack = np.bincount(row, np.abs(prod), n_rows) * rel + _SLACK_ABS
        zero = np.bincount(row, (wc != 0) & (v != 0), n_rows) == 0
        out = (d >= 0).astype(np.int8)
        out[zero] = 1 if b >= 0 else 0
        ptr = np.asarray(indptr).tolist()
        for r in np.flatnonzero(~zero & (np.abs(d) <= slack)).tolist():
            a, z = ptr[r], ptr[r + 1]
            out[r] = self.predict(cols[a:z], vals[a:z])
        return out


def predict_rows(clf, indptr, cols, vals) -> np.ndarray:
    """``clf.predict`` of every row of a CSR triple, as int8: a LinearSVM
    scores them in one pass (``LinearSVM.predict_rows``), any other
    classifier row by row."""
    if isinstance(clf, LinearSVM):
        return clf.predict_rows(indptr, cols, vals)
    ptr = np.asarray(indptr).tolist()
    return np.array([clf.predict(cols[a:z], vals[a:z])
                     for a, z in zip(ptr[:-1], ptr[1:])], dtype=np.int8)


class _Material(NamedTuple):
    """What a pending LinearSVM or RandomForest trains from."""

    ts: TrainingSet
    hyper: SVMHyper | RFHyper
    seed: int


def train_svm(ts: TrainingSet, hyper: SVMHyper, seed: int):
    """Seeded stochastic subgradient descent with step 1 / (reg * t), after
    Pegasos (Shalev-Shwartz et al., ICML 2007).

    The bias is trained as an augmented always-on feature: under 1/(reg*t)
    steps a free bias keeps its first (huge) updates forever, while the
    multiplicative decay lets every regularized coordinate forget them.
    Single-class sets yield a constant classifier.

    Training is pending on the returned model, its ``material`` holding the
    set, hyperparameters and seed. ``train_svms`` assembles and trains many
    pending models together, and a pending model trains by itself when
    first read (``w``, ``b``, ``decision``, ``predict``). Either way the
    result is that of the per-model loop (``_sgd_loop``) on the set's rows
    scaled to unit L2 norm: each epoch visits the rows in a fresh
    permutation drawn from ``generator(seed, "svm")``; at step t the margin
    ``y * (w[c] @ v + b)`` of row (c, v) is taken, (w, b) decay by
    ``1 - eta * reg``, and a margin below 1 adds ``eta * y`` times the row
    to (w, b).

    Predictions are invariant under positive scaling of (w, b) but the
    objective is not, and short runs end with the right direction at the
    wrong norm. After the SGD, ``train_svms`` moves the model to the
    objective-minimizing scale of the final iterate, for many models in
    one search. Scale 0 is the zero solution, so the objective never
    exceeds its value at the zero vector.

    Summation order is part of the contract. The settled (w, b) are
    bit-identical to the plain scipy formulation (normalize with
    ``(sparse.diags(1 / norms) @ X).tocsr()``, take means with
    ``ndarray.mean``; tests/test_learn.py keeps it as the reference), so
    pinned outputs never move. Norms are scipy's row sums of the nonzero
    squares (``np.add.reduceat``, not a sequential sum), empty rows keep
    scale 1, and entries that scale to 0 are dropped, as that product
    emits them. It also stores each row's entries in reverse column order,
    so ``_assemble`` does too and every per-row dot product (the SGD
    margins and the final ``X @ w``) sums in that order. Each hinge mean of
    the scale search is ``np.add.reduce`` over one contiguous row of a
    ``(2, G, n)`` buffer, whose 2G rows are both probes of the G pending
    models with n training rows, divided by n, which is how
    ``ndarray.mean`` computes it. Floating-point addition is not
    associative: another order moves the last bits of (w, b) and, on
    degenerate sets, a few predictions.
    """
    classes = ts.classes()
    if len(classes) == 1:
        return ConstantClassifier(int(classes[0]), "single-class")
    return LinearSVM(None, 0.0, None, _Material(ts, hyper, seed))


def _assemble(models: list):
    """The unit rows of pending models, in one gather and one normalizing
    pass, laid out for their lock-step SGD.

    Returns ``(C, YV, ptr, row_off, w_off, dicts)``. Model k's training
    row t (in id order) is row ``row_off[k] + t`` of the CSR arrays
    ``(ptr, C, YV)``; its weights are ``W[w_off[k]:w_off[k + 1]]`` of one
    flat W, the bias in the last slot, and ``dicts[k]`` is its dictionary.
    A row holds its unit entries in reverse column order, then one bias
    entry. ``C`` holds flat-W positions and ``YV`` the values times the
    row's label y = -1/+1, so a margin ``y * (w[c] @ v + b)`` is the sum of
    a row's ``W[C] * YV``, bias last (negation commutes with rounding).

    The rows and dictionaries come from ``_set_rows``. Normalization is
    per row, so a row scales as it would in a set of its own.
    """
    g = len(models)
    row_off, row, vals, y, uniq, d_off, pos, model = _set_rows(
        [m.material.ts for m in models])
    y = y * 2.0 - 1.0
    n_rows = len(y)
    w_off = d_off + np.arange(g + 1)
    dicts = [uniq[d_off[k]:d_off[k + 1]] for k in range(g)]
    pos += model[row]  # flat-W position of each entry

    # unit rows, as the per-set reference (``_unit_rows`` in
    # tests/test_learn.py) scales them
    sq = vals * vals
    keep = sq != 0
    sq_row = row[keep]
    norms = np.zeros(n_rows)
    if len(sq_row):
        firsts = np.flatnonzero(np.diff(sq_row, prepend=-1))
        norms[sq_row[firsts]] = np.add.reduceat(sq[keep], firsts)
    del sq, keep, sq_row
    norms = np.sqrt(norms)
    scale = np.ones(n_rows)
    nz = norms > 0
    scale[nz] = 1.0 / norms[nz]
    vals *= scale[row]
    keep = vals != 0
    vals *= y[row]
    row = row[keep]

    # each row's kept entries reversed, then its bias entry
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows) + 1, out=ptr[1:])
    last = ptr[1:] - 1
    dest = (last - 1 + ptr[:-1] - np.arange(n_rows))[row]
    dest -= np.arange(len(row))
    C = np.empty(ptr[-1], dtype=np.intp)
    YV = np.empty(ptr[-1])
    C[dest] = pos[keep]
    YV[dest] = vals[keep]
    C[last] = w_off[1:][model] - 1
    YV[last] = y
    return C, YV, ptr, row_off, w_off.tolist(), dicts


def _set_rows(sets: list):
    """The rows of many training sets, each set's in id order, and their
    dictionaries, in one pass.

    Returns ``(row_off, row, vals, y, uniq, d_off, pos, model)``. Set k's
    row t is row ``row_off[k] + t``; entry e, zeros included, holds
    ``vals[e]`` in row ``row[e]``, at dictionary position ``pos[e]``;
    ``y`` holds each row's label and ``model`` each row's set. Set k's
    dictionary is ``uniq[d_off[k]:d_off[k + 1]]``, from one ``np.unique``
    over (set, column) keys of every entry, as the TrainingSet's would be;
    ``pos[e] - d_off[k]`` is the entry's local column.

    The sets' rows are built per matrix and kind of id in one
    ``instance_rows`` call over their ids laid end to end, so a chunk of
    LP sets builds its pair rows in one ``pair_features`` pass.
    """
    g = len(sets)
    by_src: dict = {}
    for k, ts in enumerate(sets):
        by_src.setdefault((id(ts.matrix), ts._keys.ndim), []).append(k)
    laid = [k for ks in by_src.values() for k in ks]  # sets in row order
    n = np.array([sets[k].n for k in laid])
    row_off = np.zeros(g, dtype=np.int64)
    row_off[laid] = np.cumsum(n) - n
    cols, vals, counts, y = [], [], [], []
    for ks in by_src.values():
        indptr, c, v = instance_rows(sets[ks[0]].matrix, _cat(
            [sets[k]._keys[sets[k]._order] for k in ks]))
        counts.append(np.diff(indptr))
        cols.append(c)
        vals.append(v.astype(np.float64, copy=False))
        y += [sets[k]._labels[sets[k]._order] for k in ks]
    cols, vals, counts, y = _cat(cols), _cat(vals), _cat(counts), _cat(y)
    row = np.repeat(np.arange(len(counts)), counts)
    model = np.repeat(np.asarray(laid), n)  # set of each row

    # dictionaries: one sorted pass over (set, column) keys
    span = int(cols.max()) + 1 if len(cols) else 1
    key = model[row] * span + cols
    del cols
    uniq, pos = np.unique(key, return_inverse=True)
    del key
    umodel = uniq // span
    d_off = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(np.bincount(umodel, minlength=g), out=d_off[1:])
    uniq -= umodel * span
    return row_off, row, vals, y, uniq, d_off, pos, model


def _cat(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sgd_loop(W: np.ndarray, rows: list, lo: int, hi: int, reg: float,
              t: int, order: np.ndarray) -> None:
    """The per-model SGD of the model with weights ``W[lo:hi]`` (bias
    last) and training rows ``rows`` (as ``_rows_of`` gives them), in
    place, from step t on (t steps taken), visiting the rows ``order[t:]``.
    The reference that the lock-step trainer reproduces."""
    w = W[lo:hi - 1]
    b = float(W[hi - 1])
    take = W.take  # W[c], with less overhead
    for i in order[t:].tolist():
        t += 1
        eta = 1.0 / (reg * t)
        c, yv, yi = rows[i]
        margin = take(c).dot(yv) + yi * b  # y * (w[c] @ v + b), exactly
        decay = 1.0 - eta * reg
        w *= decay
        b *= decay
        if margin < 1.0:
            W[c] += eta * yv
            b += eta * yi
    W[hi - 1] = b


def _rows_of(C: np.ndarray, YV: np.ndarray, ptr: np.ndarray) -> list:
    """``(c, yv, y)`` of each row of ``ptr``, one model's rows: flat-W
    positions and signed values of its unit entries, and its label.

    The entries are copied into fresh arrays laid out as the per-model
    loop stores them, rows last to first, so that each ``yv`` has that
    loop's 16-byte alignment: OpenBLAS's SSE2 ``ddot`` (the Prescott
    kernel) sums in an order that depends on the alignment of its second
    operand."""
    n = len(ptr) - 1
    p = np.asarray(ptr)
    starts = p[-2::-1]
    out, at = _expand(starts, p[:0:-1] - 1 - starts)
    cs, vs = C[at], YV[at]
    o = out.tolist()[::-1]  # o[i]: where training row i ends
    ys = YV[p[1:] - 1].tolist()
    return [(cs[o[i + 1]:o[i]], vs[o[i + 1]:o[i]], ys[i]) for i in range(n)]


def _exact_margin(W: np.ndarray, C: np.ndarray, YV: np.ndarray,
                  ptr: np.ndarray, i: int, end: int) -> float:
    """The margin of row i, of a model whose rows end at row ``end``, as
    ``_sgd_loop`` takes it, with the per-model dot; the values sit at the
    16-byte alignment that ``_rows_of`` gives them."""
    a, z = ptr[i], ptr[i + 1] - 1  # the bias entry is z
    odd = (ptr[end] - ptr[i + 1] - (end - i - 1)) % 2
    v = np.empty(z - a + 1)[odd:odd + z - a]
    v[:] = YV[a:z]
    return W.take(C[a:z]).dot(v) + YV[z] * W[C[z]]


_TAIL = 8  # models still stepping below which each finishes by itself
_STEP_ENTRIES = 2**15  # row entries of lock-step steps expanded at a time
_U = 2.0**-53  # unit roundoff of float64
_SLACK_ABS = 16 * _U  # absolute part of the margin certificate's slack
SGD_BATCH_ENTRIES = 2**16  # stored row entries that start an SGD chunk


def _budgeted(items, entries):
    """``items``, read once, in lists that close as soon as the ``entries``
    of their items pass ``SGD_BATCH_ENTRIES``, and at the end: the one
    budget loop of the evaluate stage's settle windows and the chunks."""
    chunk, total = [], 0
    for item in items:
        chunk.append(item)
        total += entries(item)
        if total > SGD_BATCH_ENTRIES:
            yield chunk
            chunk, total = [], 0
    if chunk:
        yield chunk


def _pending_chunks(models, kind: type):
    """The distinct pending classifiers of ``kind`` among ``models``, an
    iterable read once, in ``_budgeted`` chunks of the row entries
    (``TrainingSet.nnz``) of their sets. A pending classifier holds only
    its set's ids, so the rows that a chunk's training holds at once are
    bounded by the budget plus one set. A classifier trained by an earlier
    chunk is no longer pending when it is read again."""
    pending = (m for m in models
               if isinstance(m, kind) and m.material is not None)
    for chunk in _budgeted(pending, lambda m: m.material.ts.nnz):
        yield list(dict.fromkeys(chunk))


def train_svms(models) -> None:
    """Train every pending LinearSVM among ``models``, an iterable read
    once, as ``_sgd_loop`` and a scale search of its own would; other
    classifiers and trained models are skipped, and a model listed twice
    is trained once. The SGD runs in chunks (``_pending_chunks``). A chunk
    trains its models in lock step per hyperparameter set
    (``_train_group``), each group's rows built and normalized in one pass
    (``_assemble``). Then one search scales every model
    (``_scale_svms``).
    """
    to_scale: list = []
    for chunk in _pending_chunks(models, LinearSVM):
        groups: dict = {}  # hyperparameters -> models
        for m in chunk:
            groups.setdefault(m.material.hyper, []).append(m)
        for hyper, group in groups.items():
            to_scale += _train_group(group, hyper.reg, hyper.epochs)
    _scale_svms(to_scale)


def _weight_bound(reg: float, steps: int, k: int) -> float:
    """An upper bound on ``sum |w_c v_c| + |b|`` over every step of SGD
    runs of at most ``steps`` steps on unit rows of at most ``k`` entries.

    In exact arithmetic, Pegasos' step 1 / (reg * t) makes the iterate
    after t steps ``(1 / (reg * t)) * sum_s g_s`` for subgradients g_s of
    norm at most 1 in w and in b, so ``||w|| <= 1 / reg`` and
    ``|b| <= 1 / reg``, and by Cauchy-Schwarz the sum is at most
    ``2 / reg``. In floating point, with eta and decay rounded and each
    coordinate's decay and update rounded once, a step gives
    ``||w'|| <= (1 + u)^2 (|decay| ||w|| + eta ||v||)`` with
    ``|decay| <= (1 + u)(t - 1 + 4u) / t`` and
    ``eta <= (1 + u) / ((1 - u) reg t)``. So ``a_t = reg * t * ||w_(t+1)||``
    obeys ``a_t <= (1 + 8u)(a_(t-1) + N)`` with N the largest row norm,
    giving ``||w|| <= N (1 + 8u)^T / reg`` after T steps, and the same for
    |b| with N = 1. A unit row of k entries has ``N <= 1 + 2(k + 3)u``, and
    ``(1 + 8u)^T <= 1 + 16uT``, so the sum is at most
    ``(2 + 5(k + 3)u)(1 + 16uT) / reg < 2 (1 + 16u (T + k + 8)) / reg``.
    The last form exceeds the one before by ``160u / reg`` at least, far
    more than the four roundings of computing it; the result is never
    below ``2 / reg``.
    """
    return 2.0 / reg * (1.0 + 16 * _U * (steps + k + 8))


def _train_group(models: list, reg: float, epochs: int) -> list:
    """Lock-step SGD of distinct pending models sharing ``reg`` and
    ``epochs``; returns per model ``(model, margins, reg)``, with the
    final iterate's signed training margins.

    ``_assemble`` lays out every model's rows, and their weights as slices
    of one flat W ordered by step count (epochs * n), so the models still
    stepping at step t are a prefix of W. At each step one gather takes
    every such model's row, and the margins, the decay of W (bias slots
    included), and the violators' updates run once over all of them,
    elementwise in the float operations of the per-model loop; the bias
    rides as one more entry of each row. Only the margin is summed
    differently: per model with ``np.bincount``, where the loop takes a
    BLAS dot whose bits depend on the kernel that runs. A margin is only
    compared with 1, so the sum decides when ``|m - 1|`` exceeds a rigorous
    bound on how far any evaluation order of the dot can move it
    (``8 * gamma_(K+1) * sum |w_c v_c| + 16u``, for rows of at most K
    entries and unit roundoff u; a floating-point filter after Shewchuk,
    1997). The bound uses ``_weight_bound`` for the sum, one constant per
    group; within it, the model's own dot decides, as in the loop. When
    fewer than ``_TAIL`` models are still stepping, each finishes in
    ``_sgd_loop`` from its current state.
    """
    models.sort(key=lambda m: m.material.ts.n, reverse=True)
    g = len(models)
    n = [m.material.ts.n for m in models]
    steps = [epochs * k for k in n]
    C, YV, ptr, row_off, w_off, dicts = _assemble(models)
    cnt = np.diff(ptr)
    W = np.zeros(w_off[-1])
    # each model's epoch orders in one call: the same draws as ``epochs``
    # successive ``permutation(n)`` calls
    orders = [generator(m.material.seed, "svm").permuted(
        np.tile(np.arange(k), (epochs, 1)), axis=1).ravel()
        for m, k in zip(models, n)]
    t_tail = steps[_TAIL - 1] if g >= _TAIL else 0

    # schedule: the row that each model stepping at step t takes, step by
    # step, and the model each scheduled row belongs to
    active = np.searchsorted(-np.asarray(steps), -np.arange(t_tail))
    sptr = np.zeros(t_tail + 1, dtype=np.int64)
    np.cumsum(active, out=sptr[1:])
    sched = np.empty(sptr[-1], dtype=np.int64)
    for k in range(g):
        t = min(steps[k], t_tail)
        sched[sptr[:t] + k] = row_off[k] + orders[k][:t]
    slot = np.arange(len(sched)) - np.repeat(sptr[:-1], active)
    ecum = np.zeros(len(sched) + 1, dtype=np.int64)
    np.cumsum(cnt[sched], out=ecum[1:])
    estep = ecum[sptr]
    act = active.tolist()
    ends = (row_off + n).tolist()  # each model's rows end here
    k1 = int(cnt.max(initial=1))  # K + 1: a row's entries and its bias
    rel = 8 * k1 * _U / (1 - k1 * _U)  # 8 * gamma_(K+1)
    slack = _weight_bound(reg, max(steps), k1) * rel + _SLACK_ABS
    t0 = 0
    while t0 < t_tail:
        t1 = int(np.searchsorted(estep, estep[t0] + _STEP_ENTRIES, "right"))
        t1 = min(max(t1 - 1, t0 + 1), t_tail)
        r = sched[sptr[t0]:sptr[t1]]
        counts = cnt[r]
        _, at = _expand(ptr[r], counts)
        Cs, YVs = C[at], YV[at]
        eta = 1.0 / (reg * np.arange(t0 + 1, t1 + 1))
        step_yv = YVs * np.repeat(eta, np.diff(estep[t0:t1 + 1]))
        decays = (1.0 - eta * reg).tolist()
        S = np.repeat(slot[sptr[t0]:sptr[t1]], counts)
        eptr = (estep[t0:t1 + 1] - estep[t0]).tolist()
        rptr = (sptr[t0:t1 + 1] - sptr[t0]).tolist()
        for t in range(t0, t1):
            j = t - t0
            a = act[t]
            lo, hi = eptr[j], eptr[j + 1]
            c, s = Cs[lo:hi], S[lo:hi]
            wc = W.take(c)
            m = np.bincount(s, wc * YVs[lo:hi], a)
            if np.abs(m - 1.0).min() <= slack:
                for k in np.flatnonzero(np.abs(m - 1.0) <= slack).tolist():
                    m[k] = _exact_margin(W, C, YV, ptr, int(r[rptr[j] + k]),
                                         ends[k])
            viol = m < 1.0
            W[:w_off[a]] *= decays[j]
            wc *= decays[j]
            np.add(wc, step_yv[lo:hi], wc, where=viol[s])
            W[c] = wc
        t0 = t1

    for k in range(g):
        if steps[k] <= t_tail:
            break
        rows = _rows_of(C, YV, ptr[row_off[k]:ends[k] + 1])
        _sgd_loop(W, rows, w_off[k], w_off[k + 1], reg, t_tail, orders[k])
    # final margins, each row summed in its stored order as the loop does;
    # its sum starts at +0, so only a zero can differ from y * (sum + b),
    # which is then y * +0
    prod = W.take(C)
    prod *= YV
    margins = np.bincount(np.repeat(np.arange(len(cnt)), cnt), prod,
                          len(cnt))
    zero = margins == 0.0
    margins[zero] *= YV[ptr[1:] - 1][zero]
    for k, m in enumerate(models):
        m._w = W[w_off[k]:w_off[k + 1] - 1].copy()
        m._b = float(W[w_off[k + 1] - 1])
        m.dictionary = dicts[k]
        m.material = None
    return [(m, margins[row_off[k]:row_off[k] + n[k]], reg)
            for k, m in enumerate(models)]


_SCALE_STEPS = 100


def _scale_svms(to_scale: list) -> None:
    """Scale the model of every ``(model, margins, reg)`` triple that
    ``_train_group`` returned to its objective-minimizing scale.

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
    if not to_scale:
        return
    todo = sorted(to_scale, key=lambda t: len(t[1]))
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
    for n, group in itertools.groupby(todo, key=lambda t: len(t[1])):
        margins = np.stack([t[1] for t in group])
        stop = start + len(margins)
        inv = np.zeros_like(margins)
        np.divide(1.0, margins, out=inv, where=margins > 0)
        lh[1, start:stop] = np.maximum(1.0, inv.max(axis=1))
        n_rows[:, start:stop] = n
        blocks.append((margins, np.empty((2, stop - start, n)),
                       probe[:, start:stop, None], sums[:, start:stop]))
        start = stop
    quad[:] = [0.5 * reg * float(m._w @ m._w) for m, _, reg in todo]
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
    for (m, _, _), c in zip(todo, scales):
        m._w = c * m._w
        m._b = c * m._b


class RandomForest:
    """Bagged Gini CART trees. A tree is four lists indexed by node id,
    its nodes in pre-order: ``feature`` (-1 at a leaf), ``threshold`` (the
    label at a leaf), ``left`` and ``right``.

    A forest is pending or grown: ``train_rf`` returns it holding its
    ``material``, and ``train_forests`` grows it, sets its ``dictionary``
    and clears ``material``; reading ``trees``, or predicting, grows a
    pending forest by itself first.
    """

    kind = "random-forest"

    def __init__(self, material: _Material) -> None:
        self.material = material
        self.dictionary: np.ndarray | None = None
        self._trees: list = []

    @property
    def trees(self) -> list:
        if self.material is not None:
            train_forests([self])
        return self._trees

    def predict(self, cols, vals) -> int:
        trees = self.trees
        loc, v = _project(self.dictionary, np.asarray(cols), vals)
        x = [0.0] * len(self.dictionary)  # the walk reads Python floats
        for c, value in zip(loc.tolist(), v.tolist()):
            x[c] = value
        votes = 0.0
        for feature, threshold, left, right in trees:
            node = 0
            while (f := feature[node]) >= 0:
                node = left[node] if x[f] <= threshold[node] else right[node]
            votes += threshold[node]  # the leaf's label
        return 1 if 2 * votes >= len(trees) else 0


def train_rf(ts: TrainingSet, hyper: RFHyper, seed: int):
    """Bootstrap-aggregated Gini CART trees with per-split feature
    sampling (sqrt of the dictionary size by default), after Breiman
    (2001). Single-class sets yield a constant classifier.

    Growth is pending on the returned forest, its ``material`` holding the
    set, hyperparameters and seed. ``train_forests`` grows many pending
    forests together, and a pending forest grows by itself when first
    read (``trees``, ``predict``). Either way tree t draws from its own
    stream, ``generator(seed, "tree", t)``: first its bootstrap rows, then
    one feature sample per searched node, in pre-order. A node is a leaf
    with its majority label (positive on a tie) at ``max_depth``, below
    ``2 * min_leaf`` rows or when pure, and takes no draw. Otherwise it
    splits on the sampled feature and threshold of least weighted Gini
    impurity (the lowest feature, then the lowest threshold, on a tie),
    if that beats the node's own impurity by more than 1e-12, and is a
    leaf if not. A threshold is the midpoint of two distinct neighbouring
    values of the node's rows that leaves ``min_leaf`` rows on each side;
    only those are scored, which leaves every tree exactly as scoring all
    positions would.
    """
    classes = ts.classes()
    if len(classes) == 1:
        return ConstantClassifier(int(classes[0]), "single-class")
    return RandomForest(_Material(ts, hyper, seed))


_SEARCH_CELLS = 2**17  # (row, feature) cells of split search scored at once


def train_forests(models) -> None:
    """Grow every pending RandomForest among ``models``, an iterable read
    once; other classifiers and grown forests are skipped, and a forest
    listed twice is grown once. Forests grow in chunks, as ``train_svms``
    runs its SGD (``_pending_chunks``), each chunk's trees in lock step
    (``_grow_forests``)."""
    for chunk in _pending_chunks(models, RandomForest):
        _grow_forests(chunk)


class _Growth:
    """One tree in lock-step growth: its node lists, its stream, and the
    nodes left to visit, a stack of ``(start, size, positives, depth,
    parent, is_left)`` whose rows are ``sample[start:start + size]``."""

    __slots__ = ("lists", "stack", "rng", "d", "m", "hyper")

    def __init__(self, rng, d: int, m: int, hyper: RFHyper) -> None:
        self.lists = ([], [], [], [])  # feature, threshold, left, right
        self.stack: list = []
        self.rng = rng
        self.d, self.m = d, m
        self.hyper = hyper

    def next_search(self):
        """Visit nodes in pre-order, giving each its id and leaves their
        labels, up to the next node that needs a split search; draw its
        feature sample and return ``(node, start, size, positives, depth,
        features)``, or None when the tree is grown."""
        feature, threshold, left, right = self.lists
        stack, hyper = self.stack, self.hyper
        while stack:
            start, size, pos, depth, parent, is_left = stack.pop()
            node = len(feature)
            if parent >= 0:
                (left if is_left else right)[parent] = node
            feature.append(-1)
            left.append(-1)
            right.append(-1)
            if depth >= hyper.max_depth or size < 2 * hyper.min_leaf \
                    or pos == 0 or pos == size:
                threshold.append(1.0 if 2 * pos >= size else 0.0)
                continue
            threshold.append(0.0)  # set when the search returns
            return node, start, size, pos, depth, np.sort(
                self.rng.choice(self.d, size=self.m, replace=False))
        return None


def _grow_forests(forests: list) -> None:
    """Grow every tree of distinct pending forests in lock step.

    The forests' rows and dictionaries come from one ``_set_rows`` pass
    (forest k's row t is row ``row_off[k] + t``), and every tree's
    bootstrap rows lie end to end in one sample array; a node's rows are a
    slice of it, and a split partitions that slice in place, left rows
    first. Values are compared by rank in one rank space over every stored
    value and 0 (values are never negative), kept in one dense rank matrix
    per forest.

    At each step every tree still growing visits its nodes up to the next
    that needs a search and draws that node's features
    (``_Growth.next_search``), so each tree makes the draws, and gives
    the node ids, of growing alone. Then ``_split_nodes`` searches and
    splits the step's nodes, ``_SEARCH_CELLS`` cells at a time.
    """
    row_off, row, vals, y, uniq, d_off, at, model = _set_rows(
        [f.material.ts for f in forests])
    n = np.bincount(model, minlength=len(forests))
    d = np.diff(d_off)
    x_off = np.zeros(len(forests) + 1, dtype=np.int64)
    np.cumsum(n * d, out=x_off[1:])
    # where each row's ranks start in ``ranks``
    base = (x_off[:-1] - row_off * d)[model] + np.arange(len(y)) * d[model]
    values, rank = np.unique(_cat([np.zeros(1), vals]), return_inverse=True)
    ranks = np.zeros(x_off[-1], dtype=np.int32)
    at -= d_off[model[row]]
    at += base[row]
    ranks[at] = rank[1:]
    del row, vals, at, rank
    y = y.astype(np.int64)

    growths, samples = [], []
    for k, f in enumerate(forests):
        hyper, nk, dk = f.material.hyper, int(n[k]), int(d[k])
        if hyper.feature_frac == "sqrt":
            m_feats = max(1, int(np.floor(np.sqrt(dk))))
        else:
            m_feats = max(1, int(round(float(hyper.feature_frac) * dk)))
        f._trees = []
        for t in range(hyper.trees):
            rng = generator(f.material.seed, "tree", t)
            rows = rng.integers(0, nk, size=nk) if hyper.bootstrap \
                else np.arange(nk)
            samples.append(rows + row_off[k])
            growths.append(_Growth(rng, dk, min(m_feats, dk), hyper))
            f._trees.append(growths[-1].lists)
    sample = _cat(samples)
    sizes = [len(s) for s in samples]
    starts = np.cumsum(sizes) - sizes
    roots = zip(starts.tolist(), sizes,
                np.add.reduceat(y[sample], starts).tolist())
    for g, (start, size, pos) in zip(growths, roots):
        g.stack.append((start, size, pos, 0, -1, True))

    growing = growths
    while growing:
        found = [(g, s) for g in growing if (s := g.next_search()) is not None]
        growing = [g for g, _ in found]
        group, cells = [], 0
        for j, (g, s) in enumerate(found):
            group.append((g, s))
            cells += s[2] * len(s[5])
            if cells > _SEARCH_CELLS or j == len(found) - 1:
                _split_nodes(group, sample, ranks, base, y, values)
                group, cells = [], 0
    for k, f in enumerate(forests):
        f.dictionary = uniq[d_off[k]:d_off[k + 1]]
        f.material = None


def _split_nodes(found: list, sample: np.ndarray, ranks: np.ndarray,
                 base: np.ndarray, y: np.ndarray, values: np.ndarray) -> None:
    """Search and apply the best split of each node of ``found``, one
    ``(growth, search)`` pair per tree, as ``_Growth.next_search`` returns
    the search.

    One segmented pass scores every (node, feature) segment: one sort of
    the cells by (segment, value); at each valid threshold, an integer
    cumsum minus the segment's offset counts the positive rows on its
    left, and the weighted Gini score is computed elementwise in the
    float operations of a per-node search, whose first minimum per node
    (segments in feature order, each in threshold order) is the split if
    it beats the node's impurity by more than 1e-12. The order of tied
    values within a segment cannot change any of this, since valid
    thresholds lie only between distinct values.
    """
    searches = [s for _, s in found]
    start = np.array([s[1] for s in searches])
    size = np.array([s[2] for s in searches])
    pos = np.array([s[3] for s in searches])
    min_leaf = np.array([g.hyper.min_leaf for g, _ in found])
    seg_feat = _cat([s[5] for s in searches])
    seg_node = np.repeat(np.arange(len(found)), [len(s[5]) for s in searches])
    seg_len = size[seg_node]
    seg_ptr, at = _expand(start[seg_node], seg_len)
    rows = sample[at]
    cell_seg = np.repeat(np.arange(len(seg_node)), seg_len)
    r = ranks[base[rows] + seg_feat[cell_seg]]
    order = np.argsort(cell_seg * len(values) + r, kind="stable")
    r = r[order]
    cum = np.zeros(len(r) + 1, dtype=np.int64)
    np.cumsum(y[rows[order]], out=cum[1:])

    # the threshold after sorted cell c, with k cells of its segment on
    # its left, is valid when it separates two distinct values and leaves
    # min_leaf cells on each side
    c = np.flatnonzero((cell_seg[1:] == cell_seg[:-1]) & (r[1:] > r[:-1]))
    seg = cell_seg[c]
    kk = c + 1 - seg_ptr[seg]
    lim = min_leaf[seg_node[seg]]
    ok = (kk >= lim) & (seg_len[seg] - kk >= lim)
    c, seg, kk = c[ok], seg[ok], kk[ok]
    owner = seg_node[seg]
    k = kk.astype(np.float64)
    lp = (cum[c + 1] - cum[seg_ptr[seg]]).astype(np.float64)
    rp = pos[owner] - lp
    nn = size[owner]
    rn = nn - k
    gini_l = 1.0 - (lp / k) ** 2 - ((k - lp) / k) ** 2
    gini_r = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
    score = (k * gini_l + rn * gini_r) / nn

    feat = np.full(len(found), -1, dtype=np.int64)
    thr = np.zeros(len(found))
    n_left = np.zeros(len(found), dtype=np.int64)
    pos_left = np.zeros(len(found), dtype=np.int64)
    if len(score):
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        best = np.minimum.reduceat(score, first)
        hit = np.flatnonzero(score == np.repeat(
            best, np.diff(np.append(first, len(score)))))
        pick = hit[np.flatnonzero(np.diff(owner[hit], prepend=-1))]
        # each node's impurity as a per-node search takes it: ``** 2`` on
        # a scalar is pow(), which may round otherwise than a square
        p1 = [p / m for p, m in zip(pos[owner[first]].tolist(),
                                    size[owner[first]].tolist())]
        impurity = np.array([1.0 - q ** 2 - (1.0 - q) ** 2 for q in p1])
        take = best < impurity - 1e-12
        split, cut = owner[first][take], c[pick][take]
        sf = seg_feat[cell_seg[cut]]
        st = 0.5 * (values[r[cut]] + values[r[cut + 1]])
        # the split rows, left (value <= threshold) first, in place
        ptr, at = _expand(start[split], size[split])
        who = np.repeat(np.arange(len(split)), size[split])
        rows = sample[at]
        go = ranks[base[rows] + sf[who]] <= \
            (np.searchsorted(values, st, side="right") - 1)[who]
        nl = np.bincount(who[go], minlength=len(split))
        lefts = np.cumsum(go)
        lefts -= (lefts - go)[ptr[:-1]][who]  # left rows so far, per node
        sample[np.where(go, lefts - 1, nl[who] + at - start[split][who]
                        - lefts) + start[split][who]] = rows
        feat[split], thr[split], n_left[split] = sf, st, nl
        pos_left[split] = np.bincount(who[go & (y[rows] == 1)],
                                      minlength=len(split))

    for (g, (node, a, m, p, depth, _)), f, t, nl, pl in zip(
            found, feat.tolist(), thr.tolist(), n_left.tolist(),
            pos_left.tolist()):
        feature, threshold = g.lists[0], g.lists[1]
        if f < 0:
            threshold[node] = 1.0 if 2 * p >= m else 0.0
            continue
        feature[node], threshold[node] = f, t
        g.stack.append((a + nl, m - nl, p - pl, depth + 1, node, False))
        g.stack.append((a, nl, pl, depth + 1, node, True))


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
    each entry is keyed ``t * n_cols + col``. Matrix rows are canonical
    (columns ascending and distinct), as a built or loaded AttributeMatrix
    is, so each side's keys ascend strictly and one binary search of one
    side in the other finds every shared column.
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
    iv = np.searchsorted(kv, ku)
    np.minimum(iv, len(kv) - 1, out=iv)
    iu = np.flatnonzero(kv[iv] == ku) if len(kv) else iv[:0]
    iv = iv[iu]
    common = ku[iu]
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
