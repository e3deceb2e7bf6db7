"""Event-log ingestion, temporal partitioning, attributes and labels.

The pipeline starts from a log of (node, item, value, timestamp) events.
Events are split into three consecutive time windows -- validation, training,
testing, in that order -- and each window is aggregated into a sparse
node x item attribute matrix over a dictionary shared by all three windows.
Label sets are derived per window from threshold rules over item groups.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

PARTITION_ROLES = ("validation", "training", "testing")


class DataError(ValueError):
    """Fatal problem with input data."""


# --- the JSON schema reader --------------------------------------------------------

# the parsed JSON values each declared scalar type accepts, and how a
# refusal names it
_KINDS = {int: (numbers.Real, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string"), bool: (bool, "true or false"),
          type(None): (type(None), "null"), dict: (dict, "an object"),
          list: (list, "a list")}


def _reject_unknown(block: dict, known, path: str,
                    error: type = DataError) -> None:
    """Refuse a key of ``block`` outside ``known``, naming its path."""
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise error(f"{path}.{unknown[0]}: unknown key".lstrip("."))


def _accepts(kind, value) -> bool:
    """Whether ``value``'s JSON type is one that ``kind`` reads."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return isinstance(value, list) \
            and (args[-1] is Ellipsis or len(value) == len(args))
    if args:
        return any(_accepts(k, value) for k in args)
    if dataclasses.is_dataclass(kind):
        return isinstance(value, dict)
    return isinstance(value, bool) == (kind is bool) \
        and isinstance(value, _KINDS[kind][0])


def _describe(kind) -> str:
    """How a refusal names what ``kind`` reads."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        count = "" if args[-1] is Ellipsis else ("", "one ", "two ")[len(args)]
        return f"a list of {count}{_describe(args[0]).split(' ', 1)[1]}s"
    if args:
        return " or ".join(map(_describe, args))
    return "an object" if dataclasses.is_dataclass(kind) else _KINDS[kind][1]


def _read(kind, value, path: str, error: type = DataError):
    """A parsed JSON ``value`` as the declared type ``kind``: a scalar of
    ``_KINDS`` (integral numbers as ints, a float type's as floats), a
    union, a tuple from a list, or a dataclass from an object of its
    fields. A wrong JSON type, an unknown key, a missing key without a
    default or a refusal of the dataclass's own checks raises ``error``
    naming the value's path, prefixed to a refusal that lacks it."""
    if not _accepts(kind, value) or (kind is int
                                     and not float(value).is_integer()):
        raise error(f"{path} must be {_describe(kind)}, got {value!r}")
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        kinds = [args[0]] * len(value) if args[-1] is Ellipsis else args
        return tuple(_read(k, v, f"{path}[{i}]", error)
                     for i, (k, v) in enumerate(zip(kinds, value)))
    if args:  # a union: its first member that takes the value
        return _read(next(k for k in args if _accepts(k, value)), value,
                     path, error)
    if not dataclasses.is_dataclass(kind):
        return kind(value) if kind in (int, float) else value
    fields = dataclasses.fields(kind)
    _reject_unknown(value, [f.name for f in fields], path, error)
    for f in fields:
        if f.name not in value and f.default is f.default_factory:
            raise error(f"{path}.{f.name}: missing key")  # both MISSING
    hints = typing.get_type_hints(kind)
    try:
        return kind(**{key: _read(hints[key], v, f"{path}.{key}", error)
                       for key, v in value.items()})
    except ValueError as exc:
        text = str(exc)
        raise error(text if text.startswith(path) else f"{path}: {text}") \
            from None


def _read_json(path: str | Path, what: str, error: type = DataError):
    """The parsed contents of the JSON file ``path``; a missing file or
    text that is not JSON raises ``error`` naming ``what`` file it is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} file is not valid JSON: {exc}") from None


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@dataclass
class EventLog:
    """Columnar event records over a dense node universe.

    Node ids are dense integers assigned at ingestion by first appearance;
    ``node_ids[dense] = original``. Item ids keep their original values.
    """

    nodes: np.ndarray
    items: np.ndarray
    values: np.ndarray
    timestamps: np.ndarray
    n_nodes: int
    node_ids: np.ndarray
    skipped_lines: int = 0

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if not (len(self.items) == len(self.values) == len(self.timestamps) == n):
            raise DataError("event columns must have equal length")
        if n and self.values.min() < 0:
            raise DataError("negative event value")

    def __len__(self) -> int:
        return len(self.nodes)

    def subset(self, mask: np.ndarray) -> "EventLog":
        """View over a subset of events; node universe is preserved."""
        return EventLog(
            nodes=self.nodes[mask],
            items=self.items[mask],
            values=self.values[mask],
            timestamps=self.timestamps[mask],
            n_nodes=self.n_nodes,
            node_ids=self.node_ids,
        )

    @staticmethod
    def from_records(records, n_nodes: int | None = None) -> "EventLog":
        """Build from an iterable of (node, item, value, timestamp).

        Node ids in ``records`` are taken as already dense; ``node_ids`` is
        the identity map. Convenience for tests and the synthetic generator.
        """
        rec = list(records)
        nodes = np.array([r[0] for r in rec], dtype=np.int64)
        items = np.array([r[1] for r in rec], dtype=np.int64)
        values = np.array([r[2] for r in rec], dtype=np.float64)
        ts = np.array([r[3] for r in rec], dtype=np.int64)
        if n_nodes is None:
            n_nodes = int(nodes.max()) + 1 if len(nodes) else 0
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= n_nodes):
            raise DataError("node id out of range")
        return EventLog(nodes, items, values, ts,
                        n_nodes=n_nodes, node_ids=np.arange(n_nodes))


def ingest_events(path: str | Path, strict: bool = False) -> EventLog:
    """Read a whitespace- or comma-separated event file.

    Each data line is (node, item, value, timestamp). A first line holding
    a token that is not a number is a header; a numeric first line that
    fails a check is malformed like any other. Malformed lines are fatal in
    strict mode, otherwise skipped and counted. Node ids are remapped to
    dense integers by first appearance.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"events file not found: {path}")
    nodes: list[int] = []
    items: list[int] = []
    values: list[float] = []
    ts: list[int] = []
    remap: dict[int, int] = {}
    skipped = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.replace(",", " ").split()
            try:
                if len(tok) != 4:
                    raise ValueError("expected 4 fields")
                raw_node = int(tok[0])
                item = int(tok[1])
                value = float(tok[2])
                t = int(tok[3])
                if value < 0:
                    raise ValueError("negative value")
            except ValueError as exc:
                if lineno == 0 and not all(map(_is_number, tok)):
                    continue  # header line
                if strict:
                    raise DataError(f"{path}:{lineno + 1}: {exc}") from None
                skipped += 1
                continue
            dense = remap.get(raw_node)
            if dense is None:
                dense = len(remap)
                remap[raw_node] = dense
            nodes.append(dense)
            items.append(item)
            values.append(value)
            ts.append(t)
    node_ids = np.empty(len(remap), dtype=np.int64)
    for raw, dense in remap.items():
        node_ids[dense] = raw
    return EventLog(
        nodes=np.array(nodes, dtype=np.int64),
        items=np.array(items, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        timestamps=np.array(ts, dtype=np.int64),
        n_nodes=len(remap),
        node_ids=node_ids,
        skipped_lines=skipped,
    )


def time_boundaries(log: EventLog) -> tuple[int, int]:
    """Equal-frequency boundaries at the 1/3 and 2/3 points of the log.

    Returns (t1, t2) such that the half-open windows [-inf, t1), [t1, t2),
    [t2, +inf) split a tie-free log into thirds. If every event shares one
    timestamp the windows collapse; all events are placed in the first
    window and a warning is emitted.
    """
    if len(log) == 0:
        raise DataError("cannot partition an empty event log")
    st = np.sort(log.timestamps)
    n = len(st)
    t1 = int(st[n // 3])
    t2 = int(st[(2 * n) // 3])
    if st[0] == st[-1]:
        warnings.warn("all events share one timestamp; "
                      "everything lands in the first partition")
        return int(st[0]) + 1, int(st[0]) + 2
    return t1, t2


def partition_by_time(
    log: EventLog, boundaries: tuple[int, int] | None = None
) -> tuple[tuple[int, int], list[EventLog]]:
    """Split ``log`` into validation/training/testing windows.

    ``boundaries`` gives explicit (t1, t2); out-of-order boundaries are
    fatal. Without it, equal-frequency boundaries are computed. Windows are
    half-open: an event at exactly t1 falls in the second window.
    """
    if boundaries is None:
        t1, t2 = time_boundaries(log)
    else:
        t1, t2 = int(boundaries[0]), int(boundaries[1])
        if t1 > t2:
            raise DataError(f"partition boundaries out of order: {t1} > {t2}")
    ts = log.timestamps
    parts = [
        log.subset(ts < t1),
        log.subset((ts >= t1) & (ts < t2)),
        log.subset(ts >= t2),
    ]
    for role, part in zip(PARTITION_ROLES, parts):
        if len(part) == 0:
            warnings.warn(f"partition '{role}' holds no events")
    return (t1, t2), parts


@dataclass
class AttributeMatrix:
    """Sparse node x item matrix for one partition.

    ``data`` is CSR over a dense column space; ``item_ids[col]`` recovers the
    original item id. ``role`` tags the partition the matrix came from so the
    task layer can audit that training features never use evaluation data.
    """

    data: sparse.csr_matrix
    item_ids: np.ndarray
    role: str
    aggregation: str = "sum"

    @property
    def n_nodes(self) -> int:
        return self.data.shape[0]

    @property
    def n_items(self) -> int:
        return self.data.shape[1]

    @functools.cached_property
    def item_index(self) -> dict:
        return {int(v): i for i, v in enumerate(self.item_ids)}

    @functools.cached_property
    def row_sums(self) -> np.ndarray:
        return np.asarray(self.data.sum(axis=1)).ravel()

    @functools.cached_property
    def nonnegative(self) -> bool:
        """No stored value is negative."""
        return not (self.data.data < 0).any()

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of node i's attribute vector."""
        lo, hi = self.data.indptr[i], self.data.indptr[i + 1]
        return self.data.indices[lo:hi], self.data.data[lo:hi]


def build_matrix(
    part: EventLog,
    item_ids: np.ndarray,
    role: str,
    aggregation: str = "sum",
) -> AttributeMatrix:
    """Aggregate one partition's events into an attribute matrix.

    ``item_ids`` is the item dictionary, strictly ascending (as
    ``build_dataset`` passes it); an event on an item outside it is fatal.
    ``aggregation`` is "sum" (total value per node/item) or "mean"
    (average value, for ratings-like logs).
    """
    if aggregation not in ("sum", "mean"):
        raise DataError(f"unknown aggregation: {aggregation}")
    item_ids = np.asarray(item_ids)
    if np.any(item_ids[1:] <= item_ids[:-1]):
        raise DataError("item ids must be strictly ascending")
    cols = np.searchsorted(item_ids, part.items).astype(np.int64)
    known = cols < len(item_ids)
    known[known] = item_ids[cols[known]] == part.items[known]
    if not known.all():
        raise DataError(f"item {part.items[~known][0]} is not in the item "
                        f"dictionary")
    n_items = len(item_ids)
    mat = sparse.coo_matrix(
        (part.values, (part.nodes, cols)), shape=(part.n_nodes, n_items)
    ).tocsr()
    mat.sum_duplicates()
    if aggregation == "mean":
        counts = sparse.coo_matrix(
            (np.ones(len(cols)), (part.nodes, cols)),
            shape=(part.n_nodes, n_items),
        ).tocsr()
        counts.sum_duplicates()
        mat.data = mat.data / counts.data
    mat.eliminate_zeros()
    return AttributeMatrix(mat, item_ids, role, aggregation)


@dataclass(frozen=True)
class LabelRule:
    """Threshold rule: label 1 iff at least ``min_count`` items of
    ``items`` have value >= ``min_value``.

    Only items the node actually touched count; min_value 0 therefore
    reduces to a presence test (absent items never qualify).
    """

    name: str
    items: tuple[int, ...]
    min_count: int = 5
    min_value: float = 1.0

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise DataError("min_count must be >= 1")
        if self.min_value < 0:
            raise DataError("min_value must be >= 0")
        if not self.items:
            raise DataError(f"rule '{self.name}' has an empty item group")


@dataclass
class LabelSetCollection:
    """Boolean label arrays per rule name, for one partition."""

    labels: dict
    role: str

    @property
    def names(self) -> list[str]:
        return list(self.labels)

    def positives(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.labels[name])

    def array(self, name: str) -> np.ndarray:
        return self.labels[name]


def derive_labels(matrix: AttributeMatrix, rules) -> LabelSetCollection:
    """Apply threshold rules to one partition's attributes."""
    out: dict[str, np.ndarray] = {}
    seen = set()
    for rule in rules:
        if rule.name in seen:
            raise DataError(f"duplicate label rule name: {rule.name}")
        seen.add(rule.name)
        cols = [matrix.item_index[int(i)] for i in rule.items
                if int(i) in matrix.item_index]
        if cols:
            # count stored entries only: zeros are eliminated at build, so
            # absent items never qualify even under min_value 0
            sub = matrix.data[:, cols].tocsr()
            ind = sub.copy()
            ind.data = (ind.data >= rule.min_value).astype(np.float64)
            qualifying = np.asarray(ind.sum(axis=1)).ravel()
        else:
            qualifying = np.zeros(matrix.n_nodes, dtype=np.int64)
        out[rule.name] = qualifying >= rule.min_count
    return LabelSetCollection(out, matrix.role)


def load_label_rules(path: str | Path) -> list[LabelRule]:
    """Read a JSON list of rule objects, as ``save_label_rules`` writes it,
    each as a ``LabelRule`` (``_read``): a refusal is a DataError naming
    the file, the rule's position and the key."""
    return list(_read(tuple[LabelRule, ...], _read_json(path, "rules"),
                      f"{path}: rules"))


def save_label_rules(rules, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump([dataclasses.asdict(r) for r in rules], fh, indent=1)
        fh.write("\n")


@dataclass
class PartitionedDataset:
    """Attribute matrices and labels for the three partitions."""

    boundaries: tuple[int, int]
    matrices: dict
    labels: dict
    node_ids: np.ndarray
    item_ids: np.ndarray
    event_counts: dict
    skipped_lines: int = 0

    @property
    def n_nodes(self) -> int:
        return self.matrices["training"].n_nodes

    def matrix(self, role: str) -> AttributeMatrix:
        return self.matrices[role]

    def labelset(self, role: str) -> LabelSetCollection:
        return self.labels[role]


def build_dataset(
    log: EventLog,
    rules,
    boundaries: tuple[int, int] | None = None,
    aggregation: str = "sum",
) -> PartitionedDataset:
    """Full pipeline from an event log to a partitioned dataset.

    The item dictionary is shared by the three partitions (sorted unique
    item ids over the whole log) so attribute vectors align across time.
    """
    bounds, parts = partition_by_time(log, boundaries)
    item_ids = np.unique(log.items)
    matrices = {}
    labels = {}
    counts = {}
    for role, part in zip(PARTITION_ROLES, parts):
        m = build_matrix(part, item_ids, role, aggregation)
        matrices[role] = m
        labels[role] = derive_labels(m, rules)
        counts[role] = len(part)
    return PartitionedDataset(
        boundaries=bounds,
        matrices=matrices,
        labels=labels,
        node_ids=log.node_ids,
        item_ids=item_ids,
        event_counts=counts,
        skipped_lines=log.skipped_lines,
    )


def save_dataset(ds: PartitionedDataset, out_dir: str | Path,
                 extra_meta: dict | None = None) -> None:
    """Cache a dataset as npz blocks plus a JSON meta file, which also
    holds the keys of ``extra_meta``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        "node_ids": ds.node_ids,
        "item_ids": ds.item_ids,
    }
    meta: dict = {
        "boundaries": list(ds.boundaries),
        "event_counts": ds.event_counts,
        "roles": list(PARTITION_ROLES),
        "label_names": ds.labels["training"].names,
        "aggregation": ds.matrices["training"].aggregation,
        "skipped_lines": ds.skipped_lines,
        **(extra_meta or {}),
    }
    for role in PARTITION_ROLES:
        m = ds.matrices[role].data
        arrays[f"{role}_indptr"] = m.indptr
        arrays[f"{role}_indices"] = m.indices
        arrays[f"{role}_data"] = m.data
        lab = ds.labels[role]
        for name in lab.names:
            arrays[f"{role}_label_{name}"] = lab.array(name)
    np.savez_compressed(out / "dataset.npz", **arrays)
    with open(out / "dataset.json", "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")


def load_dataset(in_dir: str | Path) -> PartitionedDataset:
    """Read what ``save_dataset`` wrote. Every matrix must be well-formed
    CSR with canonical rows (columns ascending and distinct) and finite,
    non-negative values, and every label array one entry per node, as
    ``build_dataset`` makes them; anything else is a DataError naming the
    partition role and the fault."""
    inp = Path(in_dir)
    meta = _read_json(inp / "dataset.json", "dataset meta")
    blob = np.load(inp / "dataset.npz")
    node_ids = blob["node_ids"]
    item_ids = blob["item_ids"]
    n_nodes = len(node_ids)
    matrices = {}
    labels = {}
    for role in PARTITION_ROLES:
        try:
            mat = sparse.csr_matrix(
                (blob[f"{role}_data"], blob[f"{role}_indices"],
                 blob[f"{role}_indptr"]),
                shape=(n_nodes, len(item_ids)),
            )
            mat.check_format(full_check=True)
        except ValueError as exc:
            raise DataError(f"{role} matrix: {exc}") from None
        if not mat.has_canonical_format:
            raise DataError(f"{role} matrix: a row holds a column twice "
                            f"or out of order")
        if not np.isfinite(mat.data).all():
            raise DataError(f"{role} matrix: non-finite value")
        if (mat.data < 0).any():
            raise DataError(f"{role} matrix: negative value")
        matrices[role] = AttributeMatrix(
            mat, item_ids, role, meta["aggregation"])
        arrays = {name: blob[f"{role}_label_{name}"]
                  for name in meta["label_names"]}
        for name, arr in arrays.items():
            if len(arr) != n_nodes:
                raise DataError(f"{role} label {name!r}: {len(arr)} "
                                f"entries for {n_nodes} nodes")
        labels[role] = LabelSetCollection(
            {name: arr.astype(bool) for name, arr in arrays.items()}, role)
    return PartitionedDataset(
        boundaries=tuple(meta["boundaries"]),
        matrices=matrices,
        labels=labels,
        node_ids=node_ids,
        item_ids=item_ids,
        event_counts=meta["event_counts"],
        skipped_lines=meta.get("skipped_lines", 0),
    )
