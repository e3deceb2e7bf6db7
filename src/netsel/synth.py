"""Synthetic event-log generator with two planted latent structures.

Structure one drives labels: nodes belong to subgroups (nested in groups)
and emit persistent-weight events on their subgroup's and group's item
blocks, so label rules over those blocks recover the membership in every
time segment and attribute similarity is homophilous at the subgroup
level.

Structure two drives edge formation independently of labels: consecutive
nodes form pods that cut across groups and share a small dedicated item
block. Pod pairs are similar for a reason unrelated to any label.

Per-segment noise (a re-drawn event budget over a shared item pool) and
cross-block contamination provide controlled degradation: contamination
values stay below the label thresholds by construction, so labels remain
exact while classifiers see overlapping feature distributions.

Everything is drawn from seed-derived generators, so a fixed seed yields
bit-identical logs on any platform with the same PRNG.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rng import generator
from .data import DataError, EventLog, LabelRule
from .graph import EdgeSet


@dataclass(frozen=True)
class PlantSpec:
    """Knobs for the planted structures; sizes auto-shrink to fit small
    node/item budgets."""

    n_groups: int = 4
    subgroups_per_group: int = 3
    subgroup_items: int = 16
    group_items: int = 16
    pod_size: int = 5
    pod_items: int = 4
    weight_lo: int = 6
    weight_hi: int = 15
    noise_lo: int = 10
    noise_hi: int = 80
    noise_high_prob: float = 0.5
    contamination_items: int = 12
    contamination_per_block: int = 4
    contamination_lo: int = 5
    contamination_hi: int = 8
    label_min_count: int = 10
    label_min_value: float = 5.0
    segments: int = 3
    segment_length: int = 10_000
    # members emit this many of their block's items (None: the whole
    # block); must stay >= label_min_count so membership labels hold
    emit_items: int | None = None
    # near-miss nodes per subgroup: same item distribution but one item
    # short of the label threshold, so they are labeled 0 yet sit inside
    # the members' attribute cloud
    doppel_per_subgroup: int = 0
    doppel_emit: int | None = None
    # re-draw block subsets and values every segment; without this a
    # node's evaluation vector nearly equals its training vector and a
    # global classifier can separate any labeling by memorizing nodes
    refresh_per_segment: bool = False

    def boundaries(self) -> tuple[int, int]:
        """Partition boundaries aligned with the planted segments."""
        return self.segment_length, 2 * self.segment_length

    def quiet(self) -> "PlantSpec":
        """Variant with no noise, contamination or pod expression."""
        return replace(self, noise_lo=0, noise_hi=0,
                       contamination_items=0, pod_items=0)

    def divergent(self) -> "PlantSpec":
        """Variant tuned so the two tasks prefer different scopes.

        Members emit a random block subset right at the label threshold
        and each subgroup gets near-miss nodes one item short of it, so
        item count separates the classes but no linear function of the
        values does. Local neighborhoods stay label-pure (their evidence
        is the membership itself) while any globally trained linear
        model inherits the class overlap."""
        return replace(self, group_items=0, emit_items=10,
                       doppel_per_subgroup=20, contamination_items=0,
                       refresh_per_segment=True)


@dataclass(frozen=True)
class SynthSpec:
    """The ``dataset.synth`` block: ``synth_bundle``'s arguments."""

    seed: int
    n_nodes: int = 500
    n_items: int = 1000
    plant: PlantSpec = PlantSpec()

    def __post_init__(self) -> None:
        for key in ("n_nodes", "n_items"):
            if getattr(self, key) < 1:
                raise DataError(f"dataset.synth.{key} must be >= 1, "
                                f"got {getattr(self, key)!r}")


@dataclass(frozen=True)
class _Layout:
    """Resolved memberships and item block boundaries."""

    n_nodes: int
    n_items: int
    n_groups: int
    subgroups_per_group: int
    sub_block: int
    grp_block: int
    pod_size: int
    n_pods: int
    pod_block: int
    noise_start: int
    label_min_count: int
    contamination_per_block: int

    @property
    def n_subgroups(self) -> int:
        return self.n_groups * self.subgroups_per_group

    def subgroup(self, i: int) -> int:
        return i % self.n_subgroups

    def group(self, i: int) -> int:
        return self.subgroup(i) % self.n_groups

    def pod(self, i: int) -> int:
        return i // self.pod_size if self.n_pods else -1

    def sub_items(self, sg: int) -> np.ndarray:
        return np.arange(sg * self.sub_block, (sg + 1) * self.sub_block)

    def grp_items(self, g: int) -> np.ndarray:
        off = self.n_subgroups * self.sub_block
        return np.arange(off + g * self.grp_block,
                         off + (g + 1) * self.grp_block)

    def pod_items_of(self, p: int) -> np.ndarray:
        off = (self.n_subgroups * self.sub_block
               + self.n_groups * self.grp_block)
        return np.arange(off + p * self.pod_block,
                         off + (p + 1) * self.pod_block)

    @property
    def noise_pool(self) -> np.ndarray:
        return np.arange(self.noise_start, self.n_items)


def _resolve_layout(n_nodes: int, n_items: int, plant: PlantSpec) -> _Layout:
    if n_nodes < 10:
        raise DataError("synthetic data needs at least 10 nodes")
    if n_items < 2:
        raise DataError("synthetic data needs at least 2 items")
    groups = max(1, min(plant.n_groups, n_nodes // 2, n_items))
    spg = plant.subgroups_per_group
    while spg > 1 and (groups * spg > n_items or groups * spg > n_nodes // 2):
        spg -= 1
    n_sub = groups * spg
    budget = n_items
    sub_block = max(1, min(plant.subgroup_items, budget // n_sub))
    budget -= n_sub * sub_block
    grp_block = min(plant.group_items, budget // groups) if groups else 0
    budget -= groups * grp_block
    pod_size = plant.pod_size if plant.pod_size >= 2 else 0
    n_pods = n_nodes // pod_size if pod_size else 0
    pod_block = min(plant.pod_items, budget // n_pods) if n_pods else 0
    budget -= n_pods * pod_block
    noise_start = n_items - budget
    min_count = min(plant.label_min_count, sub_block)
    contam = min(plant.contamination_per_block, max(0, min_count - 1))
    return _Layout(
        n_nodes=n_nodes, n_items=n_items,
        n_groups=groups, subgroups_per_group=spg,
        sub_block=sub_block, grp_block=grp_block,
        pod_size=pod_size, n_pods=n_pods, pod_block=pod_block,
        noise_start=noise_start,
        label_min_count=min_count,
        contamination_per_block=contam,
    )


def _clique_edges(member_lists, n_nodes: int, tag: str) -> EdgeSet:
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for members in member_lists:
        members = np.asarray(members, dtype=np.int64)
        if len(members) < 2:
            continue
        iu, ju = np.triu_indices(len(members), 1)
        us.append(members[iu])
        vs.append(members[ju])
    src = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    dst = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    return EdgeSet(
        n_nodes=n_nodes, src=src, dst=dst,
        weights=np.ones(len(src)), directed=False,
        provenance={"model": "TRUTH", "structure": tag},
    )


@dataclass
class SynthData:
    """Everything the pipeline needs to consume a planted dataset; nodes
    >= ``doppel_start`` are the planted near-misses."""

    log: EventLog
    label_graph: EdgeSet
    structure_graph: EdgeSet
    rules: list[LabelRule]
    boundaries: tuple[int, int]
    layout: _Layout
    doppel_start: int


def synth_bundle(
    seed: int,
    n_nodes: int = 500,
    n_items: int = 1000,
    plant: PlantSpec = PlantSpec(),
) -> SynthData:
    lay = _resolve_layout(n_nodes, n_items, plant)
    wlo, whi = plant.weight_lo, plant.weight_hi
    if wlo < plant.label_min_value:
        raise DataError("weight_lo below label_min_value breaks the "
                        "membership guarantee")
    if not wlo <= whi:
        raise DataError("bad weight range")
    n_dop = plant.doppel_per_subgroup * lay.n_subgroups
    if n_dop > n_nodes // 2:
        raise DataError("too many near-miss nodes for the node budget")
    dop_start = n_nodes - n_dop
    emit_true = lay.sub_block if plant.emit_items is None \
        else min(plant.emit_items, lay.sub_block)
    if emit_true < lay.label_min_count:
        raise DataError("emit_items below label_min_count breaks the "
                        "membership guarantee")
    emit_dop = lay.label_min_count - 1 if plant.doppel_emit is None \
        else min(plant.doppel_emit, lay.sub_block)
    if n_dop and emit_dop >= lay.label_min_count:
        raise DataError("doppel_emit reaches the label threshold")

    sub_w = np.empty((n_nodes, lay.sub_block), dtype=np.int64)
    grp_w = np.empty((n_nodes, lay.grp_block), dtype=np.int64)
    pod_w = np.empty((n_nodes, lay.pod_block), dtype=np.int64)
    sub_sel: list[np.ndarray] = []
    for i in range(n_nodes):
        rng = generator(seed, "weights", i)
        sub_w[i] = rng.integers(wlo, whi + 1, lay.sub_block)
        grp_w[i] = rng.integers(wlo, whi + 1, lay.grp_block)
        pod_w[i] = rng.integers(wlo, whi + 1, lay.pod_block)
        take = emit_dop if i >= dop_start else emit_true
        if take < lay.sub_block:
            sub_sel.append(np.sort(rng.choice(lay.sub_block, size=take,
                                              replace=False)))
        else:
            sub_sel.append(np.arange(lay.sub_block))

    def block_emission(i: int, seg: int) -> tuple[np.ndarray, np.ndarray]:
        """Items and values node i expresses on its own block in seg."""
        if not plant.refresh_per_segment:
            return sub_sel[i], sub_w[i][sub_sel[i]]
        take = emit_dop if i >= dop_start else emit_true
        rng = generator(seed, "block", i, seg)
        sel = np.sort(rng.choice(lay.sub_block, size=take, replace=False))
        return sel, rng.integers(wlo, whi + 1, take)

    # emissions in order: the node and size of each, its items and values;
    # nodes and timestamps are expanded once at the end
    emit_node: list[int] = []
    emit_len: list[int] = []
    items: list[np.ndarray] = []
    values: list[np.ndarray] = []
    seg_events = [0] * plant.segments
    seg_len = plant.segment_length

    def emit(node: int, item_arr, value_arr, seg: int) -> None:
        m = len(item_arr)
        if m == 0:
            return
        emit_node.append(node)
        emit_len.append(m)
        items.append(item_arr)
        values.append(value_arr)
        seg_events[seg] += m

    pool = lay.noise_pool
    n_sub = lay.n_subgroups
    for seg in range(plant.segments):
        for i in range(n_nodes):
            sg = lay.subgroup(i)
            sel, vals = block_emission(i, seg)
            emit(i, lay.sub_items(sg)[sel], vals, seg)
            if lay.grp_block:
                emit(i, lay.grp_items(lay.group(i)), grp_w[i], seg)
            p = lay.pod(i)
            if p >= 0 and lay.pod_block and plant.pod_items > 0:
                emit(i, lay.pod_items_of(p), pod_w[i], seg)
            if len(pool) and plant.noise_hi > 0:
                rng = generator(seed, "noise", i, seg)
                rate = (plant.noise_hi
                        if rng.random() < plant.noise_high_prob
                        else plant.noise_lo)
                if rate > 0:
                    draws = rng.choice(pool, size=rate, replace=True)
                    uniq, counts = np.unique(draws, return_counts=True)
                    emit(i, uniq, counts, seg)
            if plant.contamination_items > 0 and lay.contamination_per_block > 0 and n_sub > 1:
                rng = generator(seed, "contamination", i, seg)
                per = lay.contamination_per_block
                n_blocks = -(-plant.contamination_items // per)
                foreign = np.delete(np.arange(n_sub), sg)
                n_blocks = min(n_blocks, len(foreign))
                blocks = rng.choice(foreign, size=n_blocks, replace=False)
                left = plant.contamination_items
                for b in blocks:
                    take = min(per, left, lay.sub_block)
                    if take <= 0:
                        break
                    choice = rng.choice(lay.sub_items(int(b)), size=take,
                                        replace=False)
                    vals = rng.integers(plant.contamination_lo,
                                        plant.contamination_hi + 1, take)
                    emit(i, np.sort(choice), vals, seg)
                    left -= take

    # each segment's events are stamped consecutively from its start,
    # wrapping before the next segment begins
    stamps = [seg * seg_len + np.arange(m) % (seg_len - 1)
              for seg, m in enumerate(seg_events)]
    log = EventLog(
        nodes=np.repeat(np.array(emit_node, dtype=np.int64), emit_len),
        items=np.concatenate(items).astype(np.int64),
        values=np.concatenate(values).astype(np.float64),
        timestamps=np.concatenate(stamps).astype(np.int64),
        n_nodes=n_nodes,
        node_ids=np.arange(n_nodes),
    )

    # membership cliques cover true members only; near-misses are labeled
    # 0 and must not appear in the label-homophily truth
    members = np.arange(dop_start)
    label_graph = _clique_edges(
        [members[members % n_sub == sg] for sg in range(n_sub)],
        n_nodes, "label-homophily")
    all_nodes = np.arange(n_nodes)
    if lay.n_pods:
        pods = [all_nodes[p * lay.pod_size:(p + 1) * lay.pod_size]
                for p in range(lay.n_pods)]
    else:
        pods = []
    structure_graph = _clique_edges(pods, n_nodes, "edge-formation")

    rules: list[LabelRule] = []
    for sg in range(n_sub):
        rules.append(LabelRule(
            name=f"sub-{sg}", items=tuple(int(x) for x in lay.sub_items(sg)),
            min_count=lay.label_min_count,
            min_value=plant.label_min_value))
    if lay.grp_block:
        grp_count = min(plant.label_min_count, lay.grp_block)
        for g in range(lay.n_groups):
            rules.append(LabelRule(
                name=f"grp-{g}",
                items=tuple(int(x) for x in lay.grp_items(g)),
                min_count=grp_count,
                min_value=plant.label_min_value))

    return SynthData(log, label_graph, structure_graph, rules,
                     plant.boundaries(), lay, dop_start)


def synth_generate(
    seed: int,
    n_nodes: int = 500,
    n_items: int = 1000,
    plant: PlantSpec = PlantSpec(),
) -> tuple[EventLog, tuple[EdgeSet, EdgeSet]]:
    """Events plus the pair of planted ground-truth edge-sets
    (label homophily, edge formation)."""
    bundle = synth_bundle(seed, n_nodes, n_items, plant)
    return bundle.log, (bundle.label_graph, bundle.structure_graph)
