"""Experiment pipeline: dataset -> networks -> task grid -> selection.

Each stage reads the previous stage's files and writes its own, so the
stages are independently invocable; infer and evaluate refuse files built
from another dataset config (``dataset_digest``). run_experiment chains
them and is byte-identical to running the stages one at a time. All
randomness is derived from one master seed plus content tags, never from
scheduling, so the worker count cannot change any output file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, learn
from ._rng import derive_seed, generator
from .community import louvain
from .data import (PartitionedDataset, _accepts, _read, _read_json,
                   _reject_unknown, build_dataset, ingest_events, load_dataset,
                   load_label_rules, save_dataset, save_label_rules)
from .graph import (EdgeSet, GraphError, NeighborhoodSpec, load_edgeset,
                    load_explicit_edges, save_edgeset, split_edges_random)
from .learn import LearnError, RFHyper, SVMHyper
from .selection import (EvaluationRecord, SelectionError, cross_task,
                        match_mismatch, node_difficulty,
                        records_from_batches, selection_stats)
from .similarity import MEASURES, MODELS, NetworkModelSpec, build_networks
from .synth import SynthSpec, synth_bundle
from .tasks import (CLASSIFIER_KINDS, TASKS, ClassifierPool, LeakageAudit,
                    ModelConfig, PredictionBatch, Scopes, _fmt_density,
                    assign_lp_eval, config_key_fields, resolve_cc,
                    resolve_lp, settle_pools)

LP_SPLIT = (0.5, 0.25, 0.25)
CONFIG_KEYS = ("dataset", "grid", "seed", "workers", "out", "svm", "rf")
# each grid axis: its default, which values it takes, and how a refusal
# names them
GRID_AXES = {
    "models": (["KNN", "TH"], MODELS.__contains__, " or ".join(MODELS)),
    "measures": (["INT", "INT-N"], MEASURES.__contains__,
                 " or ".join(MEASURES)),
    "densities": ([0.0025, 0.005], lambda v: _accepts(float, v)
                  and 0 < v < math.inf, "numbers > 0"),
    "explicit": ([], lambda v: isinstance(v, dict), "objects"),
    "localities": (["local-adjacency", "global"],
                   lambda v: isinstance(v, str), "strings"),
    "tasks": (["CC", "LP"], TASKS.__contains__, " or ".join(TASKS)),
    "classifiers": (["linear-svm"], CLASSIFIER_KINDS.__contains__,
                    " or ".join(CLASSIFIER_KINDS)),
}


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    """The ``dataset`` block: its one source is a ``synth`` block or an
    ``events`` file with its ``rules`` file and, optionally, the two
    partition ``boundaries``."""

    synth: SynthSpec | None = None
    events: str | None = None
    rules: str | None = None
    boundaries: tuple[int, int] | None = None
    aggregation: str = "sum"
    strict: bool = False

    def __post_init__(self) -> None:
        if (self.synth is None) == (self.events is None):
            raise ExperimentError("dataset must name exactly one source, "
                                  "synth or events")
        if (self.rules is None) != (self.events is None):
            raise ExperimentError("dataset.rules must be given with "
                                  "dataset.events, and only with it")
        if self.boundaries is not None and self.events is None:
            raise ExperimentError("dataset.boundaries must be left out "
                                  "without dataset.events")
        if self.aggregation not in ("sum", "mean"):
            raise ExperimentError(f"dataset.aggregation must be 'sum' or "
                                  f"'mean', got {self.aggregation!r}")


@dataclass(frozen=True)
class ExplicitSpec:
    """A ``grid.explicit`` entry: an edge file, or ``synth:<tag>`` for the
    dataset's planted truth graph, evaluated as one network family per
    thinning factor."""

    name: str
    source: str
    factors: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.factors or len(set(self.factors)) < len(self.factors) \
                or not all(0 < f <= 1 for f in self.factors):
            raise ExperimentError(f"factors must be distinct numbers in "
                                  f"(0, 1], got {list(self.factors)}")


@dataclass
class ExperimentConfig:
    """Parsed experiment file; every field but the dataset has a working
    default, so a minimal config only names a dataset."""

    dataset: DatasetSpec
    models: list
    measures: list
    densities: list
    explicit: list
    localities: list
    tasks: list
    classifiers: list
    seed: int
    workers: int
    out: str
    svm: SVMHyper
    rf: RFHyper

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Parse a config, the ``dataset``, ``svm`` and ``rf`` blocks and
        each ``grid.explicit`` entry as their dataclasses (``data._read``);
        an unknown key, a value of the wrong type, or a grid value that no
        stage takes or that repeats a value or a network family raises
        ExperimentError naming its path, a wrong ``svm`` or ``rf`` value
        LearnError."""
        if not isinstance(raw, dict):
            raise ExperimentError(f"config must be an object, got {raw!r}")
        _reject_unknown(raw, CONFIG_KEYS, "", ExperimentError)
        grid = _read(dict, raw.get("grid", {}), "grid", ExperimentError)
        _reject_unknown(grid, GRID_AXES, "grid", ExperimentError)
        axes = {}
        for key, (default, takes, what) in GRID_AXES.items():
            axes[key] = list(_read(list, grid.get(key, default),
                                   f"grid.{key}", ExperimentError))
            for i, v in enumerate(axes[key]):
                if not takes(v) or v in axes[key][:i]:
                    raise ExperimentError(f"grid.{key} must hold {what}, "
                                          f"each once, got {v!r}")
        for v in axes["localities"]:
            try:
                NeighborhoodSpec.parse(v)
            except GraphError as exc:
                raise ExperimentError(f"grid.localities: {exc}") from None
        axes["explicit"] = list(_read(tuple[ExplicitSpec, ...],
                                      axes["explicit"], "grid.explicit",
                                      ExperimentError))
        axes["densities"] = [float(d) for d in axes["densities"]]
        hypers = {}
        for name, hyper in (("svm", SVMHyper), ("rf", RFHyper)):
            # a wrong shape or key is a config error, a wrong value learn's
            block = _read(dict, raw.get(name, {}), name, ExperimentError)
            _reject_unknown(block, [f.name for f in fields(hyper)], name,
                            ExperimentError)
            hypers[name] = _read(hyper, block, name, LearnError)
        seed = _read(int, raw.get("seed", 0), "seed", ExperimentError)
        workers = _read(int, raw.get("workers", 1), "workers",
                        ExperimentError)
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers!r}")
        dataset = raw.get("dataset", {})
        synth = dataset.get("synth") if isinstance(dataset, dict) else None
        if isinstance(synth, dict):  # without a seed: the master seed
            dataset = {**dataset, "synth": {"seed": seed, **synth}}
        cfg = ExperimentConfig(
            _read(DatasetSpec, dataset, "dataset", ExperimentError), **axes,
            seed=seed, workers=workers, **hypers,
            out=_read(str, raw.get("out", "out"), "out", ExperimentError))
        # one file per family: explicit names must differ as file names
        keys = [family_key(spec) for spec in family_specs(cfg)]
        for key in keys:
            if keys.count(key) > 1:
                raise ExperimentError(f"grid names the network family "
                                      f"{key} twice")
        return cfg

    @staticmethod
    def load(path: str | Path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(
            _read_json(path, "config", ExperimentError))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


# --- stage fingerprints ----------------------------------------------------------

def _file_sha256(path: Path) -> str:
    """sha256 of a file's bytes, read a megabyte at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dataset_digest(cfg: ExperimentConfig) -> str:
    """sha256 of the effective dataset config: the ``dataset`` block as
    read, defaults and the synth seed filled in, and the sha256 of the
    bytes of each events or rules file it names that exists (ingest
    reports a missing one). Ingest records it in ``dataset.json`` and
    infer in ``networks/networks.json``, so that a later stage never reads
    outputs built from another dataset config or from edited files."""
    eff = asdict(cfg.dataset)
    for key in ("events", "rules"):
        if eff[key] is not None and Path(eff[key]).is_file():
            eff[f"{key}_sha256"] = _file_sha256(Path(eff[key]))
    return hashlib.sha256(
        json.dumps(eff, sort_keys=True).encode()).hexdigest()


def _explicit_source(entry: ExplicitSpec, ds_dir: Path) -> Path:
    """The file an explicit entry's ``source`` names: a path, or
    ``synth:<tag>`` for the dataset's ``truth_<tag>.tsv``."""
    if entry.source.startswith("synth:"):
        return ds_dir / f"truth_{entry.source.split(':', 1)[1]}.tsv"
    return Path(entry.source)


def network_digest(cfg: ExperimentConfig, ds_dir: Path) -> str:
    """sha256 of the network grid slice infer builds from: the family
    specs, and each explicit entry's source path, the sha256 of its source
    bytes (None when the file is missing) and its factors. The master seed
    is included only when an entry thins (factor < 1), since thinning is
    seeded. Infer records it in ``networks/networks.json``."""
    explicit = []
    for entry in cfg.explicit:
        path = _explicit_source(entry, ds_dir)
        sha256 = _file_sha256(path) if path.is_file() else None
        explicit.append({**asdict(entry), "sha256": sha256})
    eff = {"families": [[s.model, s.measure, s.density, s.edges]
                        for s in family_specs(cfg)],
           "explicit": explicit}
    if any(f < 1.0 for e in explicit for f in e["factors"]):
        eff["seed"] = cfg.seed
    return hashlib.sha256(
        json.dumps(eff, sort_keys=True).encode()).hexdigest()


def _check_digest(path: Path, key: str, want: str, output: str,
                  stage: str, what: str = "dataset block") -> None:
    """Refuse a missing ``output`` stage output, or one whose recorded
    ``key`` is not ``want``; ``stage`` is the stage that writes it and
    ``what`` the part of the config the digest covers."""
    if not path.exists():
        raise ExperimentError(f"missing {output} stage output: {path}")
    if json.loads(path.read_text()).get(key) != want:
        raise ExperimentError(
            f"{path} does not match this config's {what} or the files it "
            f"names (stale output); rerun the {stage} stage")


def _check_dataset(cfg: ExperimentConfig, ds_dir: Path) -> str:
    """The dataset digest, once ``dataset/`` is known to match it."""
    digest = dataset_digest(cfg)
    _check_digest(ds_dir / "dataset.json", "config_digest", digest,
                  "dataset", "ingest")
    return digest


# --- stage: ingest -------------------------------------------------------------

def stage_ingest(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Build (or generate) the partitioned dataset and persist it, with the
    digest of its config (``dataset_digest``)."""
    ds_dir = out_dir / "dataset"
    ds_dir.mkdir(parents=True, exist_ok=True)
    ds = cfg.dataset
    if ds.synth is not None:
        bundle = synth_bundle(**vars(ds.synth))
        log, rules, bounds = bundle.log, bundle.rules, bundle.boundaries
    else:
        log = ingest_events(ds.events, strict=ds.strict)
        rules, bounds = load_label_rules(ds.rules), ds.boundaries
    dataset = build_dataset(log, rules, boundaries=bounds,
                            aggregation=ds.aggregation)
    save_dataset(dataset, ds_dir, {"config_digest": dataset_digest(cfg)})
    save_label_rules(rules, ds_dir / "rules.json")
    if ds.synth is not None:
        save_edgeset(bundle.label_graph, ds_dir / "truth_label.tsv")
        save_edgeset(bundle.structure_graph, ds_dir / "truth_structure.tsv")
    return ds_dir


# --- stage: infer ---------------------------------------------------------------

def family_specs(cfg: ExperimentConfig) -> list[NetworkModelSpec]:
    """The network grid in canonical order: the KNN / TH families, then
    one per explicit entry and factor (``name@factor`` when it thins)."""
    return [NetworkModelSpec(model=m, measure=s, density=d)
            for m in sorted(cfg.models) for s in sorted(cfg.measures)
            for d in sorted(cfg.densities)] + [
        NetworkModelSpec(model="EXPLICIT",
                         edges=e.name if f == 1.0 else f"{e.name}@{f}")
        for e in cfg.explicit for f in e.factors]


def family_key(spec: NetworkModelSpec) -> str:
    if spec.model == "EXPLICIT":
        return f"EXPLICIT-{_safe_name(spec.edges)}"
    return f"{spec.model}-{spec.measure}-{_fmt_density(spec.density)}"


def _resolve_explicit(entry: ExplicitSpec, factor: float, ds_dir: Path,
                      n_nodes: int, seed: int) -> EdgeSet:
    path = _explicit_source(entry, ds_dir)
    if entry.source.startswith("synth:") or (
            path.exists() and path.read_text().lstrip().startswith("#")):
        g = load_edgeset(path)
    else:
        g = load_explicit_edges(path, n_nodes)
    if factor < 1.0:
        keep = max(1, int(round(factor * g.n_edges)))
        rng = generator(seed, "explicit-thin", entry.name, factor)
        sel = np.sort(rng.choice(g.n_edges, size=keep, replace=False))
        g = EdgeSet(n_nodes=g.n_nodes, src=g.src[sel], dst=g.dst[sel],
                    weights=g.weights[sel], directed=g.directed,
                    provenance=dict(g.provenance, density_factor=factor))
    return g


def stage_infer(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Build every network in the grid from the training partition (or
    load explicit ones) and write one edge file per family, plus
    ``networks.json`` with the digests of the dataset and of the network
    grid slice (``network_digest``) they came from."""
    ds_dir = out_dir / "dataset"
    digest = _check_dataset(cfg, ds_dir)
    dataset = load_dataset(ds_dir)
    net_dir = out_dir / "networks"
    net_dir.mkdir(parents=True, exist_ok=True)
    specs = family_specs(cfg)
    # one similarity pass over the training matrix builds every KNN / TH
    # family at once
    built = iter(build_networks(dataset.matrix("training"),
                                [s for s in specs if s.model != "EXPLICIT"]))
    # the explicit families' (entry, factor), in family_specs' order
    thinned = iter([(e, f) for e in cfg.explicit for f in e.factors])
    for spec in specs:
        if spec.model == "EXPLICIT":
            g = _resolve_explicit(*next(thinned), ds_dir, dataset.n_nodes,
                                  cfg.seed)
            g.provenance.setdefault("model", "EXPLICIT")
            g.provenance["edges"] = spec.edges
        else:
            g = next(built)
        save_edgeset(g, net_dir / f"{family_key(spec)}.tsv")
    _atomic_write(net_dir / "networks.json", json.dumps(
        {"dataset_digest": digest,
         "network_digest": network_digest(cfg, ds_dir)}, indent=1) + "\n")
    return net_dir


# --- stage: evaluate ------------------------------------------------------------

@dataclass
class FamilyData:
    """Everything one network family shares across its config cells.
    ``cc_scopes`` over the network and ``lp_scopes`` over the LP training
    graph hold what each task evaluates over (graph, communities, and LP's
    exclusion set) and resolve each (locality, node) training scope once
    for every config, labelset and partition of their task."""

    lp_plans: dict
    audit: LeakageAudit
    cc_scopes: Scopes
    lp_scopes: Scopes | None = None

    def communities(self) -> dict:
        """The Louvain partitions family prep built, by task."""
        return {task: s.comm for task, s in (("CC", self.cc_scopes),
                                             ("LP", self.lp_scopes))
                if s is not None and s.comm is not None}


def prepare_family(spec: NetworkModelSpec, g: EdgeSet, master_seed: int,
                   uses: set) -> FamilyData:
    """The family's evaluation context for the (task, locality kind) pairs
    in ``uses``: a task's Louvain partition only for its community cells;
    for LP, the edge split, both partitions' plans and the exclusion set
    (the full network and every reserved pair)."""
    fkey = family_key(spec)
    audit = LeakageAudit()

    def communities(graph: EdgeSet, task: str):
        if (task, "community") not in uses:
            return None
        return louvain(graph, derive_seed(master_seed, "louvain", fkey, task))

    cc_scopes = Scopes(g, communities(g, "CC"))
    if not any(task == "LP" for task, _ in uses):
        return FamilyData({}, audit, cc_scopes)
    und = g.undirected_view()
    train, *held = split_edges_random(
        und, LP_SPLIT, derive_seed(master_seed, "lp-split", fkey))
    plans = {role: assign_lp_eval(und, part, role,
                                  derive_seed(master_seed, "lp-eval", fkey),
                                  audit)
             for role, part in zip(("validation", "testing"), held)}
    excl = np.union1d(und.pair_keys(), np.union1d(
        plans["validation"].reserved_keys, plans["testing"].reserved_keys))
    return FamilyData(plans, audit, cc_scopes,
                      Scopes(train, communities(train, "LP"), excl))


def build_grid(cfg: ExperimentConfig) -> list[tuple[str, ModelConfig]]:
    """(family key, config) cells in canonical config-key order."""
    cells = []
    for spec in family_specs(cfg):
        for loc_text in cfg.localities:
            locality = NeighborhoodSpec.parse(loc_text)
            for task in cfg.tasks:
                for clf in cfg.classifiers:
                    seed = derive_seed(
                        cfg.seed, "config", family_key(spec),
                        locality.key(), task, clf)
                    config = ModelConfig(
                        network=spec, locality=locality, task=task,
                        classifier=clf, seed=seed, svm=cfg.svm, rf=cfg.rf)
                    cells.append((family_key(spec), config))
    cells.sort(key=lambda c: c[1].config_key)
    keys = [c[1].config_key for c in cells]
    if len(set(keys)) != len(keys):
        raise ExperimentError("config grid produced duplicate keys")
    return cells


@dataclass
class _Resolved:
    """A config resolved on both evaluation partitions, waiting for its
    window's settle: its audit, its pool, each partition's predict phase
    and the seconds the resolve took."""

    config: ModelConfig
    audit: LeakageAudit
    pool: ClassifierPool
    predicts: list
    seconds: float


def _resolve(family: FamilyData, dataset: PartitionedDataset,
             config: ModelConfig) -> _Resolved:
    audit, pool = LeakageAudit(), ClassifierPool(config)
    t0 = time.perf_counter()
    if config.task == "CC":
        predicts = [resolve_cc(config, family.cc_scopes, dataset, role,
                               audit, pool)
                    for role in ("validation", "testing")]
    else:
        matrix = dataset.matrix("training")
        predicts = [resolve_lp(config, family.lp_scopes,
                               family.lp_plans[role], matrix, audit, pool)
                    for role in ("validation", "testing")]
    return _Resolved(config, audit, pool, predicts, time.perf_counter() - t0)


def _predict(r: _Resolved) -> dict:
    """A settled config's batches and counters; its wall time is its
    resolve and predict phases, without the window's shared training."""
    t0 = time.perf_counter()
    batches = [predict() for predict in r.predicts]
    return {
        "config_key": r.config.config_key,
        "batches": batches,
        "assertions": r.audit.assertions,
        "violations": r.audit.violations,
        "wall_ms": (r.seconds + time.perf_counter() - t0) * 1000.0,
        "classifiers_trained": r.pool.trained,
        "single_class": r.pool.single_class,
        "pool_hits": r.pool.hits,
    }


@contextlib.contextmanager
def _failing_as(*configs: ModelConfig):
    """Re-raise any error as an ExperimentError naming the configs; a plain
    message pickles cleanly across the worker boundary."""
    try:
        yield
    except Exception as exc:
        keys = ", ".join(c.config_key for c in configs)
        raise ExperimentError(f"config {keys} failed: {exc}") from None


def _evaluate_cells(families: dict, dataset: PartitionedDataset,
                   cells: list) -> list[dict]:
    """Evaluate (family key, config) cells in settle windows, one payload
    per cell in order.

    Configs resolve one after another, both partitions each, in windows
    that ``learn._budgeted``, the budget loop of the SGD and forest chunks
    too, closes once their pools' pending ``material`` holds more than
    ``learn.SGD_BATCH_ENTRIES`` row entries. One settle then trains every
    pending classifier of the window, many configs' SVMs in one lock-step
    SGD and their forests in one lock-step growth, and each config
    predicts. No output depends on where a window closes.
    """
    def resolved():
        for fkey, config in cells:
            with _failing_as(config):
                yield _resolve(families[fkey], dataset, config)

    payloads: list[dict] = []
    for window in learn._budgeted(resolved(),
                                  lambda r: r.pool.pending_entries()):
        with _failing_as(*(r.config for r in window)):
            settle_pools([r.pool for r in window])
        for r in window:
            with _failing_as(r.config):
                payloads.append(_predict(r))
    return payloads


_WORKER_STATE: dict = {}


def _worker_eval(cells: list) -> list[dict]:
    return _evaluate_cells(_WORKER_STATE["families"],
                          _WORKER_STATE["dataset"], cells)


def stage_evaluate(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Evaluate the whole grid and write batches.tsv plus results.csv."""
    ds_dir = out_dir / "dataset"
    net_dir = out_dir / "networks"
    _check_digest(net_dir / "networks.json", "dataset_digest",
                  _check_dataset(cfg, ds_dir), "network", "infer")
    _check_digest(net_dir / "networks.json", "network_digest",
                  network_digest(cfg, ds_dir), "network", "infer",
                  "network grid")
    dataset = load_dataset(ds_dir)
    cells = build_grid(cfg)
    uses: dict[str, set] = {}
    for fkey, config in cells:
        uses.setdefault(fkey, set()).add((config.task,
                                          config.locality.locality))
    families = {}
    for spec in family_specs(cfg):
        fkey = family_key(spec)
        path = net_dir / f"{fkey}.tsv"
        if not path.exists():
            raise ExperimentError(f"missing network stage output: {path}")
        families[fkey] = prepare_family(spec, load_edgeset(path), cfg.seed,
                                        uses.get(fkey, set()))

    _WORKER_STATE["families"] = families
    _WORKER_STATE["dataset"] = dataset
    try:
        if cfg.workers > 1:
            # fixed strided slices, so which cells share a window depends
            # only on the cell count and the worker count
            k = min(len(cells), 4 * cfg.workers)
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=cfg.workers) as pool:
                payloads = [p for part in pool.map(
                    _worker_eval, [cells[j::k] for j in range(k)],
                    chunksize=1) for p in part]
        else:
            payloads = _worker_eval(cells)
    finally:
        _WORKER_STATE.clear()

    payloads.sort(key=lambda p: p["config_key"])
    batches = [b for p in payloads for b in p["batches"]]
    _write_batches(out_dir / "batches.tsv", batches)
    records = records_from_batches(batches)
    _write_results(out_dir / "results.csv", records)
    audit_assertions = sum(p["assertions"] for p in payloads) \
        + sum(f.audit.assertions for f in families.values())
    audit_violations = sum(p["violations"] for p in payloads) \
        + sum(f.audit.violations for f in families.values())
    manifest = {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "n_configs": len(cells),
        "audit_assertions": audit_assertions,
        "audit_violations": audit_violations,
        "wall_ms": {p["config_key"]: round(p["wall_ms"], 3)
                    for p in payloads},
        # a config's pool spans both partitions
        "classifiers_trained": {p["config_key"]: p["classifiers_trained"]
                                for p in payloads},
        # records per evaluation partition that no classifier scored (an
        # empty CC neighborhood, an LP owner with an untrainable pair set)
        "fallback": {p["config_key"]: {b.partition: b.n_fallback
                                       for b in p["batches"]}
                     for p in payloads},
        # of those, CC builds whose material carries one label: answered
        # with a constant classifier, no training set assembled
        "single_class": {p["config_key"]: p["single_class"]
                         for p in payloads},
        # pool lookups answered from the cache, over both partitions
        "pool_hits": {p["config_key"]: p["pool_hits"] for p in payloads},
        "skipped_lines": dataset.skipped_lines,
        # held-out LP edges left unevaluated: their owner ran out of
        # non-edge partners
        "lp_dropped_pos": {
            fkey: {role: plan.dropped_pos
                   for role, plan in sorted(f.lp_plans.items())}
            for fkey, f in families.items() if f.lp_plans},
        # KNN / TH edges the family's density asked for but no
        # positive-similarity pair could supply (edge-file provenance)
        "shortfall": {fkey: f.cc_scopes.g.provenance["shortfall"]
                      for fkey, f in families.items()
                      if "shortfall" in f.cc_scopes.g.provenance},
        # Louvain partitions family prep built: CC's on the family's
        # network, LP's on its LP training graph
        "communities": {
            fkey: {task: {"n_communities": comm.n_communities,
                          "modularity": float(comm.modularity)}
                   for task, comm in f.communities().items()}
            for fkey, f in families.items() if f.communities()},
    }
    _atomic_write(out_dir / "manifest.json",
                  json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return out_dir / "results.csv"


# --- serialization of batches and records ---------------------------------------

def _write_batches(path: Path, batches) -> None:
    """batches.tsv, streamed a batch at a time so that its text is never
    held whole."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write("config_key\tpartition\tnode\ttarget\tpredicted\tactual"
                 "\tfallback\n")
        for b in batches:
            fh.write("".join(f"{b.config_key}\t{b.partition}\t{node}"
                             f"\t{target}\t{pred}\t{actual}\t{fb}\n"
                             for node, target, pred, actual, fb in b.rows()))
    os.replace(tmp, path)


def load_batches(path: Path) -> list[PredictionBatch]:
    """The batches of a batches.tsv: each one's task comes from its config
    key, its ``ensemble_fallback`` from the results.csv beside the file."""
    ensemble_fallback = {r.config_key: r.ensemble_fallback for r in
                         load_results(path.with_name("results.csv"))}
    groups: dict[tuple, dict] = {}
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("config_key\t"):
            raise ExperimentError(f"{path}: not a batches file")
        for line in fh:
            key, part, node, target, pred, actual, fb = \
                line.rstrip("\n").split("\t")
            slot = groups.setdefault((key, part), {
                "nodes": [], "targets": [], "pred": [], "act": [],
                "fb": []})
            slot["nodes"].append(int(node))
            slot["targets"].append(target)
            slot["pred"].append(int(pred))
            slot["act"].append(int(actual))
            slot["fb"].append(bool(int(fb)))
    out = []
    for (key, part) in sorted(groups):
        slot = groups[(key, part)]
        out.append(PredictionBatch(
            config_key=key,
            task=config_key_fields(key)["task"],
            partition=part,
            nodes=np.array(slot["nodes"], dtype=np.int64),
            targets=slot["targets"],
            predicted=np.array(slot["pred"], dtype=np.int8),
            actual=np.array(slot["act"], dtype=np.int8),
            fallback=np.array(slot["fb"], dtype=bool),
            ensemble_fallback=ensemble_fallback[key],
        ))
    return out


RESULT_COLUMNS = [
    "config_key", "model", "measure", "density", "locality", "task",
    "clf", "seed", "precision_validation", "precision_testing",
    "n_validation", "n_testing", "fallback_validation",
    "fallback_testing", "degenerate_validation", "degenerate_testing",
    "ensemble_fallback",
]


def _write_results(path: Path, records) -> None:
    rows = [",".join(RESULT_COLUMNS)]
    for r in sorted(records, key=lambda r: r.config_key):
        f = r.fields()
        rows.append(",".join([
            f'"{r.config_key}"', f["model"], f["measure"], f["density"],
            f["locality"], f["task"], f["clf"], f["seed"],
            f"{r.precision_validation:.6f}", f"{r.precision_testing:.6f}",
            str(r.n_validation), str(r.n_testing),
            str(r.fallback_validation), str(r.fallback_testing),
            str(int(r.degenerate_validation)),
            str(int(r.degenerate_testing)),
            str(int(r.ensemble_fallback)),
        ]))
    _atomic_write(path, "\n".join(rows) + "\n")


def load_results(path: Path) -> list[EvaluationRecord]:
    records = []
    with open(path) as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(EvaluationRecord(
                config_key=row["config_key"],
                precision_validation=float(row["precision_validation"]),
                precision_testing=float(row["precision_testing"]),
                n_validation=int(row["n_validation"]),
                n_testing=int(row["n_testing"]),
                fallback_validation=int(row["fallback_validation"]),
                fallback_testing=int(row["fallback_testing"]),
                degenerate_validation=bool(int(
                    row["degenerate_validation"])),
                degenerate_testing=bool(int(row["degenerate_testing"])),
                ensemble_fallback=bool(int(row["ensemble_fallback"])),
            ))
    return records


# --- stage: select ----------------------------------------------------------------

def stage_select(out_dir: Path) -> None:
    """Selection battery from results.csv alone."""
    path = out_dir / "results.csv"
    if not path.exists():
        raise ExperimentError(f"missing evaluate stage output: {path}")
    records = load_results(path)
    cells: dict[tuple[str, str], list[EvaluationRecord]] = {}
    for r in records:
        f = r.fields()
        cells.setdefault((f["task"], f["clf"]), []).append(r)

    sel_rows = ["task,clf,n_configs,mu,mu_top10,delta_mu,p1,"
                "selected_key,selected_testing,delta_p1,rank,tau,tau_p,"
                "tau10,tau10_p,intersection10,k_eff,flag_delta_p1,"
                "flag_rank,flag_intersection,flag_tau"]
    for (task, clf) in sorted(cells):
        recs = cells[(task, clf)]
        if len(recs) < 2:
            continue
        s = selection_stats(recs)
        sel_rows.append(",".join([
            task, clf, str(s.n_configs), f"{s.mu:.6f}",
            f"{s.mu_top10:.6f}", f"{s.delta_mu:.6f}", f"{s.p1:.6f}",
            f'"{s.selected_key}"', f"{s.selected_testing:.6f}",
            f"{s.delta_p1:.6f}", f"{s.rank:.6f}", f"{s.tau:.6f}",
            f"{s.tau_p:.6g}", f"{s.tau10:.6f}", f"{s.tau10_p:.6g}",
            str(s.intersection10), str(s.k_eff),
            str(int(s.flag_delta_p1)), str(int(s.flag_rank)),
            str(int(s.flag_intersection)), str(int(s.flag_tau)),
        ]))
    _atomic_write(out_dir / "selection.csv", "\n".join(sel_rows) + "\n")

    ct_rows = ["clf,selector,evaluator,selected_key,evaluated_key,"
               "delta_p1,rank,missing"]
    clfs = sorted({f["clf"] for r in records for f in [r.fields()]})
    for clf in clfs:
        cc = cells.get(("CC", clf), [])
        lp = cells.get(("LP", clf), [])
        if not cc or not lp:
            continue
        for cell in cross_task(cc, lp):
            ct_rows.append(",".join([
                clf, cell.selector, cell.evaluator,
                f'"{cell.selected_key}"',
                f'"{cell.evaluated_key}"' if cell.evaluated_key else "",
                f"{cell.delta_p1:.6f}" if cell.delta_p1 is not None
                else "",
                f"{cell.rank:.6f}" if cell.rank is not None else "",
                str(int(cell.missing)),
            ]))
    _atomic_write(out_dir / "cross_task.csv", "\n".join(ct_rows) + "\n")

    mm_rows = ["task,clf,group_by,value"]
    for (task, clf) in sorted(cells):
        for group_by in ("locality", "model"):
            try:
                value = match_mismatch(cells[(task, clf)], group_by)
            except SelectionError:
                continue
            mm_rows.append(f"{task},{clf},{group_by},{value:.6f}")
    _atomic_write(out_dir / "match_mismatch.csv",
                  "\n".join(mm_rows) + "\n")


# --- stage: report -----------------------------------------------------------------

def stage_report(out_dir: Path) -> None:
    """Record-level reports from cached batches."""
    for path in (out_dir / "results.csv", out_dir / "batches.tsv"):
        if not path.exists():
            raise ExperimentError(f"missing evaluate stage output: {path}")
    batches = load_batches(out_dir / "batches.tsv")
    rows = ["task,clf,node,n_records,precision"]
    for row in node_difficulty(batches):
        rows.append(f"{row.task},{row.classifier},{row.node},"
                    f"{row.n_records},{row.precision:.6f}")
    _atomic_write(out_dir / "node_difficulty.csv", "\n".join(rows) + "\n")


# --- the whole pipeline ---------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_ingest(cfg, out_dir)
    stage_infer(cfg, out_dir)
    stage_evaluate(cfg, out_dir)
    stage_select(out_dir)
    stage_report(out_dir)
    return out_dir
