"""Experiment pipeline: dataset -> networks -> task grid -> selection.

Each stage reads the previous stage's files and writes its own, so the
stages are independently invocable; run_experiment chains them and is
byte-identical to running the stages one at a time. All randomness is
derived from one master seed plus content tags, never from scheduling, so
the worker count cannot change any output file.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import platform
import re
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._rng import derive_seed
from .community import louvain
from .data import (PartitionedDataset, build_dataset, ingest_events,
                   load_dataset, load_label_rules, save_dataset,
                   save_label_rules)
from .graph import (EdgeSet, NeighborhoodSpec, load_edgeset,
                    load_explicit_edges, save_edgeset, split_edges_random)
from .learn import RFHyper, SVMHyper, _integer
from .selection import (EvaluationRecord, SelectionError, cross_task,
                        match_mismatch, node_difficulty,
                        records_from_batches, selection_stats)
from .similarity import NetworkModelSpec
from .synth import PlantSpec, synth_bundle
from .tasks import (ClassifierPool, LeakageAudit, ModelConfig,
                    PredictionBatch, _fmt_density, assign_lp_eval,
                    config_key_fields, run_cc, run_lp)

LP_SPLIT = (0.5, 0.25, 0.25)
CONFIG_KEYS = ("dataset", "grid", "seed", "workers", "out", "svm", "rf")
GRID_KEYS = ("models", "measures", "densities", "explicit", "localities",
             "tasks", "classifiers")


class ExperimentError(ValueError):
    pass


def _reject_unknown(block: dict, known, path: str) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ExperimentError("unknown config key: "
                              + ", ".join(path + k for k in unknown))


@dataclass
class ExperimentConfig:
    """Parsed experiment file; every field has a working default so a
    minimal config only names a dataset."""

    dataset: dict
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
        """Parse a config; an unknown key, say a misspelled grid axis, or
        a scalar of the wrong type raises ExperimentError naming its path
        instead of leaving the default in place or coercing the value."""
        _reject_unknown(raw, CONFIG_KEYS, "")
        grid = raw.get("grid", {})
        _reject_unknown(grid, GRID_KEYS, "grid.")
        for name, hyper in (("svm", SVMHyper), ("rf", RFHyper)):
            _reject_unknown(raw.get(name) or {},
                            [f.name for f in fields(hyper)], f"{name}.")
        workers = _integer(raw.get("workers", 1), "workers", ExperimentError)
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers!r}")
        dataset = raw.get("dataset", {})
        if not isinstance(dataset.get("strict", False), bool):
            raise ExperimentError(f"dataset.strict must be true or false, "
                                  f"got {dataset['strict']!r}")
        synth = dataset.get("synth")
        if synth is not None and not isinstance(synth, dict):
            raise ExperimentError(f"dataset.synth must be an object, "
                                  f"got {synth!r}")
        for key, least in (("seed", None), ("n_nodes", 1), ("n_items", 1)):
            if synth is None or key not in synth:
                continue
            name = f"dataset.synth.{key}"
            value = _integer(synth[key], name, ExperimentError)
            if least is not None and value < least:
                raise ExperimentError(f"{name} must be >= {least}, "
                                      f"got {value!r}")
        return ExperimentConfig(
            dataset=dataset,
            models=list(grid.get("models", ["KNN", "TH"])),
            measures=list(grid.get("measures", ["INT", "INT-N"])),
            densities=[float(d) for d in grid.get("densities",
                                                  [0.0025, 0.005])],
            explicit=list(grid.get("explicit", [])),
            localities=list(grid.get("localities",
                                     ["local-adjacency", "global"])),
            tasks=list(grid.get("tasks", ["CC", "LP"])),
            classifiers=list(grid.get("classifiers", ["linear-svm"])),
            seed=_integer(raw.get("seed", 0), "seed", ExperimentError),
            workers=workers,
            out=str(raw.get("out", "out")),
            svm=SVMHyper.from_dict(raw.get("svm")),
            rf=RFHyper.from_dict(raw.get("rf")),
        )

    @staticmethod
    def load(path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


# --- stage: ingest -------------------------------------------------------------

def stage_ingest(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Build (or generate) the partitioned dataset and persist it."""
    ds_dir = out_dir / "dataset"
    ds_dir.mkdir(parents=True, exist_ok=True)
    dcfg = cfg.dataset
    if dcfg.get("synth") is not None:
        s = dcfg["synth"]
        plant = PlantSpec(**s.get("plant", {}))
        bundle = synth_bundle(
            seed=int(s.get("seed", cfg.seed)),
            n_nodes=int(s.get("n_nodes", 500)),
            n_items=int(s.get("n_items", 1000)),
            plant=plant,
        )
        dataset = build_dataset(bundle.log, bundle.rules,
                                boundaries=bundle.boundaries,
                                aggregation=dcfg.get("aggregation", "sum"))
        save_dataset(dataset, ds_dir)
        save_label_rules(bundle.rules, ds_dir / "rules.json")
        save_edgeset(bundle.label_graph, ds_dir / "truth_label.tsv")
        save_edgeset(bundle.structure_graph, ds_dir / "truth_structure.tsv")
        return ds_dir
    events = dcfg.get("events")
    if not events:
        raise ExperimentError("dataset block needs 'events' or 'synth'")
    if not Path(events).exists():
        raise ExperimentError(f"events file not found: {events}")
    rules_path = dcfg.get("rules")
    if not rules_path:
        raise ExperimentError("event datasets need a 'rules' file")
    log = ingest_events(events, strict=dcfg.get("strict", False))
    rules = load_label_rules(rules_path)
    bounds = dcfg.get("boundaries")
    dataset = build_dataset(
        log, rules,
        boundaries=tuple(bounds) if bounds else None,
        aggregation=dcfg.get("aggregation", "sum"),
    )
    save_dataset(dataset, ds_dir)
    save_label_rules(rules, ds_dir / "rules.json")
    return ds_dir


# --- stage: infer ---------------------------------------------------------------

def family_specs(cfg: ExperimentConfig) -> list[NetworkModelSpec]:
    """The network grid in canonical order."""
    specs = []
    for model in sorted(cfg.models):
        for measure in sorted(cfg.measures):
            for density in sorted(cfg.densities):
                specs.append(NetworkModelSpec(model=model, measure=measure,
                                              density=density))
    for entry in cfg.explicit:
        for factor in entry.get("factors", [1.0]):
            name = entry["name"] if float(factor) == 1.0 \
                else f"{entry['name']}@{factor}"
            specs.append(NetworkModelSpec(model="EXPLICIT", edges=name))
    return specs


def family_key(spec: NetworkModelSpec) -> str:
    if spec.model == "EXPLICIT":
        return f"EXPLICIT-{_safe_name(spec.edges)}"
    return f"{spec.model}-{spec.measure}-{_fmt_density(spec.density)}"


def _resolve_explicit(entry: dict, factor: float, ds_dir: Path,
                      n_nodes: int, seed: int) -> EdgeSet:
    source = entry["source"]
    if source.startswith("synth:"):
        tag = source.split(":", 1)[1]
        g = load_edgeset(ds_dir / f"truth_{tag}.tsv")
    else:
        head = Path(source).read_text().lstrip()[:2] \
            if Path(source).exists() else ""
        if head.startswith("#"):
            g = load_edgeset(source)
        else:
            g = load_explicit_edges(source, n_nodes)
    if factor < 1.0:
        keep = max(1, int(round(factor * g.n_edges)))
        rng = np.random.Generator(np.random.PCG64(
            derive_seed(seed, "explicit-thin", entry["name"], factor)))
        sel = np.sort(rng.choice(g.n_edges, size=keep, replace=False))
        g = EdgeSet(n_nodes=g.n_nodes, src=g.src[sel], dst=g.dst[sel],
                    weights=g.weights[sel], directed=g.directed,
                    provenance=dict(g.provenance, density_factor=factor))
    return g


def stage_infer(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Build every network in the grid from the training partition (or
    load explicit ones) and write one edge file per family."""
    ds_dir = out_dir / "dataset"
    if not (ds_dir / "dataset.json").exists():
        raise ExperimentError(f"missing dataset stage output: {ds_dir}")
    dataset = load_dataset(ds_dir)
    net_dir = out_dir / "networks"
    net_dir.mkdir(parents=True, exist_ok=True)
    train_m = dataset.matrix("training")
    by_name = {e["name"]: e for e in cfg.explicit}
    for spec in family_specs(cfg):
        if spec.model == "EXPLICIT":
            name, _, factor = spec.edges.partition("@")
            g = _resolve_explicit(by_name[name],
                                  float(factor) if factor else 1.0,
                                  ds_dir, dataset.n_nodes, cfg.seed)
            g.provenance.setdefault("model", "EXPLICIT")
            g.provenance["edges"] = spec.edges
        else:
            g = spec.build(train_m)
        save_edgeset(g, net_dir / f"{family_key(spec)}.tsv")
    return net_dir


# --- stage: evaluate ------------------------------------------------------------

@dataclass
class FamilyData:
    """Everything one network family shares across its config cells."""

    spec: NetworkModelSpec
    graph: EdgeSet
    comm_cc: object
    lp_train: EdgeSet
    lp_plans: dict
    comm_lp: object
    excl_keys: np.ndarray
    audit: LeakageAudit


def prepare_family(spec: NetworkModelSpec, g: EdgeSet, master_seed: int,
                   need_cc_comm: bool, need_lp: bool,
                   need_lp_comm: bool) -> FamilyData:
    fkey = family_key(spec)
    audit = LeakageAudit()
    comm_cc = louvain(g, derive_seed(master_seed, "louvain", fkey, "CC")) \
        if need_cc_comm else None
    lp_train = None
    lp_plans = {}
    comm_lp = None
    excl = np.empty(0, dtype=np.int64)
    if need_lp:
        und = g.undirected_view()
        parts = split_edges_random(und, LP_SPLIT,
                                   derive_seed(master_seed, "lp-split",
                                               fkey))
        lp_train = parts[0]
        for role, part in (("validation", parts[1]), ("testing", parts[2])):
            lp_plans[role] = assign_lp_eval(
                und, part, role,
                derive_seed(master_seed, "lp-eval", fkey), audit)
        excl = np.union1d(und.pair_keys(),
                          np.union1d(lp_plans["validation"].reserved_keys,
                                     lp_plans["testing"].reserved_keys))
        if need_lp_comm:
            comm_lp = louvain(lp_train,
                              derive_seed(master_seed, "louvain", fkey,
                                          "LP"))
    return FamilyData(spec=spec, graph=g, comm_cc=comm_cc,
                      lp_train=lp_train, lp_plans=lp_plans,
                      comm_lp=comm_lp, excl_keys=excl, audit=audit)


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


def evaluate_config(family: FamilyData, dataset: PartitionedDataset,
                    config: ModelConfig) -> dict:
    """Run one config on both evaluation partitions."""
    audit = LeakageAudit()
    pool = ClassifierPool(config)
    t0 = time.perf_counter()
    batches = []
    if config.task == "CC":
        for role in ("validation", "testing"):
            batches.append(run_cc(config, family.graph, dataset, role,
                                  comm=family.comm_cc, audit=audit,
                                  pool=pool))
    else:
        matrix = dataset.matrix("training")
        for role in ("validation", "testing"):
            batches.append(run_lp(config, family.lp_train,
                                  family.lp_plans[role], matrix,
                                  excl_keys=family.excl_keys,
                                  comm=family.comm_lp, audit=audit,
                                  pool=pool))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "config_key": config.config_key,
        "batches": batches,
        "assertions": audit.assertions,
        "violations": audit.violations,
        "wall_ms": wall_ms,
        "single_class": pool.single_class,
        "pool_hits": pool.hits,
    }


_WORKER_STATE: dict = {}


def _worker_eval(item) -> dict:
    fkey, config = item
    try:
        return evaluate_config(_WORKER_STATE["families"][fkey],
                               _WORKER_STATE["dataset"], config)
    except Exception as exc:
        # a plain message pickles cleanly across the worker boundary
        raise ExperimentError(
            f"config {config.config_key} failed: {exc}") from None


def stage_evaluate(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Evaluate the whole grid and write batches.tsv plus results.csv."""
    ds_dir = out_dir / "dataset"
    net_dir = out_dir / "networks"
    if not (ds_dir / "dataset.json").exists():
        raise ExperimentError(f"missing dataset stage output: {ds_dir}")
    dataset = load_dataset(ds_dir)
    cells = build_grid(cfg)
    need_cc_comm = {}
    need_lp = {}
    need_lp_comm = {}
    for fkey, config in cells:
        loc = config.locality.locality
        if config.task == "CC" and loc == "community":
            need_cc_comm[fkey] = True
        if config.task == "LP":
            need_lp[fkey] = True
            if loc == "community":
                need_lp_comm[fkey] = True
    families = {}
    for spec in family_specs(cfg):
        fkey = family_key(spec)
        path = net_dir / f"{fkey}.tsv"
        if not path.exists():
            raise ExperimentError(f"missing network stage output: {path}")
        g = load_edgeset(path)
        families[fkey] = prepare_family(
            spec, g, cfg.seed,
            need_cc_comm.get(fkey, False),
            need_lp.get(fkey, False),
            need_lp_comm.get(fkey, False),
        )

    _WORKER_STATE["families"] = families
    _WORKER_STATE["dataset"] = dataset
    try:
        if cfg.workers > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=cfg.workers) as pool:
                payloads = pool.map(_worker_eval, cells, chunksize=1)
        else:
            payloads = [_worker_eval(c) for c in cells]
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
        # a config's pool spans both partitions; each batch notes its
        # running total
        "classifiers_trained": {
            p["config_key"]: max(b.notes["classifiers_trained"]
                                 for b in p["batches"])
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
        "shortfall": {fkey: f.graph.provenance["shortfall"]
                      for fkey, f in families.items()
                      if "shortfall" in f.graph.provenance},
        # Louvain partitions family prep built: CC's on the family's
        # network, LP's on its LP training graph
        "communities": {
            fkey: {task: {"n_communities": comm.n_communities,
                          "modularity": float(comm.modularity)}
                   for task, comm in (("CC", f.comm_cc), ("LP", f.comm_lp))
                   if comm is not None}
            for fkey, f in families.items()
            if f.comm_cc is not None or f.comm_lp is not None},
    }
    _atomic_write(out_dir / "manifest.json",
                  json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return out_dir / "results.csv"


# --- serialization of batches and records ---------------------------------------

def _write_batches(path: Path, batches) -> None:
    lines = ["config_key\tpartition\tnode\ttarget\tpredicted\tactual"
             "\tfallback"]
    meta = {}
    for b in batches:
        meta.setdefault(b.config_key, {})[b.partition] = {
            "ensemble_fallback": b.ensemble_fallback,
            "task": b.task,
            "notes": b.notes,
        }
        for node, target, pred, actual, fb in b.rows():
            lines.append(f"{b.config_key}\t{b.partition}\t{node}\t{target}"
                         f"\t{pred}\t{actual}\t{fb}")
    _atomic_write(path, "\n".join(lines) + "\n")
    _atomic_write(path.with_name("batches_meta.json"),
                  json.dumps(meta, indent=1, sort_keys=True) + "\n")


def load_batches(path: Path) -> list[PredictionBatch]:
    meta = json.loads(path.with_name("batches_meta.json").read_text())
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
        m = meta.get(key, {}).get(part, {})
        out.append(PredictionBatch(
            config_key=key,
            task=m.get("task", config_key_fields(key).get("task", "CC")),
            partition=part,
            nodes=np.array(slot["nodes"], dtype=np.int64),
            targets=slot["targets"],
            predicted=np.array(slot["pred"], dtype=np.int8),
            actual=np.array(slot["act"], dtype=np.int8),
            fallback=np.array(slot["fb"], dtype=bool),
            ensemble_fallback=bool(m.get("ensemble_fallback", False)),
            notes=m.get("notes", {}),
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
    path = out_dir / "batches.tsv"
    if not path.exists():
        raise ExperimentError(f"missing evaluate stage output: {path}")
    batches = load_batches(path)
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
