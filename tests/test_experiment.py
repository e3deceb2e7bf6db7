"""Pipeline tests: one small end-to-end run shared across assertions,
plus stage chaining, reruns under different worker counts, explicit
network thinning, and the CLI front end."""

import dataclasses
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from netsel import graph, similarity
from netsel.cli import _load_config, build_parser, main
from netsel.data import load_dataset, save_label_rules
from netsel.experiment import (
    DatasetSpec,
    ExperimentConfig,
    ExperimentError,
    ExplicitSpec,
    build_grid,
    dataset_digest,
    family_key,
    family_specs,
    load_batches,
    load_results,
    prepare_family,
    run_experiment,
    stage_evaluate,
    stage_infer,
    stage_ingest,
    stage_report,
    stage_select,
)
from netsel.graph import load_edgeset
from netsel.learn import LearnError, RFHyper, SVMHyper
from netsel.selection import records_from_batches
from netsel.synth import PlantSpec, SynthSpec, synth_bundle
from netsel.tasks import (ClassifierPool, PredictionBatch, config_key_fields,
                          run_cc, run_lp)

GRID = {
    "models": ["KNN", "TH"],
    "measures": ["INT"],
    "densities": [0.02],
    "localities": ["local-adjacency", "local-bfs:20", "community",
                   "ensemble:degree", "global:100"],
    "tasks": ["CC", "LP"],
    "classifiers": ["linear-svm"],
}
N_CONFIGS = 2 * 1 * 1 * 5 * 2 * 1

REPORT_FILES = ["results.csv", "batches.tsv", "selection.csv",
                "cross_task.csv", "match_mismatch.csv",
                "node_difficulty.csv"]


def make_config(out, workers=1):
    return {
        "dataset": {"synth": {"seed": 5, "n_nodes": 60, "n_items": 150}},
        "grid": dict(GRID),
        "seed": 7,
        "workers": workers,
        "out": str(out),
    }


def csv_rows(path):
    lines = Path(path).read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe") / "run"
    run_experiment(ExperimentConfig.from_dict(make_config(out)))
    return out


def rerun_config(pipe, task, locality):
    """One config of the pipeline run evaluated afresh from its dataset
    and network files: ``prepare_family``, then ``run_cc`` / ``run_lp`` on
    both partitions with one pool. Returns the config key and the pool."""
    cfg = ExperimentConfig.from_dict(make_config(pipe))
    fkey, config = next((f, c) for f, c in build_grid(cfg) if c.task == task
                        and c.locality.key() == locality)
    fam = prepare_family(config.network,
                         load_edgeset(pipe / "networks" / f"{fkey}.tsv"),
                         cfg.seed, {(task, config.locality.locality)})
    dataset = load_dataset(pipe / "dataset")
    pool = ClassifierPool(config)
    for role in ("validation", "testing"):
        if task == "CC":
            run_cc(config, fam.cc_scopes, dataset, role, pool=pool)
        else:
            run_lp(config, fam.lp_scopes, fam.lp_plans[role],
                   dataset.matrix("training"), pool=pool)
    return config.config_key, pool


# --- grid construction (pure, no files) ---------------------------------------


class TestGrid:
    def test_family_specs_canonical_order(self):
        cfg = ExperimentConfig.from_dict(make_config("unused"))
        keys = [family_key(s) for s in family_specs(cfg)]
        assert keys == ["KNN-INT-0.02", "TH-INT-0.02"]

    def test_explicit_families_follow_attribute_ones(self):
        raw = make_config("unused")
        raw["grid"]["explicit"] = [
            {"name": "tl", "source": "synth:label", "factors": [0.5, 1.0]},
        ]
        cfg = ExperimentConfig.from_dict(raw)
        keys = [family_key(s) for s in family_specs(cfg)]
        assert keys == ["KNN-INT-0.02", "TH-INT-0.02",
                        "EXPLICIT-tl_0.5", "EXPLICIT-tl"]

    def test_build_grid_sorted_and_unique(self):
        cfg = ExperimentConfig.from_dict(make_config("unused"))
        cells = build_grid(cfg)
        assert len(cells) == N_CONFIGS
        keys = [c.config_key for _, c in cells]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("block, key, path", [
        ("grid", "localites", "grid.localites"),
        (None, "seeed", "seeed"),
        ("svm", "regularization", "svm.regularization"),
        ("rf", "tree", "rf.tree"),
        ("dataset", "agregation", "dataset.agregation"),
        ("dataset.synth", "seeed", "dataset.synth.seeed"),
        ("dataset.synth.plant", "n_group", "dataset.synth.plant.n_group"),
    ])
    def test_unknown_config_keys_are_fatal(self, block, key, path):
        raw = make_config("unused")
        raw.setdefault("svm", {})
        raw.setdefault("rf", {})
        raw["dataset"]["synth"]["plant"] = {"n_groups": 2}
        target = raw
        for b in block.split(".") if block else ():
            target = target[b]
        target[key] = ["community"]
        with pytest.raises(ExperimentError, match=path):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("locality", [
        "local-adjacency:5", "community:3", "local-bfs:x", "global:2.5",
        "local-bfs:",
    ])
    def test_bad_locality_strings_fail_at_load(self, locality):
        raw = make_config("unused")
        raw["grid"]["localities"] = ["global", locality]
        with pytest.raises(ExperimentError,
                           match=f"^grid.localities: .*'{locality}'"):
            ExperimentConfig.from_dict(raw)


    @pytest.mark.parametrize("block, key, value", [
        ("svm", "reg", 0),
        ("svm", "reg", -1e-4),
        ("svm", "reg", float("nan")),
        ("svm", "reg", float("inf")),
        ("svm", "epochs", 0),
        ("rf", "trees", 0),
        ("rf", "min_leaf", 0),
        ("rf", "feature_frac", "log2"),
        ("rf", "feature_frac", 0),
        ("rf", "feature_frac", 1.5),
        ("rf", "feature_frac", True),
    ])
    def test_bad_learner_hyperparameters_are_fatal(self, block, key, value):
        raw = make_config("unused")
        raw[block] = {key: value}
        with pytest.raises(LearnError, match=f"{block}\\.{key}"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("block, key, value", [
        ("rf", "bootstrap", "false"),
        ("rf", "bootstrap", 0),
        ("rf", "bootstrap", None),
        ("rf", "trees", 2.9),
        ("rf", "trees", True),
        ("rf", "trees", "3"),
        ("rf", "max_depth", -3),
        ("rf", "max_depth", 0),
        ("rf", "max_depth", 2.5),
        ("rf", "max_depth", False),
        ("rf", "min_leaf", 1.5),
        ("rf", "min_leaf", True),
        ("rf", "min_leaf", float("nan")),
        ("svm", "epochs", 2.7),
        ("svm", "epochs", True),
        ("svm", "epochs", float("inf")),
        ("svm", "reg", "abc"),
        ("svm", "reg", "1e-4"),
        ("svm", "reg", True),
        ("svm", "reg", None),
    ])
    def test_hyperparameters_are_not_coerced(self, block, key, value):
        raw = make_config("unused")
        raw[block] = {key: value}
        with pytest.raises(LearnError, match=f"{block}\\.{key}"):
            ExperimentConfig.from_dict(raw)

    def test_integral_hyperparameters_load_as_ints(self):
        raw = make_config("unused")
        raw["svm"] = {"reg": 1, "epochs": 3.0}
        raw["rf"] = {"trees": 2.0, "max_depth": 1, "min_leaf": 2.0,
                     "bootstrap": False}
        raw.update(seed=2.0, workers=3.0)
        raw["dataset"]["strict"] = True
        cfg = ExperimentConfig.from_dict(raw)
        assert (cfg.seed, cfg.workers, cfg.dataset.strict) == (2, 3, True)
        assert (cfg.svm.reg, cfg.svm.epochs) == (1.0, 3)
        assert (cfg.rf.trees, cfg.rf.max_depth, cfg.rf.min_leaf,
                cfg.rf.bootstrap) == (2, 1, 2, False)
        for v in (cfg.svm.epochs, cfg.rf.trees, cfg.rf.min_leaf, cfg.seed,
                  cfg.workers):
            assert type(v) is int
        assert ExperimentConfig.from_dict(make_config("x")).rf == RFHyper()

    @pytest.mark.parametrize("key, value", [
        ("seed", 2.9),
        ("seed", True),
        ("seed", "3"),
        ("seed", None),
        ("seed", float("nan")),
        ("workers", "3"),
        ("workers", 2.5),
        ("workers", False),
        ("workers", 0),
        ("workers", -2),
        ("dataset.strict", "false"),
        ("dataset.strict", 1),
        ("dataset.strict", None),
        ("dataset.synth.seed", 2.9),
        ("dataset.synth.seed", "5"),
        ("dataset.synth.seed", True),
        ("dataset.synth.n_nodes", "60"),
        ("dataset.synth.n_nodes", 60.5),
        ("dataset.synth.n_nodes", 0),
        ("dataset.synth.n_items", None),
        ("dataset.synth.n_items", -1),
        ("dataset.synth", 5),
        ("dataset.synth.plant.n_groups", "3"),
        ("dataset.synth.plant.n_groups", True),
        ("dataset.synth.plant.weight_lo", 6.5),
        ("dataset.synth.plant.segments", None),
        ("dataset.synth.plant.noise_high_prob", "0.5"),
        ("dataset.synth.plant.noise_high_prob", True),
        ("dataset.synth.plant.label_min_value", None),
        ("dataset.synth.plant.emit_items", 2.5),
        ("dataset.synth.plant.doppel_emit", "4"),
        ("dataset.synth.plant.refresh_per_segment", 1),
        ("dataset.synth.plant.refresh_per_segment", None),
        ("dataset.boundaries", 5),
        ("dataset.boundaries", [10, 20]),
    ])
    def test_config_scalars_are_not_coerced(self, key, value):
        raw = make_config("unused")
        *blocks, name = key.split(".")
        block = raw
        for b in blocks:
            block = block.setdefault(b, {})
        block[name] = value
        with pytest.raises(ExperimentError, match=f"^{key} must be"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("dataset", 5),
        ("grid", []),
        ("svm", 3),
        ("svm", None),
        ("rf", "x"),
        ("grid.models", "KNN"),
        ("grid.densities", "ab"),
        ("grid.densities", ["0.01"]),
        ("grid.densities", [True]),
        ("grid.models", [5]),
        ("grid.localities", [3]),
        ("grid.explicit", [5]),
        ("grid.localities", {"global": 1}),
        ("grid.explicit", None),
        ("dataset.synth.plant", 5),
        ("dataset.synth.plant", None),
        ("dataset.events", 5),
        ("dataset.rules", ["r.json"]),
        ("dataset.aggregation", None),
        ("out", 5),
    ])
    def test_config_blocks_and_axes_of_the_wrong_type_are_fatal(self, key,
                                                                value):
        raw = make_config("unused")
        *blocks, name = key.split(".")
        block = raw
        for b in blocks:
            block = block[b]
        block[name] = value
        with pytest.raises(ExperimentError, match=f"^{key} must "):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("path, field, kind, error", [
        pytest.param(path, f.name, f.type, error, id=f"{path}.{f.name}")
        for path, cls, error in (("svm", SVMHyper, LearnError),
                                 ("rf", RFHyper, LearnError),
                                 ("dataset", DatasetSpec, ExperimentError),
                                 ("dataset.synth", SynthSpec,
                                  ExperimentError),
                                 ("dataset.synth.plant", PlantSpec,
                                  ExperimentError),
                                 ("grid.explicit[0]", ExplicitSpec,
                                  ExperimentError))
        for f in dataclasses.fields(cls)])
    def test_every_typed_field_refuses_a_wrong_json_type(self, path, field,
                                                         kind, error):
        # a string for a field of any other type; a field that also takes
        # a string (feature_frac, a file name) gets a list
        raw = make_config("unused")
        raw["grid"]["explicit"] = [{"name": "e", "source": "synth:label"}]
        block = raw
        for b in path.replace("[0]", ".0").split("."):
            block = block[0] if b == "0" else block.setdefault(b, {})
        block[field] = [0.5] if "str" in kind.split(" | ") else "1"
        with pytest.raises(error, match="^" + re.escape(f"{path}.{field}")
                                        + " must be"):
            ExperimentConfig.from_dict(raw)

    def test_a_config_that_is_not_an_object_is_fatal(self):
        with pytest.raises(ExperimentError, match="^config must be"):
            ExperimentConfig.from_dict(["grid"])

    def test_integral_synth_values_load(self):
        raw = make_config("unused")
        raw["dataset"]["synth"] = {"seed": -3, "n_nodes": 1, "n_items": 2.0}
        synth = ExperimentConfig.from_dict(raw).dataset.synth
        assert (synth.seed, synth.n_nodes, synth.n_items) == (-3, 1, 2.0)

    def test_plant_values_load_by_their_field_types(self):
        raw = make_config("unused")
        raw["dataset"]["synth"]["plant"] = {
            "n_groups": 2.0, "emit_items": None, "doppel_emit": 3.0,
            "noise_high_prob": 1, "label_min_value": 4.5,
            "refresh_per_segment": True}
        plant = ExperimentConfig.from_dict(raw).dataset.synth.plant
        assert plant == PlantSpec(n_groups=2, emit_items=None,
                                  doppel_emit=3, noise_high_prob=1,
                                  label_min_value=4.5,
                                  refresh_per_segment=True)
        assert type(plant.n_groups) is int
        assert type(plant.doppel_emit) is int

    @pytest.mark.parametrize("value, error", [
        (5, "dataset.boundaries must be a list of two integers"),
        ("10,20", "dataset.boundaries must be a list of two integers"),
        ([10], "dataset.boundaries must be a list of two integers"),
        ([10, 20, 30], "dataset.boundaries must be a list of two integers"),
        ([10, 20.5], r"dataset.boundaries\[1\] must be an integer"),
        (["10", 20], r"dataset.boundaries\[0\] must be an integer"),
        ([True, 20], r"dataset.boundaries\[0\] must be an integer"),
    ])
    def test_event_boundaries_must_be_two_integers(self, value, error):
        raw = make_config("unused")
        raw["dataset"] = {"events": "e.tsv", "rules": "r.json",
                          "boundaries": value}
        with pytest.raises(ExperimentError, match=f"^{error}"):
            ExperimentConfig.from_dict(raw)

    def test_event_boundaries_load(self):
        raw = make_config("unused")
        raw["dataset"] = {"events": "e.tsv", "rules": "r.json"}
        for value, want in (([10.0, 20], (10, 20)), (None, None)):
            raw["dataset"]["boundaries"] = value
            got = ExperimentConfig.from_dict(raw).dataset.boundaries
            assert got == want and all(type(t) is int for t in got or [])

    def test_learner_hyperparameter_bounds_load(self):
        raw = make_config("unused")
        raw["svm"] = {"reg": 1e-9, "epochs": 1}
        for frac in ("sqrt", 1e-3, 0.5, 1, 1.0):
            raw["rf"] = {"trees": 1, "min_leaf": 1, "feature_frac": frac}
            cfg = ExperimentConfig.from_dict(raw)
            assert cfg.rf.feature_frac == frac and cfg.svm.epochs == 1

    @pytest.mark.parametrize("axis, value", [
        ("classifiers", "svm"),
        ("tasks", "NC"),
        ("models", "KNNN"),
        ("measures", "JAC"),
        ("densities", -0.1),
        ("densities", 0),
    ])
    def test_grid_values_no_stage_takes_are_fatal(self, axis, value):
        raw = make_config("unused")
        raw["grid"][axis] = [value]
        with pytest.raises(ExperimentError, match=f"^grid\\.{axis}\\b.*"
                                                  + re.escape(repr(value))):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("grid, error", [
        ({"models": ["KNN", "TH", "KNN"]},
         r"grid\.models must hold KNN or TH, each once, got 'KNN'"),
        ({"localities": ["global:100", "global:100"]},
         r"grid\.localities must hold strings, each once, got 'global:100'"),
        ({"explicit": [{"name": "a b", "source": "synth:label"},
                       {"name": "a_b", "source": "synth:structure"}]},
         "grid names the network family EXPLICIT-a_b twice"),
        ({"explicit": [{"name": "a", "source": "synth:label"},
                       {"name": "a@0.5", "source": "synth:structure"}]},
         "grid names the network family EXPLICIT-a_0.5 twice"),
    ], ids=["model", "locality", "explicit-file-name", "explicit-factor"])
    def test_grid_values_named_twice_are_fatal(self, grid, error):
        raw = make_config("unused")
        raw["grid"].update(grid)
        if "explicit" in grid:
            raw["grid"]["explicit"][0]["factors"] = [0.5, 1.0]
        with pytest.raises(ExperimentError, match=f"^{error}"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("entries, error", [
        ([{"name": "a", "source": "s", "factor": [0.5]}],
         r"grid\.explicit\[0\]\.factor: unknown key"),
        ([{"name": "a", "source": 5}],
         r"grid\.explicit\[0\]\.source must be a string, got 5"),
        ([{"name": "a", "source": "s", "factors": [True, "0.5"]}],
         r"grid\.explicit\[0\]\.factors\[0\] must be a number, got True"),
        ([{"name": "a", "source": "s", "factors": [0.5, 1.5]}],
         r"grid\.explicit\[0\]: factors must be .* in \(0, 1\], "
         r"got \[0\.5, 1\.5\]"),
        ([{"name": "a", "source": "s", "factors": [0]}],
         r"grid\.explicit\[0\]: factors must be .* in \(0, 1\], got \[0"),
        ([{"source": "s"}], r"grid\.explicit\[0\]\.name: missing key"),
        ([{"name": "a", "source": "s"}, {"name": "b"}],
         r"grid\.explicit\[1\]\.source: missing key"),
        ([{"name": "a", "source": "s"}, {"name": "a", "source": "t"}],
         "grid names the network family EXPLICIT-a twice"),
    ], ids=["factor-typo", "numeric-source", "non-number-factors",
            "factor-above-one", "zero-factor", "missing-name",
            "missing-source", "duplicate-name"])
    def test_bad_explicit_entries_are_fatal(self, entries, error):
        raw = make_config("unused")
        raw["grid"]["explicit"] = entries
        with pytest.raises(ExperimentError, match=f"^{error}"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("dataset, error", [
        ({"synth": {}, "events": "e.tsv", "rules": "r.json"},
         "dataset must name exactly one source"),
        ({}, "dataset must name exactly one source"),
        (None, "dataset must name exactly one source"),
        ({"rules": "r.json"}, "dataset must name exactly one source"),
        ({"events": "e.tsv"}, r"dataset\.rules must be given with "
                              r"dataset\.events, and only with it"),
        ({"synth": {}, "rules": "r.json"},
         r"dataset\.rules must be given with dataset\.events, and only "
         r"with it"),
        ({"synth": {}, "boundaries": [10, 20]},
         r"dataset\.boundaries must be left out without dataset\.events"),
        ({"events": "e.tsv", "rules": "r.json", "aggregation": "avg"},
         r"dataset\.aggregation must be 'sum' or 'mean', got 'avg'"),
    ], ids=["synth-and-events", "no-source", "no-dataset", "rules-only",
            "events-without-rules", "rules-next-to-synth",
            "boundaries-next-to-synth", "unknown-aggregation"])
    def test_bad_dataset_blocks_are_fatal(self, dataset, error):
        raw = make_config("unused")
        raw["dataset"] = dataset
        if dataset is None:  # no dataset block at all
            del raw["dataset"]
        with pytest.raises(ExperimentError, match=f"^{error}"):
            ExperimentConfig.from_dict(raw)

    def test_readme_quick_start_config_loads(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        quick_start = text.split("## Quick start", 1)[1]
        block = quick_start.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = ExperimentConfig.from_dict(json.loads(block))
        assert cfg.dataset.synth is not None and cfg.classifiers


# --- the end-to-end run ---------------------------------------------------------


class TestPipelineOutputs:
    def test_all_artifacts_exist(self, pipe):
        for name in REPORT_FILES + ["manifest.json"]:
            assert (pipe / name).exists(), name
        # the results and the config keys hold every per-config counter
        assert not (pipe / "batches_meta.json").exists()
        for name in ("dataset.json", "rules.json", "truth_label.tsv",
                     "truth_structure.tsv"):
            assert (pipe / "dataset" / name).exists(), name
        for fam in ("KNN-INT-0.02", "TH-INT-0.02"):
            assert (pipe / "networks" / f"{fam}.tsv").exists(), fam

    def test_results_rows(self, pipe):
        rows = csv_rows(pipe / "results.csv")
        assert len(rows) == N_CONFIGS
        keys = [r["config_key"] for r in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for r in rows:
            assert 0.0 <= float(r["precision_validation"]) <= 1.0
            assert 0.0 <= float(r["precision_testing"]) <= 1.0
            assert int(r["n_validation"]) >= 0

    def test_selection_rows(self, pipe):
        rows = csv_rows(pipe / "selection.csv")
        assert [(r["task"], r["clf"]) for r in rows] == [
            ("CC", "linear-svm"), ("LP", "linear-svm")]
        for r in rows:
            assert int(r["n_configs"]) == N_CONFIGS // 2
            assert float(r["delta_p1"]) <= 1e-12
            assert 0.0 <= float(r["rank"]) <= 1.0

    def test_cross_task_rows(self, pipe):
        rows = csv_rows(pipe / "cross_task.csv")
        assert [(r["selector"], r["evaluator"]) for r in rows] == [
            ("CC", "CC"), ("CC", "LP"),
            ("LP", "CC"), ("LP", "LP"),
            ("AVG", "CC"), ("AVG", "LP"),
        ]
        assert all(r["clf"] == "linear-svm" for r in rows)
        # every network exists under both tasks, so nothing is missing
        assert all(r["missing"] == "0" for r in rows)

    def test_match_mismatch_rows(self, pipe):
        rows = csv_rows(pipe / "match_mismatch.csv")
        assert [(r["task"], r["group_by"]) for r in rows] == [
            ("CC", "locality"), ("CC", "model"),
            ("LP", "locality"), ("LP", "model"),
        ]

    def test_node_difficulty_rows(self, pipe):
        rows = csv_rows(pipe / "node_difficulty.csv")
        assert rows
        assert {r["task"] for r in rows} <= {"CC", "LP"}
        for r in rows:
            assert 0.0 <= float(r["precision"]) <= 1.0
            assert int(r["n_records"]) >= 1

    def test_manifest(self, pipe):
        manifest = json.loads((pipe / "manifest.json").read_text())
        assert manifest["n_configs"] == N_CONFIGS
        assert manifest["seed"] == 7
        assert manifest["audit_assertions"] > 0
        assert manifest["audit_violations"] == 0
        assert len(manifest["wall_ms"]) == N_CONFIGS
        for key in ("package", "python", "numpy", "scipy"):
            assert key in manifest

    def test_manifest_counts_classifiers_trained(self, pipe):
        manifest = json.loads((pipe / "manifest.json").read_text())
        trained = manifest["classifiers_trained"]
        keys = {r["config_key"].strip('"')
                for r in csv_rows(pipe / "results.csv")}
        assert trained.keys() == manifest["wall_ms"].keys() == keys
        # the pool spans both partitions: a config rerun on its own, with
        # one pool for both, counts the same
        for task, locality in (("CC", "community"),
                               ("LP", "local-adjacency")):
            key, pool = rerun_config(pipe, task, locality)
            assert pool.trained > 0
            assert (trained[key], manifest["single_class"][key],
                    manifest["pool_hits"][key]) == \
                (pool.trained, pool.single_class, pool.hits)
        assert sum(trained.values()) > 0

    def test_manifest_counts_fallbacks(self, pipe):
        manifest = json.loads((pipe / "manifest.json").read_text())
        fallback = manifest["fallback"]
        rows = {r["config_key"].strip('"'): r
                for r in csv_rows(pipe / "results.csv")}
        assert fallback.keys() == manifest["wall_ms"].keys() == rows.keys()
        for key, parts in fallback.items():
            assert parts == {
                "validation": int(rows[key]["fallback_validation"]),
                "testing": int(rows[key]["fallback_testing"])}

    def test_manifest_surfaces_ingest_and_lp_plan_counts(self, pipe):
        manifest = json.loads((pipe / "manifest.json").read_text())
        ds_meta = json.loads((pipe / "dataset" / "dataset.json").read_text())
        assert manifest["skipped_lines"] == ds_meta["skipped_lines"] == 0
        dropped = manifest["lp_dropped_pos"]
        assert sorted(dropped) == ["KNN-INT-0.02", "TH-INT-0.02"]
        # each family's plans, built afresh from its network file
        cfg = ExperimentConfig.from_dict(make_config(pipe))
        for spec in family_specs(cfg):
            fkey = family_key(spec)
            fam = prepare_family(
                spec, load_edgeset(pipe / "networks" / f"{fkey}.tsv"),
                cfg.seed, {("LP", "local-adjacency")})
            assert dropped[fkey] == {role: plan.dropped_pos
                                     for role, plan in fam.lp_plans.items()}


    def test_manifest_counts_single_class_builds(self, pipe):
        manifest = json.loads((pipe / "manifest.json").read_text())
        single = manifest["single_class"]
        trained = manifest["classifiers_trained"]
        assert single.keys() == trained.keys()
        for key, count in single.items():
            assert 0 <= count <= trained[key]
            if config_key_fields(key)["task"] == "LP":
                assert count == 0  # LP material always holds both classes
        assert sum(single.values()) > 0

    def test_manifest_counts_pool_hits(self, pipe):
        manifest = json.loads((pipe / "manifest.json").read_text())
        hits = manifest["pool_hits"]
        assert hits.keys() == manifest["classifiers_trained"].keys()
        assert all(isinstance(h, int) and h >= 0 for h in hits.values())
        assert sum(hits.values()) > 0

    def test_manifest_surfaces_edge_file_shortfall(self, pipe, tmp_path):
        # at density 0.9 some nodes have fewer KNN peers than k
        out = tmp_path / "dense"
        raw = make_config(out)
        raw["dataset"]["synth"].update(n_nodes=40, n_items=1000)
        raw["grid"].update(densities=[0.9], localities=["global:20"],
                           tasks=["CC"])
        run_experiment(ExperimentConfig.from_dict(raw))
        for run in (pipe, out):
            shortfall = json.loads((run / "manifest.json").read_text())[
                "shortfall"]
            assert len(shortfall) == 2
            for fam, value in shortfall.items():
                header = load_edgeset(run / "networks" / f"{fam}.tsv")
                assert value == header.provenance["shortfall"]
        assert shortfall["KNN-INT-0.9"] > 0


    def test_manifest_reports_family_communities(self, pipe, tmp_path):
        communities = json.loads((pipe / "manifest.json").read_text())[
            "communities"]
        cfg = ExperimentConfig.from_dict(make_config(pipe))
        assert sorted(communities) == ["KNN-INT-0.02", "TH-INT-0.02"]
        for spec in family_specs(cfg):
            fkey = family_key(spec)
            g = load_edgeset(pipe / "networks" / f"{fkey}.tsv")
            fam = prepare_family(spec, g, cfg.seed, {("CC", "community"),
                                                     ("LP", "community")})
            for task in ("CC", "LP"):
                comm = fam.communities()[task]
                assert communities[fkey][task] == {
                    "n_communities": comm.n_communities,
                    "modularity": comm.modularity}
                assert comm.n_communities > 1
        # no community locality: no partition built, none reported
        out = tmp_path / "flat"
        raw = make_config(out)
        raw["grid"].update(localities=["global:20"], tasks=["CC"])
        run_experiment(ExperimentConfig.from_dict(raw))
        assert json.loads((out / "manifest.json").read_text())[
            "communities"] == {}


# sha256 of the edge files stage_infer writes for the INFER_GRID below,
# taken from the sort-and-reduce pass with lexsort selection
INFER_GRID = {"models": ["KNN", "TH"], "measures": ["INT", "INT-N"],
              "densities": [0.02, 0.1], "localities": ["global"],
              "tasks": ["CC"], "classifiers": ["linear-svm"]}
NETWORK_SHA256 = {
    "KNN-INT-0.02.tsv":
        "680c21d385d0a16d5525bcacb4b5de7f60b0549fc5943c3a3b9437a3dff548b9",
    "KNN-INT-0.1.tsv":
        "3dd536dc0990a7a0bd396d0d7431e0d45e0f95a010ed801665f5661c0db91553",
    "KNN-INT-N-0.02.tsv":
        "0b101d106b7d5216a150da1e2916f6711d6e149497343704cf49dc55cf851a5d",
    "KNN-INT-N-0.1.tsv":
        "55a747723316ec19d310567f960c704865029b4c11356264f83dd9e098bf76f7",
    "TH-INT-0.02.tsv":
        "8dde2779ab4707f1e4aaebce65a061eff6d2ae07d88e4ef58a841ef8494cc441",
    "TH-INT-0.1.tsv":
        "bc7780fbaa3583c18ef19627ee27f89261003799b1fa9f0c61790b9e0191234a",
    "TH-INT-N-0.02.tsv":
        "be2cad3c0124001492636bb51fa3417da6fc24a1ecd1df616961b9ad8a62941a",
    "TH-INT-N-0.1.tsv":
        "fc429fcc3b1a926cfb4dbf7cdd03b894d0771f12ca7d1588bb81df76eb4b4761",
}


class TestInfer:
    def _infer(self, out, monkeypatch):
        """Ingest and infer the 2 x 2 x 2 grid; returns the matrices the
        intersection pass ran over, one entry per pass."""
        calls = []
        real = similarity._row_blocks

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(similarity, "_row_blocks", counting)
        raw = make_config(out)
        raw["grid"] = dict(INFER_GRID)
        cfg = ExperimentConfig.from_dict(raw)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        return calls

    def test_one_intersection_pass_for_the_grid(self, tmp_path,
                                                 monkeypatch):
        # one pass over the training matrix builds all 8 families
        calls = self._infer(tmp_path / "run", monkeypatch)
        assert len(calls) == 1 and calls[0].role == "training"
        net_dir = tmp_path / "run" / "networks"
        assert len(list(net_dir.glob("*.tsv"))) == 8  # one per family
        assert sorted(p.name for p in net_dir.iterdir()
                      if p.suffix != ".tsv") == ["networks.json"]

    def test_network_files_are_pinned(self, tmp_path, monkeypatch):
        # one-row blocks and 7-term chunks: the bytes do not depend on them
        for cells, chunk in ((similarity.BLOCK_CELLS, similarity.CHUNK_LEN),
                             (1, 7)):
            monkeypatch.setattr(similarity, "BLOCK_CELLS", cells)
            monkeypatch.setattr(similarity, "CHUNK_LEN", chunk)
            out = tmp_path / f"run-{cells}"
            self._infer(out, monkeypatch)
            got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (out / "networks").glob("*.tsv")}
            assert got == NETWORK_SHA256

    def test_network_files_are_pinned_in_one_row_chunks(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(graph, "SAVE_ROWS", 1)
        out = tmp_path / "run"
        self._infer(out, monkeypatch)
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (out / "networks").glob("*.tsv")}
        assert got == NETWORK_SHA256


class TestDeterminism:
    def test_rerun_with_more_workers_is_byte_identical(self, pipe,
                                                       tmp_path):
        out = tmp_path / "again"
        run_experiment(ExperimentConfig.from_dict(
            make_config(out, workers=3)))
        for name in REPORT_FILES:
            assert (out / name).read_bytes() == \
                (pipe / name).read_bytes(), name

    def test_stage_chaining_matches_run(self, pipe, tmp_path):
        out = tmp_path / "staged"
        cfg = ExperimentConfig.from_dict(make_config(out))
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        stage_evaluate(cfg, out)
        stage_select(out)
        stage_report(out)
        for name in REPORT_FILES:
            assert (out / name).read_bytes() == \
                (pipe / name).read_bytes(), name


# every locality for both tasks and both learners, whose results bytes the
# grid96 oracle does not pin for local-bfs and community cells
ALL_LOCALITY_CONFIG = {
    "dataset": {"synth": {"seed": 11, "n_nodes": 48, "n_items": 400,
                          "plant": {"n_groups": 2,
                                    "subgroups_per_group": 2}}},
    "grid": {"models": ["KNN", "TH"], "measures": ["INT"],
             "densities": [0.1],
             "localities": ["local-adjacency", "local-bfs:5", "community",
                            "ensemble:attr-sum", "global"],
             "tasks": ["CC", "LP"],
             "classifiers": ["linear-svm", "random-forest"]},
    "rf": {"trees": 5},
    "seed": 11,
}
ALL_LOCALITY_SHA256 = {
    "results.csv":
        "1ff77be6513638d09d6099021a36f6bf3e15424e136cbeb086d0209a917c2ccf",
    "selection.csv":
        "f117b34b9916612a76d21270931136ad03cc842e723ff23d968d86968d13f791",
}


def test_all_locality_grid_is_pinned(tmp_path):
    out = tmp_path / "all"
    run_experiment(ExperimentConfig.from_dict(
        {**ALL_LOCALITY_CONFIG, "out": str(out)}))
    assert len(csv_rows(out / "results.csv")) == 40
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ALL_LOCALITY_SHA256}
    assert got == ALL_LOCALITY_SHA256


class TestRoundTrips:
    def test_results_match_reloaded_batches(self, pipe):
        records = load_results(pipe / "results.csv")
        rebuilt = records_from_batches(load_batches(pipe / "batches.tsv"))
        assert [r.config_key for r in records] == \
            [r.config_key for r in rebuilt]
        for a, b in zip(records, rebuilt):
            assert a.precision_validation == \
                pytest.approx(b.precision_validation, abs=1e-6)
            assert a.precision_testing == \
                pytest.approx(b.precision_testing, abs=1e-6)
            assert a.n_validation == b.n_validation
            assert a.n_testing == b.n_testing
            assert a.fallback_validation == b.fallback_validation
            assert a.degenerate_validation == b.degenerate_validation

    def test_load_batches_returns_the_evaluated_batches(self, pipe, tmp_path,
                                                        monkeypatch):
        from netsel import experiment

        evaluated = []
        real = experiment._write_batches

        def capture(path, batches):
            evaluated.extend(batches)
            real(path, batches)

        monkeypatch.setattr(experiment, "_write_batches", capture)
        out = tmp_path / "again"
        for stage in ("dataset", "networks"):
            shutil.copytree(pipe / stage, out / stage)
        stage_evaluate(ExperimentConfig.from_dict(make_config(out)), out)
        loaded = load_batches(out / "batches.tsv")
        evaluated.sort(key=lambda b: (b.config_key, b.partition))
        assert len(loaded) == len(evaluated) == 2 * N_CONFIGS
        # TH-INT-0.02's LP ensemble has too few trainable members
        assert 0 < sum(b.ensemble_fallback for b in loaded) < len(loaded)
        for got, want in zip(loaded, evaluated):
            for f in dataclasses.fields(PredictionBatch):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype, f.name
                    np.testing.assert_array_equal(a, b, err_msg=f.name)
                else:
                    assert type(a) is type(b) and a == b, f.name
        (out / "results.csv").unlink()  # report reads both files
        with pytest.raises(ExperimentError, match="missing evaluate stage"):
            stage_report(out)

    def test_batches_keep_partition_and_task(self, pipe):
        batches = load_batches(pipe / "batches.tsv")
        assert {b.partition for b in batches} == {"validation", "testing"}
        by_task = {b.config_key.split("task=")[1].split("|")[0]
                   for b in batches}
        assert by_task == {"CC", "LP"}
        for b in batches:
            assert b.task == b.config_key.split("task=")[1].split("|")[0]


class TestExplicitNetworks:
    def test_factor_thinning(self, tmp_path):
        raw = make_config(tmp_path / "exp")
        raw["grid"] = {
            "models": [], "measures": [], "densities": [],
            "explicit": [{"name": "tl", "source": "synth:label",
                          "factors": [0.5, 1.0]}],
            "localities": ["global:50"], "tasks": ["CC"],
            "classifiers": ["linear-svm"],
        }
        cfg = ExperimentConfig.from_dict(raw)
        out = Path(cfg.out)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        full = load_edgeset(out / "networks" / "EXPLICIT-tl.tsv")
        half = load_edgeset(out / "networks" / "EXPLICIT-tl_0.5.tsv")
        truth = load_edgeset(out / "dataset" / "truth_label.tsv")
        assert full.n_edges == truth.n_edges
        assert half.n_edges == max(1, int(round(0.5 * full.n_edges)))
        # thinning only removes edges
        full_keys = set(full.pair_keys().tolist())
        assert set(half.pair_keys().tolist()) <= full_keys

    def test_missing_network_stage_detected(self, tmp_path):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path / "x"))
        out = Path(cfg.out)
        stage_ingest(cfg, out)
        with pytest.raises(ExperimentError, match="network stage"):
            stage_evaluate(cfg, out)

    def test_missing_dataset_stage_detected(self, tmp_path):
        cfg = ExperimentConfig.from_dict(make_config(tmp_path / "x"))
        with pytest.raises(ExperimentError, match="dataset stage"):
            stage_infer(cfg, Path(cfg.out))


    @pytest.mark.parametrize("edit", [
        {"synth": {"seed": 6}},
        {"synth": {"n_items": 151}},
        {"seed": 8},  # synth has no seed of its own: it takes this one
        {"aggregation": "mean"},
    ], ids=["synth-seed", "synth-items", "master-seed", "aggregation"])
    def test_stale_stage_outputs_are_refused(self, tmp_path, edit):
        def config(edit):
            raw = make_config(tmp_path / "x")
            del raw["dataset"]["synth"]["seed"]
            raw["seed"] = edit.get("seed", raw["seed"])
            raw["dataset"]["synth"].update(edit.get("synth", {}))
            if "aggregation" in edit:
                raw["dataset"]["aggregation"] = edit["aggregation"]
            return ExperimentConfig.from_dict(raw)

        cfg, new = config({}), config(edit)
        out = Path(cfg.out)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        for stage in (stage_infer, stage_evaluate):
            with pytest.raises(ExperimentError, match="rerun the ingest"):
                stage(new, out)
        # a fresh dataset under networks built from the old one
        stage_ingest(new, out)
        with pytest.raises(ExperimentError, match="rerun the infer"):
            stage_evaluate(new, out)
        stage_infer(new, out)
        stage_evaluate(new, out)
        assert (out / "results.csv").exists()
        # spelling out a default is no edit: the synth seed that the
        # master seed gives, or the sum aggregation
        same = config({**edit, "synth": {
            "seed": edit.get("seed", 7), **edit.get("synth", {})}})
        if "aggregation" not in edit:
            same.dataset = dataclasses.replace(same.dataset,
                                               aggregation="sum")
        assert dataset_digest(same) == dataset_digest(new)
        stage_evaluate(same, out)

    @pytest.mark.parametrize("edit", ["bytes", "path", "seed"])
    def test_stale_network_outputs_are_refused(self, tmp_path, edit):
        """Networks built from an explicit source file, then one edit: its
        bytes in place, its path (same bytes), or the master seed of a
        thinned entry. The dataset block names a synth seed, so the master
        seed reaches only the thinning."""
        source = tmp_path / "edges.txt"
        source.write_text("".join(f"{u} {u + 1}\n" for u in range(0, 58, 2)))

        def config(source, seed=7, factors=(0.5, 1.0)):
            raw = make_config(tmp_path / "x")
            raw["seed"] = seed
            raw["grid"].update(explicit=[{
                "name": "ext", "source": str(source),
                "factors": list(factors)}])
            return ExperimentConfig.from_dict(raw)

        cfg = config(source)
        out = Path(cfg.out)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        stage_evaluate(cfg, out)  # an unchanged rerun goes through
        if edit == "bytes":
            source.write_text(source.read_text() + "1 3\n")
            new = cfg
        elif edit == "path":
            moved = tmp_path / "moved.txt"
            moved.write_bytes(source.read_bytes())
            new = config(moved)
        else:
            new = config(source, seed=8)
        with pytest.raises(ExperimentError, match="network grid.*rerun the "
                                                  "infer stage"):
            stage_evaluate(new, out)
        stage_infer(new, out)
        stage_evaluate(new, out)
        assert (out / "results.csv").exists()
        if edit == "seed":  # unthinned, the seed reaches no network
            stage_infer(config(source, factors=(1.0,)), out)
            stage_evaluate(config(source, seed=9, factors=(1.0,)), out)

    @pytest.mark.parametrize("edit", ["events", "rules"])
    def test_edited_event_files_are_refused(self, tmp_path, edit):
        bundle = synth_bundle(3, 40, 100)
        log = bundle.log
        events = tmp_path / "events.txt"
        events.write_text("".join(
            f"{a} {b} {c!r} {d}\n" for a, b, c, d in zip(
                log.nodes.tolist(), log.items.tolist(),
                log.values.tolist(), log.timestamps.tolist())))
        rules = tmp_path / "rules.json"
        save_label_rules(bundle.rules, rules)
        raw = json.loads(cli_config(tmp_path, events=str(events),
                                    rules=str(rules)).read_text())
        cfg = ExperimentConfig.from_dict(raw)
        out = Path(cfg.out)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        if edit == "events":  # keep half of the events
            lines = events.read_text().splitlines(keepends=True)
            events.write_text("".join(lines[:len(lines) // 2]))
        else:  # keep the first rule
            save_label_rules(bundle.rules[:1], rules)
        for stage in (stage_infer, stage_evaluate):
            with pytest.raises(ExperimentError, match="rerun the ingest"):
                stage(cfg, out)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        stage_evaluate(cfg, out)
        assert (out / "results.csv").exists()


# --- CLI ------------------------------------------------------------------------


def cli_config(tmp_path, **dataset):
    raw = {
        "dataset": dataset or {"synth": {"seed": 3, "n_nodes": 40,
                                         "n_items": 100}},
        "grid": {
            "models": ["KNN"], "measures": ["INT"], "densities": [0.05],
            "localities": ["global:50"], "tasks": ["CC"],
            "classifiers": ["linear-svm"],
        },
        "seed": 3,
        "workers": 1,
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(raw))
    return path


class TestCli:
    def test_run_end_to_end(self, tmp_path, capsys):
        path = cli_config(tmp_path)
        assert main(["run", "-c", str(path)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert "done" in capsys.readouterr().out

    def test_out_override(self, tmp_path):
        path = cli_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["run", "-c", str(path), "-o", str(other)]) == 0
        assert (other / "results.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "-c", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "-c", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_events_file(self, tmp_path, capsys):
        path = cli_config(tmp_path, events=str(tmp_path / "missing.tsv"),
                          rules=str(tmp_path / "missing.json"))
        assert main(["run", "-c", str(path)]) == 1
        assert "not found" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_skipped_lines_reach_dataset_and_manifest(self, tmp_path):
        bundle = synth_bundle(3, 40, 100)
        log = bundle.log
        lines = ["node item value timestamp"] + [
            f"{a} {b} {c!r} {d}" for a, b, c, d in zip(
                log.nodes.tolist(), log.items.tolist(),
                log.values.tolist(), log.timestamps.tolist())]
        lines[10:10] = ["7 3 many 12", "7 3"]
        events = tmp_path / "events.txt"
        events.write_text("\n".join(lines) + "\n")
        save_label_rules(bundle.rules, tmp_path / "rules.json")
        path = cli_config(tmp_path, events=str(events),
                          rules=str(tmp_path / "rules.json"))
        assert main(["run", "-c", str(path)]) == 0
        out = tmp_path / "out"
        ds_meta = json.loads((out / "dataset" / "dataset.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert ds_meta["skipped_lines"] == manifest["skipped_lines"] == 2
        assert manifest["lp_dropped_pos"] == {}  # a CC-only grid

    def test_synth_command_needs_synth_block(self, tmp_path, capsys):
        path = cli_config(tmp_path, events="whatever.tsv",
                          rules="rules.json")
        assert main(["synth", "-c", str(path)]) == 1
        assert "synth" in capsys.readouterr().err

    def test_select_before_evaluate_fails(self, tmp_path, capsys):
        path = cli_config(tmp_path)
        assert main(["select", "-c", str(path)]) == 1
        assert "missing evaluate stage" in capsys.readouterr().err

    def test_ingest_only_writes_dataset(self, tmp_path):
        path = cli_config(tmp_path)
        assert main(["ingest", "-c", str(path)]) == 0
        assert (tmp_path / "out" / "dataset" / "dataset.json").exists()
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("-j", "0", "workers"),
        ("--workers", "-2", "workers"),
    ])
    def test_overrides_pass_the_config_checks(self, tmp_path, capsys, flag,
                                              value, key):
        path = cli_config(tmp_path)
        assert main(["run", "-c", str(path), flag, value]) == 1
        assert f"error: {key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        {"grid": {"classifiers": ["svm"]}},
        {"grid": {"explicit": [{"name": "a", "source": "s",
                                "factors": [1.5]}]}},
        {"dataset": {"synth": {}, "events": "e.tsv", "rules": "r.json"}},
    ], ids=["grid-value", "explicit-factor", "two-sources"])
    def test_config_refusals_stop_before_ingest(self, tmp_path, capsys,
                                                edit):
        path = cli_config(tmp_path)
        raw = json.loads(path.read_text())
        for block, values in edit.items():
            raw[block].update(values)
        path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(path)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overrides_reach_the_config(self, tmp_path):
        path = cli_config(tmp_path)
        args = build_parser().parse_args(
            ["run", "-c", str(path), "--seed", "-5", "-j", "2", "-o", "x",
             "--strict"])
        cfg = _load_config(args)
        assert (cfg.seed, cfg.workers, cfg.out, cfg.dataset.strict) == \
            (-5, 2, "x", True)

    def test_seed_override_changes_outputs(self, tmp_path):
        path = cli_config(tmp_path)
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["run", "-c", str(path), "-o", str(a)]) == 0
        assert main(["run", "-c", str(path), "-o", str(b),
                     "--seed", "9"]) == 0
        assert main(["run", "-c", str(path), "-o", str(c),
                     "--seed", "3"]) == 0
        ra, rb, rc = ((p / "results.csv").read_bytes() for p in (a, b, c))
        assert ra == rc  # --seed equal to the file's seed is a no-op
        assert ra != rb


def test_default_settle_windows_are_pinned(tmp_path, monkeypatch):
    # the configs per settle window of the all-locality grid: the windows
    # set the evaluate stage's training peak
    from netsel import experiment

    windows = []
    real = experiment.settle_pools

    def settle(pools):
        windows.append(len(pools))
        real(pools)

    monkeypatch.setattr(experiment, "settle_pools", settle)
    run_experiment(ExperimentConfig.from_dict(
        {**ALL_LOCALITY_CONFIG, "out": str(tmp_path / "all")}))
    assert windows == [10, 10, 10, 10]


def test_settle_windows_leave_every_output_unchanged(tmp_path, monkeypatch):
    # every config in a window of its own, then all 40 in one window: the
    # same bytes and counters as the default windows
    from netsel import experiment, learn

    windows = []
    real = experiment.settle_pools

    def settle(pools):
        windows.append(len(pools))
        real(pools)

    monkeypatch.setattr(experiment, "settle_pools", settle)
    runs = {}
    for name, budget in (("default", learn.SGD_BATCH_ENTRIES),
                         ("own", -1), ("one", 2**62)):
        monkeypatch.setattr(learn, "SGD_BATCH_ENTRIES", budget)
        out = tmp_path / name
        before = len(windows)
        run_experiment(ExperimentConfig.from_dict(
            {**ALL_LOCALITY_CONFIG, "out": str(out)}))
        runs[name] = (out, windows[before:])
    assert runs["own"][1] == [1] * 40 and runs["one"][1] == [40]
    assert 1 < len(runs["default"][1]) < 40
    manifests = {name: json.loads((out / "manifest.json").read_text())
                 for name, (out, _) in runs.items()}
    for name in ("own", "one"):
        for f in ("results.csv", "selection.csv", "batches.tsv"):
            assert (runs[name][0] / f).read_bytes() == \
                (runs["default"][0] / f).read_bytes(), (name, f)
        for key in ("classifiers_trained", "pool_hits", "single_class",
                    "audit_assertions", "audit_violations"):
            assert manifests[name][key] == manifests["default"][key], key
