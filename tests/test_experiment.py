"""Pipeline tests: one small end-to-end run shared across assertions,
plus stage chaining, reruns under different worker counts, explicit
network thinning, and the CLI front end."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from netsel import similarity
from netsel.cli import _load_config, build_parser, main
from netsel.data import save_label_rules
from netsel.experiment import (
    ExperimentConfig,
    ExperimentError,
    build_grid,
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
from netsel.learn import LearnError, RFHyper
from netsel.selection import records_from_batches
from netsel.synth import synth_bundle
from netsel.tasks import config_key_fields

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
    ])
    def test_unknown_config_keys_are_fatal(self, block, key, path):
        raw = make_config("unused")
        raw.setdefault("svm", {})
        raw.setdefault("rf", {})
        (raw[block] if block else raw)[key] = ["community"]
        with pytest.raises(ExperimentError, match=path):
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
        assert (cfg.seed, cfg.workers, cfg.dataset["strict"]) == (2, 3, True)
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
    ])
    def test_config_scalars_are_not_coerced(self, key, value):
        raw = make_config("unused")
        *blocks, name = key.split(".")
        block = raw
        for b in blocks:
            block = block[b]
        block[name] = value
        with pytest.raises(ExperimentError, match=f"^{key} must be"):
            ExperimentConfig.from_dict(raw)

    def test_integral_synth_values_load(self):
        raw = make_config("unused")
        raw["dataset"]["synth"] = {"seed": -3, "n_nodes": 1, "n_items": 2.0}
        assert ExperimentConfig.from_dict(raw).dataset["synth"] == \
            {"seed": -3, "n_nodes": 1, "n_items": 2.0}

    def test_learner_hyperparameter_bounds_load(self):
        raw = make_config("unused")
        raw["svm"] = {"reg": 1e-9, "epochs": 1}
        for frac in ("sqrt", 1e-3, 0.5, 1, 1.0):
            raw["rf"] = {"trees": 1, "min_leaf": 1, "feature_frac": frac}
            cfg = ExperimentConfig.from_dict(raw)
            assert cfg.rf.feature_frac == frac and cfg.svm.epochs == 1


# --- the end-to-end run ---------------------------------------------------------


class TestPipelineOutputs:
    def test_all_artifacts_exist(self, pipe):
        for name in REPORT_FILES + ["batches_meta.json", "manifest.json"]:
            assert (pipe / name).exists(), name
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
        meta = json.loads((pipe / "batches_meta.json").read_text())
        trained = manifest["classifiers_trained"]
        assert trained.keys() == manifest["wall_ms"].keys() == meta.keys()
        for key, parts in meta.items():
            # the pool spans both partitions; testing runs last
            assert trained[key] == \
                parts["testing"]["notes"]["classifiers_trained"]
            assert trained[key] >= \
                parts["validation"]["notes"]["classifiers_trained"]
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
        meta = json.loads((pipe / "batches_meta.json").read_text())
        ds_meta = json.loads((pipe / "dataset" / "dataset.json").read_text())
        assert manifest["skipped_lines"] == ds_meta["skipped_lines"] == 0
        dropped = manifest["lp_dropped_pos"]
        assert sorted(dropped) == ["KNN-INT-0.02", "TH-INT-0.02"]
        seen = 0
        for key, parts in meta.items():
            f = dict(p.split("=", 1) for p in key.split("|"))
            if f["task"] != "LP":
                continue
            fam = f"{f['model']}-{f['measure']}-{f['density']}"
            for role, part in parts.items():
                assert dropped[fam][role] == part["notes"]["dropped_pos"]
                seen += 1
        assert seen == N_CONFIGS  # half the cells are LP, two batches each


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
            fam = prepare_family(spec, g, cfg.seed, True, True, True)
            for task, comm in (("CC", fam.comm_cc), ("LP", fam.comm_lp)):
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
        """Ingest and infer the 2 x 2 x 2 grid; returns the matrices
        pairwise_intersections was called on."""
        calls = []
        real = similarity.pairwise_intersections

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(similarity, "pairwise_intersections", counting)
        raw = make_config(out)
        raw["grid"] = dict(INFER_GRID)
        cfg = ExperimentConfig.from_dict(raw)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        return calls

    def test_one_intersection_pass_for_the_grid(self, tmp_path,
                                                 monkeypatch):
        calls = self._infer(tmp_path / "run", monkeypatch)
        assert len(calls) == 1 and calls[0].role == "training"
        assert len(list((tmp_path / "run" / "networks").iterdir())) == 8

    def test_network_files_are_pinned(self, tmp_path, monkeypatch):
        # one-row blocks and 7-term chunks: the bytes do not depend on them
        for cells, chunk in ((similarity.BLOCK_CELLS, similarity.CHUNK_LEN),
                             (1, 7)):
            monkeypatch.setattr(similarity, "BLOCK_CELLS", cells)
            monkeypatch.setattr(similarity, "CHUNK_LEN", chunk)
            out = tmp_path / f"run-{cells}"
            self._infer(out, monkeypatch)
            got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (out / "networks").iterdir()}
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

    def test_overrides_reach_the_config(self, tmp_path):
        path = cli_config(tmp_path)
        args = build_parser().parse_args(
            ["run", "-c", str(path), "--seed", "-5", "-j", "2", "-o", "x",
             "--strict"])
        cfg = _load_config(args)
        assert (cfg.seed, cfg.workers, cfg.out, cfg.dataset["strict"]) == \
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
