"""End-to-end acceptance checks.

Each test pins one headline guarantee: dense-oracle equivalence for the
similarity engine, network budget contracts, rank-correlation exactness,
community detection sanity, the balanced coin baseline, planted-model
recovery, cross-task divergence, the battery's worked arithmetic,
byte-identical reruns under any worker count, a clean leakage audit, and
the full-grid wall-time budget.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from netsel._rng import derive_seed
from netsel.community import louvain, modularity
from netsel.data import EventLog, build_dataset, build_matrix
from netsel.experiment import (ExperimentConfig, load_results,
                               prepare_family, run_experiment,
                               stage_evaluate, stage_infer, stage_ingest)
from netsel.graph import EdgeSet, NeighborhoodSpec
from netsel.selection import (EvaluationRecord, cross_task, kendall_tau,
                              match_mismatch, node_difficulty,
                              select_model, selection_stats,
                              topk_intersection)
from netsel.similarity import (NetworkModelSpec, knn_graph,
                               pairwise_similarities, threshold_graph)
from netsel.synth import synth_bundle
from netsel.tasks import (ClassifierPool, LeakageAudit, ModelConfig,
                          PredictionBatch, run_lp)


# --- shared helpers -----------------------------------------------------------


def matrix_from_dense(dense):
    n, m = dense.shape
    recs = [(i, j, float(dense[i, j]), 1)
            for i in range(n) for j in range(m) if dense[i, j] > 0]
    log = EventLog.from_records(recs, n_nodes=n)
    return build_matrix(log, np.arange(m), "training")


def dense_pairs(dense, measure):
    """O(n^2) reference for the pairwise similarity kernels."""
    n = dense.shape[0]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            inter = np.minimum(dense[i], dense[j]).sum()
            if inter <= 0:
                continue
            if measure == "INT":
                out[(i, j)] = inter
            else:
                out[(i, j)] = inter / np.maximum(dense[i], dense[j]).sum()
    return out


def ug(n, pairs):
    src = np.array([a for a, b in pairs], dtype=np.int64)
    dst = np.array([b for a, b in pairs], dtype=np.int64)
    return EdgeSet(n_nodes=n, src=src, dst=dst,
                   weights=np.ones(len(pairs)), directed=False,
                   provenance={"model": "TEST"})


def mk_key(task="CC", model="KNN", measure="INT", density="0.0025",
           locality="global", clf="linear-svm", seed=0):
    return (f"model={model}|measure={measure}|density={density}"
            f"|locality={locality}|task={task}|clf={clf}|seed={seed}")


def rec(pv, pt, **key_kw):
    return EvaluationRecord(mk_key(**key_kw), pv, pt)


def mk_batch(config_key, partition, nodes, predicted, actual):
    nodes = np.asarray(nodes, dtype=np.int64)
    return PredictionBatch(
        config_key=config_key, task="CC", partition=partition,
        nodes=nodes, targets=[None] * len(nodes),
        predicted=np.asarray(predicted, dtype=np.int64),
        actual=np.asarray(actual, dtype=np.int64),
        fallback=np.zeros(len(nodes), dtype=bool),
    )


# --- similarity engine vs dense scan -------------------------------------------


def test_similarity_engine_matches_dense_scan():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(20, 201))
        m = int(rng.integers(5, 101))
        dense = rng.integers(1, 10, size=(n, m)).astype(float)
        dense[rng.random((n, m)) >= 0.2] = 0.0
        mat = matrix_from_dense(dense)
        for measure in ("INT", "INT-N"):
            ii, jj, vals = pairwise_similarities(mat, measure)
            got = {(int(i), int(j)): float(v)
                   for i, j, v in zip(ii, jj, vals)}
            # integer-valued inputs make every sum exact, so the engine
            # and the dense scan must agree bit for bit
            assert got == dense_pairs(dense, measure)
    for _ in range(5):
        dense = 3.0 * rng.random((80, 40))
        dense[rng.random((80, 40)) >= 0.3] = 0.0
        mat = matrix_from_dense(dense)
        for measure in ("INT", "INT-N"):
            ii, jj, vals = pairwise_similarities(mat, measure)
            got = {(int(i), int(j)): float(v)
                   for i, j, v in zip(ii, jj, vals)}
            want = dense_pairs(dense, measure)
            assert got.keys() == want.keys()
            for key, v in want.items():
                assert got[key] == pytest.approx(v, rel=1e-12)
    assert time.perf_counter() - t0 < 10.0


# --- network construction contracts ---------------------------------------------


def test_network_budget_contracts():
    rng = np.random.default_rng(202)
    for seed in range(10):
        n = 40 + 5 * seed
        dense = rng.integers(1, 10, size=(n, 25)).astype(float)
        dense[rng.random((n, 25)) >= 0.35] = 0.0
        mat = matrix_from_dense(dense)
        sims = dense_pairs(dense, "INT")
        peers = np.zeros(n, dtype=int)
        for i, j in sims:
            peers[i] += 1
            peers[j] += 1

        k = 1 + seed % 3
        g = knn_graph(mat, "INT", lam=k * n + seed)
        outdeg = np.bincount(g.src, minlength=n)
        for i in range(n):
            assert outdeg[i] == min(k, peers[i])

        n_pos = len(sims)
        for lam1, lam2 in ((5, 17), (11, n_pos + 50)):
            g1 = threshold_graph(mat, "INT", lam1)
            g2 = threshold_graph(mat, "INT", lam2)
            assert g1.n_edges == min(lam1, n_pos)
            assert g2.n_edges == min(lam2, n_pos)
            assert set(g1.pair_keys().tolist()) <= \
                set(g2.pair_keys().tolist())


# --- rank correlation vs pair enumeration ---------------------------------------


def test_rank_correlation_matches_enumeration():
    def dense_tau(x, y):
        n = len(x)
        iu = np.triu_indices(n, 1)
        dx = np.sign(x[:, None] - x[None, :])[iu]
        dy = np.sign(y[:, None] - y[None, :])[iu]
        num = int((dx * dy).sum())
        n0 = n * (n - 1) // 2
        tx = int((dx == 0).sum())
        ty = int((dy == 0).sum())
        denom = np.sqrt(float(n0 - tx) * float(n0 - ty))
        return 0.0 if denom == 0 else num / denom

    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 501))
        if trial % 2 == 0:
            x = rng.integers(0, 8, n).astype(float)
            y = rng.integers(0, 8, n).astype(float)
        else:
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)
        tau, _ = kendall_tau(x, y)
        assert tau == dense_tau(x, y)

    perm = rng.permutation(50).astype(float)
    assert kendall_tau(perm, perm)[0] == 1.0
    assert kendall_tau(perm, -perm)[0] == -1.0


# --- community detection sanity --------------------------------------------------


def test_community_detection_sanity():
    clique = lambda lo: [(lo + a, lo + b)
                         for a in range(5) for b in range(a + 1, 5)]
    g = ug(10, clique(0) + clique(5) + [(4, 5)])
    assign = louvain(g, seed=0)
    found = {frozenset(np.flatnonzero(assign.labels == c).tolist())
             for c in np.unique(assign.labels)}
    assert found == {frozenset(range(5)), frozenset(range(5, 10))}

    empty = ug(6, [])
    assert modularity(empty, np.arange(6)) == 0.0
    assert louvain(empty, seed=0).modularity == 0.0

    rng = np.random.default_rng(303)
    graphs = [g, ug(12, [(i, (i + 1) % 12) for i in range(12)])]
    for _ in range(4):
        pairs = [(a, b) for a in range(30) for b in range(a + 1, 30)
                 if rng.random() < 0.15]
        graphs.append(ug(30, pairs))
    for graph in graphs:
        louvain(graph, seed=1,
                phase_hook=lambda lvl, before, after:
                None if after >= before - 1e-9 else
                pytest.fail("modularity decreased within a phase"))


# --- balanced coin baseline -------------------------------------------------------


def test_coin_baseline_on_balanced_pairs():
    t0 = time.perf_counter()
    bundle = synth_bundle(seed=2, n_nodes=500, n_items=1000)
    dataset = build_dataset(bundle.log, bundle.rules,
                            boundaries=bundle.boundaries)
    spec = NetworkModelSpec(model="EXPLICIT", edges="truth-label")
    family = prepare_family(spec, bundle.label_graph, master_seed=2,
                            uses={("LP", "global")})
    config = ModelConfig(network=spec, locality=NeighborhoodSpec("global"),
                         task="LP", classifier="coin",
                         seed=derive_seed(2, "baseline"))
    audit = LeakageAudit()
    pool = ClassifierPool(config)
    matrix = dataset.matrix("training")
    tp = fp = total = 0
    for role in ("validation", "testing"):
        b = run_lp(config, family.lp_scopes, family.lp_plans[role], matrix,
                   audit=audit, pool=pool)
        total += b.n_records
        tp += int(((b.predicted == 1) & (b.actual == 1)).sum())
        fp += int(((b.predicted == 1) & (b.actual == 0)).sum())
    assert total >= 1000
    precision = tp / (tp + fp)
    assert 0.45 <= precision <= 0.55
    assert audit.violations == 0
    assert time.perf_counter() - t0 < 30.0


# --- planted-model recovery and cross-task divergence -----------------------------

PLANT = {"group_items": 0, "emit_items": 10, "doppel_per_subgroup": 20,
         "contamination_items": 0, "refresh_per_segment": True}


def _divergent_config(out, seed):
    return ExperimentConfig.from_dict({
        "dataset": {"synth": {"seed": seed, "n_nodes": 500,
                              "n_items": 1000, "plant": PLANT}},
        "grid": {
            "models": [], "measures": [], "densities": [],
            "explicit": [
                {"name": "truth-label", "source": "synth:label"},
                {"name": "truth-structure", "source": "synth:structure"},
            ],
            "localities": ["local-adjacency", "global"],
            "tasks": ["CC", "LP"],
            "classifiers": ["linear-svm"],
        },
        "seed": seed, "workers": 4, "out": str(out),
    })


@pytest.fixture(scope="module")
def divergence(tmp_path_factory):
    """Ten seeded runs on data planted so that the label and interaction
    structures disagree: the label-truth network should win CC and the
    structure-truth network LP."""
    root = tmp_path_factory.mktemp("divergence")
    outcomes = []
    for seed in range(1, 11):
        cfg = _divergent_config(root / f"s{seed}", seed)
        out = Path(cfg.out)
        stage_ingest(cfg, out)
        stage_infer(cfg, out)
        stage_evaluate(cfg, out)
        records = load_results(out / "results.csv")
        cc = [r for r in records if r.fields()["task"] == "CC"]
        lp = [r for r in records if r.fields()["task"] == "LP"]
        assert len(cc) == 4 and len(lp) == 4
        outcomes.append({
            "cc": selection_stats(cc),
            "lp": selection_stats(lp),
            "cells": {(c.selector, c.evaluator): c
                      for c in cross_task(cc, lp)},
        })
    return outcomes


def test_same_task_selection_is_stable(divergence):
    for task in ("cc", "lp"):
        hits = sum(o[task].flag_delta_p1 for o in divergence)
        assert hits >= 8, f"{task}: stable selection in {hits}/10 seeds"


def test_cross_task_selection_diverges(divergence):
    for evaluator, other in (("CC", "LP"), ("LP", "CC")):
        wins = 0
        for o in divergence:
            diag = abs(o["cells"][(evaluator, evaluator)].delta_p1)
            off = abs(o["cells"][(other, evaluator)].delta_p1)
            wins += int(diag < off)
        assert wins >= 8, f"{evaluator}: diagonal better in {wins}/10"


def test_average_selection_never_beats_better_diagonal(divergence):
    for o in divergence:
        cells = o["cells"]
        better_diag = min(abs(cells[("CC", "CC")].delta_p1),
                          abs(cells[("LP", "LP")].delta_p1))
        row_best = min(abs(cells[("AVG", "CC")].delta_p1),
                       abs(cells[("AVG", "LP")].delta_p1))
        assert row_best >= better_diag - 1e-12


# --- the battery's worked arithmetic ----------------------------------------------


def test_battery_worked_examples():
    # model selection
    a, b, c = rec(0.3, 0.0, seed=0), rec(0.9, 0.0, seed=1), \
        rec(0.5, 0.0, seed=2)
    assert select_model([a, b, c]) == b.config_key
    assert select_model([rec(0.7, 0.0, seed=0), rec(0.7, 0.0, seed=1)]) \
        == mk_key(seed=0)
    assert select_model([a]) == a.config_key

    # headline statistics: testing (0.9, 0.8, 0.7, 0.1), selected 0.8
    records = [rec(0.5, 0.9, seed=0), rec(0.9, 0.8, seed=1),
               rec(0.4, 0.7, seed=2), rec(0.3, 0.1, seed=3)]
    stats = selection_stats(records)
    assert stats.mu == pytest.approx(0.625, abs=1e-12)
    assert stats.p1 == 0.9
    assert stats.selected_testing == 0.8
    assert stats.delta_p1 == pytest.approx(-0.1, abs=1e-12)
    assert stats.rank == pytest.approx(2 / 3, abs=1e-12)

    # rank correlation: one swapped pair of four
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])[0] == \
        pytest.approx(2 / 3, abs=1e-12)

    # top-k overlap: identity, disjointness, and exactly five shared
    same = [rec(v, v, seed=i) for i, v in enumerate([0.9, 0.7, 0.5, 0.3])]
    assert topk_intersection(same, k=10) == 4
    split = [rec(0.9, 0.1, seed=0), rec(0.8, 0.2, seed=1),
             rec(0.2, 0.8, seed=2), rec(0.1, 0.9, seed=3)]
    assert topk_intersection(split, k=2) == 0
    fifteen = [rec(1.0 - i / 100,
                   (0.9 - i / 100) if i >= 5 else (0.2 - i / 100),
                   seed=i) for i in range(15)]
    assert topk_intersection(fifteen, k=10) == 5

    # grouped precision gaps
    grouped = [rec(0.5, 0.9, locality="global", seed=0),
               rec(0.5, 0.9, locality="global", seed=1),
               rec(0.5, 0.1, locality="local-adjacency", seed=2),
               rec(0.5, 0.1, locality="local-adjacency", seed=3)]
    assert match_mismatch(grouped) == pytest.approx(-0.8, abs=1e-12)
    flat = [rec(0.5, 0.6, locality="global", seed=0),
            rec(0.5, 0.6, locality="local-adjacency", seed=1),
            rec(0.5, 0.6, locality="global", seed=2),
            rec(0.5, 0.6, locality="local-adjacency", seed=3)]
    assert match_mismatch(flat) == 0.0

    # per-node difficulty
    k = mk_key()
    rows = node_difficulty([
        mk_batch(k, "validation", [7], [1], [1]),
        mk_batch(k, "testing", [7], [1], [0]),
    ])
    assert [(r.node, r.precision) for r in rows] == [(7, 0.5)]
    rows = node_difficulty([
        mk_batch(k, "validation", [3], [1], [1]),
        mk_batch(k, "testing", [3], [0], [0]),
    ])
    assert [(r.node, r.precision) for r in rows] == [(3, 1.0)]


# --- byte-identical reruns ----------------------------------------------------------


def _small_config(out, workers):
    return ExperimentConfig.from_dict({
        "dataset": {"synth": {"seed": 5, "n_nodes": 80, "n_items": 200}},
        "grid": {
            "models": ["KNN"], "measures": ["INT"], "densities": [0.02],
            "localities": ["local-adjacency", "global:100"],
            "tasks": ["CC", "LP"],
            "classifiers": ["linear-svm", "coin"],
        },
        "seed": 11, "workers": workers, "out": str(out),
    })


def test_reruns_and_worker_count_are_byte_identical(tmp_path):
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        run_experiment(_small_config(out, workers))
        outs.append(out)
    for name in ("results.csv", "selection.csv"):
        blobs = [(out / name).read_bytes() for out in outs]
        assert blobs[0] == blobs[1] == blobs[2], name


# --- leakage audit and wall-time budget ----------------------------------------------


@pytest.fixture(scope="module")
def full_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid") / "run"
    cfg = ExperimentConfig.from_dict({
        "dataset": {"synth": {"seed": 3, "n_nodes": 500,
                              "n_items": 1000}},
        "grid": {
            "models": ["KNN", "TH"],
            "measures": ["INT", "INT-N"],
            "densities": [0.0025, 0.01],
            "localities": ["local-adjacency", "ensemble:attr-sum",
                           "global"],
            "tasks": ["CC", "LP"],
            "classifiers": ["linear-svm", "random-forest"],
        },
        "seed": 3, "workers": 4, "out": str(out),
    })
    t0 = time.perf_counter()
    run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    n_rows = (out / "results.csv").read_text().count("\n") - 1
    return {"elapsed": elapsed, "manifest": manifest, "n_rows": n_rows}


def test_leakage_audit_is_instrumented_and_clean(full_grid):
    assert full_grid["manifest"]["audit_assertions"] > 0
    assert full_grid["manifest"]["audit_violations"] == 0


def test_full_grid_fits_the_time_budget(full_grid):
    assert full_grid["manifest"]["n_configs"] == 96
    assert full_grid["n_rows"] == 96
    assert full_grid["elapsed"] < 600.0
