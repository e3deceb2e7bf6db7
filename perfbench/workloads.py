"""The benchmark's workloads: experiment configs and generated inputs.

Each workload turns the benchmark seed into the files the program reads: a
config (always) and, for ``cc-events``, an event file and a rules file.
The program never sees the seed itself, only these files. Every workload
runs serially (``workers = 1``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# grid: the acceptance-grid shape (2 models x 2 measures x 2 densities x
# 4 localities x 2 tasks x 2 classifiers = 128 cells over 8 families),
# shrunk in n and forest size. Many small cells put the weight on the
# ensemble vote, RF training and the per-cell classifier pool; the 8
# families share one training matrix.
GRID_NODES = 48
GRID_ITEMS = 400
GRID_DENSITIES = [0.05, 0.1]  # KNN k = 2 and 4 at n = 48
GRID_TREES = 5
GRID_PLANT = {"n_groups": 2, "subgroups_per_group": 2}  # 6 label rules

# lp-scale: one KNN-INT family at large n, LP only. Few large cells put the
# weight on infer (all-pairs intersections), LP preparation and pair
# features; there is no ensemble, RF or Louvain. k = 4 gives the evaluate
# stage about two thirds of a round, so evaluate_s is timed over most of
# the run rather than a third of it.
LP_NODES = 1000
LP_ITEMS = 1000
LP_DENSITY = 0.005  # KNN k = 4 at n = 1000

# cc-events: an event log and label rules written by the benchmark and
# ingested through dataset.events. CC only over 4 families.
CC_NODES = 400
CC_GROUPS = 10
CC_GROUP_ITEMS = 30
CC_NOISE_ITEMS = 1200
CC_EVENTS_PER_NODE = 200
CC_DENSITY = 0.01  # KNN k = 3 at n = 400
CC_BFS_K = 50
CC_SPAN = 90_000  # timestamps lie in [0, CC_SPAN)

WORKLOADS = ("grid", "lp-scale", "cc-events")


def workload_seed(seed: int, name: str) -> int:
    """Dataset seed for the program, derived from the benchmark seed."""
    return int(np.random.SeedSequence(
        [seed, WORKLOADS.index(name)]).generate_state(1)[0])


def grid_config(seed: int) -> dict:
    return {
        "dataset": {"synth": {"seed": workload_seed(seed, "grid"),
                              "n_nodes": GRID_NODES,
                              "n_items": GRID_ITEMS,
                              "plant": GRID_PLANT}},
        "grid": {
            "models": ["KNN", "TH"],
            "measures": ["INT", "INT-N"],
            "densities": GRID_DENSITIES,
            "localities": ["local-adjacency", "community",
                           "ensemble:attr-sum", "global"],
            "tasks": ["CC", "LP"],
            "classifiers": ["linear-svm", "random-forest"],
        },
        "rf": {"trees": GRID_TREES},
        "seed": seed,
        "workers": 1,
    }


def lp_scale_config(seed: int) -> dict:
    return {
        "dataset": {"synth": {"seed": workload_seed(seed, "lp-scale"),
                              "n_nodes": LP_NODES, "n_items": LP_ITEMS}},
        "grid": {
            "models": ["KNN"],
            "measures": ["INT"],
            "densities": [LP_DENSITY],
            "localities": ["local-adjacency", "global"],
            "tasks": ["LP"],
            "classifiers": ["linear-svm", "coin"],
        },
        "seed": seed,
        "workers": 1,
    }


def cc_events_inputs(seed: int):
    """A grouped event log and one label rule per group.

    Each node belongs to one group and, in every event, touches either one
    of its group's items or a noise item. Values are small integers, so
    aggregated sums are exact in float64. Raw node ids are sparse random
    integers (the program remaps them), and events are written in time
    order. Returns (events array [node, item, value, time], rules list).
    """
    rng = np.random.default_rng([seed, WORKLOADS.index("cc-events")])
    raw_nodes = np.sort(rng.choice(10**7, size=CC_NODES, replace=False))
    group_items = 1000 + np.arange(CC_GROUPS * CC_GROUP_ITEMS).reshape(
        CC_GROUPS, CC_GROUP_ITEMS)
    noise_items = 100_000 + np.arange(CC_NOISE_ITEMS)
    group = rng.permutation(np.arange(CC_NODES) % CC_GROUPS)
    # per-node affinity to its group: strong members cross the label
    # threshold, weak ones mostly do not
    affinity = rng.permutation(np.linspace(0.05, 0.6, CC_NODES))
    m = CC_NODES * CC_EVENTS_PER_NODE
    node = np.repeat(np.arange(CC_NODES), CC_EVENTS_PER_NODE)
    in_group = rng.random(m) < affinity[node]
    item = np.where(
        in_group,
        group_items[group[node], rng.integers(0, CC_GROUP_ITEMS, size=m)],
        noise_items[rng.zipf(1.6, size=m) % CC_NOISE_ITEMS])
    value = rng.integers(1, 4, size=m)
    stamp = rng.integers(0, CC_SPAN, size=m)
    order = np.argsort(stamp, kind="stable")
    events = np.column_stack([raw_nodes[node], item, value, stamp])[order]
    rules = [{"name": f"group-{g}", "items": [int(i) for i in items],
              "min_count": 8, "min_value": 3.0}
             for g, items in enumerate(group_items)]
    return events, rules


def write_inputs(name: str, seed: int, in_dir: Path):
    """Write the workload's input files under in_dir.

    Returns the config (its ``out`` is set per round) and, for
    ``cc-events``, the (events, rules) written, else None.
    """
    in_dir.mkdir(parents=True, exist_ok=True)
    if name == "grid":
        return grid_config(seed), None
    if name == "lp-scale":
        return lp_scale_config(seed), None
    events, rules = cc_events_inputs(seed)
    events_path = in_dir / "events.tsv"
    rules_path = in_dir / "rules.json"
    with open(events_path, "w") as fh:
        fh.write("node\titem\tvalue\ttimestamp\n")
        np.savetxt(fh, events, fmt="%d", delimiter="\t")
    rules_path.write_text(json.dumps(rules, indent=1) + "\n")
    config = {
        "dataset": {"events": str(events_path), "rules": str(rules_path)},
        "grid": {
            "models": ["KNN", "TH"],
            "measures": ["INT", "INT-N"],
            "densities": [CC_DENSITY],
            "localities": ["local-adjacency", f"local-bfs:{CC_BFS_K}",
                           "community"],
            "tasks": ["CC"],
            "classifiers": ["linear-svm"],
        },
        "seed": seed,
        "workers": 1,
    }
    return config, (events, rules)
