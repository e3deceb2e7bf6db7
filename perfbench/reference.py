"""Reference runs: not gated, figures for the README.

    python3 perfbench/reference.py [grid96] [scale]

grid96 runs the 96-cell acceptance grid (n = 500, seed 3) serially and
with 2 workers and checks both runs against the output hashes pinned in
ROADMAP.md. scale runs one KNN-INT family with LP local-adjacency and SVM
at n = 500, 1000 and 2000 (the ROADMAP scale rows). Each run is one fresh
interpreter (stages.py) with BLAS threads pinned to 1; outputs go to
.perfbench/reference and are removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from run import HERE, SRC, STAGES, WORK

PINNED = {
    "results.csv":
        "c5fcd6ad1ce8684c30ceeaba17a9663ca0b378a07408354a2b41d819f268a8e2",
    "selection.csv":
        "442cea2edd594a1f80ecb4b756c3ebc55fb02fda4a59437818889becf311cbb1",
}
LP_PREP = ("experiment.prepare_family", "graph.split_edges_random",
           "tasks.assign_lp_eval", "graph.incident_nonedges")


def grid96(workers: int) -> dict:
    return {
        "dataset": {"synth": {"seed": 3, "n_nodes": 500, "n_items": 1000}},
        "grid": {
            "models": ["KNN", "TH"],
            "measures": ["INT", "INT-N"],
            "densities": [0.0025, 0.01],
            "localities": ["local-adjacency", "ensemble:attr-sum",
                           "global"],
            "tasks": ["CC", "LP"],
            "classifiers": ["linear-svm", "random-forest"],
        },
        "seed": 3,
        "workers": workers,
    }


def scale(n: int) -> dict:
    return {
        "dataset": {"synth": {"seed": 3, "n_nodes": n, "n_items": 1000}},
        "grid": {
            "models": ["KNN"], "measures": ["INT"], "densities": [0.0025],
            "localities": ["local-adjacency"], "tasks": ["LP"],
            "classifiers": ["linear-svm"],
        },
        "seed": 3,
        "workers": 1,
    }


def run_once(name: str, config: dict, trace: bool) -> tuple[dict, Path]:
    base = WORK / "reference" / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    (base / "config.json").write_text(json.dumps(config))
    subprocess.run(
        [sys.executable, str(HERE / "stages.py"), str(base / "config.json"),
         str(base / "out"), str(base / "result.json"), "1" if trace else "0"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return json.loads((base / "result.json").read_text()), base


def main(argv: list[str]) -> int:
    which = argv or ["grid96", "scale"]
    ok = True
    if "grid96" in which:
        for workers in (1, 2):
            res, base = run_once(f"grid96-w{workers}", grid96(workers),
                                 False)
            hashes = {f: checks.file_hash(base / "out" / f) for f in PINNED}
            match = hashes == PINNED
            ok &= match
            stages = " ".join(f"{s} {res['stages'][s]:.2f} s"
                              for s in STAGES)
            print(f"grid96 workers={workers}: {stages}; total "
                  f"{sum(res['stages'].values()):.1f} s; peak rss "
                  f"{res['peak_rss_mb']:.0f} MB; hashes "
                  f"{'match' if match else 'DIFFER: ' + str(hashes)}",
                  flush=True)
            shutil.rmtree(base)
    if "scale" in which:
        for n in (500, 1000, 2000):
            res, base = run_once(f"scale-{n}", scale(n), True)
            prep = sum(res["trace"]["self_s"][f] for f in LP_PREP)
            st = res["stages"]
            print(f"scale n={n}: ingest {st['ingest']:.2f} s, infer "
                  f"{st['infer']:.2f} s, LP prep {prep:.2f} s (traced), "
                  f"evaluate {st['evaluate']:.2f} s, peak rss "
                  f"{res['peak_rss_mb']:.0f} MB", flush=True)
            shutil.rmtree(base)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
