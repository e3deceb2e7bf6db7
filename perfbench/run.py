"""Serial benchmark of the netsel pipeline on generated workloads.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 43 --trace 0

Run from the root of a source checkout; netsel is imported from ``src``.
The benchmark writes the workload's inputs, then runs rounds until
``--seconds`` is spent (at least two). A round is one fresh interpreter
running ingest -> infer -> evaluate -> select -> report into a fresh output
directory, followed by the output checks in checks.py. Every round of a run
uses the same inputs, so later rounds must reproduce the first round's
results.csv and selection.csv byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
``run_s`` and ``evaluate_s`` are means over the run's rounds (total time /
rounds), and ``records_per_s`` is total records / total evaluate time: a
run holds only three or four rounds, and a median of three would time one
round of the run where the mean times all of them. ``setup_s`` and ``peak_rss_mb`` are
medians over the rounds. With ``--trace 1`` rounds alternate untraced and
traced, and the line reports the per-layer metrics of the traced rounds
beside the untraced stage times, so the tracing overhead shows. The metric
names printed are exactly those BENCHMARK.json lists.
"""

from __future__ import annotations

import os

# pin BLAS / OpenMP pools before numpy loads, here and in every round
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import RETURN_COUNTS, WRAPPED  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_ROUNDS = 2
# a run must end within 180 s; no round starts that could cross this
DEADLINE_S = 165.0
STAGES = ("ingest", "infer", "evaluate", "select", "report")


def median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Round:
    """One pipeline run plus its checks."""

    stages: dict
    rss_mb: float
    trace: dict | None
    records: int
    batches_bytes: int
    cells: int
    failures: dict
    hashes: tuple

    @property
    def run_s(self) -> float:
        return sum(self.stages.values())


def run_round(workload: str, seed: int, config_path: Path, out_dir: Path,
              traced: bool, timeout: float, expected: dict | None) -> Round:
    result_path = out_dir.with_suffix(".json")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(HERE / "stages.py"), str(config_path),
         str(out_dir), str(result_path), "1" if traced else "0"],
        env=env, stdout=sys.stderr, check=True, timeout=timeout)
    res = json.loads(result_path.read_text())
    failures = checks.run_checks(workload, out_dir, seed, expected)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    with open(out_dir / "batches.tsv", "rb") as fh:
        records = sum(1 for _ in fh) - 1
    rnd = Round(
        stages=res["stages"], rss_mb=res["peak_rss_mb"], trace=res["trace"],
        records=records,
        batches_bytes=(out_dir / "batches.tsv").stat().st_size,
        cells=manifest["n_configs"], failures=failures,
        hashes=(checks.file_hash(out_dir / "results.csv"),
                checks.file_hash(out_dir / "selection.csv")))
    shutil.rmtree(out_dir)
    result_path.unlink()
    return rnd


def end_to_end(rounds: list[Round]) -> dict:
    evaluate = sum(r.stages["evaluate"] for r in rounds)
    return {
        "run_s": (sum(r.run_s for r in rounds) / len(rounds), "s"),
        "setup_s": (median(r.stages["ingest"] + r.stages["infer"]
                           for r in rounds), "s"),
        "evaluate_s": (evaluate / len(rounds), "s"),
        "records_per_s": (sum(r.records for r in rounds) / evaluate,
                          "records/s"),
        "peak_rss_mb": (median(r.rss_mb for r in rounds), "MB"),
    }


def per_layer(plain: list[Round], traced: list[Round]) -> dict:
    out = {}
    for name in WRAPPED:
        out[f"{name}.self_s"] = (
            median(r.trace["self_s"][name] for r in traced), "s")
        out[f"{name}.calls"] = (
            median(r.trace["calls"][name] for r in traced), "count")
    for _, count, _ in RETURN_COUNTS:
        out[count] = (median(r.trace["counts"][count] for r in traced),
                      "count")
    trained = median(r.trace["calls"]["learn.train_classifier"]
                     for r in traced)
    lookups = median(r.trace["calls"]["tasks.ClassifierPool.get"]
                     for r in traced)
    out["tasks.pool.trained"] = (trained, "count")
    out["tasks.pool.hit_ratio"] = (
        1.0 - trained / lookups if lookups else 0.0, "ratio")
    out["experiment.batches_bytes"] = (
        median(r.batches_bytes for r in traced), "bytes")
    out["work.cells"] = (median(r.cells for r in traced), "count")
    out["work.records"] = (median(r.records for r in traced), "count")
    for stage in STAGES:
        out[f"stage.{stage}_s"] = (
            median(r.stages[stage] for r in plain), "s")
    traced_s = median(r.run_s for r in traced)
    plain_s = median(r.run_s for r in plain)
    out["trace.run_s"] = (traced_s, "s")
    out["trace.untraced_run_s"] = (plain_s, "s")
    out["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    return out


def listed_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json names for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    # on SIGTERM, unwind so the running round is killed and reaped and the
    # run directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "netsel" / "__init__.py").is_file():
        print(f"perfbench: no netsel sources under {SRC}", file=sys.stderr)
        return 2
    listed = listed_metrics(bool(args.trace))

    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    config, log = workloads.write_inputs(args.workload, args.seed,
                                         run_dir / "inputs")
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")
    # the label positives the CC records must match, from the written log
    expected = checks.positives_from_events(*log) if log else None
    del log

    rounds: list[Round] = []
    attempted = failed = 0
    slowest = 0.0
    t_measure = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            left = DEADLINE_S - (t0 - t_start)
            rnd = run_round(args.workload, args.seed, config_path,
                            run_dir / f"round{len(rounds)}", traced, left,
                            expected)
            attempted += 1 + len(rnd.failures)
            if rounds:
                attempted += 1
                if rnd.hashes != rounds[0].hashes:
                    rnd.failures["check_determinism"] = \
                        "results.csv / selection.csv differ from round 0"
            for name, why in rnd.failures.items():
                if why is not None:
                    failed += 1
                    print(f"perfbench: round {len(rounds)} {name}: {why}",
                          file=sys.stderr)
            rounds.append(rnd)
            now = time.perf_counter()
            # stop before a round as slow as the slowest so far would
            # overrun the run's time
            slowest = max(slowest, now - t0)
            if len(rounds) >= MIN_ROUNDS and \
                    now - t_measure + slowest > args.seconds:
                break
            if now - t_start + 1.5 * slowest > DEADLINE_S:
                break
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: pipeline round failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in rounds if r.trace is None]
    if args.trace:
        traced_rounds = [r for r in rounds if r.trace is not None]
        metrics = per_layer(plain, traced_rounds)
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-{args.seed}.json").write_text(
            json.dumps([r.trace for r in traced_rounds], indent=1) + "\n")
    else:
        metrics = end_to_end(rounds)
    if set(metrics) != set(listed) or any(
            metrics[name][1] != unit for name, unit in listed.items()):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(listed))}", file=sys.stderr)
        return 1
    for r, rnd in enumerate(rounds):
        stage_text = " ".join(f"{s}={rnd.stages[s]:.3f}" for s in STAGES)
        print(f"round {r} {'traced' if rnd.trace else 'plain'}: "
              f"{stage_text} rss_mb={rnd.rss_mb:.1f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
