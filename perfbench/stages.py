"""Run the five netsel pipeline stages once, timed, in this process.

Usage: python3 stages.py <config.json> <out_dir> <result.json> <trace 0|1>

The benchmark starts this script in a fresh interpreter for every round,
so the pipeline's peak resident memory is this process's own. netsel is
imported before the clock starts: interpreter start and imports are not
part of any stage time. With trace 1, the calls into each module's public
functions are wrapped from outside the package (see spans.py) and the
per-function totals are written next to the stage times.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from netsel import experiment
from netsel.experiment import ExperimentConfig

from spans import Tracer, install


def run_stages(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Wall seconds per stage. The stage functions are looked up at call
    time, so traced runs go through the installed wrappers."""
    out_dir.mkdir(parents=True)
    steps = (
        ("ingest", lambda: experiment.stage_ingest(cfg, out_dir)),
        ("infer", lambda: experiment.stage_infer(cfg, out_dir)),
        ("evaluate", lambda: experiment.stage_evaluate(cfg, out_dir)),
        ("select", lambda: experiment.stage_select(out_dir)),
        ("report", lambda: experiment.stage_report(out_dir)),
    )
    times = {}
    for name, step in steps:
        t0 = time.perf_counter()
        step()
        times[name] = time.perf_counter() - t0
    return times


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    getrusage's ru_maxrss is carried across exec, so it would report the
    benchmark parent's size when that is larger; VmHWM starts afresh.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    config_path, out_dir, result_path, trace = argv
    cfg = ExperimentConfig.load(config_path)
    cfg.out = out_dir
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        install(tracer)
    times = run_stages(cfg, Path(out_dir))
    result = {
        "stages": times,
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.table() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
