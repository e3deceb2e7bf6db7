"""Command line front end.

One experiment file drives everything; subcommands expose the pipeline
stages individually so long runs can be resumed or inspected between
stages. `run` chains every stage and produces the same bytes as running
the stages one by one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import (ExperimentConfig, ExperimentError, run_experiment,
                         stage_evaluate, stage_infer, stage_ingest,
                         stage_report, stage_select)


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    if not path.exists():
        raise ExperimentError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ExperimentError("config file must hold a JSON object")
    # overrides go through the same checks as the file's own values
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.out is not None:
        raw["out"] = args.out
    if args.strict:
        raw["dataset"] = dict(raw.get("dataset", {}), strict=True)
    return ExperimentConfig.from_dict(raw)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", "-c", required=True,
                   help="experiment file (JSON)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.add_argument("--workers", "-j", type=int, default=None,
                   help="override the worker count")
    p.add_argument("--out", "-o", default=None,
                   help="override the output directory")
    p.add_argument("--strict", action="store_true",
                   help="treat malformed input lines as fatal")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsel",
        description="Select attribute-inferred network models by task "
                    "performance stability.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run every stage end to end"),
        ("ingest", "build and cache the partitioned dataset"),
        ("synth", "alias of ingest for synthetic datasets"),
        ("infer", "build the candidate networks"),
        ("evaluate", "run the task grid over the networks"),
        ("select", "selection statistics from results.csv"),
        ("report", "regenerate record-level reports from cached batches"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out_dir = Path(cfg.out)
        if args.command == "run":
            run_experiment(cfg)
        elif args.command in ("ingest", "synth"):
            if args.command == "synth" and cfg.dataset.get("synth") is None:
                raise ExperimentError(
                    "synth subcommand needs a dataset.synth block")
            stage_ingest(cfg, out_dir)
        elif args.command == "infer":
            stage_infer(cfg, out_dir)
        elif args.command == "evaluate":
            stage_evaluate(cfg, out_dir)
        elif args.command == "select":
            stage_select(out_dir)
        elif args.command == "report":
            stage_report(out_dir)
    except Exception as exc:  # noqa: BLE001 - single exit point
        print(f"netsel {args.command}: error: {exc}", file=sys.stderr)
        return 1
    print(f"netsel {args.command}: done ({out_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
