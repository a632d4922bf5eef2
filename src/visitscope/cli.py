"""Command-line entry point: ``visitscope <stage> --config path [overrides...]``."""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import STAGES, ConfigError, Pipeline, PipelineConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visitscope",
        description="Trajectory quality, visit extraction, GMM visit taxonomy, and pattern reports.",
    )
    parser.add_argument("stage", choices=STAGES + ("all",), help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the pipeline config JSON")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seed", type=int, help="override model.seed")
    parser.add_argument("--tau", type=float, help="override quality.tau_hours")
    parser.add_argument("--T", type=int, dest="t_days", help="override quality.t_days")
    parser.add_argument("--max-speed", type=float, help="override quality.max_speed_kmh")
    parser.add_argument("--mu-t-min", type=float, help="override quality.mu_t_min")
    parser.add_argument("--progress-json", action="store_true", help="machine-readable progress on stderr")
    return parser


def load_config(args: argparse.Namespace) -> PipelineConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {args.config}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}")

    # flag > config > default
    if args.out:
        raw["out_dir"] = args.out
    if args.seed is not None:
        raw.setdefault("model", {})["seed"] = args.seed
    if args.tau is not None:
        raw.setdefault("quality", {})["tau_hours"] = args.tau
    if args.t_days is not None:
        raw.setdefault("quality", {})["t_days"] = args.t_days
    if args.max_speed is not None:
        raw.setdefault("quality", {})["max_speed_kmh"] = args.max_speed
    if args.mu_t_min is not None:
        raw.setdefault("quality", {})["mu_t_min"] = args.mu_t_min
    return PipelineConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stages = STAGES if args.stage == "all" else (args.stage,)
    stage = None
    try:
        pipeline = Pipeline(config, progress_json=args.progress_json)
        for stage in stages:
            pipeline.run_stage(stage)
    except Exception as exc:
        where = f"stage {stage}" if stage else f"loading the run manifest in {config.out_dir}"
        print(f"{where} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
