"""Command-line entry point: ``visitscope <stage> --config path [flags...]``."""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import STAGES, ConfigError, Pipeline, PipelineConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
# flag -> the config field it sets: flag > config > default
FLAGS = {"--out": "out_dir", "--seed": "model.seed", "--tau": "quality.tau_hours", "--T": "quality.t_days",
         "--max-speed": "quality.max_speed_kmh", "--mu-t-min": "quality.mu_t_min"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visitscope",
        description="Trajectory quality, visit extraction, GMM visit taxonomy, and pattern reports.",
    )
    parser.add_argument("stage", choices=STAGES + ("all",), help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the pipeline config JSON")
    for flag, path in FLAGS.items():
        section, _, key = path.rpartition(".")
        kind = type(PipelineConfig.DEFAULTS[section][key]) if section else str  # the schema's type of the field
        parser.add_argument(flag, type=kind, dest=path, metavar=kind.__name__.upper(), help=f"set {path}")
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
    flags = {path: val for path in FLAGS.values() if (val := getattr(args, path)) is not None}
    return PipelineConfig.from_dict(raw, flags)


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
