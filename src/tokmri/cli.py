"""Command-line entry point.

Subcommands: gen-data, train, run, bench, show-config.  Exit codes:
0 success, 1 user/config error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, default_config
from .errors import TapeConsistencyError, TokmriError
from .experiment import cmd_bench, cmd_gen_data, cmd_run, cmd_train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokmri",
        description="Active Cartesian MRI sampling via latent token uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="YAML experiment config")
        p.add_argument("--seed", type=int, help="override the command's seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")

    p = sub.add_parser("gen-data", help="generate phantom datasets")
    common(p)

    p = sub.add_parser("train", help="train the tokenizer and the transformer")
    common(p)

    p = sub.add_parser("run", help="run acquisition experiments and metrics")
    common(p)
    p.add_argument("--policy", action="append", metavar="NAME",
                   help="policy to run (repeatable)")
    p.add_argument("--accel", action="append", type=int, metavar="INT",
                   help="acceleration factor (repeatable)")
    p.add_argument("--steps", type=int, metavar="INT",
                   help="active sampling steps per trajectory (acquisition.T)")

    p = sub.add_parser("bench", help="measure per-step policy latency")
    common(p)
    p.add_argument("--steps", type=int, metavar="INT",
                   help="active sampling steps per trajectory (acquisition.T)")

    p = sub.add_parser("show-config", help="print the effective configuration")
    p.add_argument("--config", metavar="PATH", help="YAML experiment config")
    return parser


def load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else default_config()
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.data.master_seed = args.seed
        cfg.train.seed = args.seed
        cfg.acquisition.seeds = [args.seed]
    if getattr(args, "policy", None):
        cfg.acquisition.policies = list(args.policy)
    if getattr(args, "accel", None):
        cfg.acquisition.accelerations = list(args.accel)
    if getattr(args, "steps", None) is not None:
        cfg.acquisition.T = args.steps
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "show-config":
            print(cfg.to_yaml(), end="")
        elif args.command == "gen-data":
            result = cmd_gen_data(cfg)
            print(f"wrote {result.counts} phantoms; manifest at "
                  f"{result.manifest_path}")
        elif args.command == "train":
            result = cmd_train(cfg)
            print(f"tokenizer: {result.tokenizer_path}")
            print(f"model: {result.model_dir}")
            print(f"final token cross-entropy: {result.final_token_ce:.6f}")
        elif args.command == "run":
            result = cmd_run(cfg)
            print(f"metrics: {result.metrics_csv}")
            for s in result.summaries:
                r = "-" if s["R"] is None else s["R"]
                print(f"  {s['policy']:>7} R={r}: nmse={s['nmse']:.5f} "
                      f"psnr={s['psnr']:.2f} ssim={s['ssim']:.4f}")
        elif args.command == "bench":
            result = cmd_bench(cfg)
            for row in result.rows:
                print(f"  {row['policy']:>4}: {row['step_ms_mean']:.1f} "
                      f"± {row['step_ms_std']:.1f} ms/step "
                      f"over {row['steps']} steps")
        return 0
    except TapeConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except TokmriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
