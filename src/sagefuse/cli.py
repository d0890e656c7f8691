"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .autodiff import NumericsError
from .config import ConfigError, ExperimentConfig
from .metrics import MetricError
from .tag import GraphFormatError
from .tensorio import TensorFormatError
from .textenc import VocabError
from .trainer import BASELINES
from . import pipeline

USAGE_ERRORS = (ConfigError, GraphFormatError, VocabError)
RUNTIME_ERRORS = (pipeline.PipelineError, NumericsError, MetricError,
                  TensorFormatError, OSError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sagefuse",
        description="Two-phase structure-aware fine-tuning pipeline for "
                    "text-attributed graphs.")
    parser.add_argument("--config", metavar="PATH",
                        help="experiment config file (defaults apply "
                             "when omitted)")
    parser.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")
    parser.add_argument("--seeds", metavar="LIST",
                        help="comma-separated seed list override")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", help="generate the synthetic dataset files")
    sub.add_parser("phase1", help="node features + GraphSAGE training")
    p2 = sub.add_parser("phase2", help="adapter fine-tuning seed sweep")
    p2.add_argument("--baseline", choices=BASELINES,
                    help="override the baseline mode")
    sub.add_parser("audit", help="trainable-parameter audit for the "
                                 "configured shapes")
    ab = sub.add_parser("ablate", help="rank or prompt ablation sweep")
    ab.add_argument("--what", required=True, choices=("rank", "prompt"))
    default_ranks = ",".join(map(str, pipeline.DEFAULT_ABLATION_RANKS))
    ab.add_argument("--ranks", metavar="LIST",
                    help=f"comma-separated ranks (default {default_ranks})")
    ab.add_argument("--prompts", metavar="LIST",
                    help="semicolon-separated prompts")
    ev = sub.add_parser("evaluate", help="evaluate a saved phase-2 checkpoint")
    ev.add_argument("--split", default="test",
                    choices=("train", "val", "test"))
    ev.add_argument("--seed", type=int, help="checkpoint seed (default: "
                                             "first configured seed)")
    return parser


def _int_list(flag, text):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, "
                          f"got {text!r}")


# Commands that build the encoder's weights. The encoder has separate q, k
# and v projections, so `fused_qkv` describes a shape only `audit` counts.
WEIGHT_COMMANDS = ("phase1", "phase2", "evaluate", "ablate")


def _load_config(args):
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    if args.out:
        cfg.output.dir = args.out
    if args.seeds:
        cfg.trainer.seeds = _int_list("--seeds", args.seeds)
    if getattr(args, "baseline", None):
        cfg.trainer.baseline = args.baseline
    cfg.validate()
    if cfg.backbone.fused_qkv and args.command in WEIGHT_COMMANDS:
        raise ConfigError("[backbone] fused_qkv = true is an audit-only "
                          f"shape; {args.command} builds an encoder with "
                          "separate q, k, v projections")
    return cfg


def _dispatch(args):
    cfg = _load_config(args)
    if args.command == "gen-data":
        graph, out = pipeline.run_gen_data(cfg, force=args.force)
        print(f"wrote {graph.num_nodes} nodes, "
              f"{len(graph.indices) // 2} edges to {out}")
    elif args.command == "phase1":
        result = pipeline.run_phase1(cfg, force=args.force)
        print(f"phase-1 done: best epoch {result.best_epoch}, "
              f"val {result.metric_name} {result.val_metric:.4f}")
    elif args.command == "phase2":
        report = pipeline.run_phase2(cfg, force=args.force)
        std = "n/a" if report.metric_std is None else f"{report.metric_std:.4f}"
        print(f"phase-2 [{report.baseline}] {report.metric_name}: "
              f"mean {report.metric_mean:.4f} std {std} "
              f"over seeds {list(cfg.trainer.seeds)}")
    elif args.command == "audit":
        audit = pipeline.run_audit(cfg)
        print(audit.table())
    elif args.command == "ablate":
        kwargs = {}
        if args.ranks:
            kwargs["ranks"] = _int_list("--ranks", args.ranks)
        if args.prompts is not None:
            kwargs["prompts"] = tuple(args.prompts.split(";"))
        _, text = pipeline.run_ablate(cfg, args.what, **kwargs)
        print(text, end="")
    elif args.command == "evaluate":
        result = pipeline.run_evaluate(cfg, split=args.split, seed=args.seed)
        print(json.dumps(result))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        return _dispatch(args)
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RUNTIME_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
