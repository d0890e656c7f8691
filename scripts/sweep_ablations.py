#!/usr/bin/env python3
"""Rank and prompt ablation sweeps.

Requires a completed phase-1 run for the config (see run_experiment.py
or the `phase1` CLI subcommand). Writes ablate_rank.csv and
ablate_prompt.csv under the configured output directory and echoes
both tables. Without --ranks or --prompts a sweep runs the `ablate`
command's default list.

Usage:
    python3 scripts/sweep_ablations.py --config configs/micro.cfg \
        --ranks 2,4 --prompts "classify this node; topic:"
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sagefuse.cli import main as cli  # noqa: E402


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seeds", help="comma-separated seed override")
    parser.add_argument("--ranks", help="comma-separated adapter ranks "
                        "(default: the `ablate` command's)")
    parser.add_argument("--prompts", help="semicolon-separated prompt "
                        "prefixes, an empty entry for no prompt (default: "
                        "the `ablate` command's)")
    args = parser.parse_args()

    common = ["--config", args.config]
    if args.out:
        common += ["--out", args.out]
    if args.seeds:
        common += ["--seeds", args.seeds]

    ranks = ["--ranks", args.ranks] if args.ranks else []
    prompts = [] if args.prompts is None else ["--prompts", args.prompts]
    run(common + ["ablate", "--what", "rank", *ranks])
    run(common + ["ablate", "--what", "prompt", *prompts])


if __name__ == "__main__":
    main()
