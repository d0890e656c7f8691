#!/usr/bin/env python3
"""End-to-end experiment driver.

Runs the full pipeline for one config: dataset generation, phase-1
structural embedding training, phase-2 adapter fine-tuning for the
text-only and adapter-free baselines plus the full method, the
trainable-parameter audit, and a final test-split evaluation. Each
arm's report is snapshotted to report_<arm>.json (phase-2 always writes
report.json, so later arms would otherwise overwrite earlier ones) and
a comparison table is printed at the end.

The full method runs last, and the final evaluation loads its
checkpoint under the config's arm. A config naming another arm
therefore stops at that `evaluate`, which refuses a checkpoint holding
tensors the configured arm does not train (exit 1).

Usage:
    python3 scripts/run_experiment.py --config configs/micro.cfg --force
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sagefuse.cli import main as cli  # noqa: E402
from sagefuse.config import ExperimentConfig  # noqa: E402

# The full method runs last so `evaluate` picks up its checkpoints.
BASELINES = ("text_only", "lora_only", "fused")


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--seeds", help="comma-separated seed override")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")
    parser.add_argument("--skip-baselines", action="store_true",
                        help="run only the full method")
    args = parser.parse_args()

    common = ["--config", args.config]
    if args.out:
        common += ["--out", args.out]
    if args.seeds:
        common += ["--seeds", args.seeds]

    cfg = ExperimentConfig.from_file(args.config)
    out = Path(args.out or cfg.output.dir)

    force = ["--force"] if args.force else []
    run(common + force + ["gen-data"])
    run(common + force + ["phase1"])

    arms = BASELINES[-1:] if args.skip_baselines else BASELINES
    reports = {}
    for i, arm in enumerate(arms):
        # Each arm after the first overwrites the phase-2 outputs of the one
        # before, which its report_<arm>.json snapshot keeps.
        run(common + (force if i == 0 else ["--force"])
            + ["phase2", "--baseline", arm])
        report_path = out / "phase2" / "report.json"
        shutil.copy(report_path, out / "phase2" / f"report_{arm}.json")
        reports[arm] = json.loads(report_path.read_text())

    run(common + ["audit"])

    print()
    print(f"{'arm':<12} {'metric':<10} {'mean':>8} {'std':>8}")
    for arm, report in reports.items():
        std = ("n/a" if report["metric_std"] is None
               else f"{report['metric_std']:.4f}")
        print(f"{arm:<12} {report['metric_name']:<10} "
              f"{report['metric_mean']:>8.4f} {std:>8}")
    print()

    run(common + ["evaluate", "--split", "test"])


if __name__ == "__main__":
    main()
