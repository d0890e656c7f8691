#!/usr/bin/env python3
"""Paired seed comparison of two checkouts' reports.

Runs each checkout's `perfbench/worker.py` (gen-data, phase1, phase2,
evaluate) on one workload config at each dataset seed, and prints per seed
the two `test_metric` values, their difference (head − base) and whether
the two `report_sha256` match; then the mean difference, how many seeds
fell and rose, the worst seed and the number of matching reports. Workers
run one at a time with one BLAS thread, as `perfbench/run.py` runs them.
It reports and gates nothing; the exit code is 1 only when a worker fails
or one of its output checks is not null.

Usage:
    python3 scripts/compare_seeds.py --base ../parent --head . \\
        --config perfbench/workloads/deep.cfg --seeds 0-9
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text):
    """"0-9" or "1,4,7" as a list of ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_worker(checkout, config, seed, out):
    """The worker's JSON result, or an error string."""
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "worker.py"),
         "--config", str(config), "--seed", str(seed), "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"worker exited {proc.returncode}: " \
            f"{(proc.stderr.strip().splitlines() or [''])[-1]}"
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the checkout before")
    parser.add_argument("--head", required=True, help="the checkout after")
    parser.add_argument("--config", required=True, help="workload config, "
                        "e.g. perfbench/workloads/deep.cfg")
    parser.add_argument("--seeds", default="0-9",
                        help='dataset seeds, "0-9" or "1,4,7"')
    args = parser.parse_args()
    sides = {"base": Path(args.base).resolve(),
             "head": Path(args.head).resolve()}
    config = Path(args.config).resolve()

    rows, problems = [], []
    print(f"{'seed':>4}  {'base':>8}  {'head':>8}  {'diff':>8}  report")
    with tempfile.TemporaryDirectory() as work:
        for seed in parse_seeds(args.seeds):
            result = {}
            for name, checkout in sides.items():
                r = run_worker(checkout, config, seed,
                               Path(work) / name / f"seed{seed}")
                if isinstance(r, str):
                    problems.append(f"seed {seed} {name}: {r}")
                    continue
                problems += [f"seed {seed} {name}: {check}: {problem}"
                             for check, problem in r["checks"].items()
                             if problem is not None]
                result[name] = r
            if len(result) < 2:
                continue
            base, head = result["base"], result["head"]
            same = base["report_sha256"] == head["report_sha256"]
            diff = head["test_metric"] - base["test_metric"]
            rows.append((seed, base["test_metric"], head["test_metric"],
                         diff, same))
            print(f"{seed:>4}  {base['test_metric']:8.4f}  "
                  f"{head['test_metric']:8.4f}  {diff:+8.4f}  "
                  f"{'same' if same else 'moved'}", flush=True)

    if rows:
        diffs = [r[3] for r in rows]
        fell = sum(d < 0 for d in diffs)
        rose = sum(d > 0 for d in diffs)
        worst = min(rows, key=lambda r: r[3])
        print(f"mean diff {sum(diffs) / len(diffs):+.4f} over {len(rows)} "
              f"seeds; {fell} fell, {rose} rose, {len(rows) - fell - rose} "
              "equal")
        print(f"worst seed {worst[0]}: {worst[1]:.4f} -> {worst[2]:.4f} "
              f"({worst[3]:+.4f})")
        print(f"report_sha256 equal on {sum(r[4] for r in rows)} of "
              f"{len(rows)} seeds")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
