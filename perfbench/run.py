"""sagefuse benchmark runner.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 40 \
        --trace 0

Runs whole pipelines (import, gen-data, phase1, phase2, evaluate) of one
workload, each in a fresh `worker.py` process, until `--seconds` is used up,
checks every repetition's outputs, and prints one JSON object as the last
line of standard output: the end-to-end metrics with `--trace 0`, the
per-layer metrics of traced repetitions with `--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.cfg"))

END_TO_END = {
    # name: unit
    "setup_s": "s",
    "phase1_s": "s",
    "phase2_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "phase2_nodes_per_s": "nodes/s",
    "peak_rss_mb": "MiB",
    "test_metric": "fraction",
}
TIMED = ("setup_s", "phase1_s", "phase2_s", "evaluate_s", "pipeline_s")

BLAS_THREADS = "1"     # pinned: at most nproc, and the same on every host
MIN_REPS = 3           # per kind of repetition (untraced, traced)
DEADLINE_S = 165       # a run must end within 180 s


def git_sha(root):
    """Commit of a git checkout, read from .git without running git; None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(values):
    """Highest order statistic with at least ten samples above it, and its
    percentile; None with ten samples or fewer."""
    if len(values) <= 10:
        return None
    k = len(values) - 11
    return {"value": sorted(values)[k], "percentile": 100.0 * (k + 1) /
            len(values)}


def rep_metrics(r):
    setup = r["import_s"] + r["gen_data_s"]
    return {"setup_s": setup, "phase1_s": r["phase1_s"],
            "phase2_s": r["phase2_s"], "evaluate_s": r["evaluate_s"],
            "pipeline_s": setup + r["phase1_s"] + r["phase2_s"]
            + r["evaluate_s"],
            "phase2_nodes_per_s": r["phase2_train_nodes"] / r["phase2_s"],
            "peak_rss_mb": r["peak_rss_mb"], "test_metric": r["test_metric"]}


class Bench:
    def __init__(self, args):
        self.args = args
        self.config = HERE / "workloads" / f"{args.workload}.cfg"
        base = ROOT / ".perfbench"
        self.work = base / "work" / f"{args.workload}-{os.getpid()}"
        self.results = base / "results"
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS)
        self.started = time.perf_counter()
        self.reps = []       # (kind, result or None, problems)

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def worker(self, *extra):
        cmd = [sys.executable, str(HERE / "worker.py"), "--config",
               str(self.config), "--seed", str(self.args.seed), *extra]
        return subprocess.run(cmd, env=self.env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, self.remaining()))

    def repetition(self, kind):
        """One worker process; kind is "plain", "traced" or "setup"."""
        out = self.work / f"rep{len(self.reps)}"
        extra = ["--out", str(out)]
        if kind == "traced":
            spans = self.results / f"{self.args.workload}-seed" \
                f"{self.args.seed}-spans.jsonl"
            extra += ["--trace", "--spans", str(spans)]
        elif kind == "setup":
            extra += ["--stop-after", "gen-data"]
        start = time.perf_counter()
        try:
            proc = self.worker(*extra)
        except subprocess.TimeoutExpired:
            self.reps.append((kind, None, ["worker timed out"]))
            return 0.0
        finally:
            shutil.rmtree(out, ignore_errors=True)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            err = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            self.reps.append((kind, None,
                              [f"worker exit {proc.returncode}: {err[0]}"]))
            return seconds
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = [f"{k}: {v}" for k, v in result["checks"].items() if v]
        self.reps.append((kind, result, problems))
        return seconds

    def run(self):
        self.results.mkdir(parents=True, exist_ok=True)
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            warm = self.worker("--out", str(self.work), "--stop-after",
                               "import")
            if warm.returncode != 0:
                sys.stderr.write(warm.stderr)
                raise SystemExit(f"error: cannot import sagefuse from "
                                 f"{ROOT / 'src'}")
            self.measure()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self.summarize()

    def measure(self):
        """Whole pipelines until the next one would overrun --seconds (at
        least MIN_REPS of each kind); untraced runs then fill the time left
        with set-up-only repetitions, for more samples of setup_s."""
        kinds = ["plain", "traced"] if self.args.trace else ["plain"]
        window = time.perf_counter()
        longest = {"pipeline": 0.0, "setup": 0.0}
        pipelines = 0
        while True:
            elapsed = time.perf_counter() - window
            enough = pipelines >= MIN_REPS * len(kinds)
            if not enough or elapsed + longest["pipeline"] <= \
                    self.args.seconds:
                kind, slot = kinds[pipelines % len(kinds)], "pipeline"
                pipelines += 1
            elif not self.args.trace and \
                    elapsed + longest["setup"] <= self.args.seconds:
                kind, slot = "setup", "setup"
            else:
                break
            if self.remaining() < 2 * longest[slot]:
                break
            longest[slot] = max(longest[slot], self.repetition(kind))

    def summarize(self):
        # Timings come from every repetition that completed, also one whose
        # outputs failed a check: the failure is counted, the time is real.
        ok = [(k, r) for k, r, _ in self.reps if r is not None]
        if not ok:
            raise SystemExit("error: no repetition completed: " +
                             "; ".join(p for _, _, ps in self.reps
                                       for p in ps))
        # Every repetition of one seed must write the same report bytes and
        # read the same generated dataset, traced or not.
        for key in ("report_sha256", "nodes_sha256"):
            if len({r[key] for _, r in ok if key in r}) > 1:
                for _, r, problems in self.reps:
                    if r is not None and key in r:
                        problems.append(f"{key} differs between "
                                        "repetitions of this seed")
        failed = sum(1 for _, _, p in self.reps if p)
        problems = sorted({p for _, _, ps in self.reps for p in ps})

        plain = [rep_metrics(r) for k, r in ok if k == "plain"]
        traced = [r for k, r in ok if k == "traced"]
        samples = {name: [m[name] for m in plain] for name in END_TO_END}
        samples["setup_s"] = [r["import_s"] + r["gen_data_s"]
                              for k, r in ok if k in ("plain", "setup")]
        samples["evaluate_s"] = [s for k, r in ok if k == "plain"
                                 for s in r["evaluate_samples"]]
        detail = {"workload": self.args.workload, "seed": self.args.seed,
                  "seconds": self.args.seconds, "trace": self.args.trace,
                  "attempted": len(self.reps), "failed": failed,
                  "problems": problems, "git_sha": git_sha(ROOT),
                  "env": next((r["env"] for _, r in ok if "env" in r), None),
                  "samples": {}}
        metrics = {}
        if not self.args.trace:
            for name, unit in END_TO_END.items():
                values = samples[name]
                if not values:
                    continue
                metrics[name] = {"value": statistics.median(values),
                                 "unit": unit}
                detail["samples"][name] = {
                    "n": len(values), "median": statistics.median(values),
                    "tail": tail(values) if name in TIMED else None,
                    "values": values}
        else:
            for name, (unit, _) in LAYER_METRICS.items():
                values = [r["layers"][name] for r in traced
                          if name in r["layers"]]
                if values:
                    metrics[name] = {"value": statistics.median(values),
                                     "unit": unit}
            if plain and traced:
                p = statistics.median(m["pipeline_s"] for m in plain)
                t = statistics.median(rep_metrics(r)["pipeline_s"]
                                      for r in traced)
                metrics["trace.overhead_share"] = {"value": t / p - 1.0,
                                                   "unit": "fraction"}
                detail["samples"]["pipeline_s"] = {"untraced": p,
                                                   "traced": t}
        detail["metrics"] = metrics
        name = f"{self.args.workload}-seed{self.args.seed}-" \
            f"trace{self.args.trace}.json"
        (self.results / name).write_text(json.dumps(detail, indent=2) + "\n")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        print(json.dumps({k: v for k, v in detail.items()
                          if k not in ("samples", "metrics")}))
        return {"correct": failed == 0, "attempted": len(self.reps),
                "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sagefuse" / "__init__.py").is_file():
        print(f"error: no sagefuse sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = Bench(args).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
