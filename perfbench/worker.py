"""One benchmark repetition, in a process of its own.

Imports sagefuse from the checkout's `src/`, runs the four pipeline
commands in order through their public entry points (gen-data, phase1,
phase2, evaluate --split test), checks the outputs and prints one JSON
object as its last line of standard output. `run.py` starts it; by hand:

    python3 perfbench/worker.py --config perfbench/workloads/acceptance.cfg \
        --seed 1 --out .perfbench/work/manual [--trace --spans spans.jsonl]

With --stop-after gen-data it only imports sagefuse and generates the
dataset, a set-up sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EVAL_REPEATS = 3
EVAL_BUDGET_S = 0.6
AUDIT_TRAINABLE = ("gnn", "fusion", "lora_pairs", "classifier_head",
                   "phase2_trainable", "total_trainable")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _import_sagefuse():
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import sagefuse
    from sagefuse import pipeline
    from sagefuse.config import ExperimentConfig
    seconds = time.perf_counter() - start
    src = Path(sagefuse.__file__).resolve()
    if not src.is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported sagefuse from {src}, not from the "
                         f"checkout at {ROOT / 'src'}")
    return pipeline, ExperimentConfig, seconds


def environment():
    """Library versions and thread settings the timings depend on."""
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def frozen_prefix_share(cfg):
    """Share of encoder layers below the lowest adapted layer: the part
    nothing in phase 2 trains. 1.0 when the arm adapts no layer."""
    run_cfg = cfg.run_config()
    if not any(run_cfg.toggles()):
        return 1.0
    pass1, pass2 = run_cfg.placement(cfg.backbone.layers)
    return min(pass1 + pass2) / cfg.backbone.layers


def seed_problem(cfg, seed, out):
    """None when gen-data ran with the requested dataset seed."""
    manifest = json.loads((out / "data" / "manifest.json").read_text())
    if cfg.dataset.seed == seed and manifest["config_hash"] == cfg.hash():
        return None
    return f"dataset seed {cfg.dataset.seed} or the data manifest's " \
        f"config hash does not match the requested seed {seed}"


def check_outputs(pipeline, cfg, out, phase1, report, evaluated):
    """Fixed-work guards and output checks; name -> problem (None = ok)."""
    checks = {}
    n1 = len(phase1.loss_trace)
    checks["phase1_epochs"] = None if n1 == cfg.sage.epochs else \
        f"{n1} GNN epochs run, {cfg.sage.epochs} configured"
    per_seed = report["per_seed"]
    runs = [(s["seed"], len(s["loss_trace"])) for s in per_seed]
    want = [(s, cfg.trainer.epochs) for s in cfg.trainer.seeds]
    checks["phase2_epochs"] = None if sorted(runs) == sorted(want) else \
        f"(seed, epochs) run {runs}, configured {want}"
    losses = list(phase1.loss_trace) + [x for s in per_seed
                                        for x in s["loss_trace"]]
    checks["finite_losses"] = None if all(map(math.isfinite, losses)) else \
        "non-finite loss in a trace"

    by_seed = {s["seed"]: s["metric"] for s in per_seed}
    checks["evaluate_matches_report"] = None if \
        evaluated["metric"] == by_seed.get(evaluated["seed"]) else \
        f"evaluate gave {evaluated['metric']!r}, report per_seed has " \
        f"{by_seed.get(evaluated['seed'])!r} for seed {evaluated['seed']}"

    # run_audit counts a token table of vocab_max rows, the report counts
    # the table the backbone was built with; everything else must agree.
    analytic = pipeline.run_audit(cfg).as_dict()
    audit = report["audit"]
    vocab, _ = pipeline.load_phase1_artifacts(cfg)
    diff = [k for k in AUDIT_TRAINABLE if audit[k] != analytic[k]]
    backbone = analytic["backbone_total"] + \
        (vocab.size - cfg.backbone.vocab_max) * cfg.backbone.dim
    if audit["backbone_total"] != backbone:
        diff.append("backbone_total")
    if audit["relative_fraction"] != \
            audit["total_trainable"] / audit["backbone_total"]:
        diff.append("relative_fraction")
    checks["audit_matches"] = \
        f"report audit differs from run_audit in {diff}" if diff else None
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    parser.add_argument("--stop-after", choices=("import", "gen-data"),
                        help="end the repetition early: import only (a "
                             "warm-up), or set-up only (import + gen-data)")
    args = parser.parse_args(argv)

    pipeline, ExperimentConfig, import_s = _import_sagefuse()
    if args.stop_after == "import":
        return 0
    cfg = ExperimentConfig.from_file(args.config)
    cfg.dataset.seed = args.seed
    cfg.output.dir = args.out
    cfg.validate()
    out = Path(args.out)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()

    (graph, _), gen_s = _timed(pipeline.run_gen_data, cfg)
    result = {"import_s": import_s, "gen_data_s": gen_s,
              "nodes_sha256": _sha256(out / "data" / "nodes.jsonl"),
              "checks": {"dataset_seed": seed_problem(cfg, args.seed, out)}}
    if args.stop_after == "gen-data":
        print(json.dumps(result))
        return 0
    phase1, phase1_s = _timed(pipeline.run_phase1, cfg)
    _, phase2_s = _timed(pipeline.run_phase2, cfg)
    evaluated, evaluate_s = _timed(pipeline.run_evaluate, cfg, split="test")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # evaluate is short: repeat it (same command, same artifacts) for more
    # samples of evaluate_s, within a small time budget.
    evaluate_samples = [evaluate_s]
    while len(evaluate_samples) < EVAL_REPEATS and \
            sum(evaluate_samples) < EVAL_BUDGET_S:
        again, seconds = _timed(pipeline.run_evaluate, cfg, split="test")
        evaluate_samples.append(seconds)
        if again != evaluated:
            result["checks"]["evaluate_repeats"] = \
                f"evaluate gave {again} after {evaluated}"

    report_path = out / "phase2" / "report.json"
    report = json.loads(report_path.read_text())
    result["checks"].update(
        check_outputs(pipeline, cfg, out, phase1, report, evaluated))
    train_nodes = len(graph.split_ids("train"))
    result.update({
        "phase1_s": phase1_s, "phase2_s": phase2_s,
        "evaluate_s": evaluate_s, "evaluate_samples": evaluate_samples,
        "peak_rss_mb": peak_kib / 1024.0,
        "phase2_train_nodes": sum(len(s["loss_trace"])
                                  for s in report["per_seed"]) * train_nodes,
        "test_metric": report["metric_mean"],
        "report_sha256": _sha256(report_path), "env": environment(),
    })
    if tracer is not None:
        fusion_on, lora_on = cfg.run_config().toggles()
        problems = tracer.missing_calls(fusion_on, lora_on)
        result["checks"]["wrappers_reached"] = "; ".join(problems) or None
        result["layers"] = tracer.layer_metrics({
            "nodes": graph.num_nodes,
            "phase1_epochs": len(phase1.loss_trace),
            "phase2_epochs": [(s["best_epoch"], len(s["loss_trace"]))
                              for s in report["per_seed"]],
            "frozen_prefix_share": frozen_prefix_share(cfg)})
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as f:
                for row in tracer.span_rows():
                    f.write(json.dumps(row) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
