"""The benchmark under perfbench/ reaches into sagefuse by name: its tracer
wraps module attributes listed in `SPAN_TARGETS`, its workloads are
sagefuse configs, and its worker reads the graph `run_gen_data` returns. A
rename in sagefuse that breaks one of these would otherwise show only as a
failed benchmark run. These tests read perfbench/ and change nothing
there."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sagefuse.pipeline  # noqa: F401  (the import the tracer relies on)
from sagefuse.config import ExperimentConfig
from sagefuse.pipeline import run_gen_data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = sorted((PERFBENCH / "workloads").glob("*.cfg"))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_exist():
    assert {p.stem for p in WORKLOADS} >= {"acceptance", "deep", "graph"}


def test_every_span_target_resolves():
    tracing = _tracing()
    missing = []
    for dotted, attr, _ in tracing.SPAN_TARGETS:
        try:
            owner = tracing._resolve(dotted)
        except (ImportError, AttributeError) as e:
            missing.append(f"{dotted}: {e}")
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{dotted}.{attr}")
    assert not missing, missing


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_workload_config_loads_and_generates(path, tmp_path):
    cfg = ExperimentConfig.from_file(path)
    cfg.output.dir = str(tmp_path)
    cfg.validate()
    graph, _ = run_gen_data(cfg)
    assert graph.num_nodes == cfg.dataset.n_nodes
    assert len(graph.split_ids("train")) > 0


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_traced_worker_run_passes_its_checks(path, tmp_path):
    """One traced benchmark repetition of each workload, as the benchmark
    starts it: every wrapped span is reached and every output check
    (evaluate against the report, audit, fixed epochs) passes."""
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--config",
         str(path), "--seed", "1",
         "--out", str(tmp_path / "out"), "--trace"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    checks = json.loads(run.stdout.splitlines()[-1])["checks"]
    assert "wrappers_reached" in checks
    assert all(problem is None for problem in checks.values()), checks
