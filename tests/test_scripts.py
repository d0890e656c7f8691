import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MICRO = ROOT / "configs" / "micro.cfg"


def _script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)], capture_output=True, text=True)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_experiment_then_ablation_sweep(tmp_path, precision):
    """Both scripts run end to end on the micro config: three phase-2 arms
    after one phase 1, then the rank and prompt sweeps on its outputs."""
    config = tmp_path / "micro.cfg"
    config.write_text(MICRO.read_text().replace(
        "vocab_max = 256", f"vocab_max = 256\nprecision = {precision}"))
    out = tmp_path / "out"
    run = _script("run_experiment.py", "--config", config, "--out", out,
                  "--force")
    assert run.returncode == 0, run.stderr
    for arm in ("text_only", "lora_only", "fused"):
        report = json.loads(
            (out / "phase2" / f"report_{arm}.json").read_text())
        assert report["baseline"] == arm
    sweep = _script("sweep_ablations.py", "--config", config, "--out", out)
    assert sweep.returncode == 0, sweep.stderr
    for what in ("rank", "prompt"):
        assert (out / f"ablate_{what}.csv").exists()


def test_compare_seeds_same_checkout_shows_no_difference(tmp_path):
    """The same checkout on both sides, on micro with patience equal to the
    epochs, so no run stops early and every worker check is null: zero
    differences and matching reports at every seed."""
    config = tmp_path / "micro.cfg"
    config.write_text(MICRO.read_text().replace("patience = 5",
                                                "patience = 20")
                      .replace("seeds = 0,1", "seeds = 0"))
    run = _script("compare_seeds.py", "--base", ROOT, "--head", ROOT,
                  "--config", config, "--seeds", "3-4")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:3]] == ["3", "4"]
    assert all(line.split()[3:] == ["+0.0000", "same"] for line in lines[1:3])
    assert "mean diff +0.0000 over 2 seeds; 0 fell, 0 rose, 2 equal" in lines
    assert "report_sha256 equal on 2 of 2 seeds" in lines
