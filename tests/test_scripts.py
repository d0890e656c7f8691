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
