"""The benchmark in perfbench/ runs the CLI through perfbench/child.py and
traces it by rebinding names in fracpme's modules (the workspace's
potential_and_gradient, the weight builders, riesz.rfft/irfft). These tiny
traced runs fail when a rename leaves that tracer without its hooks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
RUNS = {
    "simulate": "simulate --s 0.25 --grid-n 128 --t-end 0.05 --snapshot-every 0.01 --out-dir out",
    "verify": "verify --samples 2 --out report.json",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_child_run(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result_path), "1", *RUNS[name].split()],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["rc"] == 0
    layers = result["layers"]
    assert layers["riesz.fft.transforms"] > 0
    assert layers["riesz.weights.builds"] > 0
    if name == "simulate":
        assert layers["riesz.potential_and_gradient.calls"] > 0
