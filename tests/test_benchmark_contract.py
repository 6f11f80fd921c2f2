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


def test_verify_takes_the_fields_of_a_sample_once(monkeypatch, tmp_path):
    """verify runs every suite on one sample before it reads the next, and
    each density keeps its own transforms, the sample's and the target's
    (see riesz.kept_field), so beyond its set-up a sample of all the suites
    costs at most 7 transform rows: the sample's rfft, its potential,
    gradient, gradient weights sum and hessian weights sum, and one
    transform pair of remainder_R. The T3 pair sum, the remainder's third
    sum and the negative Sobolev norm of rho - target are taken from kept
    fields by the kernels' symmetry and linearity. verify never calls
    potential_and_gradient, whose calls the tracer counts as stepper
    steps."""
    from fracpme import harness, riesz

    rows = []
    for name in ("rfft", "irfft"):
        original = getattr(riesz, name)

        def counted(x, *args, _original=original, **kwargs):
            rows.append(1 if x.ndim == 1 else x.shape[0])
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(riesz, name, counted)
    fields = riesz.RieszWorkspace.potential_and_gradient
    calls = []

    def spy(self, values):
        calls.append(1)
        return fields(self, values)

    monkeypatch.setattr(riesz.RieszWorkspace, "potential_and_gradient", spy)

    def rows_of(samples):
        riesz._cached_workspace.cache_clear()  # both runs build their weights and spectra
        rows.clear()
        out = tmp_path / f"report{samples}.json"
        argv = ["verify", "--suite", ",".join(harness.VERIFY_SUITES), "--samples", str(samples), "--out", str(out)]
        assert harness.main(argv) == 0
        return sum(rows)

    assert rows_of(4) - rows_of(1) <= 3 * 7
    assert calls == []


def test_field_evaluations_per_step_and_transforms_per_evaluation(monkeypatch):
    """The tracer counts steps as potential_and_gradient calls inside
    integrate, less one for the final state: every accepted or discarded
    trial step evaluates the fields once, and each evaluation takes 3
    transforms, in one rfft call and one irfft call of two rows. A call
    transforms one row of a 1-D input and shape[0] rows of a 2-D one."""
    from fracpme import riesz
    from fracpme.evolve import SolverConfig, integrate
    from fracpme.grid import Grid, normalize
    from fracpme.steady import barenblatt

    grid = Grid.symmetric(4.0, 128)
    _, target = barenblatt(0.25, 0.4, mass=1.0, grid=grid)
    _, shifted = barenblatt(0.25, 0.4, mass=1.0, x0=0.5, grid=grid)
    rows = []
    fft_calls = {"rfft": 0, "irfft": 0}
    inside = []
    for name in fft_calls:
        original = getattr(riesz, name)

        def counted(x, *args, _original=original, _name=name, **kwargs):
            if inside:
                rows.append(1 if x.ndim == 1 else x.shape[0])
                fft_calls[_name] += 1
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(riesz, name, counted)
    fields = riesz.RieszWorkspace.potential_and_gradient
    calls = []

    def spy(self, values):
        calls.append(1)
        inside.append(1)
        try:
            return fields(self, values)
        finally:
            inside.pop()

    monkeypatch.setattr(riesz.RieszWorkspace, "potential_and_gradient", spy)
    traj = integrate(SolverConfig(s=0.25, grid=grid, t_end=0.05, init=shifted), normalize(target))
    assert traj.stats.steps > 0
    assert len(calls) == traj.stats.steps + traj.stats.retries + 1
    # the spectra are built before the first call: the target's energy and the step-size symbol
    assert sum(rows) == 3 * len(calls)
    assert fft_calls == {"rfft": len(calls), "irfft": len(calls)}


def test_fields_are_taken_on_windows_shorter_than_the_grid(monkeypatch):
    """On the compact run above, every field evaluation runs on an operator
    of fewer cells than the grid's 128, of at most 2 sizes (48 and 56), and
    transforms at a length below the whole grid's."""
    from fracpme import riesz
    from fracpme.evolve import SolverConfig, integrate
    from fracpme.grid import Grid, normalize
    from fracpme.steady import barenblatt

    grid = Grid.symmetric(4.0, 128)
    _, target = barenblatt(0.25, 0.4, mass=1.0, grid=grid)
    _, shifted = barenblatt(0.25, 0.4, mass=1.0, x0=0.5, grid=grid)
    lengths = []
    sizes = []
    inside = []
    rfft = riesz.rfft

    def counted(x, n=None, *args, **kwargs):
        if inside:
            lengths.append(n)
        return rfft(x, n, *args, **kwargs)

    monkeypatch.setattr(riesz, "rfft", counted)
    fields = riesz.RieszWorkspace.potential_and_gradient

    def spy(self, values):
        sizes.append(self.n)
        inside.append(1)
        try:
            return fields(self, values)
        finally:
            inside.pop()

    monkeypatch.setattr(riesz.RieszWorkspace, "potential_and_gradient", spy)
    integrate(SolverConfig(s=0.25, grid=grid, t_end=0.05, init=shifted), normalize(target))
    assert sizes and max(sizes) < grid.n
    assert len(set(sizes)) <= 2
    assert lengths and max(lengths) < riesz._padded_length(grid.n)


def test_stage_evaluations_take_the_gradient_alone(monkeypatch):
    """On a run that takes super-steps the tracer's step count still holds:
    potential_and_gradient runs once for the initial state and once per
    accepted or discarded trial step, and every stage evaluation of a
    super-step is one RieszWorkspace.gradient call of 2 transforms (one
    rfft and one irfft of one row)."""
    from fracpme import riesz
    from fracpme.evolve import SolverConfig, integrate
    from fracpme.grid import Grid, normalize
    from fracpme.steady import barenblatt

    grid = Grid.symmetric(4.0, 512)
    _, target = barenblatt(0.1, 0.4, mass=1.0, grid=grid)
    _, shifted = barenblatt(0.1, 0.4, mass=1.0, x0=0.5, grid=grid)
    inside = []
    rows = {"potential_and_gradient": [], "gradient": []}
    for name in ("rfft", "irfft"):
        original = getattr(riesz, name)

        def counted(x, *args, _original=original, **kwargs):
            if inside:
                rows[inside[-1]].append(1 if x.ndim == 1 else x.shape[0])
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(riesz, name, counted)
    calls = {"potential_and_gradient": 0, "gradient": 0}
    for name in calls:
        method = getattr(riesz.RieszWorkspace, name)

        def spy(self, values, _method=method, _name=name):
            calls[_name] += 1
            inside.append(_name)
            try:
                return _method(self, values)
            finally:
                inside.pop()

        monkeypatch.setattr(riesz.RieszWorkspace, name, spy)
    traj = integrate(SolverConfig(s=0.1, grid=grid, lam=0.4, t_end=0.2, init=shifted), normalize(target))
    assert traj.stats.max_stages >= 3
    assert calls["potential_and_gradient"] == traj.stats.steps + traj.stats.retries + 1
    assert calls["gradient"] == traj.stats.evaluations - calls["potential_and_gradient"] > 0
    assert rows["gradient"] == [1] * (2 * calls["gradient"])
    assert sum(rows["potential_and_gradient"]) == 3 * calls["potential_and_gradient"]
