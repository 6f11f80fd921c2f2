"""Kernel microbench: median microseconds per call of fracpme's public
kernels at n = 1024 and n = 4096, after one warm-up call, and of the eps
steady solve at n = 128.

    python3 perfbench/microbench.py OUT_JSON SEED [--only steady.discrete_minimizer]

Run at one thread; `run_all` also times `steady.discrete_minimizer` at as
many threads as there are cores, which shows BLAS oversubscription in its
dense solve. The density is the fuzz-corpus density of seed SEED.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (1024, 4096)
S, LAM = 0.25, 0.4
# The eps steady solve marches to stationarity: about 0.4 s at n = 128,
# 20 s at n = 1024. The verify --eps command runs it at eps 1e-2 and cfl 0.8.
EPS_STEADY = "evolve.steady_state_eps"
EPS_STEADY_N = 128
BUDGET_S = 0.2
MIN_CALLS, MAX_CALLS = 3, 200


def kernels(n: int, seed: int) -> dict:
    from fracpme.energy import remainder_R
    from fracpme.grid import DensitySpec, Grid, holder_seminorm, normalize, random_density
    from fracpme.riesz import DIRECT, RieszWorkspace, neg_sobolev_norm, potential_weights, toeplitz_apply
    from fracpme.steady import barenblatt, discrete_minimizer
    from fracpme.transport import w2

    grid = Grid.symmetric(4.0, n)
    rho = random_density(DensitySpec(seed=seed, n_bumps=1 + seed % 6), grid)
    _, dens = barenblatt(S, LAM, mass=1.0, grid=grid)
    target = normalize(dens)
    u = rho.values - target.values
    weights = potential_weights(n, grid.h, S)
    workspace = RieszWorkspace(grid, S)
    return {
        "riesz.toeplitz_fft": lambda: toeplitz_apply(weights, rho.values),
        "riesz.toeplitz_direct": lambda: toeplitz_apply(weights, rho.values, DIRECT),
        "riesz.potential_and_gradient": lambda: workspace.potential_and_gradient(rho.values),
        "transport.w2": lambda: w2(rho, target),
        "riesz.neg_sobolev_norm": lambda: neg_sobolev_norm(u, grid, S),
        "energy.remainder_R": lambda: remainder_R(rho, S, LAM),
        "grid.holder_seminorm": lambda: holder_seminorm(u, grid, 1.0 - S),
        "steady.discrete_minimizer": lambda: discrete_minimizer(S, LAM, grid),
    }


def eps_steady_kernel() -> dict:
    from fracpme.evolve import SolverConfig, steady_state_eps
    from fracpme.grid import Grid

    cfg = SolverConfig(s=S, grid=Grid.symmetric(4.0, EPS_STEADY_N), lam=LAM, eps=1e-2, t_end=80.0, cfl=0.8)
    return {f"{EPS_STEADY}.n{EPS_STEADY_N}": lambda: steady_state_eps(cfg)}


def time_call(fn) -> float:
    fn()
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or (time.perf_counter() - start < BUDGET_S and len(times) < MAX_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


KERNELS = (
    "riesz.toeplitz_fft",
    "riesz.toeplitz_direct",
    "riesz.potential_and_gradient",
    "transport.w2",
    "riesz.neg_sobolev_norm",
    "energy.remainder_R",
    "grid.holder_seminorm",
    "steady.discrete_minimizer",
)
NPROC_KERNEL = "steady.discrete_minimizer"


def units() -> dict:
    """Every metric run_all reports, with its unit."""
    names = [f"{k}.n{n}.us" for n in SIZES for k in KERNELS]
    names += [f"{NPROC_KERNEL}.n{n}.nproc.us" for n in SIZES]
    names.append(f"{EPS_STEADY}.n{EPS_STEADY_N}.us")
    return {name: "us" for name in names}


def run_all(seed: int, work_dir: Path, child_env, deadline: float) -> dict:
    """Both microbench processes; returns {metric: (value, unit)}."""
    nproc = os.cpu_count() or 1
    out = {}
    for threads, extra, suffix in ((1, [], ""), (nproc, ["--only", NPROC_KERNEL], ".nproc")):
        path = work_dir / f"micro{threads}.json"
        subprocess.run(
            [sys.executable, __file__, str(path), str(seed), *extra],
            cwd=work_dir,
            env=child_env(threads),
            check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        for name, us in json.loads(path.read_text(encoding="utf-8")).items():
            kernel, size = name.rsplit(".", 1)
            out[f"{kernel}.{size}{suffix}.us"] = (us, "us")
    return out


def main() -> int:
    out_path, seed = Path(sys.argv[1]), int(sys.argv[2])
    only = sys.argv[4] if len(sys.argv) > 4 else None
    results = {}
    for n in SIZES:
        for name, fn in kernels(n, seed).items():
            if only is None or name == only:
                results[f"{name}.n{n}"] = time_call(fn)
    if only is None:
        for name, fn in eps_steady_kernel().items():
            results[name] = time_call(fn)
    out_path.write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
