import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracpme
from fracpme.grid import Grid, normalize
from fracpme.harness import fuzz_corpus
from fracpme.steady import barenblatt

S_DEFAULT = 0.25
LAM_DEFAULT = 0.4


def run_cli(args, threads: str | None = None, cwd=None, timeout=None) -> subprocess.CompletedProcess:
    """Run `python -m fracpme.harness ARGS` in a child process, optionally at
    a fixed BLAS/OpenMP thread count (see run_python)."""
    return run_python(["-m", "fracpme.harness", *args], threads, cwd, timeout)


def run_python(args, threads: str | None = None, cwd=None, timeout=None) -> subprocess.CompletedProcess:
    """Run `python ARGS` in a child process that imports this fracpme,
    optionally at a fixed BLAS/OpenMP thread count, killed after timeout
    seconds (subprocess.TimeoutExpired) if one is given.

    The child gets the absolute root of the imported package first on its
    PYTHONPATH: a relative entry (pytest's `pythonpath = ["src"]`, or
    `PYTHONPATH=src`) does not reach a child, or stops resolving once the
    child runs in another directory.
    """
    env = os.environ.copy()
    if threads is not None:
        # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
    package_root = str(Path(fracpme.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture(scope="session")
def grid1024():
    return Grid.symmetric(4.0, 1024)


@pytest.fixture(scope="session")
def grid4096():
    return Grid.symmetric(4.0, 4096)


@pytest.fixture(scope="session")
def steady_pair(grid1024):
    """Unit-mass steady profile and its normalized sampling on the fuzz grid."""
    prof, dens = barenblatt(S_DEFAULT, LAM_DEFAULT, mass=1.0, grid=grid1024)
    return prof, normalize(dens)


@pytest.fixture(scope="session")
def minimizer_target(grid1024):
    """Discrete obstacle-problem minimizer: the target whose variational
    residual is at round-off, used by the tight inequality checks."""
    from fracpme.steady import discrete_minimizer

    return normalize(discrete_minimizer(S_DEFAULT, LAM_DEFAULT, grid1024))


@pytest.fixture(scope="session")
def corpus40(grid1024):
    """First 40 members of the seeded fuzz corpus (seed 42)."""
    return list(fuzz_corpus(42, 40, grid1024))
