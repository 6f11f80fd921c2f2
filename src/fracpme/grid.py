"""Uniform-grid densities: moments, CDF/quantile machinery, Holder seminorm,
tail checks, and the seeded random-density generator used by the fuzz suites.

All quadrature in the package is the midpoint rule on cell centers; masses and
moments computed here are the single source of truth for that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NotNormalized, ZeroMass

NORMALIZED_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid of n cells on [x_min, x_max], data at cell centers."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2 cells, got {self.n}")
        # an infinite bound, or a width that overflows, passes x_max > x_min and makes h inf or NaN
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(
                f"grid bounds and their width must be finite, got x_min={self.x_min}, x_max={self.x_max}"
            )
        if not self.x_max > self.x_min:
            raise ValueError("grid needs x_max > x_min")

    @classmethod
    def symmetric(cls, half_width: float, n: int) -> "Grid":
        return cls(-half_width, half_width, n)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def centers(self) -> np.ndarray:
        h = self.h
        x = self.x_min + (np.arange(self.n) + 0.5) * h
        x.setflags(write=False)
        return x

    @cached_property
    def edges(self) -> np.ndarray:
        e = self.x_min + np.arange(self.n + 1) * self.h
        e.setflags(write=False)
        return e


class GridDensity:
    """Nonnegative density (per unit length) at the cell centers of a Grid.

    Values are frozen after construction; the cached mass is exactly
    h * sum(values) under numpy's fixed summation order. The values are
    checked by one min and one max reduction: a NaN, an infinity or a
    negative value is rejected, and -0.0 is kept. `kept` holds what other
    modules derive from the values, each stored by `keep`: computed once,
    read-only if an array, and kept for as long as the density lives.
    """

    __slots__ = ("grid", "values", "mass", "kept")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} values, got shape {values.shape}")
        # min is NaN if any value is; a comparison with NaN is False
        if not (values.min() >= 0.0 and values.max() < math.inf):
            raise ValueError("density values must be finite and nonnegative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mass", grid.h * float(values.sum()))
        object.__setattr__(self, "kept", {})

    def __setattr__(self, name, value):
        raise AttributeError("GridDensity is immutable")

    @property
    def x(self) -> np.ndarray:
        return self.grid.centers

    def is_normalized(self) -> bool:
        return abs(self.mass - 1.0) <= NORMALIZED_TOL


def keep(store: dict, key, build):
    """store[key], built by build() and stored on first use: the one rule by
    which a value derived once is kept (a density's `kept`, an operator's
    weights and spectra). An array is made read-only; any other value is
    kept as it is."""
    value = store.get(key)
    if value is None:
        value = store[key] = build()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return value


def require_normalized(rho: GridDensity) -> None:
    if not rho.is_normalized():
        raise NotNormalized(f"density has mass {rho.mass!r}, expected 1 within {NORMALIZED_TOL}")


def normalize(rho: GridDensity) -> GridDensity:
    """Rescale to unit mass under the midpoint rule.

    A single positive factor is applied; it is refined until the recomputed
    mass sits within a few ulp of 1 (the fixed point of the rounding map), so
    normalize(normalize(rho)) == normalize(rho) exactly.
    """
    if rho.mass == 0.0:
        raise ZeroMass("cannot normalize a density with zero mass")
    tol = 8 * np.finfo(float).eps
    if abs(rho.mass - 1.0) <= tol:
        return rho
    h = rho.grid.h
    factor = 1.0 / rho.mass
    out = GridDensity(rho.grid, rho.values * factor)
    for _ in range(3):
        if abs(out.mass - 1.0) <= tol:
            break
        factor /= out.mass
        out = GridDensity(rho.grid, rho.values * factor)
    return out


def moment(rho: GridDensity, k: int) -> float:
    """Midpoint-rule value of the k-th moment, k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"moment order must be 0, 1 or 2, got {k}")
    if k == 0:
        return rho.grid.h * float(rho.values.sum())
    return rho.grid.h * float((rho.x**k * rho.values).sum())


class QuantileFn:
    """Piecewise-linear CDF of a unit-mass GridDensity and its inverse.

    The CDF is linear within each cell (slope = cell density); inversion maps
    flat segments to their left endpoint, giving the lower quantile that
    realizes the nondecreasing optimal transport map.

    The quantile finds the cells of its m nodes by runs, not node by node:
    in nondecreasing nodes those of cell j are the run with
    cum[j] < q <= cum[j + 1], and one searchsorted of the n + 1 CDF
    breakpoints into the nodes gives every run's end. Each cell's edge, CDF
    and density are repeated over its run, so a call costs O(n log m + m).
    Nodes that are not nondecreasing are sorted first and put back in their
    order at the end; each node's value depends on that node alone.
    """

    def __init__(self, rho: GridDensity):
        require_normalized(rho)
        grid = rho.grid
        self.edges = grid.edges
        cum = np.empty(grid.n + 1)
        cum[0] = 0.0
        np.cumsum(grid.h * rho.values, out=cum[1:])
        self.cum = cum
        self.density = rho.values

    def cdf(self, x):
        return np.interp(x, self.edges, self.cum)

    def __call__(self, q):
        """The lower quantile at the nodes q, of the shape of q.

        A node in cell j sits at edge j plus (q - cum[j]) over the cell's
        density, or at edge j if the cell holds no mass. Only an end cell can
        hold nodes and no mass (an empty interior cell has a zero CDF step),
        yet the mask is taken on every call: a plain divide where no end cell
        needs it gives the same floats faster, but raised the peak memory of
        `verify` by 0.07 MiB (2-vCPU VM, benchmark medians).
        """
        q = np.asarray(q, dtype=float)
        nodes = q.ravel()
        order = None
        if not (nodes[1:] >= nodes[:-1]).all():  # a NaN compares False and sorts last
            order = np.argsort(nodes)
            nodes = nodes[order]
        # the first cell also takes q <= 0, the last q above the total and NaN
        ends = np.searchsorted(nodes, self.cum, side="right")
        ends[0], ends[-1] = 0, nodes.size
        runs = np.diff(ends)
        dens = np.repeat(self.density, runs)
        x = np.repeat(self.cum[:-1], runs)
        np.subtract(nodes, x, out=x)
        pos = dens > 0.0
        np.divide(x, dens, out=x, where=pos)
        x[~pos] = 0.0
        x += np.repeat(self.edges[:-1], runs)
        x.clip(self.edges[0], self.edges[-1], out=x)
        if order is not None:
            x[order] = x.copy()
        return x.reshape(q.shape)[()]


def cdf_quantile(rho: GridDensity) -> QuantileFn:
    """CDF/quantile pair for a unit-mass density (raises NotNormalized else)."""
    return QuantileFn(rho)


HOLDER_BLOCK = 15  # lags a numpy call: 15 rows of 1,024 doubles stay under glibc's 128 KiB mmap threshold


def holder_seminorm(u: np.ndarray, grid: Grid, alpha: float) -> float:
    """Discrete Holder seminorm max_{i!=j} |u_i - u_j| / |x_i - x_j|^alpha.

    Exact over all pairs for n <= 4096; strided subsample above that. The
    scan runs over the lag m = |i - j| and stops once the spread bound
    (max u - min u) / (m h)^alpha can no longer beat the best quotient so far:
    every rounded pair difference is at most the rounded spread and the
    denominator never decreases in m, so the result is the same float as the
    full scan over every lag. A linear ramp still visits every lag.

    The differences are taken HOLDER_BLOCK lags a numpy call, row m - m0 of
    a block being |pad[m + i] - u[i]| with pad = u followed by copies of
    u[-1]; the stop rule is still checked lag by lag. A padded entry is the
    pair (i, n - 1) at the shorter lag n - 1 - i, already scanned: its
    quotient at lag m is at most the one best holds, by the same monotone
    denominator, so padding leaves the result bitwise unchanged.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    u = np.asarray(u, dtype=float)
    n = u.size
    stride = 1 if n <= 4096 else int(np.ceil(n / 4096))
    us = u[::stride]
    size = us.size
    if size < 2:
        return 0.0
    step = grid.h * stride
    spread = float(us.max() - us.min())
    best = 0.0
    pad = np.concatenate((us, np.full(size - 1, us[-1])))
    shifted = np.lib.stride_tricks.sliding_window_view(pad, size)  # row m: pad[m : m + size]
    buf = np.empty((min(HOLDER_BLOCK, size - 1), size))  # the differences of one block of lags
    for m0 in range(1, size, HOLDER_BLOCK):
        m1 = min(m0 + HOLDER_BLOCK, size)
        diff = buf[: m1 - m0]
        np.subtract(shifted[m0:m1], us, out=diff)
        np.absolute(diff, out=diff)
        row_max = np.maximum.reduce(diff, axis=1).tolist()
        for m in range(m0, m1):
            scale = (m * step) ** alpha
            if spread / scale <= best:
                return best
            best = max(best, row_max[m - m0] / scale)
    return best


@dataclass(frozen=True)
class TailReport:
    """Outcome of checking rho(x) <= A * exp(-a|x|) on the grid."""

    satisfied: bool
    violating_cell: int | None = None


def tail_check(rho: GridDensity, a: float, A: float) -> TailReport:
    """Verify the exponential envelope cell by cell."""
    if a <= 0 or A <= 0:
        raise ValueError("tail check needs a > 0 and A > 0")
    bound = A * np.exp(-a * np.abs(rho.x))
    excess = rho.values - bound
    worst = int(np.argmax(excess))
    ok = excess[worst] <= 0.0
    return TailReport(satisfied=bool(ok), violating_cell=None if ok else worst)


@dataclass(frozen=True)
class DensitySpec:
    """Recipe for one seeded fuzz density: smooth bumps under an exponential
    envelope, so every sample is tail-checked with rate >= 1 by construction."""

    seed: int
    n_bumps: int = 3

    def __post_init__(self):
        if not 1 <= self.n_bumps <= 8:
            raise ValueError(f"n_bumps must be in 1..8, got {self.n_bumps}")


# the recipe of every fuzz density: bump centers in [-SUPPORT_SCALE,
# SUPPORT_SCALE], bump widths scaled by BUMP_ALPHA, and the envelope's rate
ENVELOPE_RATE = 2.0
BUMP_ALPHA = 0.75
SUPPORT_SCALE = 1.5


def random_density(spec: DensitySpec, grid: Grid) -> GridDensity:
    """Deterministic unit-mass density for a spec: Gaussian bumps times
    exp(-2|x|). The first bump is centered, so single-bump specs are even.
    """
    rng = np.random.default_rng(spec.seed)
    x = grid.centers
    w_lo = (0.15 + 0.25 * BUMP_ALPHA) * SUPPORT_SCALE
    w_hi = (0.45 + 0.45 * BUMP_ALPHA) * SUPPORT_SCALE
    total = np.zeros_like(x)
    for k in range(spec.n_bumps):
        center = 0.0 if k == 0 else rng.uniform(-SUPPORT_SCALE, SUPPORT_SCALE)
        width = rng.uniform(w_lo, w_hi)
        amp = rng.uniform(0.3, 1.0)
        total += amp * np.exp(-(((x - center) / width) ** 2))
    total *= _envelope(grid)
    return normalize(GridDensity(grid, total))


@lru_cache(maxsize=8)
def _envelope(grid: Grid) -> np.ndarray:
    """exp(-ENVELOPE_RATE |x|) at the cell centers, read-only: one per grid
    for a whole fuzz corpus."""
    env = np.exp(-ENVELOPE_RATE * np.abs(grid.centers))
    env.setflags(write=False)
    return env


@lru_cache(maxsize=8)
def _csv_rows(grid: Grid) -> tuple[list[str], list[str]]:
    """The rows of a density file on this grid: each with a `%.17g` slot for
    its value, and each as it reads at the value +0.0."""
    slots = [f"{xi:.17g},%.17g\n" for xi in grid.centers.tolist()]
    return slots, [row % 0.0 for row in slots]


def save_density_csv(path, rho: GridDensity) -> None:
    """Write `x,rho` rows (UTF-8, '.' decimal, round-trip precision).

    Only the run from the first to the last value that is not +0.0 (all
    bits 0) is formatted; the rows around it are the cached `x,0` rows. A
    -0.0 inside or at the ends of the run keeps its `-0`."""
    slots, zeros = _csv_rows(rho.grid)
    held = np.flatnonzero(rho.values.view(np.uint64))
    first, end = (int(held[0]), int(held[-1]) + 1) if held.size else (0, 0)
    run = "".join(slots[first:end]) % tuple(rho.values[first:end].tolist())
    text = "".join(("x,rho\n", *zeros[:first], run, *zeros[end:]))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_density_csv(path) -> GridDensity:
    """Read a `x,rho` file back onto the uniform grid it was written from."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns x,rho")
    x, v = data[:, 0], data[:, 1]
    n = x.size
    if n < 2:
        raise ValueError(f"{path}: need at least two rows")
    h = (x[-1] - x[0]) / (n - 1)
    if h <= 0 or np.max(np.abs(np.diff(x) - h)) > 1e-9 * abs(h):
        raise ValueError(f"{path}: grid is not uniform")
    grid = Grid(float(x[0] - h / 2), float(x[-1] + h / 2), n)
    return GridDensity(grid, v)
