"""Closed-form compactly supported steady states of the confined flow, the
mass-radius relation, the one closed form of their potential on the support
(every s in (0, 1), the log kernel's at s = 1/2), the steady energy in closed
form, and the variational residual check (constant potential on the
support, at least that constant elsewhere)."""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, inf, isfinite, log, pi, sqrt

import numpy as np

from . import energy as energy_mod
from .errors import (
    EmptySupport,
    Inconsistent,
    NonContiguousSupport,
    NonPositive,
    NotConverged,
    OutOfRange,
    OutsideSupport,
    ZeroMass,
)
from .grid import Grid, GridDensity
from .riesz import riesz_potential, workspace

SUPPORT_THRESHOLD = 1e-6
MAX_SWEEPS = 60


@dataclass(frozen=True)
class BarenblattProfile:
    """rho(x) = K (R^2 - (x-x0)^2)_+^{1-s} with K tied to the confinement."""

    s: float
    lam: float
    R: float
    M: float
    K: float
    x0: float = 0.0

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # a square that overflows lies outside the support, where the clamp gives the exact 0
        with np.errstate(over="ignore"):
            return self.K * np.maximum(self.R**2 - (x - self.x0) ** 2, 0.0) ** (1 - self.s)

    def sample(self, grid: Grid) -> GridDensity:
        return GridDensity(grid, self.evaluate(grid.centers))


def prefactor(s: float, lam: float) -> float:
    """K coefficient making the profile stationary under confinement lam."""
    return float(2 ** (2 * s - 1) * gamma(1.5) * lam / (gamma(2 - s) * gamma(1.5 - s)))


def mass_of_radius(s: float, lam: float, R: float) -> float:
    """Total mass of the profile with support radius R, inf where it overflows."""
    coef = 2 ** (2 * s) * sqrt(pi) * gamma(1.5) * lam / ((3 - 2 * s) * gamma(1.5 - s) ** 2)
    try:
        return float(coef * R ** (3 - 2 * s))
    except OverflowError:  # a float power raises where a product gives inf
        return inf


def _require_positive(name: str, value: float) -> None:
    """Raise NonPositive unless value is finite and > 0 (a NaN fails too)."""
    if not 0.0 < value < inf:
        raise NonPositive(f"{name} must be finite and > 0, got {value}")


def radius_of_mass(s: float, lam: float, M: float) -> float:
    """Invert the strictly increasing mass-radius relation."""
    _require_positive("lam", lam)
    _require_positive("mass", M)
    coef = mass_of_radius(s, lam, 1.0)
    return float((M / coef) ** (1.0 / (3 - 2 * s)))


def barenblatt(
    s: float,
    lam: float,
    mass: float | None = None,
    radius: float | None = None,
    x0: float = 0.0,
    grid: Grid | None = None,
) -> tuple[BarenblattProfile, GridDensity]:
    """Steady profile specified either by total mass or by support radius.

    Returns the closed-form profile and its exact evaluation at the cell
    centers of `grid` (default: [-4, 4] with 1024 cells). The sampled grid
    mass differs from M by the midpoint-rule error at the profile edge. A
    radius whose square or mass overflows is OutOfRange, and a profile that
    puts no mass on the grid is ZeroMass.
    """
    if not 0.0 < s < 1.0:
        raise OutOfRange(f"s must be in (0, 1), got {s}")
    _require_positive("lam", lam)
    if not isfinite(x0):
        raise OutOfRange(f"x0 must be finite, got {x0}")
    if (mass is None) == (radius is None):
        raise ValueError("specify exactly one of mass= or radius=")
    if mass is not None:
        R = radius_of_mass(s, lam, mass)
        M = float(mass)
    else:
        _require_positive("radius", radius)
        R = float(radius)
        M = mass_of_radius(s, lam, R)
    if not (M < inf and R * R < inf):
        raise OutOfRange(f"radius {R} is too large: R**2 or the mass overflows")
    profile = BarenblattProfile(s=s, lam=lam, R=R, M=M, K=prefactor(s, lam), x0=x0)
    if grid is None:
        grid = Grid.symmetric(4.0, 1024)
    dens = profile.sample(grid)
    if not dens.mass > 0:
        support = f"[{x0 - R}, {x0 + R}]"
        raise ZeroMass(f"the profile on {support} has no mass on the grid [{grid.x_min}, {grid.x_max}]")
    return profile, dens


def c_star(p: BarenblattProfile) -> float:
    """Constant value of potential + confinement on the support (x0 = 0):
    (lam/2) R^2/(1-2s), negative above s = 1/2, and at s = 1/2, with the
    kernel -log|z|/pi, (lam/2) R^2 (1/2 - log(R/2))."""
    if p.s == 0.5:
        return p.lam / 2 * p.R**2 * (0.5 - log(p.R / 2))
    return p.lam * p.R**2 / (2 * (1 - 2 * p.s))


def steady_potential(p: BarenblattProfile, x) -> np.ndarray | float:
    """Riesz potential of the profile on its support, c_star(p) - (lam/2)(x-x0)^2."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x - p.x0) > p.R * (1 + 1e-12)):
        raise OutsideSupport("closed-form potential is only valid for |x - x0| <= R")
    out = c_star(p) - p.lam / 2 * (x - p.x0) ** 2
    return float(out) if out.ndim == 0 else out


def steady_energy(p: BarenblattProfile, grid: Grid | None = None) -> float:
    """Free energy of the profile in closed form, at every s in (0, 1).

    On the support the potential is steady_potential, c_star(p) -
    (lam/2)(x - x0)^2, so with y = x - x0 (the profile is even in y)
    E = (1/2) int rho (pot + lam x^2) = c_star(p) M / 2 + (lam/4) m2 +
    (lam/2) M x0^2, m2 = int rho y^2 = K R^{5-2s} B(3/2, 2-s).
    Cross-checked against the grid energy of the sampled profile (1e-3
    relative) before returning.
    """
    m2 = p.K * p.R ** (5 - 2 * p.s) * gamma(1.5) * gamma(2 - p.s) / gamma(3.5 - p.s)
    val = c_star(p) * p.M / 2 + p.lam / 4 * m2 + p.lam / 2 * p.M * p.x0**2

    if grid is None:
        half = 2.0 * max(p.R + abs(p.x0), 1.0)
        grid = Grid.symmetric(half, 4096)
    sampled = p.sample(grid)
    bd = energy_mod.energy(sampled, p.s, p.lam, check_mass=False)
    if abs(bd.total - val) > 1e-3 * max(abs(val), 1e-300):
        raise Inconsistent(f"steady energy: closed form {val!r} vs grid energy {bd.total!r}")
    return float(val)


def _solve_symmetric_toeplitz(t: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Levinson solve of T x = r for every row r of rhs, where T is the
    symmetric Toeplitz matrix with first column t and every leading block of
    T is nonsingular (T positive definite suffices).

    One O(m^2) pass carries the forward vector f_k (T_k f_k = e_0; reversed
    it solves T_k g = e_{k-1}) in row 0 of a work array and the partial
    solutions in the rows after it, so one product and one row sum per step
    give the coupling of row k with every column. Elementwise products and
    sums only: no BLAS call.
    """
    m = t.size
    work = np.zeros((1 + rhs.shape[0], m))
    scratch = np.empty_like(work)
    f, x = work[0], work[1:]
    reversed_t = t[::-1].copy()  # reversed_t[m-1-k : m-1] is t[k], ..., t[1]
    f[0] = 1.0 / t[0]
    x[:, 0] = rhs[:, 0] / t[0]
    for k in range(1, m):
        # row k of T_{k+1} against [f_k; 0] and [x_k; 0]
        couple = np.multiply(work[:, :k], reversed_t[m - 1 - k : m - 1], out=scratch[:, :k]).sum(axis=1)
        eps = couple[0]
        # f_{k+1} = ([f_k; 0] - eps [0; g_k]) / (1 - eps^2), with f[k] still 0
        np.multiply(f[k::-1], eps, out=scratch[0, : k + 1])
        f[: k + 1] -= scratch[0, : k + 1]
        f[: k + 1] /= 1.0 - eps * eps
        # x_{k+1} = [x_k; 0] + (r_k - row k of T [x_k; 0]) g_{k+1}
        np.multiply((rhs[:, k] - couple[1:])[:, None], f[k::-1], out=scratch[1:, : k + 1])
        x[:, : k + 1] += scratch[1:, : k + 1]
    return x


def discrete_minimizer(
    s: float,
    lam: float,
    grid: Grid,
    mass: float = 1.0,
) -> GridDensity:
    """Minimizer of the grid energy itself, via the obstacle-problem KKT
    system: potential + confinement equals a constant on the active cells
    and exceeds it elsewhere.

    Point-sampling the closed-form profile leaves an O(h^{3/2}) variational
    residual that the tightest inequality margins can feel; the active-set
    solve drives it to round-off, so gap checks against this target are
    discrete identities.

    The active set is an interval of cells, so its block of the potential
    weights is symmetric Toeplitz. Each sweep solves T a = -confinement and
    T b = 1 in one Levinson pass (_solve_symmetric_toeplitz), and the mass
    constraint fixes the level: rho = a + level * b with
    h * sum(rho) = mass. No BLAS call is involved, so the result does not
    depend on the thread count. An active set that stops being one interval
    raises NonContiguousSupport.
    """
    if not 0.0 < s < 0.5:
        raise OutOfRange(f"discrete minimizer implemented for s in (0, 1/2), got {s}")
    n, h, x = grid.n, grid.h, grid.centers
    radius = radius_of_mass(s, lam, mass)
    w = workspace(grid, s).weights("potential")
    active = np.abs(x) <= radius
    confinement = lam * x**2 / 2
    for _ in range(MAX_SWEEPS):
        idx = np.flatnonzero(active)
        m = idx.size
        if m == 0:
            raise EmptySupport("active set emptied during the obstacle solve")
        if idx[-1] - idx[0] + 1 != m:
            raise NonContiguousSupport(
                f"obstacle active set split into several intervals ({m} cells over "
                f"[{idx[0]}, {idx[-1]}]); the Toeplitz solve needs one interval"
            )
        rhs = np.stack([-confinement[idx], np.ones(m)])
        a, b = _solve_symmetric_toeplitz(w[n - 1 : n - 1 + m], rhs)
        level = (mass - h * np.sum(a)) / (h * np.sum(b))
        rho_active = a + level * b
        if np.any(rho_active < 0):
            drop = idx[rho_active < 0]
            active[drop] = False
            continue
        values = np.zeros(n)
        values[idx] = rho_active
        off = ~active
        if np.any(off):
            full_pot = riesz_potential(GridDensity(grid, values), s)
            xi = full_pot + confinement
            violated = off & (xi < level - 1e-12 * max(1.0, abs(level)))
            if np.any(violated):
                active[violated] = True
                continue
        return GridDensity(grid, values)
    raise NotConverged(f"obstacle active-set iteration did not settle in {MAX_SWEEPS} sweeps")


@dataclass(frozen=True)
class EulerLagrangeReport:
    """Deviation of potential + confinement from its constant level."""

    C_star: float
    max_dev_on_support: float
    min_excess_off_support: float


def euler_lagrange_check(rho: GridDensity, s: float, lam: float) -> EulerLagrangeReport:
    """Measure how close a density is to the variational characterization.

    Support is {rho > 1e-6 max rho}; C_star is the mass-weighted mean of
    xi = potential + lam x^2/2 there.
    """
    v = rho.values
    thresh = SUPPORT_THRESHOLD * float(np.max(v))
    on = v > thresh
    if not np.any(on):
        raise EmptySupport("no cell above the support threshold")
    xi = riesz_potential(rho, s) + lam * rho.x**2 / 2
    w = v[on]
    cs = float(np.sum(w * xi[on]) / np.sum(w))
    max_dev = float(np.max(np.abs(xi[on] - cs)))
    off = ~on
    min_excess = float(np.min(xi[off] - cs)) if np.any(off) else float("inf")
    return EulerLagrangeReport(C_star=cs, max_dev_on_support=max_dev, min_excess_off_support=min_excess)
