"""Closed-form compactly supported steady states of the confined flow, the
mass-radius relation, the steady energy, and the variational residual check
(constant potential on the support, at least that constant elsewhere)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_toeplitz
from scipy.special import gamma

from . import energy as energy_mod
from .errors import (
    EmptySupport,
    Inconsistent,
    NonContiguousSupport,
    NonPositive,
    NotConverged,
    OutOfRange,
    OutsideSupport,
)
from .grid import Grid, GridDensity
from .riesz import FFT, RieszConfig, riesz_potential, workspace

SUPPORT_THRESHOLD = 1e-6


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
        return self.K * np.maximum(self.R**2 - (x - self.x0) ** 2, 0.0) ** (1 - self.s)

    def sample(self, grid: Grid) -> GridDensity:
        return GridDensity(grid, self.evaluate(grid.centers))


def prefactor(s: float, lam: float) -> float:
    """K coefficient making the profile stationary under confinement lam."""
    return float(2 ** (2 * s - 1) * gamma(1.5) * lam / (gamma(2 - s) * gamma(1.5 - s)))


def mass_of_radius(s: float, lam: float, R: float) -> float:
    """Total mass of the profile with support radius R."""
    coef = 2 ** (2 * s) * np.sqrt(np.pi) * gamma(1.5) * lam / ((3 - 2 * s) * gamma(1.5 - s) ** 2)
    return float(coef * R ** (3 - 2 * s))


def radius_of_mass(s: float, lam: float, M: float) -> float:
    """Invert the strictly increasing mass-radius relation."""
    if lam <= 0:
        raise NonPositive(f"lam must be > 0, got {lam}")
    if M <= 0:
        raise NonPositive(f"mass must be > 0, got {M}")
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
    mass differs from M by the midpoint-rule error at the profile edge.
    """
    if not 0.0 < s < 1.0:
        raise OutOfRange(f"s must be in (0, 1), got {s}")
    if lam <= 0:
        raise NonPositive(f"lam must be > 0, got {lam}")
    if (mass is None) == (radius is None):
        raise ValueError("specify exactly one of mass= or radius=")
    if mass is not None:
        R = radius_of_mass(s, lam, mass)
        M = float(mass)
    else:
        if radius <= 0:
            raise NonPositive(f"radius must be > 0, got {radius}")
        R = float(radius)
        M = mass_of_radius(s, lam, R)
    profile = BarenblattProfile(s=s, lam=lam, R=R, M=M, K=prefactor(s, lam), x0=x0)
    if grid is None:
        grid = Grid.symmetric(4.0, 1024)
    return profile, profile.sample(grid)


def closed_form_potential(p: BarenblattProfile, x) -> np.ndarray | float:
    """Riesz potential of the unit-prefactor bump (R^2 - (x-x0)^2)_+^{1-s}.

    Valid on the support for s < 1/2; the potential of the profile itself is
    K times this (see steady_potential).
    """
    if not p.s < 0.5:
        raise OutOfRange(f"closed form requires s < 1/2, got {p.s}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x - p.x0) > p.R * (1 + 1e-12)):
        raise OutsideSupport("closed-form potential is only valid for |x - x0| <= R")
    out = (p.lam / (2 * p.K)) * (p.R**2 / (1 - 2 * p.s) - (x - p.x0) ** 2)
    return float(out) if out.ndim == 0 else out


def steady_potential(p: BarenblattProfile, x) -> np.ndarray | float:
    """Riesz potential of the profile itself: (lam/2)(R^2/(1-2s) - (x-x0)^2)."""
    return p.K * closed_form_potential(p, x)


def c_star(p: BarenblattProfile) -> float:
    """Constant value of potential + confinement on the support (x0 = 0)."""
    return p.lam * p.R**2 / (2 * (1 - 2 * p.s))


def steady_energy(p: BarenblattProfile, grid: Grid | None = None) -> float:
    """Free energy of the profile by adaptive quadrature of the closed forms.

    The printed closed-form constant for this energy is dimensionally suspect
    at d=1, so the value is computed, not asserted. Cross-checked against the
    grid energy of the sampled profile (1e-3 relative) before returning.
    """
    if not p.s < 0.5:
        raise OutOfRange(f"steady energy closed form requires s < 1/2, got {p.s}")
    lo, hi = p.x0 - p.R, p.x0 + p.R

    def integrand(x):
        pot = (p.lam / 2) * (p.R**2 / (1 - 2 * p.s) - (x - p.x0) ** 2)
        return 0.5 * p.evaluate(x) * (pot + p.lam * x**2)

    val, _ = quad(integrand, lo, hi, limit=200)

    if grid is None:
        half = 2.0 * max(p.R + abs(p.x0), 1.0)
        grid = Grid.symmetric(half, 4096)
    sampled = p.sample(grid)
    bd = energy_mod.energy(sampled, p.s, p.lam, check_mass=False)
    if abs(bd.total - val) > 1e-3 * max(abs(val), 1e-300):
        raise Inconsistent(
            f"steady energy: closed-form quadrature {val!r} vs grid energy {bd.total!r}"
        )
    return float(val)


def discrete_minimizer(
    s: float,
    lam: float,
    grid: Grid,
    mass: float = 1.0,
    max_iter: int = 60,
) -> GridDensity:
    """Minimizer of the grid energy itself, via the obstacle-problem KKT
    system: potential + confinement equals a constant on the active cells
    and exceeds it elsewhere.

    Point-sampling the closed-form profile leaves an O(h^{3/2}) variational
    residual that the tightest inequality margins can feel; the active-set
    solve drives it to round-off, so gap checks against this target are
    discrete identities.

    The active set is an interval of cells, so its block of the potential
    weights is symmetric Toeplitz. Each sweep takes two Levinson solves
    (scipy.linalg.solve_toeplitz), T a = -confinement and T b = 1, and the
    mass constraint fixes the level: rho = a + level * b with
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
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        m = idx.size
        if m == 0:
            raise EmptySupport("active set emptied during the obstacle solve")
        if idx[-1] - idx[0] + 1 != m:
            raise NonContiguousSupport(
                f"obstacle active set split into several intervals ({m} cells over "
                f"[{idx[0]}, {idx[-1]}]); the Toeplitz solve needs one interval"
            )
        rhs = np.column_stack([-confinement[idx], np.ones(m)])
        a, b = solve_toeplitz(w[n - 1 : n - 1 + m], rhs).T
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
            full_pot = riesz_potential(GridDensity(grid, values), RieszConfig(s, method=FFT))
            xi = full_pot + confinement
            violated = off & (xi < level - 1e-12 * max(1.0, abs(level)))
            if np.any(violated):
                active[violated] = True
                continue
        return GridDensity(grid, values)
    raise NotConverged(f"obstacle active-set iteration did not settle in {max_iter} sweeps")


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
    xi = riesz_potential(rho, RieszConfig(s, method=FFT)) + lam * rho.x**2 / 2
    w = v[on]
    cs = float(np.sum(w * xi[on]) / np.sum(w))
    max_dev = float(np.max(np.abs(xi[on] - cs)))
    off = ~on
    min_excess = float(np.min(xi[off] - cs)) if np.any(off) else float("inf")
    return EulerLagrangeReport(C_star=cs, max_dev_on_support=max_dev, min_excess_off_support=min_excess)
