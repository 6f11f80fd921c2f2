"""1D optimal transport (quadratic-cost distance via quantiles, monotone
maps) and the functional-inequality suite built on it: the entropy /
distance / dissipation inequality with its three-term anatomy, the
log-Sobolev and transport-cost inequalities, the product-form
Gagliardo-Nirenberg-Sobolev ratio, and the interpolation inequality."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import energy as energy_mod
from .errors import DegenerateDenominator, EpsilonOutOfRange, ParameterOrder
from .grid import (
    GridDensity,
    cdf_quantile,
    holder_seminorm,
    require_normalized,
)
from .riesz import neg_sobolev_norm, regularity_warning, workspace

W2_NODES_PER_CELL = 10


def w2(rho1: GridDensity, rho2: GridDensity) -> float:
    """Quadratic-cost transport distance via quantile functions.

    Exact in 1D up to the composite midpoint rule in the quantile variable
    (at least 10 nodes per grid cell).
    """
    require_normalized(rho1)
    require_normalized(rho2)
    q1 = cdf_quantile(rho1)
    q2 = cdf_quantile(rho2)
    m = W2_NODES_PER_CELL * max(rho1.grid.n, rho2.grid.n)
    q = (np.arange(m) + 0.5) / m
    diff = q1(q) - q2(q)
    return float(np.sqrt(np.sum(diff * diff) / m))


@dataclass(frozen=True)
class TransportPlan1D:
    """Monotone map theta with theta#source = target and its quadratic cost."""

    theta: np.ndarray
    source: GridDensity
    target: GridDensity
    cost: float


def monotone_map(rho1: GridDensity, rho2: GridDensity) -> TransportPlan1D:
    """Nondecreasing optimal map as target-quantile of source-CDF."""
    require_normalized(rho1)
    require_normalized(rho2)
    pos = np.flatnonzero(rho1.values > 0)
    if pos.size and (pos[-1] - pos[0] + 1 != pos.size):
        warnings.warn("monotone_map: source support is disconnected", stacklevel=2)
    f1 = cdf_quantile(rho1)
    f2 = cdf_quantile(rho2)
    theta = f2(np.clip(f1.cdf(rho1.x), 0.0, 1.0))
    cost = rho1.grid.h * float(np.sum(rho1.values * (rho1.x - theta) ** 2))
    return TransportPlan1D(theta=theta, source=rho1, target=rho2, cost=cost)


@dataclass
class InequalityReport:
    """Signed margins of the functional inequalities (>= 0 means satisfied)
    plus the three-term decomposition and the scale they were measured at."""

    s: float
    lam: float
    eps: float
    hwi_gap: float | None = None
    lsi_gap: float | None = None
    talagrand_gap: float | None = None
    lemmaE_gap: float | None = None
    T1: float | None = None
    T2: float | None = None
    T3: float | None = None
    gns_ratio: float | None = None
    scale: float = 1.0
    extras: dict = field(default_factory=dict)


def _check_eps(eps: float, lam: float) -> None:
    if eps < 0 or (eps > 0 and eps >= lam / (2 * np.pi)):
        raise EpsilonOutOfRange(f"eps must lie in [0, lam/(2 pi)) = [0, {lam/(2*np.pi)}), got {eps}")


def _pv_map_term(rho: GridDensity, theta: np.ndarray, s: float) -> float:
    """Symmetrized principal-value form of int K rho (theta - x) d rho.

    Pair sum with the diagonal excluded: the antisymmetrized displacement
    difference vanishes there, which makes the sum converge despite the
    kernel singularity. The interaction-kernel derivative is integrated
    exactly over the inner cell (these are the gradient weights), which
    keeps the term accurate down to small s where the kernel is barely
    integrable.
    """
    ws = workspace(rho.grid, s)
    v = rho.values
    phi = theta - rho.x
    conv_v = ws.apply("gradient", v)
    conv_phiv = ws.apply("gradient", phi * v)
    return 0.5 * rho.grid.h * float(np.sum(phi * v * conv_v) - np.sum(v * conv_phiv))


def hwi_terms(
    rho: GridDensity,
    rho_target: GridDensity,
    s: float,
    lam: float,
    eps: float = 0.0,
) -> InequalityReport:
    """Three-term anatomy of the entropy/distance/dissipation inequality.

    T1 is a Cauchy-Schwarz gap evaluated with the shared discrete measure, so
    it is nonnegative to round-off by construction; T2 vanishes identically
    at eps = 0 and stays nonnegative for 0 < eps < lam/(2 pi); T3 is the
    displacement-convexity gap of the interaction energy.
    """
    _check_eps(eps, lam)
    require_normalized(rho)
    require_normalized(rho_target)
    regularity_warning(rho, s, where="hwi_terms")
    plan = monotone_map(rho, rho_target)
    theta = plan.theta
    g = rho.grid
    h, x, v = g.h, rho.x, rho.values

    fld = energy_mod.potential_xi(rho, s, lam, eps)
    i_eps = h * float(np.sum(v * fld.dxi**2))
    w2_cost = np.sqrt(plan.cost)
    cross = h * float(np.sum(v * fld.dxi * (x - theta)))
    t1 = np.sqrt(i_eps) * w2_cost - cross

    if eps == 0.0:
        integrand = lam * (x * (x - theta) - x**2 / 2 + theta**2 / 2 - (x - theta) ** 2 / 2)
        t2 = h * float(np.sum(v * integrand))
    else:
        _, dlog = energy_mod._eps_log_terms(v, h, eps)
        vt = rho_target.values
        log_rho = np.where(v > 0, np.log(np.maximum(v, energy_mod.LOG_FLOOR)), 0.0)
        log_t = np.where(vt > 0, np.log(np.maximum(vt, energy_mod.LOG_FLOOR)), 0.0)
        t2 = (
            -h * float(np.sum(v * (dlog + lam * x) * (theta - x)))
            - h * float(np.sum(v * (lam * x**2 / 2 + eps * log_rho)))
            + h * float(np.sum(vt * (lam * rho_target.x**2 / 2 + eps * log_t)))
            - lam / 2 * plan.cost
        )

    inter_target = energy_mod.interaction_energy(rho_target, s)
    inter_rho = energy_mod.interaction_energy(rho, s)
    t3 = inter_target - inter_rho - _pv_map_term(rho, theta, s)

    scale = max(1.0, i_eps, abs(inter_rho), abs(inter_target), plan.cost)
    return InequalityReport(s=s, lam=lam, eps=eps, T1=t1, T2=t2, T3=t3, scale=scale)


def inequality_report(
    rho: GridDensity,
    s: float,
    lam: float,
    eps: float = 0.0,
    target: GridDensity | None = None,
) -> InequalityReport:
    """Signed margins of the four inequalities against the given target.

    The target is the sampled steady profile (eps = 0) or the long-time limit
    of the diffusive flow (eps > 0); its energy is evaluated with the same
    grid quadrature as rho's so the gaps vanish cleanly at rho = target.
    """
    _check_eps(eps, lam)
    require_normalized(rho)
    if target is None:
        raise ValueError("inequality_report needs the steady target density")
    require_normalized(target)

    e_rho = energy_mod.energy(rho, s, lam, eps).total
    e_tgt = energy_mod.energy(target, s, lam, eps).total
    gap = e_rho - e_tgt
    i_eps = energy_mod.dissipation(rho, s, lam, eps)
    dist = w2(rho, target)

    hwi_gap = np.sqrt(i_eps) * dist - lam / 2 * dist**2 - gap
    lsi_gap = i_eps / (2 * lam) - gap
    talagrand_gap = np.sqrt(2 / lam * max(gap, 0.0)) - dist

    lemma_gap = None
    if eps == 0.0:
        nsn = neg_sobolev_norm(rho.values - target.values, rho.grid, s)
        lemma_gap = gap - 0.5 * nsn**2

    scale = max(1.0, abs(gap), i_eps)
    return InequalityReport(
        s=s,
        lam=lam,
        eps=eps,
        hwi_gap=float(hwi_gap),
        lsi_gap=float(lsi_gap),
        talagrand_gap=float(talagrand_gap),
        lemmaE_gap=None if lemma_gap is None else float(lemma_gap),
        scale=float(scale),
        extras={"energy_gap": float(gap), "dissipation": float(i_eps), "w2": float(dist)},
    )


def gns_theta(s: float) -> float:
    """Homogeneity exponent of the product-form interaction inequality."""
    return (1 - 2 * s) / (4 - 4 * s)


def gns_ratio(rho: GridDensity, s: float) -> float:
    """Ratio (right side without its constant) / (left side) of the
    product-form inequality; constant on the steady-profile family and
    minimized there, so fuzz densities must come out no smaller.

    Homogeneity-aware: rho need not be normalized.
    """
    if not s < 0.5:
        raise ParameterOrder(f"gns ratio requires s < 1/2, got {s}")
    ws = workspace(rho.grid, s)
    h = rho.grid.h
    lhs = h * float(np.sum(rho.values * ws.potential(rho.values)))
    if lhs <= 0:
        raise DegenerateDenominator(f"interaction integral {lhs!r} <= 0 at s < 1/2")
    grad = ws.gradient(rho.values)
    grad_term = h * float(np.sum(rho.values * grad**2))
    theta = gns_theta(s)
    return float(rho.mass ** (2 - 3 * theta) * grad_term**theta / lhs)


def interp_sigmas(s: float, alpha: float, r: float) -> tuple[float, float, float]:
    """Exponents of the L2 interpolation inequality; they sum to one."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterOrder(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 < s < 0.5:
        raise ParameterOrder(f"s must be in (0, 1/2), got {s}")
    if not 0.0 < r < alpha / 2:
        raise ParameterOrder(f"need 0 < r < alpha/2, got r={r}, alpha={alpha}")
    s1 = r / (s + r)
    s2 = s * (1 + 2 * r) / (2 * (1 + alpha) * (s + r))
    # algebraically s3 = s(1+2a-2r)/(2(1+a)(s+r)); the complement form keeps
    # the exponent sum at exactly one in floating point
    s3 = 1.0 - (s1 + s2)
    return s1, s2, s3


def interp_inequality(
    u: np.ndarray,
    grid,
    s: float,
    alpha: float,
    r: float,
) -> tuple[float, float, tuple[float, float, float]]:
    """Left side ||u||_2 and unnormalized right side of the interpolation
    inequality, plus the exponent triple. The inequality's constant is
    existential; callers record the empirical ratio."""
    sigmas = interp_sigmas(s, alpha, r)
    u = np.asarray(u, dtype=float)
    h = grid.h
    lhs = float(np.sqrt(h * np.sum(u * u)))
    nsn = neg_sobolev_norm(u, grid, s)
    hol = holder_seminorm(u, grid, alpha)
    l1 = h * float(np.sum(np.abs(u)))
    rhs = nsn ** sigmas[0] * hol ** sigmas[1] * l1 ** sigmas[2]
    return lhs, float(rhs), sigmas
