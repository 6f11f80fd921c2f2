"""1D optimal transport (quadratic-cost distance via quantiles, monotone
maps) and the functional-inequality suite built on it: the entropy /
distance / dissipation inequality with its three-term anatomy, the
log-Sobolev and transport-cost inequalities, the product-form
Gagliardo-Nirenberg-Sobolev ratio, and the interpolation inequality."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import energy as energy_mod
from .errors import DegenerateDenominator, EpsilonOutOfRange, ParameterOrder
from .grid import (
    GridDensity,
    cdf_quantile,
    holder_seminorm,
    keep,
    require_normalized,
)
from .riesz import _neg_sobolev_from, kept_field, neg_sobolev_norm, regularity_warning, riesz_gradient, riesz_potential

W2_NODES_PER_CELL = 10


@lru_cache(maxsize=8)
def _quantile_nodes(m: int) -> np.ndarray:
    """The m midpoints (k + 1/2) / m of [0, 1], read-only."""
    q = (np.arange(m) + 0.5) / m
    q.setflags(write=False)
    return q


def w2(rho1: GridDensity, rho2: GridDensity) -> float:
    """Quadratic-cost transport distance via quantile functions.

    Exact in 1D up to the composite midpoint rule in the quantile variable
    (at least 10 nodes per grid cell). The m nodes are built once per m, and
    rho2 keeps its quantiles at them (in rho2.kept), so measuring many
    densities against one target inverts its CDF once. The nodes are
    nondecreasing, so QuantileFn finds their cells by runs: a call costs
    O(n log m + m) for the n cells of rho1.
    """
    require_normalized(rho1)
    require_normalized(rho2)
    m = W2_NODES_PER_CELL * max(rho1.grid.n, rho2.grid.n)
    q = _quantile_nodes(m)
    q2 = keep(rho2.kept, ("w2_quantiles", m), lambda: cdf_quantile(rho2)(q))
    diff = cdf_quantile(rho1)(q)
    diff -= q2
    diff *= diff
    return float(np.sqrt(diff.sum() / m))


@dataclass(frozen=True)
class TransportPlan1D:
    """Monotone map theta pushing the source density onto the target, and
    its quadratic cost."""

    theta: np.ndarray
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
    theta = f2(f1.cdf(rho1.x).clip(0.0, 1.0))
    cost = rho1.grid.h * float((rho1.values * (rho1.x - theta) ** 2).sum())
    return TransportPlan1D(theta=theta, cost=cost)


@dataclass
class InequalityReport:
    """Signed margins of the functional inequalities (>= 0 means satisfied)
    plus the three-term decomposition and the scale they were measured at."""

    hwi_gap: float | None = None
    lsi_gap: float | None = None
    talagrand_gap: float | None = None
    lemmaE_gap: float | None = None
    T1: float | None = None
    T2: float | None = None
    T3: float | None = None
    scale: float = 1.0
    extras: dict = field(default_factory=dict)


def _check_eps(eps: float, lam: float) -> None:
    if eps < 0 or (eps > 0 and eps >= lam / (2 * np.pi)):
        raise EpsilonOutOfRange(f"eps must lie in [0, lam/(2 pi)) = [0, {lam/(2*np.pi)}), got {eps}")


def _pv_map_term(rho: GridDensity, theta: np.ndarray, s: float) -> float:
    """Principal-value form of int K rho (theta - x) d rho: h sum phi v (G v),
    with phi = theta - x and G the gradient weights.

    The pair sum excludes the diagonal (G's central weight is 0), where the
    antisymmetrized displacement difference, the form of the continuum
    argument, vanishes. G is odd, bitwise in floats, so sum v G(phi v) =
    -sum phi v (G v), and the antisymmetrized sum (1/2) h [sum phi v (G v) -
    sum v G(phi v)] is this one-sided sum: it reads rho's kept gradient
    field and takes no transform. The interaction-kernel derivative is
    integrated exactly over the inner cell (these are the gradient
    weights), which keeps the term accurate down to small s where the
    kernel is barely integrable.
    """
    phi = theta - rho.x
    return rho.grid.h * float((phi * rho.values * kept_field(rho, s, "gradient")).sum())


def hwi_terms(
    rho: GridDensity,
    rho_target: GridDensity,
    s: float,
    lam: float,
    eps: float,
) -> InequalityReport:
    """Three-term anatomy of the entropy/distance/dissipation inequality.

    T1 is a Cauchy-Schwarz gap evaluated with the shared discrete measure, so
    it is nonnegative to round-off by construction; T2 vanishes identically
    at eps = 0 and stays nonnegative for 0 < eps < lam/(2 pi); T3 is the
    displacement-convexity gap of the interaction energy.

    The free-energy parts are the kept energy.energy breakdowns of rho and
    the target: T3 takes their interaction energies, and T2 at eps > 0 their
    confinement + eps * entropy. So the target's parts are summed once for
    all the densities measured against it.
    """
    _check_eps(eps, lam)
    require_normalized(rho)
    require_normalized(rho_target)
    regularity_warning(rho, s)
    plan = monotone_map(rho, rho_target)
    theta = plan.theta
    h, x, v = rho.grid.h, rho.x, rho.values

    dxi = energy_mod.potential_xi(rho, s, lam, eps)
    i_eps = energy_mod.dissipation(rho, s, lam, eps)
    w2_cost = np.sqrt(plan.cost)
    cross = h * float((v * dxi * (x - theta)).sum())
    t1 = np.sqrt(i_eps) * w2_cost - cross

    bd_rho = energy_mod.energy(rho, s, lam, eps)
    bd_target = energy_mod.energy(rho_target, s, lam, eps)
    if eps == 0.0:
        integrand = lam * (x * (x - theta) - x**2 / 2 + theta**2 / 2 - (x - theta) ** 2 / 2)
        t2 = h * float((v * integrand).sum())
    else:
        dlog = energy_mod._eps_log_gradient(v, h, eps)
        t2 = (
            -h * float((v * (dlog + lam * x) * (theta - x)).sum())
            - (bd_rho.confinement + eps * bd_rho.boltzmann)
            + (bd_target.confinement + eps * bd_target.boltzmann)
            - lam / 2 * plan.cost
        )

    t3 = bd_target.interaction - bd_rho.interaction - _pv_map_term(rho, theta, s)

    scale = max(1.0, i_eps, abs(bd_rho.interaction), abs(bd_target.interaction), plan.cost)
    return InequalityReport(T1=t1, T2=t2, T3=t3, scale=scale)


def inequality_report(
    rho: GridDensity,
    s: float,
    lam: float,
    eps: float,
    target: GridDensity,
) -> InequalityReport:
    """Signed margins of the four inequalities against the given target.

    The target is the sampled steady profile (eps = 0) or the long-time limit
    of the diffusive flow (eps > 0); its energy is evaluated with the same
    grid quadrature as rho's so the gaps vanish cleanly at rho = target, and
    kept on the target (see energy.energy). The extras hold, at every eps,
    the negative Sobolev norm of rho - target that lemmaE takes at eps = 0,
    for interp_inequality of the same difference. It is the quadratic form
    h sum (rho - target)(W rho - W target) of the two densities' kept
    potentials, so it takes no transform; it differs from
    neg_sobolev_norm(rho - target) only by FFT round-off.
    """
    _check_eps(eps, lam)
    require_normalized(rho)
    require_normalized(target)

    e_tgt = energy_mod.energy(target, s, lam, eps).total
    e_rho = energy_mod.energy(rho, s, lam, eps).total
    gap = e_rho - e_tgt
    i_eps = energy_mod.dissipation(rho, s, lam, eps)
    dist = w2(rho, target)

    hwi_gap = np.sqrt(i_eps) * dist - lam / 2 * dist**2 - gap
    lsi_gap = i_eps / (2 * lam) - gap
    talagrand_gap = np.sqrt(2 / lam * max(gap, 0.0)) - dist

    # W is linear, so W(rho - target) = W rho - W target: no transform of the difference
    u = rho.values - target.values
    nsn = _neg_sobolev_from(u, riesz_potential(rho, s) - riesz_potential(target, s), rho.grid, s)
    extras = {"energy_gap": float(gap), "dissipation": float(i_eps), "w2": float(dist), "neg_sobolev_norm": nsn}
    lemma_gap = gap - 0.5 * nsn**2 if eps == 0.0 else None

    scale = max(1.0, abs(gap), i_eps)
    return InequalityReport(
        hwi_gap=float(hwi_gap),
        lsi_gap=float(lsi_gap),
        talagrand_gap=float(talagrand_gap),
        lemmaE_gap=None if lemma_gap is None else float(lemma_gap),
        scale=float(scale),
        extras=extras,
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
    h = rho.grid.h
    lhs = h * float((rho.values * riesz_potential(rho, s)).sum())
    if lhs <= 0:
        raise DegenerateDenominator(f"interaction integral {lhs!r} <= 0 at s < 1/2")
    grad = riesz_gradient(rho, s)
    grad_term = h * float((rho.values * grad**2).sum())
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
    nsn: float | None = None,
) -> tuple[float, float, tuple[float, float, float]]:
    """Left side ||u||_2 and unnormalized right side of the interpolation
    inequality, plus the exponent triple. The inequality's constant is
    existential; callers record the empirical ratio. nsn is
    neg_sobolev_norm(u, grid, s) when the caller has taken it already
    (inequality_report's extras); None takes it here."""
    sigmas = interp_sigmas(s, alpha, r)
    u = np.asarray(u, dtype=float)
    h = grid.h
    lhs = float(np.sqrt(h * (u * u).sum()))
    if nsn is None:
        nsn = neg_sobolev_norm(u, grid, s)
    hol = holder_seminorm(u, grid, alpha)
    l1 = h * float(np.abs(u).sum())
    rhs = nsn ** sigmas[0] * hol ** sigmas[1] * l1 ** sigmas[2]
    return lhs, float(rhs), sigmas
