"""Scalar functionals along the flow: free energy (with optional entropic
term), its dissipation, the dissipation-rate remainder and the virial
identity. The array kernels of the free energy's parts and of the
dissipation are the one definition of E and I: the stepper takes them on
its windows, and hwi_terms reads the kept breakdowns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeRemainder
from .grid import GridDensity, keep, require_normalized
from .riesz import kept_field, riesz_constant, riesz_gradient, riesz_potential, workspace

LOG_FLOOR = 1e-300
EPS_TERM_FLOOR = 1e-12


def _eps_log_gradient(v: np.ndarray, h: float, eps: float) -> np.ndarray:
    """Centered difference of eps log rho on {rho > floor} (zero where a
    stencil leaves that set), for the grid values v of a density."""
    mask = v > EPS_TERM_FLOOR * float(v.max())
    logv = np.where(mask, np.log(np.maximum(v, LOG_FLOOR)), 0.0)
    grad = np.zeros_like(v)
    ok = mask[2:] & mask[:-2] & mask[1:-1]
    grad[1:-1] = np.where(ok, (logv[2:] - logv[:-2]) / (2 * h), 0.0)
    return eps * grad


def _entropy_density(v: np.ndarray) -> np.ndarray:
    """rho log rho at the grid values v, with the 0 log 0 = 0 convention."""
    return np.where(v > 0.0, v * np.log(np.maximum(v, LOG_FLOOR)), 0.0)


def potential_xi(rho: GridDensity, s: float, lam: float, eps: float = 0.0) -> np.ndarray:
    """Spatial derivative dxi of the driving potential xi = (-Dxx)^{-s} rho
    + lam x^2/2 (+ eps log rho) at the cell centers; the velocity field of
    the flow is -dxi. rho keeps it, read-only, for each (s, lam, eps) in
    rho.kept, so dissipation, hwi_terms and remainder_R share one array."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    require_normalized(rho)

    def build():
        dxi = riesz_gradient(rho, s) + lam * rho.grid.centers
        if eps > 0:
            dxi += _eps_log_gradient(rho.values, rho.grid.h, eps)
        return dxi

    return keep(rho.kept, ("potential_xi", s, lam, eps), build)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Interaction, confinement and entropy parts of the free energy.

    boltzmann is h sum rho log rho at eps > 0. At eps = 0 it is not summed
    and holds 0.0, so total is the interaction plus the confinement."""

    interaction: float
    confinement: float
    boltzmann: float
    eps: float

    @property
    def total(self) -> float:
        return self.interaction + self.confinement + self.eps * self.boltzmann


def interaction(v: np.ndarray, pot: np.ndarray, h: float) -> float:
    """(1/2) h sum v pot: the interaction part, for the values v and their
    Riesz potential pot on the same cells."""
    return 0.5 * h * float((v * pot).sum())


def confinement(v: np.ndarray, xx: np.ndarray, h: float, lam: float) -> float:
    """(lam/2) h sum xx v: the confinement part, xx the squared cell centers."""
    return lam / 2 * (h * float((xx * v).sum()))


def boltzmann(v: np.ndarray, h: float) -> float:
    """h sum v log v: the entropy part, with the 0 log 0 = 0 convention."""
    return h * float(_entropy_density(v).sum())


def dissipation_sum(v: np.ndarray, dxi: np.ndarray, h: float) -> float:
    """h sum v dxi^2, for the values v and their potential gradient dxi."""
    return h * float((v * dxi**2).sum())


def energy(
    rho: GridDensity,
    s: float,
    lam: float,
    eps: float = 0.0,
    check_mass: bool = True,
) -> EnergyBreakdown:
    """Free energy breakdown; total = interaction + confinement + eps*entropy.

    The one definition of the free energy: each part is the array kernel of
    this module (interaction, confinement, boltzmann) that the stepper also
    takes on its windows. As in the stepper, the entropy part is summed only
    at eps > 0 (see EnergyBreakdown). For s >= 1/2 the interaction kernel
    does not decay and the value carries the domain truncation; differences
    of energies remain meaningful. rho keeps its breakdown for each
    (s, lam, eps) in rho.kept, so a target measured against many densities
    is integrated once.
    """
    if check_mass:
        require_normalized(rho)

    def build():
        v, h = rho.values, rho.grid.h
        inter = interaction(v, riesz_potential(rho, s), h)
        entropy = boltzmann(v, h) if eps > 0 else 0.0
        return EnergyBreakdown(inter, confinement(v, rho.x**2, h, lam), entropy, eps)

    return keep(rho.kept, ("energy", s, lam, eps), build)


def dissipation(rho: GridDensity, s: float, lam: float, eps: float = 0.0) -> float:
    """Entropy production h sum rho * dxi^2 (dissipation_sum); nonnegative
    by construction. rho keeps it for each (s, lam, eps) in rho.kept."""
    return keep(
        rho.kept,
        ("dissipation", s, lam, eps),
        lambda: dissipation_sum(rho.values, potential_xi(rho, s, lam, eps), rho.grid.h),
    )


def remainder_R(rho: GridDensity, s: float, lam: float) -> float:
    """Quadratic remainder in the dissipation-rate identity
    dI/dt = -2 lam I - 2 R; nonnegative in 1D because the scalar kernel
    (2-2s)|x|^{2s-3} is positive and c_plus > 0 on both sides of s = 1/2.

    The squared velocity difference vanishes quadratically at the diagonal,
    which tames the kernel singularity; the diagonal cell pair is excluded.
    With K the hessian weights and d the velocity, R = (1/2) c_plus h
    (t1 - 2 t2 + t3), t1 = sum v d^2 (K v), t2 = sum v d K(v d) and
    t3 = sum v K(v d^2). K is even, bitwise in floats, so t3 = t1 up to
    FFT round-off, and one transform pair (K(v d)) serves the sum: rho's
    kept hessian field gives t1.
    """
    g = rho.grid
    v, d = rho.values, potential_xi(rho, s, lam, 0.0)
    ws = workspace(g, s)
    c_plus = ws.kernel.c_plus
    vd = v * d
    t1 = float((vd * d * kept_field(rho, s, "hessian")).sum())
    t2 = float((vd * ws.apply("hessian", vd)).sum())
    val = c_plus * g.h * (t1 - t2)
    scale = max(1.0, c_plus * g.h * (abs(t1) + abs(t2)))
    if val < -1e-10 * scale:
        raise NegativeRemainder(f"remainder came out {val!r} at scale {scale!r}")
    return val


def virial_check(rho: GridDensity, s: float) -> tuple[float, float]:
    """Both sides of -2 int rho x d/dx (-Dxx)^{-s} rho = (1-2s) int rho (-Dxx)^{-s} rho.

    At s = 1/2 the kernel is -log|z|/pi, so z W'(z) = -1/pi and the right
    side is c_plus M^2 with M the mass: the limit of the s != 1/2 form.
    """
    h = rho.grid.h
    grad = riesz_gradient(rho, s)
    lhs = -2.0 * h * float((rho.values * rho.x * grad).sum())
    if s == 0.5:
        return lhs, riesz_constant(s).c_plus * rho.mass**2
    pot = riesz_potential(rho, s)
    rhs = (1 - 2 * s) * h * float((rho.values * pot).sum())
    return lhs, rhs
