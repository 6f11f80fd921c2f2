"""Scalar functionals along the flow: free energy (with optional entropic
term), its dissipation, the dissipation-rate remainder and the virial
identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeRemainder
from .grid import GridDensity, moment, require_normalized
from .riesz import kept_field, riesz_constant, riesz_gradient, riesz_potential, workspace

LOG_FLOOR = 1e-300
EPS_TERM_FLOOR = 1e-12


def _eps_log_gradient(v: np.ndarray, h: float, eps: float) -> np.ndarray:
    """Centered difference of eps log rho on {rho > floor} (zero where a
    stencil leaves that set), for the grid values v of a density."""
    mask = v > EPS_TERM_FLOOR * float(np.max(v))
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
    the flow is -dxi."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    require_normalized(rho)
    dxi = riesz_gradient(rho, s) + lam * rho.grid.centers
    if eps > 0:
        dxi += _eps_log_gradient(rho.values, rho.grid.h, eps)
    return dxi


@dataclass(frozen=True)
class EnergyBreakdown:
    """Interaction, confinement and entropy parts of the free energy."""

    interaction: float
    confinement: float
    boltzmann: float
    eps: float

    @property
    def total(self) -> float:
        return self.interaction + self.confinement + self.eps * self.boltzmann


def boltzmann_entropy(rho: GridDensity) -> float:
    """h * sum rho log rho with the 0 log 0 = 0 convention."""
    return rho.grid.h * float(np.sum(_entropy_density(rho.values)))


def interaction_energy(rho: GridDensity, s: float) -> float:
    """(1/2) h sum rho * (-Dxx)^{-s} rho, with exact cell kernel weights."""
    return 0.5 * rho.grid.h * float(np.sum(rho.values * riesz_potential(rho, s)))


def energy(
    rho: GridDensity,
    s: float,
    lam: float,
    eps: float = 0.0,
    check_mass: bool = True,
) -> EnergyBreakdown:
    """Free energy breakdown; total = interaction + confinement + eps*entropy.

    For s >= 1/2 the interaction kernel does not decay and the value carries
    the domain truncation; differences of energies remain meaningful. rho
    keeps its breakdown for each (s, lam, eps) in rho.kept, so a target
    measured against many densities is integrated once.
    """
    if check_mass:
        require_normalized(rho)
    key = ("energy", s, lam, eps)
    out = rho.kept.get(key)
    if out is None:
        inter = interaction_energy(rho, s)
        conf = lam / 2 * moment(rho, 2)
        boltz = boltzmann_entropy(rho)
        out = rho.kept[key] = EnergyBreakdown(interaction=inter, confinement=conf, boltzmann=boltz, eps=eps)
    return out


def dissipation(rho: GridDensity, s: float, lam: float, eps: float = 0.0) -> float:
    """Entropy production h sum rho * dxi^2; nonnegative by construction.
    rho keeps it for each (s, lam, eps) in rho.kept."""
    key = ("dissipation", s, lam, eps)
    out = rho.kept.get(key)
    if out is None:
        dxi = potential_xi(rho, s, lam, eps)
        out = rho.kept[key] = rho.grid.h * float(np.sum(rho.values * dxi**2))
    return out


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
    t1 = float(np.sum(vd * d * kept_field(rho, s, "hessian")))
    t2 = float(np.sum(vd * ws.apply("hessian", vd)))
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
    lhs = -2.0 * h * float(np.sum(rho.values * rho.x * grad))
    if s == 0.5:
        return lhs, riesz_constant(s).c_plus * rho.mass**2
    pot = riesz_potential(rho, s)
    rhs = (1 - 2 * s) * h * float(np.sum(rho.values * pot))
    return lhs, rhs
