"""Scalar functionals along the flow: free energy (with optional entropic
term), its dissipation, the dissipation-rate remainder, the virial identity,
and the relative entropy against the standard Gaussian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeRemainder
from .grid import GridDensity, moment, require_normalized
from .riesz import workspace

LOG_FLOOR = 1e-300
EPS_TERM_FLOOR = 1e-12


@dataclass(frozen=True)
class PotentialField:
    """xi = (-Dxx)^{-s} rho + lam x^2/2 (+ eps log rho where rho > floor) and
    its spatial derivative; the flow velocity is -dxi."""

    xi: np.ndarray
    dxi: np.ndarray
    s: float
    lam: float
    eps: float


def _eps_log_terms(v: np.ndarray, h: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """eps log rho on {rho > floor} and its centered difference (zero where
    a stencil leaves that set), for the grid values v of a density."""
    mask = v > EPS_TERM_FLOOR * float(np.max(v))
    logv = np.where(mask, np.log(np.maximum(v, LOG_FLOOR)), 0.0)
    grad = np.zeros_like(v)
    ok = mask[2:] & mask[:-2] & mask[1:-1]
    grad[1:-1] = np.where(ok, (logv[2:] - logv[:-2]) / (2 * h), 0.0)
    return eps * logv, eps * grad


def _entropy_density(v: np.ndarray) -> np.ndarray:
    """rho log rho at the grid values v, with the 0 log 0 = 0 convention."""
    return np.where(v > 0.0, v * np.log(np.maximum(v, LOG_FLOOR)), 0.0)


def potential_xi(rho: GridDensity, s: float, lam: float, eps: float = 0.0) -> PotentialField:
    """Assemble the driving potential and the velocity field of the flow."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    require_normalized(rho)
    x = rho.x
    ws = workspace(rho.grid, s)
    xi = ws.potential(rho.values) + lam * x**2 / 2
    dxi = ws.gradient(rho.values) + lam * x
    if eps > 0:
        log_term, log_gradient = _eps_log_terms(rho.values, rho.grid.h, eps)
        xi = xi + log_term
        dxi = dxi + log_gradient
    return PotentialField(xi=xi, dxi=dxi, s=s, lam=lam, eps=eps)


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
    potential = workspace(rho.grid, s).potential(rho.values)
    return 0.5 * rho.grid.h * float(np.sum(rho.values * potential))


def energy(
    rho: GridDensity,
    s: float,
    lam: float,
    eps: float = 0.0,
    check_mass: bool = True,
) -> EnergyBreakdown:
    """Free energy breakdown; total = interaction + confinement + eps*entropy.

    For s >= 1/2 the interaction kernel does not decay and the value carries
    the domain truncation; differences of energies remain meaningful.
    """
    if check_mass:
        require_normalized(rho)
    inter = interaction_energy(rho, s)
    conf = lam / 2 * moment(rho, 2)
    boltz = boltzmann_entropy(rho)
    return EnergyBreakdown(interaction=inter, confinement=conf, boltzmann=boltz, eps=eps)


def dissipation(rho: GridDensity, s: float, lam: float, eps: float = 0.0) -> float:
    """Entropy production h sum rho * dxi^2; nonnegative by construction."""
    field = potential_xi(rho, s, lam, eps)
    return rho.grid.h * float(np.sum(rho.values * field.dxi**2))


def remainder_R(rho: GridDensity, s: float, lam: float) -> float:
    """Quadratic remainder in the dissipation-rate identity
    dI/dt = -2 lam I - 2 R; nonnegative in 1D because the scalar kernel
    (2-2s)|x|^{2s-3} is positive and c_plus > 0 on both sides of s = 1/2.

    The squared velocity difference vanishes quadratically at the diagonal,
    which tames the kernel singularity; the diagonal cell pair is excluded.
    """
    g = rho.grid
    v, d = rho.values, potential_xi(rho, s, lam, 0.0).dxi
    ws = workspace(g, s)
    c_plus = ws.kernel.c_plus
    conv_v = ws.apply("hessian", v)
    conv_vd = ws.apply("hessian", v * d)
    conv_vd2 = ws.apply("hessian", v * d * d)
    t1 = float(np.sum(v * d * d * conv_v))
    t2 = float(np.sum(v * d * conv_vd))
    t3 = float(np.sum(v * conv_vd2))
    val = 0.5 * c_plus * g.h * (t1 - 2 * t2 + t3)
    scale = max(1.0, 0.5 * c_plus * g.h * (abs(t1) + 2 * abs(t2) + abs(t3)))
    if val < -1e-10 * scale:
        raise NegativeRemainder(f"remainder came out {val!r} at scale {scale!r}")
    return val


def virial_check(rho: GridDensity, s: float) -> tuple[float, float]:
    """Both sides of -2 int rho x d/dx (-Dxx)^{-s} rho = (1-2s) int rho (-Dxx)^{-s} rho."""
    ws = workspace(rho.grid, s)
    h = rho.grid.h
    grad = ws.gradient(rho.values)
    pot = ws.potential(rho.values)
    lhs = -2.0 * h * float(np.sum(rho.values * rho.x * grad))
    rhs = (1 - 2 * s) * h * float(np.sum(rho.values * pot))
    return lhs, rhs


def gaussian_relative_entropy(rho: GridDensity) -> float:
    """Relative entropy against exp(-pi x^2); nonnegative up to quadrature."""
    require_normalized(rho)
    return np.pi * moment(rho, 2) + boltzmann_entropy(rho)
