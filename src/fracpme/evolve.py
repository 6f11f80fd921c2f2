"""Time integration of the confined nonlocal-pressure flow and its
linear-diffusion regularization, self-similar change of variables,
trajectory diagnostics, and exponential-decay fitting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import energy as energy_mod
from .errors import (
    CflViolation,
    EnergyIncrease,
    EpsilonOutOfRange,
    Inconsistent,
    InsufficientSamples,
    NonpositiveQuantity,
    NotConverged,
    PositivityLoss,
)
from .grid import Grid, GridDensity, normalize
from .riesz import DIRECT, workspace
from .transport import w2

LYAPUNOV_SLACK = 1e-10
CLAMP_BUDGET = 1e-12
EPS_STEADY_TOL = 1e-10
STALL_TOL = 1e-10

DIAGNOSTIC_KEYS = ("E", "E_eps", "I", "I_eps", "W2", "L2", "L1", "mass", "m2", "min_rho")


def self_similar_exponent(s: float) -> float:
    """Common scaling exponent 1/(3 - 2s) of the 1D change of variables."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must be in (0, 1), got {s}")
    return 1.0 / (3.0 - 2.0 * s)


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one run; lam defaults to the self-similar value."""

    s: float
    grid: Grid
    lam: float | None = None
    eps: float = 0.0
    dt: float | None = None  # None => CFL-adaptive
    t_end: float = 5.0
    cfl: float = 0.5
    init: GridDensity | None = None
    snapshot_every: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must be in (0, 1), got {self.s}")
        if self.lam is None:
            object.__setattr__(self, "lam", self_similar_exponent(self.s))
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.snapshot_every <= 0:
            raise ValueError(f"snapshot_every must be > 0, got {self.snapshot_every}")


class _Stepper:
    """Per-step update of one run, on the shared Riesz operator of (grid, s)."""

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.ws = workspace(cfg.grid, cfg.s)
        self.x = cfg.grid.centers
        self.h = cfg.grid.h

    def fields(self, v: np.ndarray):
        """Potential, velocity parts and scalar diagnostics for a state."""
        cfg = self.cfg
        pot, grad = self.ws.potential_and_gradient(v)
        dxi0 = grad + cfg.lam * self.x
        if cfg.eps > 0:
            return pot, dxi0, dxi0 + energy_mod._eps_log_terms(v, self.h, cfg.eps)[1]
        return pot, dxi0, dxi0

    def energy_eps(self, v: np.ndarray, pot: np.ndarray) -> float:
        cfg, h, x = self.cfg, self.h, self.x
        inter = 0.5 * h * float(np.sum(v * pot))
        conf = cfg.lam / 2 * h * float(np.sum(x * x * v))
        if cfg.eps == 0:
            return inter + conf
        return inter + conf + cfg.eps * h * float(np.sum(energy_mod._entropy_density(v)))

    def max_velocity(self, dxi: np.ndarray) -> float:
        return float(np.max(np.abs(dxi)))

    def cfl_dt(self, dxi: np.ndarray, v: np.ndarray | None = None, stiff: bool = False) -> float:
        """Stable step from the advective and linear-diffusive rates.

        With stiff=True the nonlinear fractional-diffusion rate
        rho_max (pi/h)^{2-2s} / 2 is included as well; face-averaged
        velocities damp the worst grid modes, so the plain advective bound
        is adequate for finite-horizon runs, but near a steady state (where
        upwind damping vanishes) the stiff bound is needed.
        """
        cfg, h = self.cfg, self.h
        rate = self.max_velocity(dxi) / h + 2 * cfg.eps / h**2
        if stiff and v is not None:
            rate += 0.5 * float(np.max(v)) * (np.pi / h) ** (2 - 2 * cfg.s)
        if rate == 0.0:
            return cfg.t_end
        return cfg.cfl / rate

    def advance(self, v: np.ndarray, dxi0: np.ndarray, dt: float) -> tuple[np.ndarray, float]:
        """One conservative upwind step; returns new state and clamped mass.

        dxi0 is the diffusion-free part of the potential gradient: the eps
        term enters through the centered diffusive flux, not the velocity.
        """
        cfg, h = self.cfg, self.h
        bound = self.cfl_dt(dxi0)
        if dt > bound * (1 + 1e-9):
            raise CflViolation(f"dt={dt} exceeds stability bound {bound}")
        vel = -0.5 * (dxi0[:-1] + dxi0[1:])  # interior faces
        upwind = np.where(vel >= 0.0, v[:-1], v[1:])
        flux = vel * upwind
        if cfg.eps > 0:
            flux = flux - cfg.eps * (v[1:] - v[:-1]) / h
        out = v.copy()
        out[:-1] -= (dt / h) * flux
        out[1:] += (dt / h) * flux
        neg = out < 0.0
        clamped = -h * float(np.sum(out[neg])) if np.any(neg) else 0.0
        if clamped > CLAMP_BUDGET:
            raise PositivityLoss(f"clamped {clamped} mass in one step (budget {CLAMP_BUDGET})")
        if clamped:
            out[neg] = 0.0
        return out, clamped


def fv_step(rho: GridDensity, cfg: SolverConfig, dt: float | None = None) -> GridDensity:
    """Single explicit conservative step of the flow.

    Upwind advective flux with face velocities averaged from cell centers,
    centered diffusive flux for eps > 0, zero flux through the boundary;
    mass is preserved to round-off by the telescoping flux sum.
    """
    stepper = _Stepper(cfg)
    _, dxi0, _ = stepper.fields(rho.values)
    if dt is None:
        dt = cfg.dt if cfg.dt is not None else stepper.cfl_dt(dxi0, rho.values, stiff=True)
    out, _ = stepper.advance(rho.values, dxi0, dt)
    return GridDensity(cfg.grid, out)


@dataclass
class Trajectory:
    """Snapshots plus the diagnostics series recorded along a run.

    step_times / step_energy / step_dissipation sample every solver step
    (used for the discrete energy-dissipation consistency check); the
    diagnostics dict is sampled at the snapshot cadence.
    """

    config: SolverConfig
    times: np.ndarray
    snapshots: list[GridDensity]
    diagnostics: dict[str, np.ndarray]
    target: GridDensity
    e_target: float
    e_eps_target: float
    step_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_energy: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_dissipation: np.ndarray = field(default_factory=lambda: np.empty(0))
    max_mass_drift: float = 0.0
    max_clamped: float = 0.0

    def series(self, quantity: str) -> np.ndarray:
        if quantity == "E_gap":
            return self.diagnostics["E"] - self.e_target
        if quantity == "E_eps_gap":
            return self.diagnostics["E_eps"] - self.e_eps_target
        return self.diagnostics[quantity]


def integrate(cfg: SolverConfig, target: GridDensity) -> Trajectory:
    """March the flow to t_end, recording diagnostics against the target.

    Enforces the Lyapunov property step by step: the (eps-)free energy may
    not increase by more than 1e-10 per step.
    """
    if cfg.init is None:
        raise ValueError("cfg.init must hold the initial density")
    rho0 = normalize(cfg.init)
    stepper = _Stepper(cfg)
    h, x = cfg.grid.h, cfg.grid.centers

    e_target = energy_mod.energy(target, cfg.s, cfg.lam, 0.0).total
    e_eps_target = energy_mod.energy(target, cfg.s, cfg.lam, cfg.eps).total

    v = rho0.values.copy()
    mass0 = h * float(np.sum(v))
    t = 0.0
    e_prev = None

    times: list[float] = []
    snapshots: list[GridDensity] = []
    diag: dict[str, list[float]] = {k: [] for k in DIAGNOSTIC_KEYS}
    step_t: list[float] = []
    step_e: list[float] = []
    step_i: list[float] = []
    max_drift = 0.0
    max_clamped = 0.0
    next_snap = 0.0

    while True:
        pot, dxi0, dxi = stepper.fields(v)
        e_eps = stepper.energy_eps(v, pot)
        i0 = h * float(np.sum(v * dxi0 * dxi0))
        i_eps = i0 if cfg.eps == 0 else h * float(np.sum(v * dxi * dxi))
        if e_prev is not None and e_eps > e_prev + LYAPUNOV_SLACK:
            raise EnergyIncrease(f"E_eps rose by {e_eps - e_prev} at t={t}")
        e_prev = e_eps
        step_t.append(t)
        step_e.append(e_eps)
        step_i.append(i_eps)

        mass = h * float(np.sum(v))
        max_drift = max(max_drift, abs(mass - mass0))

        if t >= next_snap - 1e-12 or t >= cfg.t_end - 1e-12:
            # the direct pair sum is the reference for the convolution fast
            # path; validate it at every checkpoint
            direct = stepper.ws.potential(v, DIRECT)
            scale = max(1.0, float(np.max(np.abs(direct))))
            if float(np.max(np.abs(direct - pot))) > 1e-10 * scale:
                raise Inconsistent(f"fast-path potential drifted from the direct sum at t={t}")
            snap = GridDensity(cfg.grid, v)
            e_conf = cfg.lam / 2 * h * float(np.sum(x * x * v))
            e_inter = 0.5 * h * float(np.sum(v * pot))
            times.append(t)
            snapshots.append(snap)
            diag["E"].append(e_inter + e_conf)
            diag["E_eps"].append(e_eps)
            diag["I"].append(i0)
            diag["I_eps"].append(i_eps)
            diag["W2"].append(w2(normalize(snap), target) if mass > 0 else float("nan"))
            diag["L2"].append(float(np.sqrt(h * np.sum((v - target.values) ** 2))))
            diag["L1"].append(h * float(np.sum(np.abs(v - target.values))))
            diag["mass"].append(mass)
            diag["m2"].append(h * float(np.sum(x * x * v)))
            diag["min_rho"].append(float(np.min(v)))
            while next_snap <= t + 1e-12:
                next_snap += cfg.snapshot_every

        if t >= cfg.t_end - 1e-12:
            break

        dt = cfg.dt if cfg.dt is not None else stepper.cfl_dt(dxi0, v, stiff=True)
        dt = min(dt, cfg.t_end - t)
        v, clamped = stepper.advance(v, dxi0, dt)
        max_clamped = max(max_clamped, clamped)
        t += dt

    return Trajectory(
        config=cfg,
        times=np.asarray(times),
        snapshots=snapshots,
        diagnostics={k: np.asarray(series) for k, series in diag.items()},
        target=target,
        e_target=e_target,
        e_eps_target=e_eps_target,
        step_times=np.asarray(step_t),
        step_energy=np.asarray(step_e),
        step_dissipation=np.asarray(step_i),
        max_mass_drift=max_drift,
        max_clamped=max_clamped,
    )


def default_interp_order(s: float) -> float:
    """Negative-Sobolev weight sigma_1 used in the L2/L1 decay envelopes.

    The interpolation inequality leaves r < alpha/2 free; the artifact pins
    alpha to the profile's edge regularity 1-s and r to 0.49 alpha.
    """
    alpha = 1.0 - s
    r = 0.49 * alpha
    return r / (s + r)


BOUND_RATES = {
    "E_gap": lambda lam, s: 2 * lam,
    "E_eps_gap": lambda lam, s: 2 * lam,
    "I": lambda lam, s: 2 * lam,
    "I_eps": lambda lam, s: 2 * lam,
    "W2": lambda lam, s: lam,
    "L2": lambda lam, s: lam * default_interp_order(s),
    "L1": lambda lam, s: 0.8 * lam * default_interp_order(s),
}

BOUND_TOL = 0.05


@dataclass(frozen=True)
class DecayFit:
    """Fitted exponential rate of one diagnostic and its theoretical envelope."""

    quantity: str
    rate: float
    bound_rate: float
    bound_satisfied: bool
    prefactor: float
    window: tuple[float, float]


def fit_decay(
    traj: Trajectory,
    quantity: str,
    window: tuple[float, float],
    prefactor: float | None = None,
    bound_rate: float | None = None,
) -> DecayFit:
    """Least-squares slope of log(quantity) over the window, plus the check
    quantity(t) <= 1.05 * prefactor * exp(-bound_rate t) at every sample.

    The prefactor defaults to the t=0 value of the series; decay corollaries
    that provide a better constant (e.g. the transport-cost bound) pass it
    explicitly.
    """
    series = traj.series(quantity)
    t = traj.times
    sel = (t >= window[0]) & (t <= window[1])
    if int(np.sum(sel)) < 10:
        raise InsufficientSamples(f"only {int(np.sum(sel))} samples in window {window}")
    q = series[sel]
    if np.any(q <= 0):
        raise NonpositiveQuantity(f"{quantity} is not positive on the window")
    slope = float(np.polyfit(t[sel], np.log(q), 1)[0])
    if bound_rate is None:
        bound_rate = BOUND_RATES[quantity](traj.config.lam, traj.config.s)
    if prefactor is None:
        prefactor = float(series[0])
    envelope = (1 + BOUND_TOL) * prefactor * np.exp(-bound_rate * t[sel])
    ok = bool(np.all(q <= envelope))
    return DecayFit(
        quantity=quantity,
        rate=slope,
        bound_rate=float(bound_rate),
        bound_satisfied=ok,
        prefactor=float(prefactor),
        window=window,
    )


TO_SELF_SIMILAR = "to_self_similar"
TO_PHYSICAL = "to_physical"


def change_of_variables(
    dens: GridDensity,
    time: float,
    direction: str,
    s: float,
) -> tuple[GridDensity, float]:
    """Map between physical and self-similar representations.

    Physical state u at time tau maps to rho(x) = (1+tau)^a u(x (1+tau)^a)
    at t = log(1+tau), and back; the density is resampled onto its own grid
    by monotone linear interpolation, preserving mass up to interpolation
    error. tau = 0 (t = 0) is the identity.
    """
    if time < 0:
        raise ValueError(f"time must be >= 0, got {time}")
    a = self_similar_exponent(s)
    x = dens.grid.centers
    if direction == TO_SELF_SIMILAR:
        tau = time
        scale = (1.0 + tau) ** a
        new_vals = scale * np.interp(x * scale, x, dens.values, left=0.0, right=0.0)
        new_time = np.log1p(tau)
    elif direction == TO_PHYSICAL:
        t = time
        tau = np.expm1(t)
        scale = (1.0 + tau) ** a
        new_vals = np.interp(x / scale, x, dens.values, left=0.0, right=0.0) / scale
        new_time = tau
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return GridDensity(dens.grid, new_vals), float(new_time)


@dataclass(frozen=True)
class EpsSteadyResult:
    """Terminal state of the regularized flow and its convergence record."""

    density: GridDensity
    converged: bool
    t: float
    dissipation: float


def steady_state_eps(cfg: SolverConfig, raise_on_fail: bool = True) -> EpsSteadyResult:
    """Minimizer of the eps-regularized energy by long-time integration.

    Starts from the sampled sharp steady profile and marches until the
    eps-dissipation drops below 1e-10 or the state stops moving (no closed
    form exists for eps > 0). The upwind/centered flux mix leaves a grid
    floor in the cell-centered dissipation (O(h^2), around 1e-6 at n=1024),
    so the genuine fixed point is detected by stationarity: the scheme
    reaches flux balance to machine precision long before the dissipation
    threshold could be met. The result is strictly positive everywhere,
    unlike the compactly supported eps = 0 profile.
    """
    if not 0.0 < cfg.eps < cfg.lam / (2 * np.pi):
        raise EpsilonOutOfRange(
            f"steady_state_eps needs 0 < eps < lam/(2 pi) = {cfg.lam/(2*np.pi)}, got {cfg.eps}"
        )
    if cfg.init is not None:
        v = normalize(cfg.init).values.copy()
    else:
        from .steady import barenblatt

        _, dens = barenblatt(cfg.s, cfg.lam, mass=1.0, grid=cfg.grid)
        v = normalize(dens).values.copy()
    stepper = _Stepper(cfg)
    h = cfg.grid.h
    t = 0.0
    i_eps = float("inf")
    while t < cfg.t_end:
        _, dxi0, dxi = stepper.fields(v)
        i_eps = h * float(np.sum(v * dxi * dxi))
        if i_eps < EPS_STEADY_TOL:
            return EpsSteadyResult(GridDensity(cfg.grid, v), True, t, i_eps)
        # near the fixed point upwind damping vanishes; the nonlocal
        # diffusion stiffness must cap the step to avoid grid oscillation
        dt = cfg.dt if cfg.dt is not None else stepper.cfl_dt(dxi0, v, stiff=True)
        dt = min(dt, cfg.t_end - t)
        v_new, _ = stepper.advance(v, dxi0, dt)
        moved = float(np.max(np.abs(v_new - v))) / dt
        v = v_new
        t += dt
        if moved <= STALL_TOL * float(np.max(v)):
            _, _, dxi = stepper.fields(v)
            i_eps = h * float(np.sum(v * dxi * dxi))
            return EpsSteadyResult(GridDensity(cfg.grid, v), True, t, i_eps)
    if raise_on_fail:
        raise NotConverged(f"I_eps = {i_eps} > {EPS_STEADY_TOL} at t_max = {cfg.t_end}")
    return EpsSteadyResult(GridDensity(cfg.grid, v), False, t, i_eps)
