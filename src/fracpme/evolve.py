"""Time integration of the confined nonlocal-pressure flow and its
linear-diffusion regularization, trajectory diagnostics, and
exponential-decay fitting."""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

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
from .riesz import DIRECT, toeplitz_apply, workspace
from .transport import w2

LYAPUNOV_SLACK = 1e-10
CLAMP_BUDGET = 1e-12
STALL_TOL = 1e-10
MAX_HALVINGS = 20
# the snapshot clock takes a time within SNAPSHOT_SLACK of a snapshot time (or
# of t_end) as that time, so snapshot times must lie more than twice it apart
SNAPSHOT_SLACK = 1e-12

DIAGNOSTIC_KEYS = ("E", "E_eps", "I", "I_eps", "W2", "L2", "L1", "mass", "m2", "min_rho")


def self_similar_exponent(s: float) -> float:
    """Common scaling exponent 1/(3 - 2s) of the 1D self-similar variables."""
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
        for name in ("lam", "eps", "dt", "t_end", "snapshot_every"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):  # a NaN passes every comparison below
                raise ValueError(f"{name} must be finite, got {value}")
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
        if not self.snapshot_every >= 2 * SNAPSHOT_SLACK:
            raise ValueError(
                f"snapshot_every must be at least {2 * SNAPSHOT_SLACK:g}, twice the snapshot "
                f"clock's slack, got {self.snapshot_every}"
            )
        if self.init is not None:
            # compare centers, not Grid fields: a CSV round trip can move x_max by an ulp
            on = self.init.grid
            if on.n != self.grid.n or np.max(np.abs(on.centers - self.grid.centers)) > 1e-9 * self.grid.h:
                raise ValueError(
                    f"init density is on {on.n} cells over [{on.x_min}, {on.x_max}], "
                    f"not the run's {self.grid.n} over [{self.grid.x_min}, {self.grid.x_max}]"
                )


def _hull(v: np.ndarray) -> tuple[int, int]:
    """The first and one past the last nonzero cell of v; all of v when
    every cell is 0."""
    occupied = v != 0.0
    return int(occupied.argmax()), v.size - int(occupied[::-1].argmax())


def stability_gain(stages: int) -> float:
    """How many times explicit Euler's real stability interval [-2, 0] one
    step of this many stages covers: 1 for Euler (stages = 1), and
    (S^2 + S - 2) / 4 for an RKL2 step of S stages (see rkl2_step)."""
    return 1.0 if stages == 1 else (stages * stages + stages - 2) / 4


def rkl2_step(y0: np.ndarray, f0: np.ndarray, tau: float, stages: int, f) -> np.ndarray:
    """One Runge-Kutta-Legendre step of second order (RKL2; Meyer, Balsara
    and Aslam, J. Comput. Phys. 257, 2014) of y' = f(y) from y0, where
    f0 = f(y0): stages S >= 2, taking S - 1 more evaluations of f.

    With w1 = 4 / (S^2 + S - 2), b_0 = b_1 = 1/3, b_j = (j^2 + j - 2) /
    (2 j (j + 1)) and a_j = 1 - b_j, its stability polynomial is
    R_S(z) = a_S + b_S P_S(1 + w1 z), P_S the Legendre polynomial:
    R_S(z) = 1 + z + z^2 / 2 + O(z^3), and |R_S| <= a_S + b_S = 1 on
    [-(S^2 + S - 2) / 2, 0], where 1 + w1 z sweeps [-1, 1]. The stages are
    not convex combinations of Euler steps, so they can leave the positive
    cone.

    The recursion Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1 - mu_j - nu_j) y0
    + tau (mu_j w1 f(Y_{j-1}) - a_{j-1} mu_j w1 f0) runs on the increments
    D_j = Y_j - y0, so y0 enters once, at the end: a conserved sum of the
    f values (mass, for a flux form) then drifts by the rounding of the
    increments, not of the state.
    """
    b1_w1, rows = _rkl2_coefficients(stages)
    tf0 = tau * f0
    prev, d = 0.0, b1_w1 * tf0
    for mu, nu, mu_w1, gamma in rows:
        prev, d = d, mu * d + nu * prev + (mu_w1 * tau) * f(y0 + d) - gamma * tf0
    return y0 + d


@lru_cache(maxsize=64)
def _rkl2_coefficients(stages: int) -> tuple[float, tuple[tuple[float, float, float, float], ...]]:
    """b_1 w1 and, for j = 2..S, the row (mu_j, nu_j, mu_j w1, gamma_j =
    a_{j-1} mu_j w1) of an RKL2 step of S stages (see rkl2_step): built once
    per stage count, the step then multiplies mu_j w1 by its tau."""
    w1 = 4.0 / (stages * stages + stages - 2)
    b = [1 / 3, 1 / 3] + [(j * j + j - 2) / (2 * j * (j + 1)) for j in range(2, stages + 1)]
    rows = []
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        rows.append((mu, nu, mu * w1, (1 - b[j - 1]) * mu * w1))
    return b[1] * w1, tuple(rows)


@dataclass
class RunStats:
    """The counters of one run, counted as it goes: by the stepper
    (evaluations, max_field_cells) and by integrate (the rest).

    steps counts the accepted steps and retries the trial steps discarded on
    the way. chosen_dt holds the accepted step sizes the step rule chose:
    every step but a last one cut short to land on t_end. max_fft_drift is
    the largest checkpoint |direct - fft| / scale of the potential (gated at
    1e-10). min_lyapunov_margin is the smallest E_eps(before) + 1e-10 -
    E_eps(after) over the accepted steps: how close the run came to the
    Lyapunov gate. max_energy_rise is the largest E_eps(t) - min_{t' <= t}
    E_eps(t') over the accepted states: how far the energy crept up under
    the per-step slack. min_positive is the smallest positive density value
    at the end (None when the density is zero everywhere).
    nonlocal_bound_steps counts the steps of chosen_dt taken from a state
    whose diffusive share was at least stability_gain(S) times its
    advective share (see _Stepper.state), S the step's stage count: on an
    adaptive run, the steps whose stability limit the diffusive terms set,
    not the advective one. max_field_cells is the largest window, in cells,
    that the fields were taken on, of an accepted or trial state or of the
    stages of a super-step: n once the mass fills the grid. evaluations
    counts the field evaluations of the march: the initial state's, and for
    each accepted or discarded step its stages and its end state.
    max_stages is the largest stage count of an accepted step, 1 for Euler.
    """

    steps: int = 0
    retries: int = 0
    chosen_dt: array = field(default_factory=lambda: array("d"))
    max_mass_drift: float = 0.0
    max_clamped: float = 0.0
    max_fft_drift: float = 0.0
    min_lyapunov_margin: float = float("inf")
    max_energy_rise: float = 0.0
    min_positive: float | None = None
    nonlocal_bound_steps: int = 0
    max_field_cells: int = 0
    evaluations: int = 0
    max_stages: int = 0

    def summary(self) -> dict:
        """The counters as strict JSON values: chosen_dt as its dt_min,
        dt_median and dt_max (null when it is empty), and a float that is
        not finite (min_lyapunov_margin of a run with no step) as null.

        dt_median is the middle value of the sorted steps, or the sum of the
        two middle values over 2: np.median's value, bit for bit, without
        the numpy.ma import np.median makes."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "chosen_dt":
                if not value:
                    out.update(dt_min=None, dt_median=None, dt_max=None)
                    continue
                ordered, mid = sorted(value), len(value) // 2
                median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
                out.update(dt_min=ordered[0], dt_median=median, dt_max=ordered[-1])
            else:
                out[f.name] = None if isinstance(value, float) and not math.isfinite(value) else value
        return out


class _State(NamedTuple):
    """One evaluated state of a run (see _Stepper.state): its values v, the
    window win its fields are taken on, on it the Riesz potential pot and
    the diffusion-free potential gradient dxi0, the two shares of the rate
    of one explicit step from it (advective, diffusive), and the hull of
    its mass (_hull of v), which a super-step widens into its window."""

    v: np.ndarray
    win: slice
    pot: np.ndarray
    dxi0: np.ndarray
    rates: tuple[float, float]
    hull: tuple[int, int]


class _Stepper:
    """Per-step update of one run, on the shared Riesz operator of (grid, s).

    The fields of a state are taken on its window (see state), and every
    per-step sum and update then runs on that window: a method takes the
    _State that holds the window and the field arrays on it. A super-step
    runs all its stages on one wider window (see step).
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.ws = workspace(cfg.grid, cfg.s)
        self.x = cfg.grid.centers
        self.xx = self.x * self.x  # the confinement weight of the energy and the second moment
        self.lam_x = cfg.lam * self.x  # the confinement's part of the potential gradient
        self.h = cfg.grid.h
        self.linear = 2 * cfg.eps / self.h**2  # the linear-diffusive rate (see state)
        self.stats = RunStats()  # counts evaluations and max_field_cells
        # largest modulus of the symbol of delta -> (1/h) D_face(avg_face(G delta)),
        # the nonlocal diffusion of one step with the density frozen at 1: face
        # average then face difference has the symbol i sin(theta) / h
        theta, symbol = self.ws.gradient_symbol()
        self.sigma = float(np.max(np.abs(np.sin(theta) / self.h * symbol)))

    def state(self, v: np.ndarray) -> _State:
        """The evaluated state of the values v: its window, on it the Riesz
        potential and the diffusion-free potential gradient, and the shares
        of the rate of one explicit step from it (see step_size).

        The window holds the hull of the mass widened by 2 cells on each
        side, clipped to the grid and rounded up the ladder of window sizes
        (see _section); a state with no mass, or one whose window would not
        be smaller than the grid, takes the whole grid. The density is 0
        outside the window, and 0 on its 2 end cells that lie inside the
        grid, so the fields on it are those of the whole grid up to
        round-off (see riesz.workspace).

        The advective share is max|dxi0| / h. Its maximum runs over the hull
        of the mass only, from one cell before the first nonzero cell to one
        after the last: a face between two empty cells carries no flux,
        vel * 0 = 0, whatever its velocity, so the empty far field (where
        lam x is largest) bounds nothing. A state with no mass takes the
        whole window.

        The diffusive share is the nonlocal-diffusive rate rho_max sigma / 2
        plus the linear-diffusive rate 2 eps / h^2. Frozen at density
        rho_max, the linearised nonlocal diffusion has eigenvalues of modulus
        at most rho_max sigma (sigma from the Fourier symbol, see __init__),
        and explicit Euler is stable for dt rho_max sigma <= 2, which is
        cfl = 1. It matters near a steady state, where upwind damping
        vanishes and the advective bound alone lets grid oscillations grow.
        """
        hull = first, end = _hull(v)
        win, ws = self._section(hull, 2)
        self.stats.evaluations += 1
        vw = v[win]
        pot, grad = ws.potential_and_gradient(vw)
        dxi0 = grad + self.lam_x[win]
        advective = float(np.abs(dxi0[max(first - 1 - win.start, 0) : end + 1 - win.start]).max())
        rates = (advective / self.h, 0.5 * float(vw.max()) * self.sigma + self.linear)
        return _State(v, win, pot, dxi0, rates, hull)

    def _section(self, hull: tuple[int, int], widen: int):
        """The hull widened by `widen` cells on each side and clipped to the
        grid, and the operator workspace gives for that many cells: a window
        of at least that size, or the grid's own. The window starts at the
        widened hull, or ends at the grid's end where it would pass it."""
        n = self.cfg.grid.n
        lo, hi = max(hull[0] - widen, 0), min(hull[1] + widen, n)
        ws = workspace(self.cfg.grid, self.cfg.s, hi - lo)
        lo = min(lo, n - ws.n)
        self.stats.max_field_cells = max(self.stats.max_field_cells, ws.n)
        return slice(lo, lo + ws.n), ws

    def energies(self, state: _State) -> tuple[float, float]:
        """Free energy without and with the eps entropy term, by the kernels
        of energy.energy on the state's window; the entropy part is not
        summed at eps = 0."""
        cfg, h, win = self.cfg, self.h, state.win
        vw = state.v[win]
        e = energy_mod.interaction(vw, state.pot, h) + energy_mod.confinement(vw, self.xx[win], h, cfg.lam)
        if cfg.eps == 0:
            return e, e
        return e, e + cfg.eps * energy_mod.boltzmann(vw, h)

    def dissipation(self, state: _State) -> tuple[float, float]:
        """The dissipation without and with the eps term, by the kernel of
        energy.dissipation on the state's window: dxi is dxi0, or dxi0 plus
        the gradient of eps log rho."""
        h, vw, dxi0 = self.h, state.v[state.win], state.dxi0
        i0 = energy_mod.dissipation_sum(vw, dxi0, h)
        if self.cfg.eps == 0:
            return i0, i0
        return i0, energy_mod.dissipation_sum(vw, dxi0 + energy_mod._eps_log_gradient(vw, h, self.cfg.eps), h)

    def fft_drift(self, state: _State, t: float) -> float:
        """|direct - fft| / scale of the potential of a state at time t, the
        direct pair sum being the fast path's reference, scale
        max(1, max|direct|); raises Inconsistent over 1e-10. The direct sum
        runs on the window, outside which the density is 0, with the central
        2m - 1 potential weights, m the window's cells."""
        v, win = state.v, state.win
        n, m = v.size, win.stop - win.start
        direct = toeplitz_apply(self.ws.weights("potential")[n - m : n + m - 1], v[win], DIRECT)
        scale = max(1.0, float(np.abs(direct).max()))
        err = float(np.abs(direct - state.pot).max())
        if err > 1e-10 * scale:
            raise Inconsistent(f"fast-path potential drifted from the direct sum at t={t}")
        return err / scale

    def step_size(self, rates: tuple[float, float], t: float, longest: float) -> tuple[float, int]:
        """The step from time t and its stage count (1: explicit Euler).

        A fixed dt is an Euler step, cut so the run ends at t_end. An
        adaptive step takes the candidate with the fewest field evaluations
        per unit time: Euler, one evaluation for cfl over the sum of the two
        shares of the rate (see state), or an RKL2 step of S >= 3 stages
        (see rkl2_step), S evaluations for the largest dt with
        dt advective <= cfl and dt diffusive <= cfl (S^2 + S - 2) / 4. Then
        dt is cut to longest and to t_end, and S re-picked as the least that
        covers it (stage_count).

        Stability, with the coefficients frozen: the diffusive share is half
        the largest modulus of the eigenvalues of the two diffusions, which
        are real and nonpositive; so dt diffusive <= cfl (S^2 + S - 2) / 4
        puts them in [-(S^2 + S - 2) / 2, 0], where |R_S| <= 1. dt
        advective <= cfl <= 1 keeps each stage's upwind transport within a
        cell: the advection-diffusion use of stabilised explicit steps of
        Verwer, Hundsdorfer and Sommeijer (J. Comput. Phys. 201, 2004).
        S = 2 covers no more than Euler for twice the evaluations, so it is
        never a candidate.
        """
        cfg = self.cfg
        if cfg.dt is not None:
            return min(cfg.dt, cfg.t_end - t), 1
        cap = min(longest, cfg.t_end - t)
        cfl = cfg.cfl
        advective, diffusive = rates
        best, best_stages = cfl / (advective + diffusive), 1
        for stages in itertools.count(3):
            bound = max(advective, diffusive / stability_gain(stages))
            tau = cfl / bound
            if tau / stages > best / best_stages:
                best, best_stages = tau, stages
            # more stages lengthen a step held by the advective share or the cap by nothing
            if bound == advective or tau >= cap:
                break
        dt = min(best, cap)
        return dt, self.stage_count(rates, dt)

    def stage_count(self, rates: tuple[float, float], dt: float) -> int:
        """The least stage count that covers dt (see step_size): 1 within
        Euler's bound, else the least S >= 3 with dt diffusive <= cfl
        (S^2 + S - 2) / 4. dt advective <= cfl is the caller's."""
        cfl = self.cfg.cfl * (1 + 1e-9)
        if dt * (rates[0] + rates[1]) <= cfl:
            return 1
        stages = 3
        while dt * rates[1] > cfl * stability_gain(stages):
            stages += 1
        return stages

    def _drift(self, vw: np.ndarray, dxi0: np.ndarray, out: np.ndarray, dt: float | None = None) -> np.ndarray:
        """Add dt times dy/dt of the upwind scheme on a window whose values
        are vw to out, in place, and return out; with dt None, add dy/dt.

        The fluxes through the interior faces are upwind advection with face
        velocities averaged from dxi0 (the diffusion-free part of the
        potential gradient on the window), minus the centered
        linear-diffusive flux; no flux crosses the ends of the window.
        """
        cfg, h = self.cfg, self.h
        vel = dxi0[:-1] + dxi0[1:]
        vel *= -0.5  # interior faces
        flux = np.where(vel >= 0.0, vw[:-1], vw[1:])
        flux *= vel
        if cfg.eps > 0:
            flux -= cfg.eps * (vw[1:] - vw[:-1]) / h
        if dt is None:
            flux /= h
        else:
            flux *= dt / h
        out[:-1] -= flux
        out[1:] += flux
        return out

    def _clamp(self, ow: np.ndarray) -> float:
        """Zero the negative cells of ow in place and return the mass that
        adds, after checking it against the clamp budget."""
        if ow.min() >= 0.0:  # False on NaN too, though a NaN cell passes the mask and the budget below
            return 0.0
        neg = ow < 0.0
        clamped = -self.h * float(ow[neg].sum()) if neg.any() else 0.0
        if clamped > CLAMP_BUDGET:
            raise PositivityLoss(f"clamped {clamped} mass in one step (budget {CLAMP_BUDGET})")
        if clamped:
            ow[neg] = 0.0
        return clamped

    def step(self, state: _State, dt: float, stages: int) -> tuple[np.ndarray, float]:
        """One step of the upwind scheme from a state, of this many stages
        (see step_size); returns new values and clamped mass.

        The step's velocity at the state is its dxi0 (the eps term enters
        through the centered diffusive flux, not the velocity). The mass
        outside the step's window stays where it is (0 for the window of a
        state). The stages are not clamped; the new values are.

        stages = 1 is an explicit Euler step on the state's window; dt may
        not exceed cfl over advective + 2 eps / h^2, else CflViolation.
        stages >= 3 is an RKL2 step (see rkl2_step). A stage moves mass at
        most one cell, so the S stages stay within S cells of the hull of v,
        and the step runs on one window (see _section): that hull widened by
        S + 2 cells, whose 2 end cells inside the grid stay 0 in every stage.
        Each later stage takes its velocity on it (gradient: 2 transforms);
        the drift of v is taken on its overlap with the state's window,
        which holds the hull widened by 2.
        """
        v, win, dxi0 = state.v, state.win, state.dxi0
        out = v.copy()
        if stages == 1:
            bound = self.cfg.cfl / (state.rates[0] + self.linear)
            if dt > bound * (1 + 1e-9):
                raise CflViolation(f"dt={dt} exceeds stability bound {bound}")
            ow = self._drift(v[win], dxi0, out[win], dt)  # a view: the update writes into out
        else:
            swin, ws = self._section(state.hull, stages + 2)
            lo, hi = max(win.start, swin.start), min(win.stop, swin.stop)
            lam_x = self.lam_x[swin]

            def stage(yw: np.ndarray) -> np.ndarray:
                self.stats.evaluations += 1
                return self._drift(yw, ws.gradient(yw) + lam_x, np.zeros_like(yw))

            f0 = np.zeros(swin.stop - swin.start)
            self._drift(v[lo:hi], dxi0[lo - win.start : hi - win.start], f0[lo - swin.start : hi - swin.start])
            ow = out[swin]
            ow[:] = rkl2_step(v[swin], f0, dt, stages, stage)
        return out, self._clamp(ow)


def fv_step(rho: GridDensity, cfg: SolverConfig, dt: float) -> GridDensity:
    """Single explicit conservative step of the flow.

    Upwind advective flux with face velocities averaged from cell centers,
    centered diffusive flux for eps > 0, zero flux through the boundary;
    mass is preserved to round-off by the telescoping flux sum.
    """
    stepper = _Stepper(cfg)
    out, _ = stepper.step(stepper.state(rho.values), dt, 1)
    return GridDensity(cfg.grid, out)


@dataclass
class Trajectory:
    """Snapshots plus the diagnostics series recorded along a run.

    step_times / step_energy / step_dissipation sample every solver step
    (used for the discrete energy-dissipation consistency check); the
    diagnostics dict is sampled at the snapshot cadence; stats holds the
    counters of the run (see RunStats).
    """

    config: SolverConfig
    times: np.ndarray
    snapshots: list[GridDensity]
    diagnostics: dict[str, np.ndarray]
    e_target: float
    e_eps_target: float
    step_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_energy: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_dissipation: np.ndarray = field(default_factory=lambda: np.empty(0))
    stats: RunStats = field(default_factory=RunStats)

    def series(self, quantity: str) -> np.ndarray:
        if quantity == "E_gap":
            return self.diagnostics["E"] - self.e_target
        if quantity == "E_eps_gap":
            return self.diagnostics["E_eps"] - self.e_eps_target
        return self.diagnostics[quantity]


def integrate(cfg: SolverConfig, target: GridDensity) -> Trajectory:
    """March the flow to t_end, recording diagnostics against the target.

    Enforces the Lyapunov property step by step: the (eps-)free energy may
    not increase by more than 1e-10 per step, and a step may clamp at most
    1e-12 of mass. On a CFL-adaptive run a trial step that fails either gate
    is discarded and retaken from the last accepted state at half the dt, at
    most MAX_HALVINGS times; the step after it is at most twice the last
    accepted dt. A fixed-dt run raises on the first failure. An adaptive
    step is never longer than snapshot_every, so no snapshot is skipped.
    A step is an explicit Euler step or an RKL2 super-step, as
    _Stepper.step_size picks; a fixed-dt step is always Euler.
    """
    if cfg.init is None:
        raise ValueError("cfg.init must hold the initial density")
    rho0 = normalize(cfg.init)
    stepper = _Stepper(cfg)
    stats = stepper.stats
    h = cfg.grid.h

    e_target = energy_mod.energy(target, cfg.s, cfg.lam, 0.0).total
    e_eps_target = energy_mod.energy(target, cfg.s, cfg.lam, cfg.eps).total

    state = stepper.state(rho0.values.copy())
    mass0 = h * float(state.v.sum())
    t = 0.0
    e, e_eps = stepper.energies(state)
    dt_accepted = float("inf")

    times: list[float] = []
    snapshots: list[GridDensity] = []
    diag: dict[str, list[float]] = {k: [] for k in DIAGNOSTIC_KEYS}
    step_t: list[float] = []
    step_e: list[float] = []
    step_i: list[float] = []
    e_eps_low = e_eps
    next_snap = 0.0

    while True:
        v = state.v
        i0, i_eps = stepper.dissipation(state)
        step_t.append(t)
        step_e.append(e_eps)
        step_i.append(i_eps)

        mass = h * float(v.sum())
        stats.max_mass_drift = max(stats.max_mass_drift, abs(mass - mass0))

        if t >= next_snap - SNAPSHOT_SLACK or t >= cfg.t_end - SNAPSHOT_SLACK:
            stats.max_fft_drift = max(stats.max_fft_drift, stepper.fft_drift(state, t))
            snap = GridDensity(cfg.grid, v)
            times.append(t)
            snapshots.append(snap)
            diag["E"].append(e)
            diag["E_eps"].append(e_eps)
            diag["I"].append(i0)
            diag["I_eps"].append(i_eps)
            diag["W2"].append(w2(normalize(snap), target) if mass > 0 else float("nan"))
            diff = v - target.values
            diag["L2"].append(float(np.sqrt(h * (diff**2).sum())))
            diag["L1"].append(h * float(np.abs(diff).sum()))
            diag["mass"].append(mass)
            diag["m2"].append(h * float((stepper.xx * v).sum()))
            diag["min_rho"].append(float(v.min()))
            while next_snap <= t + SNAPSHOT_SLACK:
                next_snap += cfg.snapshot_every

        if t >= cfg.t_end - SNAPSHOT_SLACK:
            break

        rates = state.rates
        # a step longer than the snapshot spacing would skip a snapshot
        dt, stages = stepper.step_size(rates, t, min(2 * dt_accepted, cfg.snapshot_every))
        for halvings in range(MAX_HALVINGS + 1):
            try:
                trial, clamped = stepper.step(state, dt, stages)
                trial_state = stepper.state(trial)
                trial_e = stepper.energies(trial_state)
                margin = e_eps + LYAPUNOV_SLACK - trial_e[1]
                if margin < 0:
                    raise EnergyIncrease(f"E_eps rose by {trial_e[1] - e_eps} at t={t + dt}")
                break
            except (EnergyIncrease, PositivityLoss):
                if cfg.dt is not None or halvings == MAX_HALVINGS:
                    raise
                dt *= 0.5
                stages = stepper.stage_count(rates, dt)
                stats.retries += 1
        state, (e, e_eps) = trial_state, trial_e
        stats.steps += 1
        stats.max_stages = max(stats.max_stages, stages)
        stats.max_clamped = max(stats.max_clamped, clamped)
        stats.min_lyapunov_margin = min(stats.min_lyapunov_margin, margin)
        e_eps_low = min(e_eps_low, e_eps)
        stats.max_energy_rise = max(stats.max_energy_rise, e_eps - e_eps_low)
        if dt < cfg.t_end - t:
            stats.chosen_dt.append(dt)  # not cut short to land on t_end
            advective, diffusive = rates
            if diffusive >= stability_gain(stages) * advective:
                stats.nonlocal_bound_steps += 1
        t += dt
        dt_accepted = dt

    positive = v[v > 0]
    stats.min_positive = float(positive.min()) if positive.size else None
    return Trajectory(
        config=cfg,
        times=np.asarray(times),
        snapshots=snapshots,
        diagnostics={k: np.asarray(series) for k, series in diag.items()},
        e_target=e_target,
        e_eps_target=e_eps_target,
        step_times=np.asarray(step_t),
        step_energy=np.asarray(step_e),
        step_dissipation=np.asarray(step_i),
        stats=stats,
    )


def interp_orders(s: float) -> tuple[float, float]:
    """The Holder order alpha and the Sobolev order r of the interpolation
    inequality. It leaves r < alpha/2 free; the artifact pins alpha to the
    profile's edge regularity 1-s and r to 0.49 alpha."""
    alpha = 1.0 - s
    return alpha, 0.49 * alpha


def default_interp_order(s: float) -> float:
    """Negative-Sobolev weight sigma_1 = r / (s + r) used in the L2/L1 decay
    envelopes, at the orders of interp_orders."""
    r = interp_orders(s)[1]
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
    if not np.all(q > 0):  # a NaN sample is not positive either
        raise NonpositiveQuantity(f"{quantity} is not positive on the window")
    slope = float(np.polyfit(t[sel], np.log(q), 1)[0])
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


def steady_state_eps(cfg: SolverConfig) -> GridDensity:
    """Minimizer of the eps-regularized energy by long-time integration.

    Starts from the sampled sharp steady profile and marches until the
    state stops moving: max|dv/dt| of a step at most 1e-10 max rho (no
    closed form exists for eps > 0). It steps as integrate does, on
    _Stepper.step_size with no cap: Euler steps, or RKL2 super-steps where
    they need fewer field evaluations. It stops where the drift of the
    scheme vanishes to round-off, a fixed point of either step, so the
    result does not depend on the steps taken beyond round-off. The
    cell-centered eps-dissipation is no stop: the upwind/centered flux mix
    leaves a grid floor in it (7.4e-7 to 2.3e-4 at the stall for s 0.1 to
    0.4, eps 1e-3 to 0.9 lam/(2 pi), lam 0.4, n 128 and 1024). The result
    is strictly positive everywhere, unlike the compactly supported eps = 0
    profile.
    Raises NotConverged, with the last motion, when the state still moves
    at t_end.
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
    t = 0.0
    moved = float("inf")
    while t < cfg.t_end:
        state = stepper.state(v)
        dt, stages = stepper.step_size(state.rates, t, float("inf"))
        v, _ = stepper.step(state, dt, stages)
        moved = float(np.abs(v - state.v).max()) / dt
        t += dt
        if moved <= STALL_TOL * float(v.max()):
            return GridDensity(cfg.grid, v)
    raise NotConverged(f"max|dv/dt| = {moved} > {STALL_TOL} max rho at t_max = {cfg.t_end}")
