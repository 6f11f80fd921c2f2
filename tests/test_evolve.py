import dataclasses

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from fracpme.energy import dissipation, energy
from fracpme.errors import (
    CflViolation,
    EnergyIncrease,
    EpsilonOutOfRange,
    Inconsistent,
    InsufficientSamples,
    NonpositiveQuantity,
    NotConverged,
    PositivityLoss,
)
from fracpme.evolve import (
    LYAPUNOV_SLACK,
    STALL_TOL,
    RunStats,
    SolverConfig,
    Trajectory,
    _State,
    _Stepper,
    fit_decay,
    fv_step,
    integrate,
    rkl2_step,
    self_similar_exponent,
    stability_gain,
    steady_state_eps,
)
from fracpme.grid import Grid, GridDensity, normalize
from fracpme.riesz import gradient_slope_weights, gradient_weights, workspace
from fracpme.steady import barenblatt

S, LAM = 0.25, 0.4


@pytest.fixture(scope="module")
def short_run(grid1024, steady_pair):
    _, target = steady_pair
    _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=grid1024)
    cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, t_end=1.0, cfl=0.5, init=shifted)
    return integrate(cfg, target)


class TestSolverConfig:
    def test_lambda_defaults_to_self_similar(self, grid1024):
        cfg = SolverConfig(s=0.25, grid=grid1024)
        assert cfg.lam == self_similar_exponent(0.25) == pytest.approx(0.4)

    def test_validation(self, grid1024):
        with pytest.raises(ValueError):
            SolverConfig(s=1.5, grid=grid1024)
        with pytest.raises(ValueError):
            SolverConfig(s=0.25, grid=grid1024, dt=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(s=0.25, grid=grid1024, cfl=1.5)

    def test_init_must_sit_on_the_run_grid(self, grid1024):
        rho = normalize(GridDensity(grid1024, np.exp(-grid1024.centers**2)))
        ulp_grid = Grid(grid1024.x_min, float(np.nextafter(grid1024.x_max, 5.0)), grid1024.n)
        SolverConfig(s=S, grid=ulp_grid, init=rho)  # a CSV round trip can move x_max by one ulp
        for other in (Grid.symmetric(4.0, 512), Grid.symmetric(2.0, 1024)):
            with pytest.raises(ValueError, match="init density"):
                SolverConfig(s=S, grid=other, init=rho)


class TestFvStep:
    def test_mass_preserved_exactly(self, grid1024, corpus40):
        rho = corpus40[0][1]
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, dt=1e-4, t_end=1.0, init=rho)
        out = fv_step(rho, cfg, 1e-4)
        assert abs(out.mass - rho.mass) <= 1e-14

    def test_symmetric_density_stays_symmetric(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        rho = normalize(GridDensity(grid1024, vals))
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, dt=1e-4, t_end=1.0, init=rho)
        out = fv_step(rho, cfg, 1e-4)
        assert np.max(np.abs(out.values - out.values[::-1])) <= 1e-13

    def test_steady_state_is_near_fixed_point(self):
        g = Grid.symmetric(4.0, 2048)
        _, dens = barenblatt(S, LAM, mass=1.0, grid=g)
        rho = normalize(dens)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, dt=1e-4, t_end=1.0, init=rho)
        out = fv_step(rho, cfg, 1e-4)
        assert g.h * np.sum(np.abs(out.values - rho.values)) <= 1e-6

    def test_cfl_violation(self, grid1024, steady_pair):
        _, target = steady_pair
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=grid1024)
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, dt=1.0, t_end=2.0, cfl=0.5, init=shifted)
        with pytest.raises(CflViolation):
            fv_step(normalize(shifted), cfg, 1.0)


class TestClamp:
    """The clamp path of _Stepper.step, behind its positivity fast path.

    At cfl = 1 a cell whose two faces both flow out can lose all its mass in
    one step; a dt 5e-10 over the bound (inside the 1e-9 slack of the CFL
    check) drives it to -5e-10 times its value. The state is hand-built:
    its advective share is max|dxi0| / h = 1 / h.
    """

    OVERSHOOT = 5e-10

    def step(self, peak):
        g = Grid.symmetric(4.0, 64)
        stepper = _Stepper(SolverConfig(s=S, grid=g, lam=LAM, cfl=1.0))
        k = g.n // 2
        dxi0 = np.zeros(g.n)
        dxi0[:k] = 1.0  # faces left of cell k flow left, faces right of it flow right
        dxi0[k + 1 :] = -1.0
        v = np.zeros(g.n)
        v[k] = peak
        dt = g.h * (1 + self.OVERSHOOT)  # the bound is cfl h / max|dxi0| = h
        state = _State(v, slice(0, g.n), None, dxi0, (1.0 / g.h, 0.0), (k, k + 1))
        return g, k, v, stepper.step(state, dt, 1)

    def test_small_undershoot_is_zeroed_and_reported(self):
        peak = 1e-3
        g, k, v, (out, clamped) = self.step(peak)
        assert out[k] == 0.0
        assert np.all(out >= 0.0)
        assert clamped == pytest.approx(g.h * self.OVERSHOOT * peak, rel=1e-6)
        assert 0.0 < clamped <= 1e-12
        # the clamp adds exactly the mass it reports
        assert g.h * out.sum() - g.h * v.sum() == pytest.approx(clamped, rel=1e-3)

    def test_undershoot_over_the_budget_raises(self):
        with pytest.raises(PositivityLoss):
            self.step(1.0)


class TestIntegrate:
    def test_steady_init_stays_flat(self, grid1024, steady_pair):
        _, target = steady_pair
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, t_end=0.5, cfl=0.5, init=target)
        traj = integrate(cfg, target)
        egap = traj.series("E_gap")
        assert np.max(np.abs(egap - egap[0])) <= 1e-6
        assert np.max(traj.series("W2")) <= 2 * grid1024.h

    def test_adaptive_steps_take_every_snapshot(self):
        # on this coarse grid the stability rule alone allows steps longer
        # than the snapshot spacing
        g = Grid.symmetric(4.0, 256)
        _, target = barenblatt(S, LAM, mass=1.0, grid=g)
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, t_end=0.5, init=shifted, snapshot_every=0.005)
        traj = integrate(cfg, normalize(target))
        assert traj.times.size == 101

    def test_chosen_dt_leaves_out_the_step_cut_to_land_on_t_end(self):
        g = Grid.symmetric(4.0, 256)
        _, target = barenblatt(S, LAM, mass=1.0, grid=g)
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, dt=5e-4, t_end=0.0052, init=shifted)
        traj = integrate(cfg, normalize(target))
        assert traj.stats.steps == 11
        assert traj.stats.chosen_dt.tolist() == [5e-4] * 10

    def test_energy_monotone_and_dissipation_matches(self, short_run):
        traj = short_run
        steps = np.diff(traj.step_energy)
        assert np.max(steps) <= 1e-10  # Lyapunov property per step
        # discrete dE/dt tracks -I to a few percent at this resolution
        dts = np.diff(traj.step_times)
        resid = np.abs(steps / dts + traj.step_dissipation[:-1]) / traj.step_dissipation[:-1]
        assert np.median(resid) <= 0.05

    def test_min_lyapunov_margin_is_the_closest_step_to_the_gate(self, short_run):
        assert short_run.stats.retries == 0
        e = short_run.step_energy
        assert short_run.stats.min_lyapunov_margin == np.min(e[:-1] + LYAPUNOV_SLACK - e[1:])
        assert short_run.stats.min_lyapunov_margin >= 0.0

    def test_max_energy_rise_and_min_positive_read_the_run(self, short_run):
        e = short_run.step_energy
        assert short_run.stats.max_energy_rise == np.max(e - np.minimum.accumulate(e))
        final = short_run.snapshots[-1].values
        assert short_run.stats.min_positive == np.min(final[final > 0])

    def test_energy_creeps_up_from_the_steady_init(self):
        # the sampled closed-form profile is not the grid minimizer: each
        # step may raise E_eps by up to the gate's slack, and it does
        g = Grid.symmetric(4.0, 256)
        _, init = barenblatt(S, LAM, mass=1.0, grid=g)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, t_end=0.3, cfl=0.5, init=init)
        traj = integrate(cfg, normalize(init))
        assert traj.stats.max_energy_rise > 0.0
        e = traj.step_energy
        assert traj.stats.max_energy_rise == np.max(e - np.minimum.accumulate(e))

    def test_nonlocal_bound_steps_are_chosen_steps(self, short_run):
        # on this run the diffusive share sets the step bound on some of the steps
        assert 0 < short_run.stats.nonlocal_bound_steps <= len(short_run.stats.chosen_dt) <= short_run.stats.steps

    def test_mass_and_positivity_invariants(self, short_run):
        assert short_run.stats.max_mass_drift <= 1e-12
        assert short_run.stats.max_clamped <= 1e-12
        assert 0.0 < short_run.stats.max_fft_drift <= 1e-10
        assert np.min(short_run.diagnostics["min_rho"]) >= 0.0

    def test_checkpoint_direct_sum_on_the_window(self, grid1024):
        """The checkpoint gate's reference (_Stepper.fft_drift): the direct
        sum on the window with the central 2m - 1 potential weights is the
        whole grid's direct sum on the window, and its scale
        max(1, max|direct|) is no larger."""
        from fracpme.riesz import DIRECT, toeplitz_apply

        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=grid1024)
        v = normalize(shifted).values
        stepper = _Stepper(SolverConfig(s=S, grid=grid1024, lam=LAM))
        state = stepper.state(v)
        win, pot = state.win, state.pot
        n, m = grid1024.n, win.stop - win.start
        assert m < n
        weights = stepper.ws.weights("potential")
        windowed = toeplitz_apply(weights[n - m : n + m - 1], v[win], DIRECT)
        whole = toeplitz_apply(weights, v, DIRECT)
        assert np.max(np.abs(windowed - whole[win])) <= 1e-14 * np.max(np.abs(whole[win]))
        scale = max(1.0, float(np.abs(windowed).max()))
        assert scale <= max(1.0, float(np.abs(whole).max()))
        assert np.max(np.abs(windowed - pot)) <= 1e-10 * scale
        assert stepper.fft_drift(state, 0.0) == float(np.abs(windowed - pot).max()) / scale
        drifted = state._replace(pot=pot + 2e-10 * scale)
        with pytest.raises(Inconsistent):
            stepper.fft_drift(drifted, 0.0)

    def test_snapshot_schema(self, short_run):
        for key in ("E", "E_eps", "I", "I_eps", "W2", "L2", "L1", "mass", "m2", "min_rho"):
            assert key in short_run.diagnostics
            assert short_run.diagnostics[key].shape == short_run.times.shape

    def test_energy_gap_dominates_sobolev_distance_along_run(self, grid1024, minimizer_target):
        from fracpme.riesz import neg_sobolev_norm

        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=grid1024)
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, t_end=2.0, cfl=0.5, init=shifted)
        traj = integrate(cfg, minimizer_target)
        e_t = energy(minimizer_target, S, LAM).total
        for i, snap in enumerate(traj.snapshots):
            egap = traj.diagnostics["E"][i] - e_t
            nu = neg_sobolev_norm(snap.values - minimizer_target.values, grid1024, S)
            assert egap >= 0.5 * nu**2 - 1e-8


class TestRunStatsSummary:
    """dt_median is np.median's value, bit for bit, taken by a sort."""

    @pytest.mark.parametrize(
        "steps",
        [
            [0.25],
            [0.1, 0.2],
            [0.3, 0.1, 0.2],
            [1 / 3, 1 / 3, 0.1],
            [0.1, 1 / 7, 1 / 7, 0.2],
            np.random.default_rng(5).random(800).tolist(),
            np.random.default_rng(6).choice([0.1, 1 / 3, 1 / 7, 2e-5], 800).tolist(),
        ],
    )
    def test_dt_median_is_numpys(self, steps):
        stats = RunStats()
        stats.chosen_dt.extend(steps)
        summary = stats.summary()
        assert summary["dt_median"] == float(np.median(steps))
        assert (summary["dt_min"], summary["dt_max"]) == (min(steps), max(steps))

    def test_no_step_reads_null(self):
        summary = RunStats().summary()
        assert summary["dt_min"] is summary["dt_median"] is summary["dt_max"] is None


class TestStepSize:
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.5, 0.7])
    def test_symbol_matches_dense_evaluation(self, s):
        g = Grid.symmetric(4.0, 64)
        stepper = _Stepper(SolverConfig(s=s, grid=g))
        theta, symbol = stepper.ws.gradient_symbol()
        phase = np.exp(-1j * np.outer(theta, np.arange(-(g.n - 1), g.n)))
        grad = phase @ gradient_weights(g.n, g.h, s)
        slope = phase @ gradient_slope_weights(g.n, g.h, s)
        dense = grad + 1j * np.sin(theta) / g.h * slope
        assert np.max(np.abs(symbol - dense)) <= 1e-12 * np.max(np.abs(dense))
        sigma = float(np.max(np.abs(np.sin(theta) / g.h * dense)))
        assert abs(stepper.sigma - sigma) <= 1e-12 * sigma

    def test_fixed_dt_over_the_gate_raises_without_retry(self, monkeypatch):
        # at a steady state each step of dt 2e-3 raises E by ~1e-10 on this grid
        g = Grid.symmetric(4.0, 256)
        _, dens = barenblatt(S, LAM, mass=1.0, grid=g)
        target = normalize(dens)
        taken = []
        step = _Stepper.step

        def spy(self, state, dt, stages):
            taken.append((dt, stages))
            return step(self, state, dt, stages)

        monkeypatch.setattr(_Stepper, "step", spy)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, dt=2e-3, t_end=0.1, init=target)
        with pytest.raises(EnergyIncrease):
            integrate(cfg, target)
        assert set(taken) == {(2e-3, 1)}

    def test_euler_guard_keeps_the_linear_diffusive_rate(self):
        """At eps > 0 a fixed dt within the advective bound cfl / advective
        but over cfl / (advective + 2 eps / h^2) fails the Euler step,
        through fv_step and through a fixed-dt integrate; a dt at that bound
        steps."""
        g = Grid.symmetric(4.0, 256)
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        rho = normalize(shifted)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, eps=1e-2, init=rho)
        advective = _Stepper(cfg).state(rho.values).rates[0]
        linear = 2 * cfg.eps / g.h**2
        dt = cfg.cfl / (advective + 0.5 * linear)
        assert dt * advective <= cfg.cfl < dt * (advective + linear)
        fixed = SolverConfig(s=S, grid=g, lam=LAM, eps=cfg.eps, dt=dt, t_end=10 * dt, init=rho)
        with pytest.raises(CflViolation):
            fv_step(rho, fixed, dt)
        with pytest.raises(CflViolation):
            integrate(fixed, rho)
        fv_step(rho, fixed, cfg.cfl / (advective + linear))


class TestHullRule:
    """The advective rate runs over the hull of the mass, one cell beyond the
    first and the last nonzero cell, not over the empty far field."""

    def state(self, xmax, n):
        """The grid, the stepper and the state of a shifted profile, and
        the whole grid's dxi0 of the same values."""
        g = Grid.symmetric(xmax, n)
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        stepper = _Stepper(SolverConfig(s=S, grid=g, lam=LAM))
        v = normalize(shifted).values
        dxi0 = workspace(g, S).gradient(v) + LAM * g.centers
        return g, stepper, stepper.state(v), dxi0

    def test_rate_does_not_depend_on_the_domain_truncation(self):
        g4, stepper4, state4, dxi4 = self.state(4.0, 1024)
        g8, _, state8, dxi8 = self.state(8.0, 2048)
        assert g4.h == g8.h
        rate4, rate8 = state4.rates[0], state8.rates[0]
        assert abs(rate8 - rate4) <= 1e-12 * rate4
        nonzero = np.flatnonzero(state4.v)
        hull4 = np.abs(dxi4[nonzero[0] - 1 : nonzero[-1] + 2]).max() / g4.h
        assert abs(rate4 - hull4) <= 1e-12 * rate4
        full4, full8 = np.abs(dxi4).max(), np.abs(dxi8).max()
        assert 1.9 <= full8 / full4 <= 2.1
        assert full4 / g4.h > 2 * rate4
        # no mass: the whole grid, where dxi0 is lam x
        assert stepper4.state(np.zeros(g4.n)).rates[0] == np.abs(LAM * g4.centers).max() / g4.h

    def test_dt_over_the_hull_bound_raises(self):
        g, stepper, state, dxi0 = self.state(4.0, 1024)
        whole = _State(state.v, slice(0, g.n), None, dxi0, state.rates, state.hull)
        with pytest.raises(CflViolation):
            stepper.step(whole, 1.01 * stepper.cfg.cfl / state.rates[0], 1)

    def test_dt_between_the_hull_and_full_grid_bounds_steps(self, steady_pair):
        _, target = steady_pair
        g, stepper, state, dxi0 = self.state(4.0, 1024)
        hull_bound = stepper.cfg.cfl / state.rates[0]
        full_bound = stepper.cfg.cfl * g.h / np.abs(dxi0).max()
        dt = float(np.sqrt(hull_bound * full_bound))
        assert full_bound < dt < hull_bound
        cfg = SolverConfig(s=S, grid=g, lam=LAM, dt=dt, t_end=10.5 * dt, init=GridDensity(g, state.v))
        traj = integrate(cfg, target)
        assert traj.stats.steps == 11
        assert traj.stats.max_clamped == 0.0
        assert np.min(traj.diagnostics["min_rho"]) >= 0.0
        assert traj.stats.max_mass_drift <= 1e-12


class TestFieldWindow:
    """The stepper takes the fields of a state on the hull of its mass,
    widened by 2 cells and rounded up to a section size of the operator."""

    def test_window_holds_the_hull_and_two_empty_cells_inside_the_grid(self):
        g = Grid.symmetric(4.0, 1024)
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        v = normalize(shifted).values
        stepper = _Stepper(SolverConfig(s=S, grid=g, lam=LAM))
        state = stepper.state(v)
        win, pot, dxi0 = state.win, state.pot, state.dxi0
        nonzero = np.flatnonzero(v)
        assert win.start <= nonzero[0] - 2 and nonzero[-1] + 2 < win.stop <= g.n
        assert win.stop - win.start == stepper.stats.max_field_cells < g.n
        pot_ref, grad_ref = workspace(g, S).potential_and_gradient(v)
        assert np.max(np.abs(pot - pot_ref[win])) <= 1e-12 * np.max(np.abs(pot_ref))
        dxi_ref = grad_ref + LAM * g.centers
        assert np.max(np.abs(dxi0 - dxi_ref[win])) <= 1e-12 * np.max(np.abs(dxi_ref))

    @pytest.mark.parametrize("x0", [0.5, 3.5])
    def test_advective_share_runs_over_the_hull_on_the_window(self, x0):
        """The advective share reads the hull of the mass, counted from the
        window's first cell, here with the window inside the grid and
        against its right end; a state with no mass reads its whole
        window, the grid."""
        g = Grid.symmetric(4.0, 1024)
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=x0, grid=g)
        v = normalize(shifted).values
        stepper = _Stepper(SolverConfig(s=S, grid=g, lam=LAM))
        state = stepper.state(v)
        nonzero = np.flatnonzero(v) - state.win.start
        first, end = nonzero[0], nonzero[-1] + 1
        assert 0 < first and (state.win.stop == g.n) == (x0 > 3.0)
        assert state.rates[0] == np.abs(state.dxi0[first - 1 : end + 1]).max() / g.h
        empty = stepper.state(np.zeros(g.n))
        assert (empty.win.start, empty.win.stop) == (0, g.n)
        assert empty.rates[0] == np.abs(empty.dxi0).max() / g.h

    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_whole_grid_window_is_bitwise_the_whole_grid_path(self, eps):
        g = Grid.symmetric(4.0, 256)
        v = normalize(GridDensity(g, np.exp(-g.centers**2))).values
        stepper = _Stepper(SolverConfig(s=S, grid=g, lam=LAM, eps=eps))
        state = stepper.state(v)
        assert (state.win.start, state.win.stop) == (0, g.n) and stepper.stats.max_field_cells == g.n
        ref_pot, ref_grad = workspace(g, S).potential_and_gradient(v)
        assert np.array_equal(state.pot, ref_pot)
        assert np.array_equal(state.dxi0, ref_grad + LAM * g.centers)
        # the stepper's sums against the whole-grid functionals
        rho = GridDensity(g, v)
        i0, i_eps = stepper.dissipation(state)
        assert i0 == pytest.approx(dissipation(rho, S, LAM), rel=1e-12)
        assert i_eps == pytest.approx(dissipation(rho, S, LAM, eps), rel=1e-12)
        assert (i0 == i_eps) == (eps == 0)
        e, e_eps = stepper.energies(state)
        assert e == pytest.approx(energy(rho, S, LAM).total, rel=1e-12)
        assert e_eps == pytest.approx(energy(rho, S, LAM, eps).total, rel=1e-12)

    def test_max_field_cells(self, short_run, grid1024):
        assert short_run.stats.max_field_cells == 448 < grid1024.n


class TestSuperStep:
    """The RKL2 step (rkl2_step, _Stepper.step) and the step rule
    that picks it on adaptive runs."""

    @staticmethod
    def legendre_polynomial(z, stages):
        """a_S + b_S P_S(1 + w1 z), the stability polynomial of rkl2_step."""
        w1 = 4 / (stages * stages + stages - 2)
        b = (stages * stages + stages - 2) / (2 * stages * (stages + 1))
        return 1 - b + b * legval(1 + w1 * z, [0] * stages + [1])

    @staticmethod
    def linear_step(z, stages, tau=0.1):
        """One step of u' = -lam u from u = 1, lam = -z / tau, one lam per entry."""
        lam = -z / tau
        return rkl2_step(np.ones_like(z), -lam, tau, stages, lambda y: -lam * y)

    @pytest.mark.parametrize("stages", [2, 3, 4, 7, 12])
    def test_linear_step_is_the_shifted_legendre_polynomial(self, stages):
        z = np.linspace(-1.5 * stages * stages, 0.5, 301)
        ref = self.legendre_polynomial(z, stages)
        assert np.max(np.abs(self.linear_step(z, stages) - ref) / np.maximum(1, np.abs(ref))) <= 1e-11

    @pytest.mark.parametrize("stages", [3, 4, 7, 12])
    def test_stable_on_the_real_interval(self, stages):
        edge = -(stages * stages + stages - 2) / 2
        assert edge == -2 * stability_gain(stages)
        z = np.linspace(edge, 0.0, 4001)
        assert np.max(np.abs(self.linear_step(z, stages))) <= 1 + 1e-12

    def state(self, s=S, n=256):
        g = Grid.symmetric(4.0, n)
        _, shifted = barenblatt(s, LAM, mass=1.0, x0=0.5, grid=g)
        stepper = _Stepper(SolverConfig(s=s, grid=g, lam=LAM))
        v = normalize(shifted).values
        return g, stepper, v

    def test_second_order_in_time(self):
        g, stepper, v = self.state()
        advective, diffusive = stepper.state(v).rates
        stages = 4
        tau = stepper.cfg.cfl / max(advective, diffusive / stability_gain(stages))

        def march(dt, steps):
            y = v
            for _ in range(steps):
                y, clamped = stepper.step(stepper.state(y), dt, stages)
                assert clamped == 0.0
            return y

        # the one-step error against 64 steps of a 64th: about 7.3x less at tau / 2
        # than at tau, 7.7x less again at tau / 4, tending to 8 = 2^3
        errors = [g.h * np.abs(march(tau / k, 1) - march(tau / (64 * k), 64)).sum() for k in (2, 4)]
        assert errors[0] >= 7 * errors[1] > 0

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_conserves_mass_and_counts_stage_evaluations(self, s):
        g, stepper, v = self.state(s, 1024)
        state = stepper.state(v)
        dt, stages = stepper.step_size(state.rates, 0.0, float("inf"))
        assert stages >= 3
        before = stepper.stats.evaluations
        out, clamped = stepper.step(state, dt, stages)
        assert stepper.stats.evaluations - before == stages - 1
        assert clamped == 0.0 and out.min() >= 0.0
        assert abs(g.h * out.sum() - g.h * v.sum()) <= 1e-14

    @pytest.mark.parametrize("s, least_stages", [(0.1, 8), (0.25, 3)])
    def test_window_step_is_the_whole_grid_step(self, monkeypatch, s, least_stages):
        """The super-step on its one window against rkl2_step on whole-grid
        fields: equal but for round-off (the stage fields are taken at a
        shorter FFT length). The state is a bump narrower than the steady
        profile, whose mass spreads by about one cell a stage; the window's
        2 end cells inside the grid stay 0 in every stage, as the section's
        edge correction needs."""
        g = Grid.symmetric(4.0, 1024)
        v = normalize(GridDensity(g, np.maximum(1.0 - (g.centers - 0.5) ** 2, 0.0))).values
        stepper = _Stepper(SolverConfig(s=s, grid=g, lam=LAM))
        state = stepper.state(v)
        dt, stages = stepper.step_size(state.rates, 0.0, float("inf"))
        assert stages >= least_stages
        ws = workspace(g, s)

        def drift(y, dxi0):
            vel = -0.5 * (dxi0[:-1] + dxi0[1:])
            flux = vel * np.where(vel >= 0.0, y[:-1], y[1:]) / g.h
            return np.concatenate(([0.0], flux)) - np.concatenate((flux, [0.0]))

        f0 = drift(v, ws.gradient(v) + LAM * g.centers)
        ref = rkl2_step(v, f0, dt, stages, lambda y: drift(y, ws.gradient(y) + LAM * g.centers))

        stage_values = []
        gradient = type(ws).gradient

        def recorded(self, values):
            stage_values.append(values.copy())
            return gradient(self, values)

        monkeypatch.setattr(type(ws), "gradient", recorded)
        before = stepper.stats.evaluations
        out, clamped = stepper.step(state, dt, stages)
        monkeypatch.undo()
        assert stepper.stats.evaluations - before == stages - 1 == len(stage_values)
        assert clamped == 0.0
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(v)
        assert abs(g.h * out.sum() - g.h * v.sum()) <= 1e-12

        nonzero = np.flatnonzero(v)
        m = stage_values[0].size
        lo = min(max(nonzero[0] - stages - 2, 0), g.n - m)
        assert lo + m >= min(nonzero[-1] + stages + 3, g.n) and m < g.n
        assert np.array_equal(out[:lo], v[:lo]) and np.array_equal(out[lo + m :], v[lo + m :])
        # the stages spread the mass to at least S - 2 cells beyond the hull of v
        assert lo > 0 and np.flatnonzero(stage_values[-1])[0] <= nonzero[0] - lo - (stages - 2)
        for y in stage_values:
            assert y.size == m
            if lo > 0:
                assert np.all(y[:2] == 0.0)
            if lo + m < g.n:
                assert np.all(y[-2:] == 0.0)

    def test_step_rule_takes_the_fewest_evaluations_per_unit_time(self):
        g, stepper, v = self.state(0.1, 1024)
        rates = stepper.state(v).rates
        advective, diffusive = rates
        cfl = stepper.cfg.cfl
        per_evaluation = {1: cfl / sum(rates)}
        for stages in range(3, 40):
            per_evaluation[stages] = cfl / max(advective, diffusive / stability_gain(stages)) / stages
        best = max(per_evaluation, key=per_evaluation.get)
        dt, stages = stepper.step_size(rates, 0.0, float("inf"))
        assert (dt, stages) == (per_evaluation[best] * best, best) and best >= 3
        # a cap re-picks the least stage count that covers the step: Euler within its bound
        assert stepper.step_size(rates, 0.0, 0.5 * per_evaluation[1]) == (0.5 * per_evaluation[1], 1)
        capped, fewer = stepper.step_size(rates, 0.0, 0.5 * dt)
        assert capped == 0.5 * dt and 3 <= fewer < stages
        assert stepper.stage_count(rates, capped) == fewer

    def test_fixed_dt_run_is_the_euler_march(self):
        g = Grid.symmetric(4.0, 256)
        _, target = barenblatt(S, LAM, mass=1.0, grid=g)
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, dt=5e-4, t_end=0.0052, init=shifted)
        traj = integrate(cfg, normalize(target))
        assert traj.stats.max_stages == 1
        assert traj.stats.evaluations == traj.stats.steps + 1
        stepper, v, t = _Stepper(cfg), normalize(shifted).values, 0.0
        while t < cfg.t_end - 1e-12:
            dt = min(cfg.dt, cfg.t_end - t)
            v, _ = stepper.step(stepper.state(v), dt, 1)
            t += dt
        assert np.array_equal(traj.snapshots[-1].values, v)

    def test_adaptive_run_at_cfl_one_takes_super_steps_and_clamps_nothing(self):
        g = Grid.symmetric(4.0, 512)
        lam = self_similar_exponent(0.1)
        _, target = barenblatt(0.1, lam, mass=1.0, grid=g)
        _, shifted = barenblatt(0.1, lam, mass=1.0, x0=0.5, grid=g)
        cfg = SolverConfig(s=0.1, grid=g, lam=lam, t_end=0.5, cfl=1.0, init=shifted)
        traj = integrate(cfg, normalize(target))
        assert traj.stats.max_stages >= 3
        assert traj.stats.evaluations > traj.stats.steps + traj.stats.retries + 1
        assert traj.stats.retries == 0
        assert traj.stats.max_clamped == 0.0
        assert np.min(traj.diagnostics["min_rho"]) >= 0.0
        assert traj.stats.max_mass_drift <= 1e-12


class TestFitDecay:
    def synthetic(self, grid1024, rate=0.8):
        times = np.linspace(0.0, 5.0, 101)
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, t_end=5.0)
        diag = {k: np.exp(-rate * times) for k in ("E", "E_eps", "I", "I_eps", "W2", "L2", "L1")}
        diag.update(mass=np.ones_like(times), m2=np.ones_like(times), min_rho=np.zeros_like(times))
        return Trajectory(
            config=cfg,
            times=times,
            snapshots=[],
            diagnostics=diag,
            e_target=0.0,
            e_eps_target=0.0,
        )

    def test_exact_rate_on_synthetic_series(self, grid1024):
        traj = self.synthetic(grid1024, rate=0.8)
        fit = fit_decay(traj, "I", (0.0, 5.0))
        assert abs(fit.rate + 0.8) <= 1e-12
        assert fit.bound_rate == 2 * LAM
        assert fit.bound_satisfied

    def test_shifted_run_satisfies_energy_envelope(self, grid1024, steady_pair):
        _, target = steady_pair
        _, shifted = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=grid1024)
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, t_end=3.0, cfl=0.5, init=shifted)
        traj = integrate(cfg, target)
        fit = fit_decay(traj, "E_gap", (0.5, 3.0))
        assert fit.bound_rate == pytest.approx(0.8)
        assert fit.bound_satisfied
        w_pref = np.sqrt(2 / LAM * traj.series("E_gap")[0])
        fit_w = fit_decay(traj, "W2", (0.5, 3.0), prefactor=w_pref)
        assert fit_w.bound_rate == pytest.approx(0.4)
        assert fit_w.bound_satisfied

    def test_window_needs_samples(self, grid1024):
        traj = self.synthetic(grid1024)
        with pytest.raises(InsufficientSamples):
            fit_decay(traj, "I", (4.9, 5.0))

    def test_rejects_nonpositive(self, grid1024):
        traj = self.synthetic(grid1024)
        traj.diagnostics["I"][50] = 0.0
        with pytest.raises(NonpositiveQuantity):
            fit_decay(traj, "I", (0.0, 5.0))


class TestSteadyStateEps:
    @staticmethod
    def euler_march(cfg):
        """steady_state_eps's march and stall stop, on Euler steps only: cfl
        over the sum of the two shares of the rate."""
        _, dens = barenblatt(cfg.s, cfg.lam, mass=1.0, grid=cfg.grid)
        v = normalize(dens).values.copy()
        stepper, t = _Stepper(cfg), 0.0
        while t < cfg.t_end:
            state = stepper.state(v)
            dt = min(cfg.cfl / sum(state.rates), cfg.t_end - t)
            v_new, _ = stepper.step(state, dt, 1)
            moved = float(np.abs(v_new - v).max()) / dt
            v, t = v_new, t + dt
            if moved <= STALL_TOL * float(v.max()):
                return v
        raise NotConverged("the Euler march did not stop")

    @pytest.mark.parametrize("eps", [1e-2, 0.9 * LAM / (2 * np.pi)])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_shared_step_rule_reaches_the_euler_fixed_point(self, monkeypatch, s, eps):
        g = Grid.symmetric(4.0, 128)
        cfg = SolverConfig(s=s, grid=g, lam=LAM, eps=eps, t_end=80.0, cfl=0.8)
        taken = []
        step = _Stepper.step

        def spy(self, state, dt, stages):
            taken.append(stages)
            return step(self, state, dt, stages)

        monkeypatch.setattr(_Stepper, "step", spy)
        res = steady_state_eps(cfg).values
        monkeypatch.undo()
        ref = self.euler_march(cfg)
        assert np.max(np.abs(res - ref)) <= 1e-11 * np.max(ref)
        if eps > 1e-2:
            assert max(taken) >= 3  # near the top of the eps window the diffusion sets the step

    def test_restart_from_its_result_stops_after_one_step(self, monkeypatch):
        g = Grid.symmetric(4.0, 128)
        cfg = SolverConfig(s=S, grid=g, lam=LAM, eps=1e-2, t_end=80.0, cfl=0.8)
        first = steady_state_eps(cfg)
        taken = []
        step = _Stepper.step

        def spy(self, state, dt, stages):
            taken.append(stages)
            return step(self, state, dt, stages)

        monkeypatch.setattr(_Stepper, "step", spy)
        again = steady_state_eps(dataclasses.replace(cfg, init=first))
        assert len(taken) == 1
        assert np.max(np.abs(again.values - first.values)) <= 1e-11 * np.max(first.values)

    def test_short_march_raises_not_converged(self):
        cfg = SolverConfig(s=S, grid=Grid.symmetric(4.0, 128), lam=LAM, eps=1e-2, t_end=0.5, cfl=0.8)
        with pytest.raises(NotConverged, match=r"max\|dv/dt\| = .* > 1e-10 max rho at t_max = 0.5"):
            steady_state_eps(cfg)

    def test_eps_zero_rejected(self, grid1024):
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, eps=0.0, t_end=1.0)
        with pytest.raises(EpsilonOutOfRange):
            steady_state_eps(cfg)

    def test_eps_above_window_rejected(self, grid1024):
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, eps=LAM / (2 * np.pi) * 1.01, t_end=1.0)
        with pytest.raises(EpsilonOutOfRange):
            steady_state_eps(cfg)

    def test_converges_and_smooths(self, grid1024):
        cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, eps=1e-2, t_end=60.0, cfl=0.8)
        res = steady_state_eps(cfg)
        assert np.all(res.values > 0.0)  # diffusion fills the support gaps
        # stays put under further stepping
        step_cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, eps=1e-2, dt=1e-4, t_end=1.0, init=res)
        out = fv_step(normalize(res), step_cfg, 1e-4)
        assert grid1024.h * np.sum(np.abs(out.values - normalize(res).values)) <= 1e-9
