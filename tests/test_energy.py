import numpy as np
import pytest

from fracpme.energy import (
    boltzmann_entropy,
    dissipation,
    energy,
    potential_xi,
    remainder_R,
    virial_check,
)
from fracpme.grid import DensitySpec, Grid, GridDensity, moment, normalize, random_density
from fracpme.harness import VIRIAL_TOL
from fracpme.riesz import workspace
from fracpme.steady import barenblatt, steady_energy

S, LAM = 0.25, 0.4


class TestPotentialXi:
    def test_steady_velocity_vanishes_on_support(self, steady_pair):
        prof, target = steady_pair
        dxi = potential_xi(target, S, LAM)
        mask = np.abs(target.x) <= 0.99 * prof.R
        assert np.max(np.abs(dxi[mask])) <= 1e-3 * LAM * prof.R

    def test_eps_component_of_gaussian_envelope(self):
        g = Grid.symmetric(3.0, 2048)
        vals = np.exp(-np.pi * g.centers**2)
        rho = normalize(GridDensity(g, vals))
        eps = 1e-2
        with_eps = potential_xi(rho, S, LAM, eps)
        without = potential_xi(rho, S, LAM, 0.0)
        eps_part = with_eps - without
        mask = np.abs(g.centers) <= 1.0
        expect = -2 * np.pi * eps * g.centers[mask]
        assert np.max(np.abs(eps_part[mask] - expect)) <= 1e-4 * np.max(np.abs(expect))

    def test_even_density_odd_velocity(self, grid1024):
        rho = normalize(GridDensity(grid1024, np.exp(-grid1024.centers**2)))
        dxi = potential_xi(rho, S, LAM)
        assert np.max(np.abs(dxi + dxi[::-1])) <= 1e-11

    def test_negative_eps_rejected(self, steady_pair):
        with pytest.raises(ValueError):
            potential_xi(steady_pair[1], S, LAM, -1e-3)


class TestEnergy:
    def test_matches_steady_energy(self, steady_pair):
        prof, target = steady_pair
        bd = energy(target, S, LAM)
        ref = steady_energy(prof)
        assert abs(bd.total - ref) <= 1e-3 * abs(ref)
        assert bd.interaction >= 0  # positive kernel below s = 1/2

    def test_any_other_density_has_larger_energy(self, steady_pair, corpus40):
        prof, target = steady_pair
        ref = energy(target, S, LAM).total
        for _, rho in corpus40[:10]:
            assert energy(rho, S, LAM).total > ref

    def test_a_density_keeps_its_breakdown_per_parameters(self, grid1024):
        rho = random_density(DensitySpec(seed=12), grid1024)
        bd = energy(rho, S, LAM, 0.01)
        assert energy(rho, S, LAM, 0.01) is bd
        for args in ((S, LAM, 0.0), (S, 0.5, 0.01), (0.4, LAM, 0.01)):
            kept = energy(rho, *args)
            fresh = energy(GridDensity(grid1024, rho.values), *args)
            assert kept is not bd and kept == fresh
        assert bd == energy(GridDensity(grid1024, rho.values), S, LAM, 0.01)

    def test_translation_moves_confinement_only(self, grid1024):
        vals = np.exp(-4 * grid1024.centers**2)
        rho = normalize(GridDensity(grid1024, vals))
        shift_cells = 64
        a = shift_cells * grid1024.h
        rolled = np.roll(rho.values, shift_cells)
        rolled[:shift_cells] = 0.0
        rho_a = GridDensity(grid1024, rolled)
        e0 = energy(rho, S, LAM)
        e1 = energy(rho_a, S, LAM, check_mass=False)
        expect = e0.confinement + LAM / 2 * (a**2 + 2 * a * moment(rho, 1)) * rho.mass
        assert abs(e1.confinement - expect) <= 1e-10
        assert abs(e1.interaction - e0.interaction) <= 1e-10

    def test_entropy_term_enters_with_eps(self, steady_pair):
        _, target = steady_pair
        plain = energy(target, S, LAM, 0.0)
        eps = 1e-2
        reg = energy(target, S, LAM, eps)
        assert abs(reg.total - (plain.total + eps * reg.boltzmann)) <= 1e-14


class TestDissipation:
    def test_steady_state_nearly_stationary(self):
        g = Grid.symmetric(3.0, 4096)
        _, dens = barenblatt(S, LAM, mass=1.0, grid=g)
        rho = normalize(dens)
        val = dissipation(rho, S, LAM)
        assert val <= 1e-6 * LAM**2 * moment(rho, 2)

    def test_nonnegative(self, corpus40):
        for _, rho in corpus40[:10]:
            assert dissipation(rho, S, LAM) >= 0.0

    def test_rigid_shift_estimate(self):
        # small translations cost I ~ lam^2 a^2 M (heuristic regression)
        g = Grid.symmetric(3.0, 2048)
        prof, dens = barenblatt(S, LAM, mass=1.0, grid=g)
        a = 0.1 * prof.R
        _, dens_a = barenblatt(S, LAM, mass=1.0, x0=a, grid=g)
        val = dissipation(normalize(dens_a), S, LAM)
        expect = LAM**2 * a**2
        assert abs(val - expect) <= 0.2 * expect


class TestRemainder:
    def test_steady_state_zero(self):
        g = Grid.symmetric(3.0, 4096)
        _, dens = barenblatt(S, LAM, mass=1.0, grid=g)
        val = remainder_R(normalize(dens), S, LAM)
        assert abs(val) <= 1e-6

    def test_nonnegative_on_corpus(self, corpus40):
        for _, rho in corpus40:
            assert remainder_R(rho, S, LAM) >= -1e-10

    @pytest.mark.parametrize("s", [0.6, 0.75])
    def test_nonnegative_above_half(self, corpus40, s):
        for _, rho in corpus40[:5]:
            assert remainder_R(rho, s, LAM) >= -1e-10

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.5, 0.7])
    def test_is_the_three_sum_form(self, corpus40, s):
        # K is even, so sum v K(v d^2) = sum v d^2 (K v): remainder_R takes the latter
        grid = corpus40[0][1].grid
        ws = workspace(grid, s)
        for _, rho in corpus40[:6]:
            v, d = rho.values, potential_xi(rho, s, LAM)
            t1 = float(np.sum(v * d * d * ws.apply("hessian", v)))
            t2 = float(np.sum(v * d * ws.apply("hessian", v * d)))
            t3 = float(np.sum(v * ws.apply("hessian", v * d * d)))
            three_sum = 0.5 * ws.kernel.c_plus * grid.h * (t1 - 2 * t2 + t3)
            assert abs(remainder_R(rho, s, LAM) - three_sum) <= 1e-12 * three_sum

    def test_dissipation_rate_chain_along_step(self, grid1024):
        # dI/dt = -2 lam I - 2 R up to O(dt) and the upwind scheme's O(h) bias
        from fracpme.evolve import SolverConfig, fv_step

        rho = random_density(DensitySpec(seed=5, n_bumps=3), grid1024)
        i0 = dissipation(rho, S, LAM)
        r0 = remainder_R(rho, S, LAM)
        rhs = -2 * LAM * i0 - 2 * r0
        for dt in (2e-4, 1e-4):
            cfg = SolverConfig(s=S, grid=grid1024, lam=LAM, dt=dt, t_end=dt, cfl=1.0, init=rho)
            stepped = fv_step(rho, cfg, dt)
            i1 = dissipation(normalize(stepped), S, LAM)
            rel = abs((i1 - i0) / dt - rhs) / abs(rhs)
            assert rel <= 0.12
        # the identity also certifies the sign: dissipation decays at >= 2 lam
        assert (i1 - i0) / dt <= -2 * LAM * i0 + 1e-9


class TestVirial:
    def test_steady_profile(self):
        g = Grid.symmetric(3.0, 4096)
        _, dens = barenblatt(S, LAM, mass=1.0, grid=g)
        lhs, rhs = virial_check(normalize(dens), S)
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)

    def test_corpus(self, corpus40):
        for _, rho in corpus40:
            lhs, rhs = virial_check(rho, S)
            assert abs(lhs - rhs) <= 1e-3 * abs(rhs)

    def test_zero_density(self, grid1024):
        lhs, rhs = virial_check(GridDensity(grid1024, np.zeros(grid1024.n)), S)
        assert lhs == 0.0 and rhs == 0.0

    def test_log_kernel_takes_the_limit_of_the_power_form(self, grid1024):
        # at s = 1/2 the factor 1 - 2s of the power form vanishes; the right
        # side is c_plus M^2, which the s -> 1/2 limit of that form approaches
        rho = normalize(GridDensity(grid1024, np.exp(-(grid1024.centers**2))))
        lhs, rhs = virial_check(rho, 0.5)
        assert abs(lhs - rhs) <= VIRIAL_TOL * abs(rhs)
        _, rhs_near = virial_check(rho, 0.4999)
        assert abs(rhs - rhs_near) < 1e-4 * abs(rhs)


def test_boltzmann_zero_cells_contribute_nothing(grid1024):
    vals = np.zeros(grid1024.n)
    vals[400:600] = 1.0
    rho = GridDensity(grid1024, vals)
    expect = grid1024.h * 200 * 1.0 * np.log(1.0)
    assert boltzmann_entropy(rho) == expect
