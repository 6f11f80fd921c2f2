import numpy as np
import pytest
from scipy.special import gamma

from fracpme import steady
from fracpme.errors import EmptySupport, NonContiguousSupport, NonPositive, OutOfRange, OutsideSupport
from fracpme.grid import Grid, GridDensity, normalize
from fracpme.riesz import FFT, RieszConfig, potential_weights, riesz_potential
from fracpme.steady import (
    barenblatt,
    c_star,
    closed_form_potential,
    discrete_minimizer,
    euler_lagrange_check,
    mass_of_radius,
    prefactor,
    radius_of_mass,
    steady_energy,
    steady_potential,
)

S, LAM = 0.25, 0.4

# frozen from a 30-digit Gamma-function evaluation at s=1/4, lam=0.4
K_FROZEN = 0.30090111122547002
M_OF_R1_FROZEN = 0.43262607364306223
R_OF_M1_FROZEN = 1.3981537245940195
E_STEADY_M1_FROZEN = 0.43440751946580655


class TestMassRadius:
    def test_frozen_values(self):
        assert abs(prefactor(S, LAM) - K_FROZEN) <= 1e-15
        assert abs(mass_of_radius(S, LAM, 1.0) - M_OF_R1_FROZEN) <= 1e-15
        assert abs(radius_of_mass(S, LAM, 1.0) - R_OF_M1_FROZEN) <= 1e-14

    def test_round_trip(self):
        for R in (0.3, 1.0, 2.5):
            M = mass_of_radius(S, LAM, R)
            assert abs(radius_of_mass(S, LAM, M) - R) <= 1e-12 * R

    def test_strictly_increasing(self):
        rs = np.linspace(0.2, 3.0, 20)
        ms = [mass_of_radius(S, LAM, r) for r in rs]
        assert np.all(np.diff(ms) > 0)

    def test_mass_via_beta_integral(self):
        # independent oracle: M = K R^{3-2s} sqrt(pi) Gamma(2-s)/Gamma(5/2-s)
        K = prefactor(S, LAM)
        oracle = K * np.sqrt(np.pi) * gamma(2 - S) / gamma(2.5 - S)
        assert abs(mass_of_radius(S, LAM, 1.0) - oracle) <= 1e-15

    def test_grid_mass_converges_to_closed_form(self):
        prof, _ = barenblatt(S, LAM, radius=1.0)
        errs = []
        for n in (512, 2048, 8192):
            dens = prof.sample(Grid.symmetric(2.0, n))
            errs.append(abs(dens.mass - prof.M) / prof.M)
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 1e-6

    def test_validation(self):
        with pytest.raises(OutOfRange):
            barenblatt(1.2, LAM, mass=1.0)
        with pytest.raises(NonPositive):
            barenblatt(S, -0.1, mass=1.0)
        with pytest.raises(NonPositive):
            barenblatt(S, LAM, mass=-1.0)
        with pytest.raises(ValueError):
            barenblatt(S, LAM)
        with pytest.raises(ValueError):
            barenblatt(S, LAM, mass=1.0, radius=1.0)


class TestProfile:
    def test_translation_equivariance(self, grid1024):
        prof0, _ = barenblatt(S, LAM, radius=1.0, grid=grid1024)
        prof5, dens5 = barenblatt(S, LAM, radius=1.0, x0=0.5, grid=grid1024)
        shifted = prof0.evaluate(grid1024.centers - 0.5)
        assert np.array_equal(dens5.values, shifted)

    def test_defined_above_half(self):
        prof, dens = barenblatt(0.75, LAM, radius=1.0)
        assert prof.K > 0
        assert np.all(dens.values >= 0)


class TestClosedFormPotential:
    def test_center_value(self):
        prof, _ = barenblatt(S, LAM, radius=1.0)
        expect = (LAM / (2 * prof.K)) * 1.0 / (1 - 2 * S)
        assert abs(closed_form_potential(prof, 0.0) - expect) <= 1e-14

    def test_confined_potential_constant_on_support(self):
        # potential of the profile plus confinement is flat at lam R^2/(2(1-2s))
        prof, _ = barenblatt(S, LAM, radius=1.0)
        x = np.linspace(-0.999, 0.999, 401)
        xi = steady_potential(prof, x) + LAM * x**2 / 2
        assert abs(c_star(prof) - 0.4) <= 1e-15  # 0.4/(2*0.5) = 0.4
        assert np.max(np.abs(xi - c_star(prof))) <= 1e-14

    def test_outside_support_raises(self):
        prof, _ = barenblatt(S, LAM, radius=1.0)
        with pytest.raises(OutsideSupport):
            closed_form_potential(prof, 1.5)

    def test_requires_s_below_half(self):
        prof, _ = barenblatt(0.6, LAM, radius=1.0)
        with pytest.raises(OutOfRange):
            closed_form_potential(prof, 0.0)


class TestSteadyEnergy:
    def test_frozen_regression_and_beta_oracle(self):
        prof, _ = barenblatt(S, LAM, mass=1.0)
        val = steady_energy(prof)
        assert abs(val - E_STEADY_M1_FROZEN) <= 1e-12
        # independent oracle: E = lam R^2 M/(4(1-2s)) + (lam/4) m2 with
        # m2 = K R^{5-2s} Gamma(3/2)Gamma(2-s)/Gamma(7/2-s)
        R, K, M = prof.R, prof.K, prof.M
        m2 = K * R ** (5 - 2 * S) * gamma(1.5) * gamma(2 - S) / gamma(3.5 - S)
        oracle = LAM * R**2 * M / (4 * (1 - 2 * S)) + LAM / 4 * m2
        assert abs(val - oracle) <= 1e-12

    def test_mass_homogeneity(self):
        p1, _ = barenblatt(S, LAM, mass=1.0)
        p2, _ = barenblatt(S, LAM, mass=2.0)
        ratio = steady_energy(p2) / steady_energy(p1)
        assert abs(ratio - 2 ** ((5 - 2 * S) / (3 - 2 * S))) <= 1e-10

    def test_center_shift_raises_energy(self):
        from fracpme.energy import energy

        g = Grid.symmetric(4.0, 2048)
        _, d0 = barenblatt(S, LAM, mass=1.0, grid=g)
        _, d5 = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        e0 = energy(normalize(d0), S, LAM).total
        e5 = energy(normalize(d5), S, LAM).total
        assert e5 > e0 + 0.01


class TestEulerLagrange:
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_sampled_profile_is_minimizer(self, s):
        g = Grid.symmetric(3.0, 4096)
        prof, dens = barenblatt(s, LAM, mass=1.0, grid=g)
        rep = euler_lagrange_check(normalize(dens), s, LAM)
        assert abs(rep.C_star - c_star(prof)) <= 1e-3 * c_star(prof)
        assert rep.max_dev_on_support <= 1e-3 * rep.C_star
        assert rep.min_excess_off_support >= -1e-3 * rep.C_star

    def test_shifted_profile_is_not(self):
        g = Grid.symmetric(3.0, 4096)
        _, dens = barenblatt(S, LAM, mass=1.0, x0=0.5, grid=g)
        rep = euler_lagrange_check(normalize(dens), S, LAM)
        assert rep.max_dev_on_support > 0.05 * rep.C_star

    def test_constancy_sharpens_under_refinement(self):
        # mass-weighted variance of xi over the support must vanish at rate
        # >= h^1; at the finest grids it sits at an edge-alignment floor near
        # 1e-13, so the rate is measured across the span where it dominates
        from fracpme.riesz import RieszConfig, riesz_potential

        variances = []
        for n in (64, 256, 1024):
            g = Grid.symmetric(3.0, n)
            _, dens = barenblatt(S, LAM, mass=1.0, grid=g)
            rho = normalize(dens)
            xi = riesz_potential(rho, RieszConfig(S)) + LAM * rho.x**2 / 2
            on = rho.values > 1e-6 * np.max(rho.values)
            w = rho.values[on]
            cs = np.sum(w * xi[on]) / np.sum(w)
            variances.append(float(np.sum(w * (xi[on] - cs) ** 2) / np.sum(w)))
        assert variances[0] > variances[1] > variances[2]
        assert variances[2] <= variances[0] * (64 / 1024)

    def test_empty_support(self, grid1024):
        with pytest.raises(EmptySupport):
            euler_lagrange_check(GridDensity(grid1024, np.zeros(grid1024.n)), S, LAM)


class TestDiscreteMinimizer:
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_kkt_conditions_and_dense_agreement(self, grid1024, s):
        rho = discrete_minimizer(s, LAM, grid1024)
        assert abs(rho.mass - 1.0) <= 1e-12
        v, x, n, h = rho.values, grid1024.centers, grid1024.n, grid1024.h
        xi = riesz_potential(rho, RieszConfig(s, method=FFT)) + LAM * x**2 / 2
        on = v > 0
        level = float(np.mean(xi[on]))
        assert np.max(np.abs(xi[on] - level)) <= 1e-10 * abs(level)
        assert np.min(xi[~on]) >= level - 1e-10 * abs(level)
        # dense bordered KKT system on the same active set: W rho - level = -lam x^2/2, h sum rho = 1
        idx = np.flatnonzero(on)
        m = idx.size
        system = np.zeros((m + 1, m + 1))
        system[:m, :m] = potential_weights(n, h, s)[(idx[:, None] - idx[None, :]) + n - 1]
        system[:m, m] = -1.0
        system[m, :m] = h
        sol = np.linalg.solve(system, np.concatenate([-LAM * x[idx] ** 2 / 2, [1.0]]))
        assert np.max(np.abs(v[idx] - sol[:m])) <= 1e-12 * np.max(np.abs(sol[:m]))

    @pytest.mark.parametrize("lam, mass", [(-0.4, 1.0), (0.0, 1.0), (LAM, -1.0), (LAM, 0.0)])
    def test_nonpositive_lam_or_mass_rejected(self, grid1024, lam, mass):
        with pytest.raises(NonPositive):
            radius_of_mass(S, lam, mass)
        with pytest.raises(NonPositive):
            discrete_minimizer(S, lam, grid1024, mass=mass)

    def test_split_active_set_raises(self, grid1024, monkeypatch):
        # a deep potential dip at the leftmost cell joins a detached cell to the active set
        true_potential = steady.riesz_potential

        def dipped(rho, cfg):
            dip = np.zeros(rho.grid.n)
            dip[0] = 1e3
            return true_potential(rho, cfg) - dip

        monkeypatch.setattr(steady, "riesz_potential", dipped)
        with pytest.raises(NonContiguousSupport):
            discrete_minimizer(S, LAM, grid1024)


def test_profiles_related_by_dilation():
    # any two same-s profiles are a dilation/translation of a canonical one
    p1, _ = barenblatt(S, LAM, radius=1.0)
    p2, _ = barenblatt(S, LAM, radius=2.0, x0=0.3)
    x = np.linspace(-1.9, 2.3, 301)
    direct = p2.evaluate(x)
    via_dilation = (p2.K / p1.K) * 2 ** (2 * (1 - S)) * p1.evaluate((x - 0.3) / 2.0)
    assert np.max(np.abs(direct - via_dilation)) <= 1e-12 * np.max(direct)
