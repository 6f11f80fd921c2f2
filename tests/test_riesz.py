import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.linalg import toeplitz

from fracpme.errors import OutOfRange
from fracpme.grid import DensitySpec, Grid, GridDensity, holder_seminorm, normalize, random_density
from fracpme.riesz import (
    DIRECT,
    FAMILIES,
    FFT,
    LOGARITHMIC,
    POWER_NEGATIVE,
    POWER_POSITIVE,
    RieszConfig,
    frac_laplacian,
    hdot_seminorm,
    neg_sobolev_norm,
    riesz_constant,
    riesz_gradient,
    riesz_potential,
    riesz_second_derivative,
    toeplitz_apply,
    workspace,
)
from fracpme.steady import barenblatt, steady_potential

S, LAM = 0.25, 0.4

# frozen from a 30-digit Gamma-function evaluation
C_1_QUARTER = 0.39894228040143268
C_3_QUARTER = -0.79788456080286536


class TestRieszConstant:
    def test_quarter_value_frozen(self):
        k = riesz_constant(0.25)
        assert k.regime == POWER_POSITIVE
        assert abs(k.c - C_1_QUARTER) <= 1e-15

    def test_three_quarters_negative(self):
        k = riesz_constant(0.75)
        assert k.regime == POWER_NEGATIVE
        assert k.c < 0
        assert abs(k.c - C_3_QUARTER) <= 1e-15

    def test_log_regime_coefficient(self):
        k = riesz_constant(0.5)
        assert k.regime == LOGARITHMIC
        assert abs(k.c - 1.0 / np.pi) <= 1e-15

    @pytest.mark.parametrize("s", [0.05, 0.25, 0.4, 0.5, 0.6, 0.9])
    def test_c_plus_positive_everywhere(self, s):
        assert riesz_constant(s).c_plus > 0

    def test_c_plus_continuous_through_log_case(self):
        left = riesz_constant(0.5 - 1e-9).c_plus
        right = riesz_constant(0.5 + 1e-9).c_plus
        mid = riesz_constant(0.5).c_plus
        assert abs(left - mid) <= 1e-6 and abs(right - mid) <= 1e-6

    def test_range_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(OutOfRange):
                riesz_constant(bad)


class TestPotential:
    def test_zero_density(self, grid1024):
        rho = GridDensity(grid1024, np.zeros(grid1024.n))
        assert np.all(riesz_potential(rho, RieszConfig(S)) == 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_barenblatt_closed_form(self, s):
        prof, dens = barenblatt(s, LAM, radius=1.0, grid=Grid.symmetric(2.0, 2048))
        pot = riesz_potential(dens, RieszConfig(s))
        x = dens.x
        mask = np.abs(x) <= 0.9
        exact = steady_potential(prof, x[mask])
        rel = np.max(np.abs(pot[mask] - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-3

    def test_two_bump_brute_force_oracle(self):
        g = Grid.symmetric(4.0, 2048)
        x = g.centers
        w = 0.05
        vals = np.exp(-(((x + 0.5) / w) ** 2)) + np.exp(-(((x - 0.5) / w) ** 2))
        rho = normalize(GridDensity(g, vals))
        pot = riesz_potential(rho, RieszConfig(S))
        mass = trapezoid(vals, x)
        c = riesz_constant(S).c

        def cont_rho(y):
            return (np.exp(-(((y + 0.5) / w) ** 2)) + np.exp(-(((y - 0.5) / w) ** 2))) / mass

        for x0 in (0.5, 0.0):
            oracle, _ = quad(
                lambda y: c * cont_rho(y) * abs(x0 - y) ** (2 * S - 1),
                -4.0,
                4.0,
                points=[x0, -0.5, 0.5],
                limit=400,
            )
            i = int(np.argmin(np.abs(x - x0)))
            assert abs(pot[i] - oracle) <= 2e-3 * abs(oracle)

    def test_linearity(self, grid1024):
        r1 = random_density(DensitySpec(seed=1), grid1024)
        r2 = random_density(DensitySpec(seed=2), grid1024)
        cfg = RieszConfig(S)
        combo = riesz_potential(GridDensity(grid1024, 2.0 * r1.values + 3.0 * r2.values), cfg)
        parts = 2.0 * riesz_potential(r1, cfg) + 3.0 * riesz_potential(r2, cfg)
        assert np.max(np.abs(combo - parts)) <= 1e-12 * np.max(np.abs(parts))

    def test_even_density_even_potential(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        pot = riesz_potential(GridDensity(grid1024, vals), RieszConfig(S))
        assert np.max(np.abs(pot - pot[::-1])) <= 1e-12 * np.max(np.abs(pot))

    def test_direct_matches_fft(self):
        g = Grid.symmetric(3.0, 512)
        rho = GridDensity(g, np.exp(-g.centers**2))
        for s in (0.25, 0.5, 0.75):
            pd = riesz_potential(rho, RieszConfig(s, method=DIRECT))
            pf = riesz_potential(rho, RieszConfig(s, method=FFT))
            assert np.max(np.abs(pd - pf)) <= 1e-13 * max(1.0, np.max(np.abs(pd)))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_direct_matches_dense_toeplitz_product(self, s):
        g = Grid.symmetric(3.0, 64)
        n = g.n
        v = random_density(DensitySpec(seed=7), g).values
        for family in FAMILIES:
            w = workspace(g, s).weights(family)
            matrix = toeplitz(w[n - 1 :], w[n - 1 :: -1])
            scale = np.max(np.abs(matrix) @ np.abs(v))
            direct = toeplitz_apply(w, v, DIRECT)
            assert np.max(np.abs(direct - matrix @ v)) <= 1e-14 * scale, family

    def test_grid_convergence_order(self):
        prof, _ = barenblatt(S, LAM, radius=1.0)
        errs = []
        for n in (256, 512, 1024):
            g = Grid.symmetric(2.0, n)
            dens = prof.sample(g)
            pot = riesz_potential(dens, RieszConfig(S))
            mask = np.abs(g.centers) <= 0.9
            exact = steady_potential(prof, g.centers[mask])
            errs.append(np.max(np.abs(pot[mask] - exact)) / np.max(np.abs(exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.0)


class TestGradient:
    def test_even_density_odd_gradient(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        grad = riesz_gradient(GridDensity(grid1024, vals), RieszConfig(S))
        assert np.max(np.abs(grad + grad[::-1])) <= 1e-12 * np.max(np.abs(grad))
        mid = grid1024.n // 2
        assert abs(grad[mid] + grad[mid - 1]) <= 1e-12  # antisymmetric about 0

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_barenblatt_gradient_cancels_confinement(self, s):
        # on the support the potential gradient must equal -lam x
        _, dens = barenblatt(s, LAM, radius=1.0, grid=Grid.symmetric(2.0, 2048))
        grad = riesz_gradient(dens, RieszConfig(s))
        x = dens.x
        mask = np.abs(x) <= 0.9
        assert np.max(np.abs(grad[mask] + LAM * x[mask])) <= 2e-3 * LAM

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_finite_difference_of_potential(self, s):
        g = Grid.symmetric(6.0, 2048)
        rho = GridDensity(g, np.exp(-g.centers**2))
        cfg = RieszConfig(s)
        pot = riesz_potential(rho, cfg)
        grad = riesz_gradient(rho, cfg)
        fd = np.gradient(pot, g.h)
        mask = np.abs(g.centers) <= 4.0
        rel = np.sqrt(np.sum((grad[mask] - fd[mask]) ** 2) / np.sum(fd[mask] ** 2))
        assert rel <= 5.0 * g.h


class TestSecondDerivativeAndFracLaplacian:
    def test_second_difference_oracle(self):
        g = Grid.symmetric(6.0, 2048)
        rho = GridDensity(g, np.exp(-g.centers**2))
        for s in (0.25, 0.4):
            cfg = RieszConfig(s)
            pot = riesz_potential(rho, cfg)
            d2 = riesz_second_derivative(rho, cfg)
            fd2 = np.gradient(np.gradient(pot, g.h), g.h)
            mask = np.abs(g.centers) <= 3.0
            rel = np.sqrt(np.sum((d2[mask] - fd2[mask]) ** 2) / np.sum(fd2[mask] ** 2))
            assert rel <= 10.0 * g.h ** min(1.0, 2 * s)

    def test_even_in_even_out(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        d2 = riesz_second_derivative(GridDensity(grid1024, vals), RieszConfig(S))
        assert np.max(np.abs(d2 - d2[::-1])) <= 1e-11 * np.max(np.abs(d2))

    def test_negative_of_frac_laplacian(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        rho = GridDensity(grid1024, vals)
        d2 = riesz_second_derivative(rho, RieszConfig(S))
        fl = frac_laplacian(vals, grid1024, S)
        assert np.max(np.abs(d2 + fl)) <= 1e-12 * np.max(np.abs(fl))

    def test_warns_above_half(self, grid1024):
        rho = GridDensity(grid1024, np.exp(-grid1024.centers**2))
        with pytest.warns(UserWarning):
            riesz_second_derivative(rho, RieszConfig(0.6))

    def test_constant_maps_to_zero(self, grid1024):
        out = frac_laplacian(np.ones(grid1024.n), grid1024, S)
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.5])
    def test_cosine_eigenvalue(self, s):
        # Fourier-symbol oracle: |k|^{2-2s} cos(kx) in the interior
        g = Grid.symmetric(50.0, 2048)
        k = 2.0
        assert k * g.h <= 0.1
        u = np.cos(k * g.centers)
        out = frac_laplacian(u, g, s)
        exact = k ** (2 - 2 * s) * u
        mask = np.abs(g.centers) <= 1.0
        rel = np.max(np.abs(out[mask] - exact[mask])) / np.max(np.abs(exact[mask]))
        assert rel <= 1e-2


class TestNegSobolev:
    def test_zero_function(self, grid1024):
        assert neg_sobolev_norm(np.zeros(grid1024.n), grid1024, S) == 0.0

    def test_brute_force_oracle_shifted_barenblatt(self):
        g = Grid.symmetric(4.0, 2048)
        prof, dens = barenblatt(S, LAM, mass=1.0, grid=g)
        prof_shift = type(prof)(s=S, lam=LAM, R=prof.R, M=prof.M, K=prof.K, x0=0.3)
        u_grid = prof_shift.evaluate(g.centers) - prof.evaluate(g.centers)
        val = neg_sobolev_norm(u_grid, g, S)

        c = riesz_constant(S).c
        R = prof.R
        lo, hi = -R - 0.35, R + 0.35

        def ufun(y):
            return prof_shift.evaluate(y) - prof.evaluate(y)

        nodes = np.linspace(lo, hi, 501)
        base_pts = [-R, R, 0.3 - R, 0.3 + R]
        qvals = np.empty_like(nodes)
        for i, x0 in enumerate(nodes):
            pts = sorted(set(np.clip(base_pts + [x0], lo, hi)))
            qvals[i], _ = quad(
                lambda y: c * ufun(y) * abs(x0 - y) ** (2 * S - 1),
                lo,
                hi,
                points=pts,
                limit=400,
            )
        oracle = np.sqrt(trapezoid(ufun(nodes) * qvals, nodes))
        assert abs(val - oracle) <= 1e-3 * oracle

    def test_sign_flip_invariance(self, grid1024, steady_pair, corpus40):
        _, target = steady_pair
        u = corpus40[0][1].values - target.values
        assert neg_sobolev_norm(u, grid1024, S) == neg_sobolev_norm(-u, grid1024, S)

    def test_quadratic_form_positive_on_zero_mass(self, grid1024, steady_pair, corpus40):
        # values are clamped at zero only within round-off of a positive form
        _, target = steady_pair
        for s in (0.1, 0.25, 0.5, 0.75):
            for _, rho in corpus40[:10]:
                val = neg_sobolev_norm(rho.values - target.values, grid1024, s)
                assert val >= 0.0


class TestHdotSeminorm:
    def test_zero_function(self, grid1024):
        assert hdot_seminorm(np.zeros(grid1024.n), grid1024, 0.3) == 0.0

    @pytest.mark.parametrize("r", [0.25, 0.35, 0.45])
    def test_fourier_oracle_gaussian(self, r):
        g = Grid.symmetric(60.0, 16384)
        u = np.exp(-g.centers**2)
        val = hdot_seminorm(u, g, r)
        uf = np.fft.fft(u)
        xi = 2 * np.pi * np.fft.fftfreq(g.n, d=g.h)
        oracle = np.sqrt((g.h / g.n) * np.sum(np.abs(uf) ** 2 * np.abs(xi) ** (2 * r)))
        assert abs(val - oracle) <= 2e-2 * oracle

    def test_split_bound_on_corpus(self, grid1024, steady_pair, corpus40):
        # seminorm^2 <= C ||u||_2^{2(a-2r)/a} ||u||_1^{2r/a} [u]_a^{2r/a};
        # 0.8 is a frozen regression envelope for the observed constant
        _, target = steady_pair
        alpha, r = 0.75, 0.3
        h = grid1024.h
        worst = 0.0
        for _, rho in corpus40[:20]:
            u = rho.values - target.values
            hd = hdot_seminorm(u, grid1024, r)
            l2 = np.sqrt(h * np.sum(u * u))
            l1 = h * np.sum(np.abs(u))
            ha = holder_seminorm(u, grid1024, alpha)
            rhs = l2 ** (2 * (alpha - 2 * r) / alpha) * l1 ** (2 * r / alpha) * ha ** (2 * r / alpha)
            worst = max(worst, hd**2 / rhs)
        assert worst <= 0.8

    def test_order_validation(self, grid1024):
        with pytest.raises(OutOfRange):
            hdot_seminorm(np.ones(grid1024.n), grid1024, 0.6)
