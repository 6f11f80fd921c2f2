import numpy as np
import pytest

from fracpme.energy import LOG_FLOOR, _eps_log_gradient, energy
from fracpme.errors import EpsilonOutOfRange, NotNormalized, ParameterOrder
from fracpme.grid import DensitySpec, Grid, GridDensity, cdf_quantile, holder_seminorm, moment, normalize, random_density
from fracpme.riesz import DIRECT, neg_sobolev_norm, toeplitz_apply, workspace
from fracpme.steady import barenblatt
from fracpme.transport import (
    _pv_map_term,
    gns_ratio,
    hwi_terms,
    inequality_report,
    interp_inequality,
    interp_sigmas,
    monotone_map,
    w2,
)

S, LAM = 0.25, 0.4


def rolled(rho, cells):
    vals = np.roll(rho.values, cells)
    vals[:cells] = 0.0
    return normalize(GridDensity(rho.grid, vals))


class TestW2:
    def test_self_distance_zero(self, corpus40):
        rho = corpus40[0][1]
        assert w2(rho, rho) == 0.0

    def test_translation_exact(self, steady_pair, grid1024):
        # compact support makes the quantile shift exact
        _, target = steady_pair
        cells = 128
        a = cells * grid1024.h
        assert abs(w2(target, rolled(target, cells)) - a) <= 1e-10

    def test_dilation(self, grid1024):
        rho = random_density(DensitySpec(seed=7, n_bumps=3), grid1024)
        L = 1.5
        x = grid1024.centers
        vals = np.interp(x / L, x, rho.values) / L
        rho_l = normalize(GridDensity(grid1024, vals))
        expect = np.sqrt((L - 1) ** 2 * moment(rho, 2))
        assert abs(w2(rho, rho_l) - expect) <= 2e-4 * expect

    def test_gaussian_closed_form(self):
        # independent oracle: between centered normals the distance is the
        # difference of standard deviations; shifts add in quadrature
        g = Grid.symmetric(8.0, 4096)
        x = g.centers

        def gaussian(mu, sigma):
            vals = np.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
            return normalize(GridDensity(g, vals))

        a = gaussian(0.0, 0.5)
        b = gaussian(0.0, 0.9)
        assert abs(w2(a, b) - 0.4) <= 5e-4
        c = gaussian(0.7, 0.5)
        expect = np.sqrt(0.7**2 + 0.4**2)
        assert abs(w2(c, b) - expect) <= 5e-4

    def test_requires_unit_mass(self, grid1024, steady_pair):
        _, target = steady_pair
        heavy = GridDensity(grid1024, 2 * target.values)
        with pytest.raises(NotNormalized):
            w2(heavy, target)

    def test_target_reuse_returns_the_uncached_float(self):
        def uncached(rho1, rho2):
            m = 10 * max(rho1.grid.n, rho2.grid.n)
            q = (np.arange(m) + 0.5) / m
            diff = cdf_quantile(rho1)(q) - cdf_quantile(rho2)(q)
            return float(np.sqrt(np.sum(diff * diff) / m))

        g = Grid.symmetric(4.0, 128)
        a, b, t = (random_density(DensitySpec(seed=k), g) for k in (1, 2, 3))
        fine = random_density(DensitySpec(seed=1), Grid.symmetric(4.0, 256))
        copy = GridDensity(g, t.values.copy())
        expect = uncached(a, t)
        assert w2(a, t) == expect
        assert w2(a, t) == expect
        assert w2(b, t) == uncached(b, t)
        assert w2(fine, t) == uncached(fine, t)  # more quantile nodes
        assert w2(a, copy) == expect
        assert w2(a, t) == expect
        assert not a.kept and not b.kept  # the target keeps its quantiles, a source nothing
        assert set(t.kept) == {("w2_quantiles", 1280), ("w2_quantiles", 2560)}
        assert w2(t, a) == uncached(t, a)

    def test_triangle_inequality_on_corpus(self, grid1024, corpus40):
        rng = np.random.default_rng(0)
        h = grid1024.h
        for _ in range(20):
            i, j, k = rng.choice(len(corpus40), size=3, replace=False)
            a, b, c = corpus40[i][1], corpus40[j][1], corpus40[k][1]
            assert w2(a, c) <= w2(a, b) + w2(b, c) + 5 * h


class TestMonotoneMap:
    def test_identity(self, steady_pair):
        _, target = steady_pair
        plan = monotone_map(target, target)
        mask = target.values > 1e-6 * np.max(target.values)
        assert np.max(np.abs(plan.theta[mask] - target.x[mask])) <= 2 * target.grid.h

    def test_shift_map(self, steady_pair, grid1024):
        _, target = steady_pair
        cells = 96
        a = cells * grid1024.h
        plan = monotone_map(target, rolled(target, cells))
        mask = target.values > 1e-6 * np.max(target.values)
        assert np.max(np.abs(plan.theta[mask] - (target.x[mask] + a))) <= 2 * grid1024.h

    def test_barenblatt_doubling_is_dilation(self):
        g = Grid.symmetric(4.0, 2048)
        _, d1 = barenblatt(S, LAM, radius=1.0, grid=g)
        _, d2 = barenblatt(S, LAM, radius=2.0, grid=g)
        src, tgt = normalize(d1), normalize(d2)
        plan = monotone_map(src, tgt)
        assert np.all(np.diff(plan.theta) >= -1e-12)
        mask = src.values > 1e-4 * np.max(src.values)
        assert np.max(np.abs(plan.theta[mask] - 2 * src.x[mask])) <= 0.01

    def test_cost_consistent_with_w2(self, steady_pair, corpus40):
        _, target = steady_pair
        for _, rho in corpus40[:5]:
            plan = monotone_map(rho, target)
            dist = w2(rho, target)
            assert abs(np.sqrt(plan.cost) - dist) <= 5 * rho.grid.h

    def test_disconnected_support_warns(self, grid1024):
        vals = np.zeros(grid1024.n)
        vals[100:200] = 1.0
        vals[600:700] = 1.0
        rho = normalize(GridDensity(grid1024, vals))
        with pytest.warns(UserWarning):
            monotone_map(rho, rho)


class TestHwiTerms:
    def test_terms_vanish_at_steady_state(self, minimizer_target):
        target = minimizer_target
        rep = hwi_terms(target, target, S, LAM, 0.0)
        assert abs(rep.T1) <= 1e-6
        assert abs(rep.T3) <= 1e-6
        assert abs(rep.T2) <= 1e-15

    @pytest.mark.parametrize("lam", [0.2, 0.4, 1.0])
    def test_t2_identity_at_eps_zero(self, minimizer_target, corpus40, lam):
        target = minimizer_target
        for _, rho in corpus40[:5]:
            rep = hwi_terms(rho, target, S, lam, 0.0)
            assert abs(rep.T2) <= 1e-12

    def test_t1_t3_nonnegative_on_corpus(self, minimizer_target, corpus40):
        target = minimizer_target
        for _, rho in corpus40:
            rep = hwi_terms(rho, target, S, LAM, 0.0)
            assert rep.T1 >= -1e-8 * rep.scale
            assert rep.T3 >= -1e-8 * rep.scale

    def test_t2_at_positive_eps_is_the_written_out_sum(self, minimizer_target, corpus40):
        # the confinement and entropy parts are the kept energy breakdowns';
        # the sums written out here stay within round-off of them
        eps = 1e-2
        target = minimizer_target
        h, x, vt = target.grid.h, target.x, target.values
        log_t = np.where(vt > 0, np.log(np.maximum(vt, LOG_FLOOR)), 0.0)
        bd_t = energy(target, S, LAM, eps)
        for _, rho in corpus40[:3]:
            v = rho.values
            plan = monotone_map(rho, target)
            bd = energy(rho, S, LAM, eps)
            dlog = _eps_log_gradient(v, h, eps)
            move = -h * float(np.sum(v * (dlog + LAM * x) * (plan.theta - x)))
            t2 = move - (bd.confinement + eps * bd.boltzmann) + (bd_t.confinement + eps * bd_t.boltzmann)
            t2 -= LAM / 2 * plan.cost
            got = hwi_terms(rho, target, S, LAM, eps).T2
            assert got == t2
            log_rho = np.where(v > 0, np.log(np.maximum(v, LOG_FLOOR)), 0.0)
            written_out = (
                move
                - h * float(np.sum(v * (LAM * x**2 / 2 + eps * log_rho)))
                + h * float(np.sum(vt * (LAM * x**2 / 2 + eps * log_t)))
                - LAM / 2 * plan.cost
            )
            assert got == pytest.approx(written_out, rel=1e-12)

    def test_eps_window_enforced(self, minimizer_target):
        target = minimizer_target
        with pytest.raises(EpsilonOutOfRange):
            hwi_terms(target, target, S, LAM, LAM / (2 * np.pi) * 1.01)


ORDERS = (0.1, 0.25, 0.4, 0.5, 0.7)


class TestPairSumIdentities:
    """The sums taken from kept fields, by the gradient kernel's parity and
    the potential's linearity, against the transform of every term they
    replace (see TestWeightFamilies for the parity itself)."""

    @pytest.mark.parametrize("s", ORDERS)
    def test_pv_map_term_is_the_antisymmetrized_sum(self, minimizer_target, corpus40, s):
        ws = workspace(minimizer_target.grid, s)
        h = minimizer_target.grid.h
        for _, rho in corpus40[:6]:
            theta = monotone_map(rho, minimizer_target).theta
            v, phi = rho.values, theta - rho.x
            gv = ws.apply("gradient", v)
            two_sum = 0.5 * h * (float(np.sum(phi * v * gv)) - float(np.sum(v * ws.apply("gradient", phi * v))))
            size = h * float(np.sum(np.abs(phi * v * gv)))
            assert abs(_pv_map_term(rho, theta, s) - two_sum) <= 1e-12 * size

    @pytest.mark.parametrize("s", ORDERS)
    def test_report_norm_is_the_norm_of_the_difference(self, minimizer_target, corpus40, s):
        # h sum u (W rho - W target) against the transform of u and the direct sum
        ws = workspace(minimizer_target.grid, s)
        h = minimizer_target.grid.h
        for _, rho in corpus40[:6]:
            u = rho.values - minimizer_target.values
            direct = np.sqrt(h * float(np.sum(u * toeplitz_apply(ws.weights("potential"), u, DIRECT))))
            ref = neg_sobolev_norm(u, rho.grid, s)
            for eps in (0.0, 0.01):
                nsn = inequality_report(rho, s, LAM, eps, minimizer_target).extras["neg_sobolev_norm"]
                assert abs(nsn - ref) <= 1e-12 * ref
                assert abs(nsn - direct) <= 1e-12 * direct


class TestInequalityReport:
    def test_gaps_vanish_at_target(self, minimizer_target):
        target = minimizer_target
        rep = inequality_report(target, S, LAM, 0.0, target)
        for gap in (rep.hwi_gap, rep.lsi_gap, rep.talagrand_gap, rep.lemmaE_gap):
            assert abs(gap) <= 1e-5

    def test_gaps_nonnegative_on_corpus(self, minimizer_target, corpus40):
        target = minimizer_target
        for _, rho in corpus40:
            rep = inequality_report(rho, S, LAM, 0.0, target)
            for gap in (rep.hwi_gap, rep.lsi_gap, rep.talagrand_gap, rep.lemmaE_gap):
                assert gap >= -1e-8 * rep.scale

    def test_hwi_implies_lsi_on_computed_values(self, minimizer_target, corpus40):
        target = minimizer_target
        for _, rho in corpus40[:15]:
            rep = inequality_report(rho, S, LAM, 0.0, target)
            if rep.hwi_gap >= 0:
                assert rep.lsi_gap >= -1e-12 * rep.scale

    def test_lsi_from_hwi_by_maximization(self, steady_pair, corpus40):
        # I/(2 lam) - gap >= sup_W (sqrt(I) W - lam/2 W^2) - gap pointwise
        _, target = steady_pair
        for _, rho in corpus40[:10]:
            rep = inequality_report(rho, S, LAM, 0.0, target)
            i_eps = rep.extras["dissipation"]
            dist = rep.extras["w2"]
            hwi_rhs = np.sqrt(i_eps) * dist - LAM / 2 * dist**2
            assert i_eps / (2 * LAM) >= hwi_rhs - 1e-12 * rep.scale


class TestGnsRatio:
    def test_family_constant(self):
        g = Grid.symmetric(4.0, 4096)
        x = g.centers
        ratios = []
        for amp in (0.5, 1.0, 2.0):
            for rad in (0.5, 1.0, 2.0):
                vals = amp * np.maximum(rad**2 - x**2, 0.0) ** (1 - S)
                ratios.append(gns_ratio(GridDensity(g, vals), S))
        for amp, rad, x0 in ((1.0, 1.0, 0.3), (0.5, 2.0, 0.3), (2.0, 0.5, 0.3)):
            vals = amp * np.maximum(rad**2 - (x - x0) ** 2, 0.0) ** (1 - S)
            ratios.append(gns_ratio(GridDensity(g, vals), S))
        ratios = np.array(ratios)
        assert (ratios.max() - ratios.min()) / ratios.mean() <= 5e-3

    def test_amplitude_invariance(self, corpus40):
        rho = corpus40[3][1]
        doubled = GridDensity(rho.grid, 2 * rho.values)
        a, b = gns_ratio(rho, S), gns_ratio(doubled, S)
        assert abs(a - b) <= 1e-10 * a

    def test_corpus_above_family_constant(self, corpus40):
        g = Grid.symmetric(4.0, 4096)
        x = g.centers
        vals = np.maximum(1.0 - x**2, 0.0) ** (1 - S)
        fam = gns_ratio(GridDensity(g, vals), S)
        for _, rho in corpus40:
            assert gns_ratio(rho, S) >= fam * (1 - 1e-3)

    def test_requires_s_below_half(self, corpus40):
        with pytest.raises(ParameterOrder):
            gns_ratio(corpus40[0][1], 0.6)


class TestInterpInequality:
    def test_sigmas_sum_to_one_exactly(self):
        for s in (0.1, 0.25, 0.4):
            for alpha in (0.5, 0.75, 1.0):
                for r in (0.1 * alpha, 0.3 * alpha, 0.49 * alpha):
                    s1, s2, s3 = interp_sigmas(s, alpha, r)
                    assert s1 + s2 + s3 == 1.0
                    # closed form for the third exponent
                    expect = s * (1 + 2 * alpha - 2 * r) / (2 * (1 + alpha) * (s + r))
                    assert abs(s3 - expect) <= 1e-15

    def test_amplitude_invariance(self, grid1024, steady_pair, corpus40):
        _, target = steady_pair
        u = corpus40[0][1].values - target.values
        l1, r1, _ = interp_inequality(u, grid1024, S, 0.75, 0.3)
        l2, r2, _ = interp_inequality(3.7 * u, grid1024, S, 0.75, 0.3)
        assert abs(l1 / r1 - l2 / r2) <= 1e-10 * (l1 / r1)

    def test_takes_the_norm_of_the_inequality_report(self, minimizer_target, corpus40):
        rho = corpus40[2][1]
        g = rho.grid
        u = rho.values - minimizer_target.values
        s1, s2, s3 = interp_sigmas(S, 0.75, 0.3)
        hol = holder_seminorm(u, g, 0.75)
        l1 = g.h * float(np.sum(np.abs(u)))
        for eps in (0.0, 0.01):
            nsn = inequality_report(rho, S, LAM, eps, minimizer_target).extras["neg_sobolev_norm"]
            _, rhs, _ = interp_inequality(u, g, S, 0.75, 0.3, nsn=nsn)
            assert rhs == float(nsn**s1 * hol**s2 * l1**s3)

    def test_dilation_covariance(self, steady_pair, corpus40):
        _, target = steady_pair
        g = target.grid
        u = corpus40[1][1].values - target.values
        base_lhs, base_rhs, _ = interp_inequality(u, g, S, 0.75, 0.3)
        for L in (0.5, 2.0):
            ud = np.interp(g.centers / L, g.centers, u, left=0.0, right=0.0)
            lhs, rhs, _ = interp_inequality(ud, g, S, 0.75, 0.3)
            assert abs(lhs / rhs - base_lhs / base_rhs) <= 0.01 * (base_lhs / base_rhs)

    def test_empirical_constant_stable_under_refinement(self):
        ratios = []
        for n in (1024, 2048):
            g = Grid.symmetric(4.0, n)
            _, dens = barenblatt(S, LAM, mass=1.0, grid=g)
            target = normalize(dens)
            worst = 0.0
            for seed in range(1, 21):
                rho = random_density(DensitySpec(seed=seed, n_bumps=1 + seed % 6), g)
                u = rho.values - target.values
                lhs, rhs, _ = interp_inequality(u, g, S, 0.75, 0.3)
                worst = max(worst, lhs / rhs)
            ratios.append(worst)
        assert abs(ratios[1] - ratios[0]) <= 0.1 * ratios[1]

    def test_parameter_order(self, grid1024):
        with pytest.raises(ParameterOrder):
            interp_inequality(np.ones(grid1024.n), grid1024, S, 0.5, 0.3)
