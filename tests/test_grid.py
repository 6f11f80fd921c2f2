import math

import numpy as np
import pytest

from fracpme.errors import NotNormalized, ZeroMass
from fracpme.grid import (
    HOLDER_BLOCK,
    DensitySpec,
    Grid,
    GridDensity,
    cdf_quantile,
    holder_seminorm,
    keep,
    load_density_csv,
    moment,
    normalize,
    random_density,
    save_density_csv,
    tail_check,
)
from fracpme.harness import fuzz_corpus
from fracpme.steady import barenblatt
from fracpme.transport import monotone_map, w2


def uniform_density(grid, lo, hi):
    vals = ((grid.centers >= lo) & (grid.centers <= hi)).astype(float)
    return normalize(GridDensity(grid, vals))


class TestGrid:
    def test_geometry(self):
        g = Grid(-2.0, 2.0, 8)
        assert g.h == 0.5
        assert np.allclose(g.centers, np.arange(-1.75, 2.0, 0.5))
        assert g.edges[0] == -2.0 and g.edges[-1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid(1.0, -1.0, 16)

    @pytest.mark.parametrize(
        "bounds", [(-np.inf, 1.0), (-1.0, np.inf), (-np.inf, np.inf), (np.nan, 1.0), (-1e308, 1e308)]
    )
    def test_bounds_must_be_finite(self, bounds):
        # an infinite bound or width passed x_max > x_min and made h and the centers inf or NaN
        with pytest.raises(ValueError, match="grid bounds and their width must be finite"):
            Grid(*bounds, 16)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf, -1e-300])
    def test_density_values_must_be_finite(self, bad):
        vals = np.ones(8)
        vals[3] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GridDensity(Grid(-2.0, 2.0, 8), vals)

    def test_negative_zero_is_a_density_value(self):
        vals = np.array([-0.0, 1.0, 0.0, 2.0, -0.0, 1.0, 0.0, -0.0])
        rho = GridDensity(Grid(-2.0, 2.0, 8), vals)
        assert rho.values.tobytes() == vals.tobytes()

    def test_keep_builds_once_and_returns_the_kept_object(self):
        rho = GridDensity(Grid(-2.0, 2.0, 8), np.ones(8))
        builds = []

        def build():
            builds.append(1)
            return np.arange(3.0)

        first = keep(rho.kept, "key", build)
        assert keep(rho.kept, "key", build) is first is rho.kept["key"]
        assert builds == [1]

    def test_keep_freezes_an_array_and_keeps_other_values_as_they_are(self):
        rho = GridDensity(Grid(-2.0, 2.0, 8), np.ones(8))
        array = keep(rho.kept, "array", lambda: np.zeros(4))
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
        spec = DensitySpec(seed=3)
        assert keep(rho.kept, "float", lambda: 0.5) == 0.5
        assert keep(rho.kept, "record", lambda: spec) is spec
        assert set(rho.kept) == {"array", "float", "record"}


class TestNormalize:
    def test_mass_two_scales_down(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        rho = GridDensity(grid1024, vals)
        rho2 = GridDensity(grid1024, 2 * rho.values / rho.mass)
        out = normalize(rho2)
        assert abs(out.mass - 1.0) <= 1e-14
        # same shape: proportional values
        ratio = out.values[rho2.values > 0] / rho2.values[rho2.values > 0]
        assert np.allclose(ratio, ratio[0], rtol=1e-14)

    def test_already_unit_mass_unchanged(self, grid1024):
        rho = random_density(DensitySpec(seed=11), grid1024)
        again = normalize(rho)
        assert again is rho

    def test_idempotent_exactly(self, grid1024):
        for seed in range(5):
            rho = normalize(random_density(DensitySpec(seed=seed + 1), grid1024))
            once = normalize(rho)
            twice = normalize(once)
            assert np.array_equal(once.values, twice.values)

    def test_random_spec_mass_independent_summation(self, grid1024):
        # oracle: math.fsum in reverse order, an independent summation order
        for seed in (1, 7, 19):
            rho = random_density(DensitySpec(seed=seed), grid1024)
            mass = grid1024.h * math.fsum(rho.values[::-1])
            assert abs(mass - 1.0) <= 1e-14

    def test_zero_mass_raises(self, grid1024):
        with pytest.raises(ZeroMass):
            normalize(GridDensity(grid1024, np.zeros(grid1024.n)))


def test_random_density_is_its_recipe_written_out(grid1024):
    """Oracle: the recipe of random_density with its envelope built inline."""
    for seed in (4, 5):
        spec = DensitySpec(seed=seed, n_bumps=1 + seed % 6)
        rng = np.random.default_rng(seed)
        x = grid1024.centers
        total = np.zeros_like(x)
        for k in range(spec.n_bumps):
            center = 0.0 if k == 0 else rng.uniform(-1.5, 1.5)
            width = rng.uniform((0.15 + 0.25 * 0.75) * 1.5, (0.45 + 0.45 * 0.75) * 1.5)
            total += rng.uniform(0.3, 1.0) * np.exp(-(((x - center) / width) ** 2))
        total *= np.exp(-2.0 * np.abs(x))
        ref = normalize(GridDensity(grid1024, total))
        assert random_density(spec, grid1024).values.tobytes() == ref.values.tobytes()


class TestMoment:
    def test_symmetric_first_moment_vanishes(self, grid1024):
        rho = normalize(GridDensity(grid1024, np.exp(-grid1024.centers**2)))
        assert abs(moment(rho, 1)) <= 1e-14

    def test_uniform_second_moment_third(self):
        # exact integral of x^2/2 over [-1, 1] is 1/3
        g = Grid.symmetric(2.0, 2048)
        rho = uniform_density(g, -1.0, 1.0)
        assert abs(moment(rho, 2) - 1.0 / 3.0) <= 2e-6

    def test_zeroth_is_mass(self, grid1024):
        rho = random_density(DensitySpec(seed=3), grid1024)
        assert moment(rho, 0) == rho.mass

    def test_order_validation(self, grid1024):
        rho = random_density(DensitySpec(seed=3), grid1024)
        with pytest.raises(ValueError):
            moment(rho, 3)


class TestCdfQuantile:
    def test_uniform_median(self):
        g = Grid.symmetric(2.0, 2048)
        rho = uniform_density(g, 0.0, 1.0)
        q = cdf_quantile(rho)
        assert abs(float(q(0.5)) - 0.5) <= 1e-12

    def test_quantile_nondecreasing(self, grid1024):
        rho = random_density(DensitySpec(seed=9, n_bumps=4), grid1024)
        q = cdf_quantile(rho)
        qs = np.linspace(1e-6, 1 - 1e-6, 1000)
        x = q(qs)
        assert np.all(np.diff(x) >= -1e-12)

    def test_barenblatt_median_center(self, grid1024):
        _, dens = barenblatt(0.25, 0.4, mass=1.0, grid=grid1024)
        q = cdf_quantile(normalize(dens))
        assert abs(float(q(0.5))) <= 1e-12

    def test_round_trip_on_positive_density(self, grid1024):
        vals = np.exp(-grid1024.centers**2) + 0.05
        rho = normalize(GridDensity(grid1024, vals))
        q = cdf_quantile(rho)
        qs = np.linspace(0.01, 0.99, 257)
        back = q.cdf(q(qs))
        assert np.max(np.abs(back - qs)) <= grid1024.h

    def test_requires_unit_mass(self, grid1024):
        rho = GridDensity(grid1024, np.exp(-grid1024.centers**2))
        with pytest.raises(NotNormalized):
            cdf_quantile(rho)


def binary_search_quantile(f, q):
    """Oracle: the quantile of f written node by node, each node binary
    searched into the CDF breakpoints on its own."""
    q = np.asarray(q, dtype=float)
    cell = np.clip(np.searchsorted(f.cum, q, side="left"), 1, f.density.size) - 1
    dens = f.density[cell]
    offs = np.where(dens > 0.0, (q - f.cum[cell]) / np.where(dens > 0.0, dens, 1.0), 0.0)
    return np.clip(f.edges[cell] + offs, f.edges[0], f.edges[-1])


def gapped_density(grid):
    """Two bumps with a run of exact-zero cells between them and at both ends."""
    x = grid.centers
    vals = np.exp(-8 * (x + 1.5) ** 2) + np.exp(-8 * (x - 1.5) ** 2)
    vals[np.abs(x) < 0.5] = 0.0
    vals[np.abs(x) > 3.5] = 0.0
    return normalize(GridDensity(grid, vals))


class TestQuantileByRuns:
    """QuantileFn finds the cells of its nodes by runs; every float must be
    the node-by-node binary search's."""

    NODES = (np.arange(10240) + 0.5) / 10240

    @staticmethod
    def same(f, q):
        got, ref = f(q), binary_search_quantile(f, q)
        assert type(got) is type(ref)
        assert got.tobytes() == ref.tobytes()

    def test_corpus_at_the_w2_nodes(self, grid1024):
        for _, rho in fuzz_corpus(42, 200, grid1024):
            self.same(cdf_quantile(rho), self.NODES)

    def test_interior_gap_and_the_breakpoints(self, grid1024):
        f = cdf_quantile(gapped_density(grid1024))
        assert np.any(np.diff(f.cum) == 0.0)
        self.same(f, self.NODES)
        self.same(f, np.sort(np.concatenate([self.NODES, f.cum, [0.0, 1.0]])))

    def test_tails_down_to_1e_300(self, grid1024):
        vals = np.exp(-44.0 * grid1024.centers**2)
        assert vals.min() <= 1e-300
        rho = normalize(GridDensity(grid1024, vals))
        f = cdf_quantile(rho)
        self.same(f, self.NODES)
        self.same(f, np.concatenate([[0.0, 1e-300, 1e-200], self.NODES, [1 - 1e-16, 1.0]]))

    def test_monotone_map_inputs_with_exact_0_and_1(self, grid1024):
        src = gapped_density(grid1024)
        q = np.clip(cdf_quantile(src).cdf(src.x), 0.0, 1.0)  # monotone_map's input
        assert q[0] == 0.0
        for rho in (random_density(DensitySpec(seed=5, n_bumps=3), grid1024), src):
            f = cdf_quantile(rho)
            with pytest.warns(UserWarning, match="disconnected"):
                theta = monotone_map(src, rho).theta
            assert theta.tobytes() == binary_search_quantile(f, q).tobytes()
            self.same(f, np.append(q, 1.0))

    def test_scalar_unsorted_and_out_of_range(self, grid1024):
        for rho in (random_density(DensitySpec(seed=6), grid1024), gapped_density(grid1024)):
            f = cdf_quantile(rho)
            for q in (0.3, 0.0, 1.0, -0.1, 1.1, np.nan):
                self.same(f, q)
            rng = np.random.default_rng(3)
            mixed = np.concatenate([self.NODES[::8], self.NODES[:50], [-0.1, 1.1, np.nan, 0.0, 1.0, np.nan]])
            self.same(f, rng.permutation(mixed))
            self.same(f, rng.permutation(mixed).reshape(-1, 2))

    def test_w2_on_a_128_and_a_256_cell_grid(self):
        coarse, fine = Grid.symmetric(4.0, 128), Grid.symmetric(4.0, 256)
        dens = [random_density(DensitySpec(seed=k, n_bumps=1 + k % 6), g) for g in (coarse, fine) for k in range(4)]
        dens.append(gapped_density(fine))
        for a in dens:
            for b in dens:
                m = 10 * max(a.grid.n, b.grid.n)
                q = (np.arange(m) + 0.5) / m
                diff = binary_search_quantile(cdf_quantile(a), q) - binary_search_quantile(cdf_quantile(b), q)
                ref = float(np.sqrt(np.sum(diff * diff) / m))
                assert np.float64(w2(a, b)).tobytes() == np.float64(ref).tobytes()


class TestHolderSeminorm:
    def test_constant_is_zero(self, grid1024):
        assert holder_seminorm(np.ones(grid1024.n), grid1024, 0.5) == 0.0

    def test_linear_lipschitz_constant(self):
        g = Grid.symmetric(1.0, 512)
        assert abs(holder_seminorm(g.centers, g, 1.0) - 1.0) <= 1e-12

    def test_barenblatt_edge_exponent_stable(self):
        # reference: dense sampling of the closed form
        s, lam = 0.25, 0.4
        prof, _ = barenblatt(s, lam, radius=1.0)
        gref = Grid.symmetric(1.5, 65536)
        ref = holder_seminorm(prof.evaluate(gref.centers), gref, 1.0 - s)
        vals = []
        for n in (2048, 4096):
            g = Grid.symmetric(1.5, n)
            vals.append(holder_seminorm(prof.evaluate(g.centers), g, 1.0 - s))
        assert abs(vals[1] - vals[0]) <= 0.05 * vals[1]
        assert abs(vals[1] - ref) <= 0.05 * ref

    def test_exponent_validation(self, grid1024):
        with pytest.raises(ValueError):
            holder_seminorm(np.ones(grid1024.n), grid1024, 1.5)

    # The lag scan stops early; these compare it bitwise with every pair.

    def test_exact_on_corpus_differences(self, grid1024, corpus40, minimizer_target):
        for _, rho in corpus40[:20]:
            u = rho.values - minimizer_target.values
            assert holder_seminorm(u, grid1024, 0.75) == _all_pairs_holder(u, grid1024, 0.75)

    def test_exact_on_linear_ramp(self, grid1024):
        # the quotient is flat in the lag, so the scan cannot stop early
        u = grid1024.centers
        assert holder_seminorm(u, grid1024, 1.0) == _all_pairs_holder(u, grid1024, 1.0)

    def test_exact_on_spike_and_constant(self, grid1024):
        spike = np.zeros(grid1024.n)
        spike[300] = 2.5
        for u in (spike, -spike):
            assert holder_seminorm(u, grid1024, 0.6) == _all_pairs_holder(u, grid1024, 0.6)
        flat = np.full(grid1024.n, 0.3)
        assert holder_seminorm(flat, grid1024, 0.6) == _all_pairs_holder(flat, grid1024, 0.6) == 0.0

    def test_exact_on_barenblatt_edge(self, grid1024):
        s = 0.25
        prof, _ = barenblatt(s, 0.4, radius=1.0)
        u = prof.evaluate(grid1024.centers)
        assert holder_seminorm(u, grid1024, 1.0 - s) == _all_pairs_holder(u, grid1024, 1.0 - s)

    def test_exact_on_stride_path(self):
        g = Grid.symmetric(4.0, 8192)
        u = random_density(DensitySpec(seed=7, n_bumps=4), g).values
        assert holder_seminorm(u, g, 0.75) == _all_pairs_holder(u, g, 0.75)

    @pytest.mark.parametrize("n", [2, 3, 17, 33])
    def test_exact_on_small_grids(self, n):
        g = Grid.symmetric(1.0, n)
        rng = np.random.default_rng(n)
        for u in (rng.normal(size=n), np.cumsum(rng.normal(size=n)), g.centers**2, np.abs(g.centers) ** 0.3):
            for alpha in (0.3, 0.75, 1.0):
                assert holder_seminorm(u, g, alpha) == _all_pairs_holder(u, g, alpha)

    @pytest.mark.parametrize("n", [HOLDER_BLOCK + 1, HOLDER_BLOCK + 2, 2 * HOLDER_BLOCK + 1, 3 * HOLDER_BLOCK + 7])
    def test_exact_on_ramps_across_block_boundaries(self, n):
        # a ramp's quotient is flat (alpha = 1) or rising (alpha < 1) in the
        # lag, so the scan runs past the first block of lags
        g = Grid.symmetric(1.0, n)
        for u in (g.centers, -2.5 * g.centers, np.minimum(g.centers, 0.0), np.sqrt(g.centers + 1.0)):
            for alpha in (0.5, 1.0):
                assert holder_seminorm(u, g, alpha) == _all_pairs_holder(u, g, alpha)


def _all_pairs_holder(u, grid, alpha):
    """Brute-force max over every pair i < j of the (strided) samples, with the
    denominators (lag * step)**alpha written as in `holder_seminorm`."""
    stride = 1 if u.size <= 4096 else math.ceil(u.size / 4096)
    us = np.asarray(u, dtype=float)[::stride]
    step = grid.h * stride
    scale = np.array([(m * step) ** alpha for m in range(1, us.size)])
    best = 0.0
    for i in range(us.size - 1):
        best = max(best, float(np.max(np.abs(us[i + 1 :] - us[i]) / scale[: us.size - 1 - i])))
    return best


class TestRandomDensity:
    def test_deterministic_bitwise(self, grid1024):
        a = random_density(DensitySpec(seed=123), grid1024)
        b = random_density(DensitySpec(seed=123), grid1024)
        assert np.array_equal(a.values, b.values)

    def test_corpus_tail_and_positivity(self, grid1024):
        for seed in range(1, 201):
            rho = random_density(DensitySpec(seed=seed, n_bumps=1 + seed % 6), grid1024)
            assert np.all(rho.values >= 0)
            amp = float(np.max(rho.values * np.exp(np.abs(rho.x)))) * (1 + 1e-9)
            assert tail_check(rho, 1.0, amp).satisfied

    def test_single_bump_is_even(self, grid1024):
        rho = random_density(DensitySpec(seed=5, n_bumps=1), grid1024)
        assert abs(moment(rho, 1)) <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DensitySpec(seed=1, n_bumps=9)


class TestTailCheck:
    def test_zero_density_satisfies_anything(self, grid1024):
        rho = GridDensity(grid1024, np.zeros(grid1024.n))
        assert tail_check(rho, 5.0, 1e-8).satisfied

    def test_compact_support_satisfies(self, grid1024):
        _, dens = barenblatt(0.25, 0.4, radius=1.0, grid=grid1024)
        amp = float(np.max(dens.values)) * np.e  # A e^{-a R} >= edge values
        assert tail_check(dens, 1.0, amp).satisfied

    def test_too_small_amplitude_reports_cell(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        rho = GridDensity(grid1024, vals)
        rep = tail_check(rho, 1.0, 0.1)
        assert not rep.satisfied
        assert rep.violating_cell is not None
        x = grid1024.centers[rep.violating_cell]
        assert vals[rep.violating_cell] > 0.1 * np.exp(-abs(x))

    def test_parameter_validation(self, grid1024):
        rho = GridDensity(grid1024, np.zeros(grid1024.n))
        with pytest.raises(ValueError):
            tail_check(rho, 0.0, 1.0)


class TestCsvRoundTrip:
    DENSITIES = [
        [0.0, 5e-324, 1 / 3, 1.0, 2.5e-7, 1e300],
        [0.0] * 6,  # all zero
        [0.5, 1 / 3, 1.0, 2.5e-7, 1e300, 5e-324],  # full support
        [1 / 3, 1.0, 0.0, 0.0, 0.0, 0.0],  # a run touching the left end
        [0.0, 0.0, 0.0, 0.0, 1.0, 1 / 3],  # a run touching the right end
        [0.0, 1 / 3, 0.0, 0.0, 2.5e-7, 0.0],  # zeros inside the run
        [-0.0, 0.0, 1 / 3, -0.0, 0.0, 0.0],  # -0.0 at a run's end and inside it
        [0.0, 0.0, -0.0, 0.0, 0.0, 0.0],  # a run of one -0.0
        [0.0, 0.0, 0.0, 0.0, 0.0, 5e-324],
    ]

    def test_bytes_match_row_by_row_format(self, tmp_path):
        g = Grid.symmetric(1.0, 6)
        path = tmp_path / "density.csv"
        for values in self.DENSITIES:
            save_density_csv(path, GridDensity(g, np.array(values)))
            rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(g.centers.tolist(), values))
            assert path.read_bytes() == ("x,rho\n" + rows).encode("utf-8"), values

    def test_round_trip(self, tmp_path, grid1024):
        rho = random_density(DensitySpec(seed=2), grid1024)
        path = tmp_path / "density.csv"
        save_density_csv(path, rho)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "x,rho"
        back = load_density_csv(path)
        assert back.grid.n == rho.grid.n
        assert np.array_equal(back.values, rho.values)
        assert abs(back.grid.x_min - rho.grid.x_min) <= 1e-12
