import numpy as np
import pytest
import scipy.fft
from scipy.integrate import quad, trapezoid
from scipy.linalg import toeplitz

from fracpme.errors import OutOfRange
from fracpme.grid import DensitySpec, Grid, GridDensity, normalize, random_density
from fracpme.riesz import (
    DIRECT,
    FAMILIES,
    RieszWorkspace,
    _padded_length,
    _section_cells,
    gradient_weights,
    hessian_weights,
    kept_field,
    neg_sobolev_norm,
    potential_weights,
    riesz_constant,
    riesz_gradient,
    riesz_potential,
    rfft,
    irfft,
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
        assert abs(k.c - C_1_QUARTER) <= 1e-15

    def test_three_quarters_negative(self):
        k = riesz_constant(0.75)
        assert k.c < 0
        assert abs(k.c - C_3_QUARTER) <= 1e-15

    def test_log_regime_coefficient(self):
        k = riesz_constant(0.5)
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


def _reference_weight(family: str, s: float, m: int, h: float) -> float:
    """The weight of `family` at offset m, integrated by quad from its kernel
    moment: W = c|z|^{2s-1} (-log|z|/pi at s = 1/2), W' = -c_plus sign(z)
    |z|^{2s-2} and K = (2-2s)|z|^{2s-3}, times (mh - z)^k for the slope (k = 1)
    and quad (k = 2) families. Off the singular cell the integrand is smooth;
    on it the potential is integrated with quad's algebraic or log weight and
    the other families take the closed forms of their docstrings."""
    kernel = riesz_constant(s)
    if m == 0:
        if family == "potential":
            weight = ("alg-loga", (0.0, 0.0), -1 / np.pi) if s == 0.5 else ("alg", (2 * s - 1, 0.0), kernel.c)
            half, _ = quad(lambda z: weight[2], 0.0, h / 2, weight=weight[0], wvar=weight[1])
            return 2 * half
        if family == "gradient_slope":
            return h / np.pi if s == 0.5 else kernel.c * (1 - 2 * s) * (h / 2) ** (2 * s) / s
        if family == "hessian_quad":
            return 2 * (1 - s) * (h / 2) ** (2 * s) / s
        return 0.0  # odd integrands
    x = m * h

    def w(z):
        return -np.log(abs(z)) / np.pi if s == 0.5 else kernel.c * abs(z) ** (2 * s - 1)

    def dw(z):
        return -kernel.c_plus * np.sign(z) * abs(z) ** (2 * s - 2)

    def k(z):
        return (2 - 2 * s) * abs(z) ** (2 * s - 3)

    integrand = {
        "potential": w,
        "gradient": dw,
        "gradient_slope": lambda z: (x - z) * dw(z),
        "hessian": k,
        "hessian_slope": lambda z: (x - z) * k(z),
        "hessian_quad": lambda z: (x - z) ** 2 * k(z),
    }[family]
    value, _ = quad(integrand, x - h / 2, x + h / 2, epsabs=1e-15, epsrel=1e-13, limit=200)
    return value


class TestWeightFamilies:
    """Each weight family against an independent quadrature of its kernel."""

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_match_quadrature_of_the_kernel_moment(self, family, s):
        g = Grid.symmetric(4.0, 64)
        n = g.n
        got = workspace(g, s).weights(family)
        ref = np.array([_reference_weight(family, s, m, g.h) for m in range(-(n - 1), n)])
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(got))

    @pytest.mark.parametrize("n", [128, 1024, 4096])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.5, 0.7])
    def test_parity_is_exact(self, n, s):
        """The potential and hessian weights are even and the gradient
        weights odd, bitwise: the premise of the identities by which the T3
        pair sum and remainder_R take their sums from kept fields."""
        h = 8.0 / n
        for even in (potential_weights(n, h, s), hessian_weights(n, h, s)):
            assert np.array_equal(even, even[::-1])
        odd = gradient_weights(n, h, s)
        assert np.array_equal(odd, -odd[::-1])

    def test_order_out_of_range_is_rejected(self):
        g = Grid.symmetric(4.0, 64)
        rho = GridDensity(g, np.exp(-g.centers**2))
        for fn in (riesz_potential, riesz_gradient):
            with pytest.raises(OutOfRange):
                fn(rho, 1.5)


class TestPotential:
    def test_zero_density(self, grid1024):
        rho = GridDensity(grid1024, np.zeros(grid1024.n))
        assert np.all(riesz_potential(rho, S) == 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_barenblatt_closed_form(self, s):
        prof, dens = barenblatt(s, LAM, radius=1.0, grid=Grid.symmetric(2.0, 2048))
        pot = riesz_potential(dens, s)
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
        pot = riesz_potential(rho, S)
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
        combo = riesz_potential(GridDensity(grid1024, 2.0 * r1.values + 3.0 * r2.values), S)
        parts = 2.0 * riesz_potential(r1, S) + 3.0 * riesz_potential(r2, S)
        assert np.max(np.abs(combo - parts)) <= 1e-12 * np.max(np.abs(parts))

    def test_even_density_even_potential(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        pot = riesz_potential(GridDensity(grid1024, vals), S)
        assert np.max(np.abs(pot - pot[::-1])) <= 1e-12 * np.max(np.abs(pot))

    def test_direct_matches_fft(self):
        g = Grid.symmetric(3.0, 512)
        rho = GridDensity(g, np.exp(-g.centers**2))
        for s in (0.25, 0.5, 0.75):
            pd = toeplitz_apply(workspace(g, s).weights("potential"), rho.values, DIRECT)
            pf = riesz_potential(rho, s)
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

    @pytest.mark.parametrize("n", [1, 2, 7, 448, 4096])
    def test_direct_is_the_full_convolutions_middle_block_bitwise(self, n):
        rng = np.random.default_rng(n)
        w, v = rng.standard_normal(2 * n - 1), rng.random(n)
        assert np.array_equal(toeplitz_apply(w, v, DIRECT), np.convolve(w, v)[n - 1 : 2 * n - 1])

    def test_grid_convergence_order(self):
        prof, _ = barenblatt(S, LAM, radius=1.0)
        errs = []
        for n in (256, 512, 1024):
            g = Grid.symmetric(2.0, n)
            dens = prof.sample(g)
            pot = riesz_potential(dens, S)
            mask = np.abs(g.centers) <= 0.9
            exact = steady_potential(prof, g.centers[mask])
            errs.append(np.max(np.abs(pot[mask] - exact)) / np.max(np.abs(exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.0)


class TestGradient:
    def test_even_density_odd_gradient(self, grid1024):
        vals = np.exp(-grid1024.centers**2)
        grad = riesz_gradient(GridDensity(grid1024, vals), S)
        assert np.max(np.abs(grad + grad[::-1])) <= 1e-12 * np.max(np.abs(grad))
        mid = grid1024.n // 2
        assert abs(grad[mid] + grad[mid - 1]) <= 1e-12  # antisymmetric about 0

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_barenblatt_gradient_cancels_confinement(self, s):
        # on the support the potential gradient must equal -lam x
        _, dens = barenblatt(s, LAM, radius=1.0, grid=Grid.symmetric(2.0, 2048))
        grad = riesz_gradient(dens, s)
        x = dens.x
        mask = np.abs(x) <= 0.9
        assert np.max(np.abs(grad[mask] + LAM * x[mask])) <= 2e-3 * LAM

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_finite_difference_of_potential(self, s):
        g = Grid.symmetric(6.0, 2048)
        rho = GridDensity(g, np.exp(-g.centers**2))
        pot = riesz_potential(rho, s)
        grad = riesz_gradient(rho, s)
        fd = np.gradient(pot, g.h)
        mask = np.abs(g.centers) <= 4.0
        rel = np.sqrt(np.sum((grad[mask] - fd[mask]) ** 2) / np.sum(fd[mask] ** 2))
        assert rel <= 5.0 * g.h


class TestFftFields:
    """The FFT path of the potential and the gradient against the direct sums.

    Uniform random values keep the end values away from zero, so the
    boundary-column correction of the FFT gradient is exercised. The compact
    copy zeroes the two end cells on each side, where the FFT gradient skips
    that correction (at n <= 3 it is all zeros).
    """

    @pytest.mark.parametrize("n", [2, 3, 64, 1023, 1024])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.5, 0.7])
    def test_match_direct_reference(self, n, s):
        g = Grid.symmetric(4.0, n)
        positive = np.random.default_rng(n).uniform(0.5, 2.0, n)
        compact = positive.copy()
        compact[:2] = compact[-2:] = 0.0
        ws = workspace(g, s)
        for v in (positive, compact):
            pot, grad = ws.potential_and_gradient(v)
            pot_ref = toeplitz_apply(ws.weights("potential"), v, DIRECT)
            slope = np.gradient(v, g.h)
            grad_ref = toeplitz_apply(ws.weights("gradient"), v, DIRECT) + toeplitz_apply(
                ws.weights("gradient_slope"), slope, DIRECT
            )
            for got, ref in ((pot, pot_ref), (grad, grad_ref), (ws.gradient(v), grad_ref)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_transform_counts(self, monkeypatch):
        import fracpme.riesz as riesz

        g = Grid.symmetric(4.0, 64)
        v = random_density(DensitySpec(seed=3), g).values
        ws = workspace(g, S)
        ws.potential_and_gradient(v)  # warm: builds the weights and spectra
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(riesz, name)

            def counted(x, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, 1 if x.ndim == 1 else x.shape[0]))
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(riesz, name, counted)
        ws.potential_and_gradient(v)
        assert calls == [("rfft", 1), ("irfft", 2)]  # one call inverts both rows
        calls.clear()
        ws.gradient(v)
        assert calls == [("rfft", 1), ("irfft", 1)]

    @pytest.mark.parametrize("n", [3, 64, 1024])
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.7])
    def test_potential_and_gradient_bitwise_equal_to_one_by_one(self, n, s):
        g = Grid.symmetric(4.0, n)
        positive = np.random.default_rng(n).uniform(0.5, 2.0, n)
        _, compact = barenblatt(0.25, 0.4, mass=1.0, x0=0.5, grid=g)
        ws = workspace(g, s)
        for v in (positive, compact.values):
            pot, grad = ws.potential_and_gradient(v)
            assert np.array_equal(pot, ws.potential(v))
            assert np.array_equal(grad, ws.gradient(v))

    def test_unknown_method_is_rejected(self):
        # "direct" is not DIRECT ("direct_quadrature"): it must not fall through to the FFT sum
        g = Grid.symmetric(4.0, 64)
        v = random_density(DensitySpec(seed=3), g).values
        with pytest.raises(ValueError, match="unknown method"):
            toeplitz_apply(workspace(g, S).weights("potential"), v, "direct")


class TestSections:
    """The operator of a run of consecutive cells, workspace(grid, s, cells),
    on which the stepper takes the fields of a compactly supported state."""

    @pytest.mark.parametrize("cells", [1, 4, 5, 9, 17, 29, 100, 417, 1000, 5000])
    def test_ladder_is_coarse_and_fft_friendly(self, cells):
        m = _section_cells(cells)
        assert cells <= m <= max(1.25 * cells, 4)
        assert _padded_length(m) == 2 * m

    def test_ladder_has_four_sizes_an_octave(self):
        assert sorted({_section_cells(c) for c in range(9, 33)}) == [10, 12, 14, 16, 20, 24, 28, 32]
        assert len({_section_cells(c) for c in range(9, 1025)}) == 28

    def test_every_spelling_of_the_grid_is_one_operator(self):
        g = Grid.symmetric(4.0, 80)
        ws = workspace(g, S)
        assert workspace(g, S, None) is ws
        assert workspace(grid=g, s=S) is ws
        assert workspace(g, S, g.n) is ws
        assert workspace(g, s=S, cells=g.n) is ws
        assert workspace(g, S, 40) is workspace(g, S, cells=40) is not ws

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("cells", [5, 40, 100])
    def test_weights_and_h_are_the_parents(self, s, cells):
        g = Grid.symmetric(4.0, 128)
        ws = workspace(g, s)
        m = _section_cells(cells)
        sec = workspace(g, s, m)
        assert sec.n == m < g.n
        assert sec.h == ws.h and sec.s == ws.s
        # built with the operator, not in its first field evaluation
        assert ("rfft", "potential_and_gradient") in sec._cache
        for family in FAMILIES:
            assert np.array_equal(sec.weights(family), ws.weights(family)[g.n - m : g.n + m - 1])
        assert sec is workspace(g, s, m)
        assert _section_cells(g.n - 1) == g.n  # rounds up to the whole grid

    def test_cells_are_rounded_up_the_ladder(self):
        g = Grid.symmetric(4.0, 80)
        assert workspace(g, S, 41) is workspace(g, S, 48)
        assert workspace(g, S, 41).n == 48
        for cells in range(1, 200):
            ws = workspace(g, S, cells)
            if _section_cells(cells) >= g.n:
                assert ws is workspace(g, S)
            else:
                assert ws.n == _section_cells(cells) and ws is workspace(g, S, ws.n)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("support", [(60, 100), (0, 30), (220, 256), (3, 250)])
    def test_fields_match_the_whole_grid_on_the_window(self, s, support):
        # interior, touching the left end, touching the right end, the whole grid
        g = Grid.symmetric(4.0, 256)
        a, b = support
        v = np.zeros(g.n)
        v[a:b] = np.random.default_rng(a).uniform(0.5, 2.0, b - a)
        ws = workspace(g, s)
        lo, hi = max(a - 2, 0), min(b + 2, g.n)
        m = _section_cells(hi - lo)
        sec = ws if m >= g.n else workspace(g, s, m)
        lo = min(lo, g.n - sec.n)
        win = slice(lo, lo + sec.n)
        pot, grad = sec.potential_and_gradient(v[win])
        pot_ref, grad_ref = ws.potential_and_gradient(v)
        for got, ref in ((pot, pot_ref), (grad, grad_ref)):
            assert np.max(np.abs(got - ref[win])) <= 1e-12 * np.max(np.abs(ref))
        if sec is ws:
            assert np.array_equal(pot, pot_ref) and np.array_equal(grad, grad_ref)


class TestMemo:
    """A density keeps the rfft of its frozen values and every field taken
    from it (riesz.kept_field), read-only; the operator keeps nothing of the
    arrays it is applied to."""

    KEYS = ("gradient_combined", *FAMILIES)

    @staticmethod
    def outputs(ws, values):
        return [ws.gradient(values), *(ws.apply(family, values) for family in FAMILIES)]

    @staticmethod
    def count_transforms(monkeypatch):
        import fracpme.riesz as riesz

        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(riesz, name)

            def counted(x, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(riesz, name, counted)
        return calls

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.7])
    def test_frozen_outputs_are_a_fresh_operators_and_read_only(self, s):
        g = Grid.symmetric(4.0, 256)
        rho = random_density(DensitySpec(seed=5), g)
        kept = [kept_field(rho, s, key) for key in self.KEYS]
        fresh = self.outputs(RieszWorkspace(g, s), rho.values)
        for key, field, ref in zip(self.KEYS, kept, fresh):
            assert kept_field(rho, s, key) is field and np.array_equal(field, ref)
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1.0
        assert all(out.flags.writeable for out in fresh)
        assert riesz_potential(rho, s) is kept[1] and riesz_gradient(rho, s) is kept[0]

    def test_frozen_input_is_transformed_once(self, monkeypatch):
        """One rfft serves every field of a density, at every s."""
        g = Grid.symmetric(4.0, 64)
        warm, rho = (random_density(DensitySpec(seed=k), g) for k in (2, 3))
        for s in (S, 0.6):  # builds the weights and spectra of both operators
            riesz_potential(warm, s)
            riesz_gradient(warm, s)
        calls = self.count_transforms(monkeypatch)
        for _ in range(2):
            for s in (S, 0.6):
                riesz_potential(rho, s)
                riesz_gradient(rho, s)
        assert calls == ["rfft", "irfft", "irfft", "irfft", "irfft"]

    def test_writable_arrays_and_views_are_recomputed_after_a_change(self):
        """Operator methods keep nothing, not even of a density's frozen values."""
        g = Grid.symmetric(4.0, 128)
        ws = RieszWorkspace(g, S)
        rho = random_density(DensitySpec(seed=4), g)
        first, again = self.outputs(ws, rho.values), self.outputs(ws, rho.values)
        for a, b in zip(first, again):
            assert a is not b and np.array_equal(a, b) and a.flags.writeable
        assert not rho.kept
        v = np.random.default_rng(2).uniform(0.5, 2.0, g.n)
        view = v[:]
        view.setflags(write=False)  # read-only, but the data is v's
        for values in (v, view):
            before = self.outputs(ws, values)
            v[10:20] *= 3.0
            after = self.outputs(ws, values)
            ref = self.outputs(RieszWorkspace(g, S), v.copy())
            for old, new, want in zip(before, after, ref):
                assert np.array_equal(new, want) and not np.array_equal(new, old)

    def test_round_robin_densities_are_transformed_once(self, monkeypatch):
        """Densities used in turn, a, b, c and a again: a still holds its
        fields, however many others were transformed in between."""
        g = Grid.symmetric(4.0, 64)
        a, b, c, warm = (random_density(DensitySpec(seed=k), g) for k in range(4))
        riesz_potential(warm, S)  # builds the weights and spectra
        riesz_gradient(warm, S)
        calls = self.count_transforms(monkeypatch)
        for rho in (a, b, c, a):
            riesz_potential(rho, S)
            riesz_gradient(rho, S)
        assert calls.count("rfft") == 3


class TestNumpyTransforms:
    """numpy.fft at the 11-smooth padded length reproduces the scipy.fft
    transforms the FFT path used to take, bit for bit."""

    def test_padded_length_is_scipys_next_fast_len(self):
        ns = range(1, 5000)
        assert [_padded_length(n) for n in ns] == [scipy.fft.next_fast_len(2 * n) for n in ns]

    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 1023, 1024, 4096])
    def test_bitwise_equal_to_scipy(self, n):
        ws = workspace(Grid.symmetric(4.0, n), S)
        nfft = _padded_length(n)
        assert ws._nfft == nfft
        v = np.random.default_rng(n).uniform(0.5, 2.0, n)
        values_hat = rfft(v, nfft)
        assert np.array_equal(values_hat, scipy.fft.rfft(v, nfft))
        stacked = np.stack([ws.spectrum("potential"), ws.spectrum("gradient_combined")]) * values_hat
        assert np.array_equal(irfft(stacked, nfft, axis=-1), scipy.fft.irfft(stacked, nfft, axis=-1))
        assert np.array_equal(irfft(stacked[0], nfft), scipy.fft.irfft(stacked[0], nfft))
        weights = ws.weights("potential")
        assert np.array_equal(rfft(weights, nfft), scipy.fft.rfft(weights, nfft))


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
