"""Nonlocal operators on the uniform grid, specialized to one dimension:
the inverse fractional Laplacian (Riesz potential), its derivative, the
hessian kernel sum of the dissipation-rate remainder, and the negative order
Sobolev norm.

Every operator is a Toeplitz sum p_i = sum_j w(i-j) rho_j whose weights are
exact cell integrals of the kernel, so the singular cell carries no special
quadrature error. One moment rule, _cell_moments (the cell integrals of
z^i sign(z)^odd |z|^q), builds all six weight families: the potential from
W = c|z|^{2s-1} (-log|z|/pi at s = 1/2, with a primitive of its own), the
gradient pair from moments 0 and 1 of W' = -c_plus sign(z)|z|^{2s-2}, and
the hessian triple from moments 0 to 2 of (2-2s)|z|^{2s-3}. Densities are
treated as identically zero outside the grid; with that convention the
difference and plain forms of the first derivative coincide, and a single
implementation covers all three s-regimes.

All sums of one (grid, s) go through one operator, `workspace(grid, s)`: it
builds each weight family and its FFT spectrum the first time it is used,
keeps them read-only, and is shared by every module. The free functions below
delegate to it.

The operator keeps nothing of the arrays it is applied to: `apply`,
`potential`, `gradient` and potential_and_gradient transform the values on
every call. A density keeps its own fields instead: kept_field(rho, s, key)
takes the rfft of rho.values once per density (its padded length depends on
the grid alone, so one transform serves every s), takes each field asked
for from it once, and keeps both in rho.kept, read-only, for as long as the
density lives. A run that measures many densities against one target,
taking several fields of each, thus transforms each density once.

The FFT path (numpy.fft) pads every sum to one length, the smallest
11-smooth number of at least 2n (no prime factor above 11; the length
scipy's next_fast_len(2n) picks): any length of at least 2n - 1 keeps the
kept window [n-1, 2n-1) of a length-(2n-1) weight family free of aliasing,
and 2n also keeps the gradient's boundary columns (below) from wrapping
round. A family sum costs one rfft and one irfft. The gradient applies one
combined spectrum, W_grad + (i sin theta / h) W_slope, to the transform of
the values and adds an O(n) correction from four columns
of the slope weights, where np.gradient and the periodic central difference
of the padded values differ (a zero vector, skipped, when the two end values
on each side are 0): 2 transforms. The potential and the gradient together
take 3: one rfft of the values and one irfft of the two rows of a cached
stacked spectrum, bitwise equal to the two fields taken one by one. The
stepper takes its step size from the same cached spectrum
(`gradient_symbol`), so the step bound and the field it bounds are one
operator.

The sums are translation invariant, so every run of m consecutive cells of
a grid has one operator, `workspace(grid, s, m)`, whose h is the grid's. Each
weight is an elementwise function of its offset and h, so its weights,
built at m cells, are bitwise the central 2m - 1 of the grid's. The stepper
takes the fields of a compactly supported state on such a window (see
workspace and evolve._Stepper.state), with m rounded up to a coarse ladder
of sizes, q 2^e with q in 4..7 (_section_cells), so its FFT length is 2m.
An operator writes into scratch buffers of its own and is handed to every
caller of its (grid, s, cells), so one operator must not be used from
several threads at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import gamma

import numpy as np
from numpy.fft import irfft, rfft

from .errors import NegativeBeyondTolerance, OutOfRange
from .grid import Grid, GridDensity


@dataclass(frozen=True)
class KernelCase:
    """Riesz kernel coefficients at a given order s.

    c is the coefficient of |y|^{2s-1} (the 1/pi of the log kernel at s=1/2);
    c_plus is (1-2s)*c, which stays positive on both sides of s=1/2 and tends
    to 1/pi there, keeping the derivative kernels continuous in s.
    """

    c: float
    c_plus: float


def riesz_constant(s: float) -> KernelCase:
    """Kernel coefficients for the inverse fractional Laplacian in 1D."""
    if not 0.0 < s < 1.0:
        raise OutOfRange(f"s must be in (0, 1), got {s}")
    if s == 0.5:
        inv_pi = 1.0 / np.pi
        return KernelCase(c=inv_pi, c_plus=inv_pi)
    c = s * 2.0 ** (-2 * s) * gamma(0.5 - s) / (np.sqrt(np.pi) * gamma(1 + s))
    return KernelCase(c=float(c), c_plus=float((1 - 2 * s) * c))


DIRECT = "direct_quadrature"
FFT = "truncated_convolution"


def _cell_ends(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Signed offsets m, |m| < n, and the rows m h + h/2 and m h - h/2 of the
    ends of the offset cells: odd multiples of h/2, never 0."""
    m = np.arange(-(n - 1), n, dtype=float)
    return m, m * h + np.array([[h / 2], [-h / 2]])


def _power(z: np.ndarray, p: float) -> np.ndarray:
    """|z|^p, or log|z| at p = 0: the primitive behind every kernel weight."""
    return np.log(np.abs(z)) if p == 0 else np.abs(z) ** p


def _cell_moments(n: int, h: float, q: float, odd: int, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Centres x = m h of the cells at signed offsets m, |m| < n, and in row
    i = 0..k the integrals of z^i sign(z)^odd |z|^q over each cell
    [x - h/2, x + h/2]: the one moment rule behind all six weight families.

    The integrand sign(z)^(i+odd) |z|^(q+i) has the primitive
    sign(z)^(i+odd+1) |z|^p / p, p = q + i + 1, or log|z| at p = 0. On the
    central cell, where it may not be integrable, a row holds the
    difference of the primitive at +-h/2.
    """
    m, ends = _cell_ends(n, h)
    moments = []
    for i in range(k + 1):
        p = q + i + 1
        primitive = _power(ends, p) / (p if p != 0 else 1.0) * np.sign(ends) ** (i + odd + 1)
        moments.append(primitive[0] - primitive[1])
    return m * h, moments


def potential_weights(n: int, h: float, s: float) -> np.ndarray:
    """w[m+n-1] = integral of W over a cell at signed offset m, |m| < n:
    W = c|z|^{2s-1}, or -log|z|/pi at s = 1/2."""
    if s == 0.5:
        _, (z_hi, z_lo) = _cell_ends(n, h)
        # -(z log|z| - z) / pi is the primitive of -log|z| / pi
        return (z_lo * (_power(z_lo, 0) - 1) - z_hi * (_power(z_hi, 0) - 1)) / np.pi
    return riesz_constant(s).c * _cell_moments(n, h, 2 * s - 1, 0, 0)[1][0]


def gradient_weights(n: int, h: float, s: float) -> np.ndarray:
    """Cell integrals of W' = -c_plus sign(z)|z|^{2s-2} (the form of both
    sides of s = 1/2); the central weight vanishes by symmetry."""
    return -riesz_constant(s).c_plus * _cell_moments(n, h, 2 * s - 2, 1, 0)[1][0]


def gradient_slope_weights(n: int, h: float, s: float) -> np.ndarray:
    """First-moment cell integrals of W', the integral of (x - z) W'(z) over
    the cell at offset x = m h, applied to rho'.

    Together with gradient_weights this evaluates the derivative of the
    potential of the piecewise-linear density exactly, which is what removes
    the O(h^{2s}) midpoint error of the bare pair sum. The central weight
    reduces to the classical within-cell coefficient c(1-2s)(h/2)^{2s}/s
    (h/pi in the log regime).
    """
    x, (m0, m1) = _cell_moments(n, h, 2 * s - 2, 1, 1)
    return -riesz_constant(s).c_plus * (x * m0 - m1)


def hessian_weights(n: int, h: float, s: float) -> np.ndarray:
    """Cell integrals of (2-2s)|z|^{2s-3} (no c_plus factor); central = 0."""
    w = (2 - 2 * s) * _cell_moments(n, h, 2 * s - 3, 0, 0)[1][0]
    w[n - 1] = 0.0
    return w


# No sum of the package reads the two hessian moment families below; they stay
# because the benchmark's tracer (perfbench/tracer.py) looks every builder up by name.
def hessian_slope_weights(n: int, h: float, s: float) -> np.ndarray:
    """First-moment cell integrals of (2-2s)|z|^{2s-3}, the integral of
    (x - z) (2-2s)|z|^{2s-3} over the cell at offset x = m h, applied to u'.

    Same role as gradient_slope_weights: makes the pair sum exact on
    piecewise-linear data. The central moment vanishes by symmetry.
    """
    x, (m0, m1) = _cell_moments(n, h, 2 * s - 3, 0, 1)
    return (2 - 2 * s) * (x * m0 - m1)


def hessian_quad_weights(n: int, h: float, s: float) -> np.ndarray:
    """Second-moment cell integrals of (2-2s)|z|^{2s-3}, the integral of (x - z)^2
    (2-2s)|z|^{2s-3} over the cell at offset x = m h, applied to u''/2.

    Includes the singular cell, where it reduces to the classical Taylor
    coefficient 2(1-s)(h/2)^{2s}/s of -u''/2.
    """
    x, (m0, m1, m2) = _cell_moments(n, h, 2 * s - 3, 0, 2)
    return (2 - 2 * s) * (x * x * m0 - 2 * x * m1 + m2)


@lru_cache(maxsize=256)
def _padded_length(n: int) -> int:
    """FFT length of every Toeplitz sum on n cells: the smallest 11-smooth
    number of at least 2n (see the module docstring)."""
    length = max(2 * n, 1)  # 0 has every factor: start at 1 so the loop ends
    while True:
        rest = length
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


def toeplitz_apply(weights: np.ndarray, v: np.ndarray, method: str = FFT) -> np.ndarray:
    """(weights * v)_i = sum_j weights[i-j+n-1] v_j for length-(2n-1) weights.

    method=DIRECT is the O(n^2) direct sum, the one reference every FFT sum
    is checked against. It is the `valid` convolution: only the n kept
    sums, bitwise those of the full convolution's middle block.
    """
    if method not in (DIRECT, FFT):
        raise ValueError(f"unknown method {method!r}")
    n = v.size
    if method == DIRECT:
        return np.convolve(weights, v, mode="valid")
    nfft = _padded_length(n)
    return irfft(rfft(weights, nfft) * rfft(v, nfft), nfft)[n - 1 : 2 * n - 1]


FAMILIES = ("potential", "gradient", "gradient_slope", "hessian", "hessian_slope", "hessian_quad")


def _section_cells(cells: int) -> int:
    """The smallest size of at least `cells` on the ladder of window sizes,
    q 2^e with q in 4..7 (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, ...):
    at most 25 % over the size asked for, and twice each size is 7-smooth,
    so a window's FFT length is exactly twice its size."""
    e = max((cells - 1).bit_length() - 3, 0)
    return -(-cells >> e) << e


class RieszWorkspace:
    """The nonlocal operator of one (grid, s).

    Holds the six kernel weight families (FAMILIES) and their FFT spectra,
    each built the first time it is used and kept read-only. Obtain it
    through workspace(grid, s, cells), which shares one instance per
    (grid, s, cells) between all modules. The FFT path writes
    its spectral products into scratch buffers the instance owns, so one
    instance must not be used from several threads at once.

    It holds only what depends on (grid, s): `apply`, `potential` and
    `gradient` transform their input on every call and keep nothing of it
    (a density keeps its own fields; see kept_field).

    `cells` makes the operator of that many consecutive cells of grid (all
    of them by default): the sums are translation invariant, so any run of
    `cells` cells has the same operator, with the h of grid.
    """

    def __init__(self, grid: Grid, s: float, cells: int | None = None):
        self.s = s
        self.n = grid.n if cells is None else cells
        self.h = grid.h
        self.kernel = riesz_constant(s)
        self._nfft = _padded_length(self.n)
        self._cache: dict = {}
        self._products: dict = {}  # scratch of _window, overwritten by every call

    def _cached(self, key, build) -> np.ndarray:
        value = self._cache.get(key)
        if value is None:
            value = build()
            value.setflags(write=False)
            self._cache[key] = value
        return value

    def weights(self, family: str) -> np.ndarray:
        # the builder is looked up in the module namespace at call time, so a
        # rebound builder (a profiler's wrapper, say) sees every build
        builder = globals()[f"{family}_weights"]
        return self._cached(family, lambda: builder(self.n, self.h, self.s))

    def spectrum(self, family: str) -> np.ndarray:
        return self._cached(("rfft", family), lambda: rfft(self.weights(family), self._nfft))

    def _window(self, spectrum: np.ndarray, values_hat: np.ndarray) -> np.ndarray:
        """Rows [0, n) of the inverse transform of spectrum * values_hat, in
        one irfft along the last axis; a stacked spectrum gives one row each."""
        n = self.n
        # one product buffer per spectrum shape, reused: with a fresh one per
        # call (131 kB for two rows at n = 4096) glibc's malloc returns the
        # pages and faults them in again, 96 minor faults a call on Linux
        product = self._products.get(spectrum.shape)
        if product is None:
            product = self._products[spectrum.shape] = np.empty(spectrum.shape, complex)
        np.multiply(spectrum, values_hat, out=product)
        return irfft(product, self._nfft, axis=-1)[..., n - 1 : 2 * n - 1]

    def _field(self, key: str, values: np.ndarray, values_hat: np.ndarray) -> np.ndarray:
        """The field key of values from values_hat, their rfft: the Toeplitz
        sum of the family key, or at key "gradient_combined" the gradient."""
        if key == "gradient_combined":
            return self._edge_corrected(values, self._window(self._gradient_spectrum(), values_hat))
        return self._window(self.spectrum(key), values_hat)

    def apply(self, family: str, values: np.ndarray) -> np.ndarray:
        """Toeplitz sum of one weight family, by FFT."""
        return self._field(family, values, rfft(values, self._nfft))

    def potential(self, values: np.ndarray) -> np.ndarray:
        return self.apply("potential", values)

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """W_grad * values + W_slope * np.gradient(values) in 2 transforms
        (see potential_and_gradient)."""
        return self._field("gradient_combined", values, rfft(values, self._nfft))

    def _theta(self) -> np.ndarray:
        """The rfft bins theta_k = 2 pi k / nfft."""
        return 2 * np.pi * np.arange(self._nfft // 2 + 1) / self._nfft

    def _gradient_spectrum(self) -> np.ndarray:
        """W_grad + (i sin theta / h) W_slope on the rfft bins theta_k = 2 pi k / nfft.

        i sin(theta) / h is the symbol of the periodic central difference, so
        this spectrum applied to the transform of the zero-padded values is
        the gradient with np.gradient replaced by that difference.
        """

        def build():
            slope = 1j * np.sin(self._theta()) / self.h
            return self.spectrum("gradient") + slope * self.spectrum("gradient_slope")

        return self._cached(("rfft", "gradient_combined"), build)

    def _edge_columns(self) -> np.ndarray:
        """Columns -1, 0, n-1 and n of the gradient_slope Toeplitz matrix.

        They carry the difference between np.gradient and the periodic central
        difference of the zero-padded values: the one-sided rows 0 and n-1,
        and the entries at -1 and n that the central difference puts outside
        the grid. Offsets beyond n-1 have weight 0.
        """

        def build():
            n = self.n
            # w[m + n] is the weight at offset m, |m| <= n; column j is w[n - j : 2n - j]
            w = np.concatenate(([0.0], self.weights("gradient_slope"), [0.0]))
            return np.stack([w[n + 1 : 2 * n + 1], w[n : 2 * n], w[1 : n + 1], w[:n]])

        return self._cached("gradient_edges", build)

    def _edge_corrected(self, values: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The FFT-path gradient: the window of the combined spectrum plus
        the edge-column correction (see _edge_columns)."""
        v = values
        if v[0] == v[1] == v[-2] == v[-1] == 0.0:
            return grad  # the correction below is a zero vector
        # np.gradient minus the periodic central difference at entries -1, 0, n-1 and n
        coef = np.array([-v[0] / 2, v[1] / 2 - v[0], v[-1] - v[-2] / 2, v[-1] / 2]) / self.h
        return grad + np.einsum("k,ki->i", coef, self._edge_columns())

    def gradient_symbol(self) -> tuple[np.ndarray, np.ndarray]:
        """Fourier symbol of `gradient` on the rfft bins theta_k = 2 pi k / nfft,
        nfft = _padded_length(n).

        Returns theta and sum_m w_grad[m] e^{-i m theta} + (i sin(theta) / h)
        sum_m w_slope[m] e^{-i m theta}: the one cached spectrum that the FFT
        path of `gradient` applies, phase-shifted to sum over the signed
        offsets m. i sin(theta)/h is the symbol of np.gradient away from its
        one-sided boundary rows.
        """
        theta = self._theta()
        # the spectra index the weights from offset -(n-1)
        return theta, np.exp(1j * (self.n - 1) * theta) * self._gradient_spectrum()

    def _fields_spectrum(self) -> np.ndarray:
        """The two stacked spectra of potential_and_gradient."""

        def build():
            return np.stack([self.spectrum("potential"), self._gradient_spectrum()])

        return self._cached(("rfft", "potential_and_gradient"), build)

    def potential_and_gradient(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both FFT fields of one density: 1 rfft of the values and 1 irfft
        of two rows, the potential and the gradient, the latter through the
        spectrum gradient_symbol reads. Bitwise equal to potential and
        gradient called one by one."""
        pot, grad = self._window(self._fields_spectrum(), rfft(values, self._nfft))
        return pot, self._edge_corrected(values, grad)


def workspace(grid: Grid, s: float, cells: int | None = None) -> RieszWorkspace:
    """The shared operator of (grid, s), or of `cells` consecutive cells of
    grid (a window; cells=None or grid.n: the whole grid); the 32 most
    recently used are kept.

    The cache keys on (grid, s, cells) with cells=grid.n taken as None, so
    every spelling of one call (positional, by keyword, cells=None or
    grid.n) is one operator. A caller that takes windows rounds `cells` up
    the ladder (_section_cells) first, and takes the grid's own operator
    where that is not below grid.n: one window size, one operator. A window
    builds the spectra of potential_and_gradient here, so its first field
    evaluation takes 3 transforms like any other.

    A density that is 0 outside a window has, on the window, the potential
    and gradient of the whole grid, up to round-off: the Toeplitz sums of
    the other cells add 0. The gradient also needs the edge correction of
    the whole grid: that holds where the window meets an end of the grid,
    and where it ends inside the grid with two cells of 0, for which both
    corrections vanish.
    """
    return _cached_workspace(grid, s, None if cells == grid.n else cells)


@lru_cache(maxsize=32)
def _cached_workspace(grid: Grid, s: float, cells: int | None) -> RieszWorkspace:
    op = RieszWorkspace(grid, s, cells)
    if cells is not None:
        op._fields_spectrum()
    return op


def kept_field(rho: GridDensity, s: float, key: str) -> np.ndarray:
    """The field key of rho under the operator of (rho.grid, s), read-only:
    the Toeplitz sum of a family in FAMILIES, or at key "gradient_combined"
    the gradient RieszWorkspace.gradient takes.

    rho keeps the rfft of its values (one per density: the padded length
    depends on the grid alone) and every field taken from it, so each is
    computed once however often it is asked for.
    """
    kept = rho.kept
    out = kept.get((s, key))
    if out is None:
        ws = workspace(rho.grid, s)
        values_hat = kept.get("rfft")
        if values_hat is None:
            values_hat = kept["rfft"] = rfft(rho.values, ws._nfft)
            values_hat.setflags(write=False)
        out = kept[s, key] = ws._field(key, rho.values, values_hat)
        out.setflags(write=False)
    return out


def riesz_potential(rho: GridDensity, s: float) -> np.ndarray:
    """Inverse fractional Laplacian of a density at the cell centers,
    read-only (see kept_field).

    For s >= 1/2 the kernel does not decay, so values depend on the domain
    truncation; differences and derivatives remain truncation-robust because
    the density itself is tail-checked.
    """
    return kept_field(rho, s, "potential")


def riesz_gradient(rho: GridDensity, s: float) -> np.ndarray:
    """Spatial derivative of the Riesz potential, read-only (see kept_field).

    Densities vanish outside the grid, which makes the difference form
    (s <= 1/2) and the plain convolution (s > 1/2) agree; the within-cell
    variation enters through a first-order derivative term whose coefficient
    is continuous across s = 1/2.
    """
    return kept_field(rho, s, "gradient_combined")


def regularity_warning(rho: GridDensity, s: float) -> None:
    """Heuristic check of the Holder hypothesis behind the derivative formulas
    used by hwi_terms.

    A grid function cannot certify Holder continuity; we warn when the finest
    available alpha-quotient is within a factor two of a one-cell jump of the
    full range, which is what genuinely rough data would look like.
    """
    alpha = min(1.0, max(1.0 - 2.0 * s, 0.0) + 0.05)
    v = rho.values
    rng = float(np.max(v) - np.min(v))
    if rng == 0.0:
        return
    h = rho.grid.h
    quotient = float(np.max(np.abs(np.diff(v)))) / h**alpha
    jump = rng / h**alpha
    if quotient >= 0.5 * jump:
        warnings.warn(
            f"hwi_terms: density looks rough at the grid scale "
            f"(alpha-quotient {quotient:.3g} vs jump scale {jump:.3g})",
            stacklevel=3,
        )


def neg_sobolev_norm(u: np.ndarray, grid: Grid, s: float) -> float:
    """Negative-order Sobolev norm: sqrt of the Riesz quadratic form of u.

    For s >= 1/2 the double integral is truncation-sensitive unless u has
    zero mean, which is the intended use (differences of unit-mass densities).
    """
    u = np.asarray(u, dtype=float)
    return _neg_sobolev_from(u, workspace(grid, s).potential(u), grid, s)


def _neg_sobolev_from(u: np.ndarray, pot: np.ndarray, grid: Grid, s: float) -> float:
    """neg_sobolev_norm of u given pot, the Riesz potential of u: the
    quadratic form h sum u pot, its check and its s >= 1/2 warning."""
    h = grid.h
    norm1 = h * float(np.sum(np.abs(u)))
    if s >= 0.5:
        mean_free = abs(h * float(np.sum(u)))
        if mean_free > 1e-8 * (1.0 + norm1):
            warnings.warn("neg_sobolev_norm at s >= 1/2 expects a zero-mass input", stacklevel=3)
    val = h * float(np.sum(u * pot))
    kscale = max(1.0, abs(riesz_constant(s).c))
    if val < -1e-8 * norm1**2 * kscale:
        raise NegativeBeyondTolerance(
            f"Riesz quadratic form came out {val!r} (scale {norm1**2 * kscale!r})"
        )
    return float(np.sqrt(max(val, 0.0)))
