"""Nonlocal operators on the uniform grid, specialized to one dimension:
inverse fractional Laplacian (Riesz potential), its first and second
derivatives, the fractional Laplacian of order 1-s, and the negative/positive
order Sobolev quantities.

Every operator is a Toeplitz sum p_i = sum_j w(i-j) rho_j whose weights are
exact cell integrals of the kernel (analytic antiderivatives of |z|^{2s-1},
log|z|, |z|^{2s-2} and |z|^{2s-3}), so the singular cell carries no special
quadrature error. Densities are treated as identically zero outside the grid;
with that convention the difference and plain forms of the first derivative
coincide, and a single implementation covers all three s-regimes. The
fractional Laplacian of a plain grid function instead extends it by its
boundary values, so constants map to zero.

All sums of one (grid, s) go through one operator, `workspace(grid, s)`: it
builds each weight family and its FFT spectrum the first time it is used,
keeps them read-only, and is shared by every module. The free functions below
delegate to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len, rfft, irfft
from scipy.special import gamma

from .errors import NegativeBeyondTolerance, OutOfRange
from .grid import Grid, GridDensity

POWER_POSITIVE = "power_positive"
LOGARITHMIC = "logarithmic"
POWER_NEGATIVE = "power_negative"


@dataclass(frozen=True)
class KernelCase:
    """Riesz kernel regime and its coefficients at a given order s.

    c is the coefficient of |y|^{2s-1} (the 1/pi of the log kernel at s=1/2);
    c_plus is (1-2s)*c, which stays positive on both sides of s=1/2 and tends
    to 1/pi there, keeping the derivative kernels continuous in s.
    """

    regime: str
    c: float
    c_plus: float


def riesz_constant(s: float) -> KernelCase:
    """Kernel coefficients for the inverse fractional Laplacian in 1D."""
    if not 0.0 < s < 1.0:
        raise OutOfRange(f"s must be in (0, 1), got {s}")
    if s == 0.5:
        inv_pi = 1.0 / np.pi
        return KernelCase(regime=LOGARITHMIC, c=inv_pi, c_plus=inv_pi)
    c = s * 2.0 ** (-2 * s) * gamma(0.5 - s) / (np.sqrt(np.pi) * gamma(1 + s))
    regime = POWER_POSITIVE if s < 0.5 else POWER_NEGATIVE
    return KernelCase(regime=regime, c=float(c), c_plus=float((1 - 2 * s) * c))


DIRECT = "direct_quadrature"
FFT = "truncated_convolution"


@dataclass(frozen=True)
class RieszConfig:
    """Order and evaluation strategy for the nonlocal operators.

    direct_quadrature is the O(n^2) reference path; truncated_convolution is
    the FFT path exploiting the Toeplitz structure.
    """

    s: float
    method: str = FFT

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise OutOfRange(f"s must be in (0, 1), got {self.s}")
        if self.method not in (DIRECT, FFT):
            raise ValueError(f"unknown method {self.method!r}")


def _cell_ends(n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed offsets m, |m| < n, and the ends m h +- h/2 of the offset cell.

    The ends are odd multiples of h/2, so no primitive is evaluated at 0.
    """
    m = np.arange(-(n - 1), n, dtype=float)
    return m, m * h + h / 2, m * h - h / 2


def _power(z: np.ndarray, p: float) -> np.ndarray:
    """|z|^p, or log|z| at p = 0: the primitive behind every kernel weight."""
    return np.log(np.abs(z)) if p == 0 else np.abs(z) ** p


def _kernel_primitive(z: np.ndarray, s: float, c: float) -> np.ndarray:
    """Antiderivative of the potential kernel W (constants included)."""
    if s == 0.5:
        return -(z * _power(z, 0) - z) / np.pi
    return c * np.sign(z) * _power(z, 2 * s) / (2 * s)


def _kernel_values(z: np.ndarray, s: float, c: float) -> np.ndarray:
    """Pointwise potential kernel W(z) (constants included)."""
    if s == 0.5:
        return -_power(z, 0) / np.pi
    return c * _power(z, 2 * s - 1)


def potential_weights(n: int, h: float, s: float) -> np.ndarray:
    """w[m+n-1] = integral of W over a cell at signed offset m, |m| < n."""
    c = riesz_constant(s).c
    _, z_hi, z_lo = _cell_ends(n, h)
    return _kernel_primitive(z_hi, s, c) - _kernel_primitive(z_lo, s, c)


def gradient_weights(n: int, h: float, s: float) -> np.ndarray:
    """Cell integrals of W'; the central weight vanishes by symmetry."""
    c = riesz_constant(s).c
    _, z_hi, z_lo = _cell_ends(n, h)
    v = _kernel_values(z_hi, s, c) - _kernel_values(z_lo, s, c)
    v[n - 1] = 0.0
    return v


def _moment_primitive(z: np.ndarray, s: float, c: float) -> np.ndarray:
    """Antiderivative of z * W'(z) (constants included)."""
    if s == 0.5:
        return -z / np.pi
    return c * np.sign(z) * _power(z, 2 * s) * (2 * s - 1) / (2 * s)


def gradient_slope_weights(n: int, h: float, s: float) -> np.ndarray:
    """First-moment cell integrals of W', applied to rho'.

    Together with gradient_weights this evaluates the derivative of the
    potential of the piecewise-linear density exactly, which is what removes
    the O(h^{2s}) midpoint error of the bare pair sum. The central weight
    reduces to the classical within-cell coefficient c(1-2s)(h/2)^{2s}/s
    (h/pi in the log regime).
    """
    c = riesz_constant(s).c
    m, z_hi, z_lo = _cell_ends(n, h)
    v = _kernel_values(z_hi, s, c) - _kernel_values(z_lo, s, c)
    v[n - 1] = 0.0
    dp = _moment_primitive(z_hi, s, c) - _moment_primitive(z_lo, s, c)
    return m * h * v - dp


def _hessian_cells(n: int, h: float, s: float):
    """Offsets, cell ends and the cell integrals of (2-2s)|z|^{2s-3} (no
    c_plus factor, central weight 0)."""
    m, z_hi, z_lo = _cell_ends(n, h)

    def primitive(z):
        return -np.sign(z) * _power(z, 2 * s - 2)

    u = primitive(z_hi) - primitive(z_lo)
    u[n - 1] = 0.0
    return m, z_hi, z_lo, u


def _hessian_moment(z: np.ndarray, s: float) -> np.ndarray:
    """Antiderivative of z (2-2s)|z|^{2s-3}: (2-2s)|z|^{2s-1}/(2s-1), or
    log|z| at s = 1/2."""
    q = 2 * s - 1
    return _power(z, 0) if q == 0 else (2 - 2 * s) * _power(z, q) / q


def hessian_weights(n: int, h: float, s: float) -> np.ndarray:
    """Cell integrals of (2-2s)|z|^{2s-3} (no c_plus factor); central = 0."""
    return _hessian_cells(n, h, s)[3]


def hessian_slope_weights(n: int, h: float, s: float) -> np.ndarray:
    """First-moment cell integrals of (2-2s)|z|^{2s-3}, applied to u'.

    Same role as gradient_slope_weights: makes the pair sum exact on
    piecewise-linear data. The central moment vanishes by symmetry.
    """
    m, z_hi, z_lo, u = _hessian_cells(n, h, s)
    out = m * h * u - (_hessian_moment(z_hi, s) - _hessian_moment(z_lo, s))
    out[n - 1] = 0.0
    return out


def hessian_quad_weights(n: int, h: float, s: float) -> np.ndarray:
    """Second-moment cell integrals of (2-2s)|z|^{2s-3}, applied to u''/2.

    Includes the singular cell, where it reduces to the classical Taylor
    coefficient 2(1-s)(h/2)^{2s}/s of -u''/2.
    """
    m, z_hi, z_lo, u = _hessian_cells(n, h, s)
    p1 = _hessian_moment(z_hi, s) - _hessian_moment(z_lo, s)

    def primitive(z):
        # antiderivative of z^2 (2-2s)|z|^{2s-3} = (2-2s)|z|^{2s-1}
        return (2 - 2 * s) * np.sign(z) * _power(z, 2 * s) / (2 * s)

    p2 = primitive(z_hi) - primitive(z_lo)
    out = (m * h) ** 2 * u - 2 * m * h * p1 + p2
    out[n - 1] = p2[n - 1]
    return out


def _convolve_direct(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = v.size
    return np.convolve(weights, v)[n - 1 : 2 * n - 1]


def _convolve_fft(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = v.size
    nfft = next_fast_len(3 * n - 2)
    full = irfft(rfft(weights, nfft) * rfft(v, nfft), nfft)
    return full[n - 1 : 2 * n - 1]


def toeplitz_apply(weights: np.ndarray, v: np.ndarray, method: str = FFT) -> np.ndarray:
    """(weights * v)_i = sum_j weights[i-j+n-1] v_j for length-(2n-1) weights."""
    if method == DIRECT:
        return _convolve_direct(weights, v)
    return _convolve_fft(weights, v)


FAMILIES = ("potential", "gradient", "gradient_slope", "hessian", "hessian_slope", "hessian_quad")


class RieszWorkspace:
    """The nonlocal operator of one (grid, s).

    Holds the six kernel weight families (FAMILIES), their FFT spectra and
    the hessian row sum T·1, each built the first time it is used and kept
    read-only. Obtain it through workspace(grid, s), which shares one
    instance per (grid, s) between all modules.
    """

    def __init__(self, grid: Grid, s: float):
        self.grid = grid
        self.s = s
        self.kernel = riesz_constant(s)
        self._nfft = next_fast_len(3 * grid.n - 2)
        self._cache: dict = {}

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
        return self._cached(family, lambda: builder(self.grid.n, self.grid.h, self.s))

    def spectrum(self, family: str) -> np.ndarray:
        return self._cached(("rfft", family), lambda: rfft(self.weights(family), self._nfft))

    def row_sum(self, method: str = FFT) -> np.ndarray:
        """Row sums T·1 of the hessian weights."""
        return self._cached(("row_sum", method), lambda: self.apply("hessian", np.ones(self.grid.n), method))

    def apply(self, family: str, values: np.ndarray, method: str = FFT) -> np.ndarray:
        """Toeplitz sum of one weight family; DIRECT is the O(n^2) reference."""
        if method == DIRECT:
            return toeplitz_apply(self.weights(family), values, DIRECT)
        n = self.grid.n
        full = irfft(self.spectrum(family) * rfft(values, self._nfft), self._nfft)
        return full[n - 1 : 2 * n - 1]

    def potential(self, values: np.ndarray, method: str = FFT) -> np.ndarray:
        return self.apply("potential", values, method)

    def gradient(self, values: np.ndarray, method: str = FFT) -> np.ndarray:
        slope = np.gradient(values, self.grid.h)
        return self.apply("gradient", values, method) + self.apply("gradient_slope", slope, method)

    def potential_and_gradient(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both FFT fields of one density, sharing the transform of the values."""
        n, nfft = self.grid.n, self._nfft
        vf = rfft(values, nfft)
        pot = irfft(self.spectrum("potential") * vf, nfft)[n - 1 : 2 * n - 1]
        conv = irfft(self.spectrum("gradient") * vf, nfft)[n - 1 : 2 * n - 1]
        return pot, conv + self.apply("gradient_slope", np.gradient(values, self.grid.h))


@lru_cache(maxsize=32)
def workspace(grid: Grid, s: float) -> RieszWorkspace:
    """The shared operator of (grid, s); the 32 most recently used are kept."""
    return RieszWorkspace(grid, s)


def riesz_potential(rho: GridDensity, cfg: RieszConfig) -> np.ndarray:
    """Inverse fractional Laplacian of a density at the cell centers.

    For s >= 1/2 the kernel does not decay, so values depend on the domain
    truncation; differences and derivatives remain truncation-robust because
    the density itself is tail-checked.
    """
    return workspace(rho.grid, cfg.s).potential(rho.values, cfg.method)


def riesz_gradient(rho: GridDensity, cfg: RieszConfig) -> np.ndarray:
    """Spatial derivative of the Riesz potential.

    Densities vanish outside the grid, which makes the difference form
    (s <= 1/2) and the plain convolution (s > 1/2) agree; the within-cell
    variation enters through a first-order derivative term whose coefficient
    is continuous across s = 1/2.
    """
    return workspace(rho.grid, cfg.s).gradient(rho.values, cfg.method)


def regularity_warning(rho: GridDensity, s: float, where: str = "riesz_gradient") -> None:
    """Heuristic check of the Holder hypothesis behind the derivative formulas.

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
            f"{where}: density looks rough at the grid scale "
            f"(alpha-quotient {quotient:.3g} vs jump scale {jump:.3g})",
            stacklevel=3,
        )


def _exterior_hessian_tails(grid: Grid, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel mass beyond each end of the grid, as seen from every center."""
    x = grid.centers
    left = np.abs(x - grid.x_min) ** (2 * s - 2)
    right = np.abs(x - grid.x_max) ** (2 * s - 2)
    return left, right


def frac_laplacian(u: np.ndarray, grid: Grid, s: float, method: str = FFT) -> np.ndarray:
    """Fractional Laplacian of order 1-s of a grid function.

    Pointwise singular integral with exact cell weights; within-cell variation
    enters through first- and second-moment weights applied to u' and u''/2
    (the latter covers the singular cell). Beyond the grid the function is
    extended by its boundary-cell values, so constants map to zero exactly.
    """
    u = np.asarray(u, dtype=float)
    ws = workspace(grid, s)
    slope = np.gradient(u, grid.h)
    d2 = np.gradient(slope, grid.h)
    conv = ws.apply("hessian", u, method)
    moment1 = ws.apply("hessian_slope", slope, method)
    moment2 = ws.apply("hessian_quad", 0.5 * d2, method)
    tail_l, tail_r = _exterior_hessian_tails(grid, s)
    exterior = (u - u[0]) * tail_l + (u - u[-1]) * tail_r
    return ws.kernel.c_plus * (u * ws.row_sum(method) - conv - moment1 - moment2 + exterior)


def riesz_second_derivative(rho: GridDensity, cfg: RieszConfig) -> np.ndarray:
    """Second derivative of the Riesz potential; the negative of
    frac_laplacian on the same input. Intended for diagnostics on smooth
    densities; for s >= 1/2 the kernel moment argument needs extra smoothness.
    """
    if cfg.s >= 0.5:
        warnings.warn(
            "riesz_second_derivative at s >= 1/2 requires smooth input "
            "(Holder differences alone no longer integrate the kernel)",
            stacklevel=2,
        )
    return -frac_laplacian(rho.values, rho.grid, cfg.s, cfg.method)


def neg_sobolev_norm(u: np.ndarray, grid: Grid, s: float, method: str = FFT) -> float:
    """Negative-order Sobolev norm: sqrt of the Riesz quadratic form of u.

    For s >= 1/2 the double integral is truncation-sensitive unless u has
    zero mean, which is the intended use (differences of unit-mass densities).
    """
    u = np.asarray(u, dtype=float)
    h = grid.h
    if s >= 0.5:
        mean_free = abs(h * float(np.sum(u)))
        if mean_free > 1e-8 * (1.0 + h * float(np.sum(np.abs(u)))):
            warnings.warn("neg_sobolev_norm at s >= 1/2 expects a zero-mass input", stacklevel=2)
    ws = workspace(grid, s)
    val = h * float(np.sum(u * ws.potential(u, method)))
    norm1 = h * float(np.sum(np.abs(u)))
    kscale = max(1.0, abs(ws.kernel.c))
    if val < -1e-8 * norm1**2 * kscale:
        raise NegativeBeyondTolerance(
            f"Riesz quadratic form came out {val!r} (scale {norm1**2 * kscale!r})"
        )
    return float(np.sqrt(max(val, 0.0)))


def hdot_normalization(r: float) -> float:
    """Constant making the pair-difference form equal the Fourier-side
    seminorm integral |xi|^{2r} |u^(xi)|^2 dxi (unitary transform)."""
    return float(4.0**r * r * gamma(0.5 + r) / (2.0 * np.sqrt(np.pi) * gamma(1.0 - r)))


def hdot_seminorm(u: np.ndarray, grid: Grid, r: float, method: str = FFT) -> float:
    """Homogeneous Sobolev seminorm of positive order r in (0, 1/2).

    Double-sum over cell pairs with exact inner-cell kernel integrals; each
    diagonal cell contributes its piecewise-linear model exactly.
    """
    if not 0.0 < r < 0.5:
        raise OutOfRange(f"r must be in (0, 1/2), got {r}")
    u = np.asarray(u, dtype=float)
    n, h = grid.n, grid.h
    _, z_hi, z_lo = _cell_ends(n, h)

    def primitive(z):
        return -np.sign(z) * _power(z, -2 * r) / (2 * r)

    w = primitive(z_hi) - primitive(z_lo)
    w[n - 1] = 0.0
    row_sum = toeplitz_apply(w, np.ones(n), method)
    conv_u = toeplitz_apply(w, u, method)
    conv_u2 = toeplitz_apply(w, u * u, method)
    pair = h * float(np.sum(u * u * row_sum - 2.0 * u * conv_u + conv_u2))
    slope = np.gradient(u, h)
    diag = float(np.sum(slope**2)) * 2.0 * h ** (3 - 2 * r) / ((2 - 2 * r) * (3 - 2 * r))
    # pairs with one point beyond the grid (both orderings), u zero outside
    x = grid.centers
    ext = (np.abs(x - grid.x_max) ** (-2 * r) + np.abs(x - grid.x_min) ** (-2 * r)) / (2 * r)
    exterior = 2.0 * h * float(np.sum(u * u * ext))
    total = hdot_normalization(r) * (pair + diag + exterior)
    return float(np.sqrt(max(total, 0.0)))
