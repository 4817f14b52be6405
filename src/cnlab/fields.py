"""Vector/tensor fields on the torus represented by full complex spectra.

Fields are stored spectrally as complex128 arrays with leading component axes:
(dim, *spatial) for velocity fields, (dim, dim, *spatial) for rank-2 tensors.
Both derive from SpectralField, which holds the shape check, the dtype
coercion, copying and the arithmetic. Real-valuedness corresponds to
Hermitian symmetry c(-k) = conj(c(k)); the velocity convention downstream is
mean-zero (c(0) = 0 per component), upheld by the profile builders and
solvers rather than enforced at construction (tests use constant fields for
quadrature checks).

Physical values are real, so the transform pair works on the real-to-complex
half of the spectrum (the first res//2 + 1 entries of the last axis):
phys_values is an inverse real transform of that half, and spectral_values a
forward real transform followed by one Hermitian completion, so the full
spectra it returns are exactly Hermitian. These two are the only FFT call
sites; products, divergences and projections that feed a physical evaluation
run on the half and complete once at the end.

_lp_norms below is the package's only Lebesgue norm: lp_norm, linf, energy,
the monitor columns, the Picard increment and the divergence guard all use
it. It rescales where squares or p-th powers would leave the float range
(by a power of two once the largest magnitude is beyond about 2^+-500), so
no finite norm overflows or underflows; ordinary values take the plain
arithmetic. Only the Kato ladder reads the unrescaled magnitude itself.

All operations here are pure: inputs are never mutated and returned fields own
fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .grid import Grid


@dataclass
class SpectralField:
    """Plane-wave coefficients with `rank` leading component axes of length dim.

    Copies and arithmetic return the caller's own type.
    """

    grid: Grid
    coeffs: np.ndarray
    rank: ClassVar[int]

    def __post_init__(self) -> None:
        expect = (self.grid.dim,) * self.rank + self.grid.shape
        if self.coeffs.shape != expect:
            raise ValueError(f"coeff shape {self.coeffs.shape} != {expect}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    def copy(self) -> SpectralField:
        return type(self)(self.grid, self.coeffs.copy())

    def __add__(self, other: SpectralField) -> SpectralField:
        _same_grid(self.grid, other.grid)
        return type(self)(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: SpectralField) -> SpectralField:
        _same_grid(self.grid, other.grid)
        return type(self)(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, factor: float | np.ndarray) -> SpectralField:
        """Scale by a number, or by a Fourier multiplier over the spatial axes."""
        return type(self)(self.grid, self.coeffs * factor)

    __rmul__ = __mul__

    def __neg__(self) -> SpectralField:
        return type(self)(self.grid, -self.coeffs)


class SpectralVectorField(SpectralField):
    """Velocity field as plane-wave coefficients, shape (dim, res, ..., res)."""

    rank = 1


class TensorField(SpectralField):
    """Rank-2 tensor field, coefficients shaped (dim, dim, res, ..., res)."""

    rank = 2


def _same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


# ---------------------------------------------------------------------------
# the transform pair (leading axes arbitrary, spatial axes trailing)
# ---------------------------------------------------------------------------

def phys_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Physical samples of a Hermitian spectrum, by an inverse real transform.

    Only the first grid.half_len entries of the last axis are read, so a full
    spectrum and its real-to-complex half give the same samples. A spectrum
    that is not Hermitian is evaluated through its half alone.
    """
    return np.fft.irfftn(coeffs[..., :grid.half_len], s=grid.shape,
                         axes=grid.spatial_axes, norm="forward")


def _half_spectrum(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Real-to-complex half of the plane-wave coefficients of real samples."""
    if np.iscomplexobj(samples):
        raise TypeError("spectral_values needs real samples, got a complex array")
    return np.fft.rfftn(samples, axes=grid.spatial_axes, norm="forward")


def _complete(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full spectrum of a real-to-complex half, Hermitian by construction.

    The negative last-axis frequencies are the conjugate mirror entries; the
    two self-conjugate planes (last index 0 and res/2) are replaced by their
    Hermitian parts, which is what the inverse real transform reads there.
    """
    nyq = grid.nyquist
    refl = grid.reflect_index
    full = np.empty(half.shape[:-1] + (grid.res,), dtype=np.complex128)
    full[..., 1:nyq] = half[..., 1:nyq]
    np.conjugate(half[..., nyq - 1:0:-1][refl], out=full[..., nyq + 1:])
    edges = half[..., ::nyq]
    full[..., ::nyq] = 0.5 * (edges + np.conj(edges[refl]))
    return full


def spectral_values(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Forward transform of real physical samples to an exactly Hermitian spectrum."""
    return _complete(grid, _half_spectrum(grid, samples))


def to_physical(f: SpectralVectorField) -> np.ndarray:
    """Physical sample array of shape (dim, res, ..., res)."""
    return phys_values(f.grid, f.coeffs)


def to_spectral(samples: np.ndarray, grid: Grid | None = None) -> SpectralVectorField:
    """Build a field from real physical samples of shape (dim, res, ..., res).

    Exact inverse of to_physical up to roundoff. The grid is inferred from the
    sample shape when not supplied.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if grid is None:
        dim = samples.shape[0]
        grid = Grid(dim, samples.shape[-1])
    expect = (grid.dim,) + grid.shape
    if samples.shape != expect:
        raise ValueError(f"sample shape {samples.shape} != {expect}")
    return SpectralVectorField(grid, spectral_values(grid, samples))


def zero_field(grid: Grid) -> SpectralVectorField:
    return SpectralVectorField(grid, np.zeros((grid.dim,) + grid.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def derivative(f: SpectralVectorField, axis: int) -> SpectralVectorField:
    """Partial derivative along a spatial axis: multiply by i*k_axis."""
    if not 0 <= axis < f.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.grid.dim}")
    mult = 1j * f.grid.k_deriv[axis]
    return SpectralVectorField(f.grid, f.coeffs * mult)


def divergence_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Spectral divergence sum_a i*k_a c_a(k) of a (dim, *spatial) stack.

    Works on full spectra and on their real-to-complex halves alike.
    """
    return 1j * np.sum(grid.k_deriv[..., :coeffs.shape[-1]] * coeffs, axis=0)


def divergence_sup(f: SpectralVectorField) -> float:
    """Physical-space sup of |div f|."""
    div = divergence_coeffs(f.grid, f.coeffs[..., :f.grid.half_len])
    return float(np.max(np.abs(phys_values(f.grid, div))))


def project_mean_zero(f: SpectralVectorField) -> SpectralVectorField:
    """Zero the k=0 coefficient of every component."""
    c = f.coeffs.copy()
    c[(slice(None),) + (0,) * f.grid.dim] = 0.0
    return SpectralVectorField(f.grid, c)


# ---------------------------------------------------------------------------
# Hermitian symmetry helpers
# ---------------------------------------------------------------------------

def _conj_reflect(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """conj(c(-k)) with -k taken modulo the grid, spatial axes trailing."""
    out = np.conj(coeffs)
    for ax in grid.spatial_axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def hermitianize(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian (real-field) part of coefficient space."""
    return 0.5 * (coeffs + _conj_reflect(grid, coeffs))


def hermitian_defect(f: SpectralVectorField) -> float:
    """Max |c(k) - conj(c(-k))|; zero for real-valued fields."""
    return float(np.max(np.abs(f.coeffs - _conj_reflect(f.grid, f.coeffs))))


# ---------------------------------------------------------------------------
# products and norms
# ---------------------------------------------------------------------------

def dealias(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Zero every mode with any |k_i| > res/3 (2/3 rule).

    Works on full spectra and on their real-to-complex halves alike.
    """
    return coeffs * grid.dealias_mask[..., :coeffs.shape[-1]]


def _tensor_half(grid: Grid, pu: np.ndarray, pv: np.ndarray, use_dealias: bool) -> np.ndarray:
    """Real-to-complex half of the (dealiased) pointwise product pu (x) pv.

    pu and pv are (dim, *spatial) physical samples; passing the same array
    twice reuses each symmetric product.
    """
    d = grid.dim
    mask = grid.dealias_mask[..., :grid.half_len]
    out = np.empty((d, d) + mask.shape, dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            if pv is pu and b < a:
                out[a, b] = out[b, a]
                continue
            prod = _half_spectrum(grid, pu[a] * pv[b])
            if use_dealias:
                np.multiply(prod, mask, out=out[a, b])
            else:
                out[a, b] = prod
    return out


def pointwise_tensor(u: SpectralVectorField, v: SpectralVectorField,
                     use_dealias: bool = True) -> TensorField:
    """Dealiased pointwise tensor product u (x) v.

    Inputs are truncated at |k_i| > res/3, multiplied in physical space, and
    the product spectrum is truncated the same way; surviving modes then carry
    the exact convolution of the truncated inputs (Orszag's 2/3 rule). Passing
    the same object twice reuses each symmetric product, so the result of
    pointwise_tensor(u, u) is symmetric to the bit.
    """
    _same_grid(u.grid, v.grid)
    grid = u.grid

    def samples(f: SpectralVectorField) -> np.ndarray:
        half = f.coeffs[..., :grid.half_len]
        return phys_values(grid, dealias(grid, half) if use_dealias else half)

    pu = samples(u)
    pv = pu if v is u else samples(v)
    return TensorField(grid, _complete(grid, _tensor_half(grid, pu, pv, use_dealias)))


def _plain_range(top: float, q: float) -> bool:
    """Whether top**q is a float within [2^-1000, 2^1000], or top is zero or
    not finite (where no rescaling helps)."""
    if top == 0.0 or not math.isfinite(top):
        return True
    exp = math.frexp(top)[1]  # top in [2^(exp-1), 2^exp)
    return q * exp <= 1000 and q * (exp - 1) >= -1000


def _plain_magnitude(grid: Grid, phys: np.ndarray) -> np.ndarray:
    """sqrt of the summed squares over all component axes; inf where a square overflows."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.sum(phys.reshape((-1,) + grid.shape) ** 2, axis=0))


def _lp_norms(grid: Grid, phys: np.ndarray, ps: Sequence[float]) -> list[float]:
    """L^p norms, one per p in ps, of the pointwise Euclidean magnitude of
    physical samples over all component axes.

    Finite p uses the uniform quadrature ((2*pi/res)^dim * sum_x |f(x)|^p)^(1/p);
    p = inf is the grid max. Samples whose squares would overflow or
    underflow (largest magnitude outside [2^-500, 2^500)) are rescaled by a
    power of two first, and p-th powers that would leave the float range are
    taken of mag / max(mag), so no finite norm overflows or underflows.
    """
    mag = _plain_magnitude(grid, phys)
    top = float(mag.max())
    if not 2.0**-500 <= top < 2.0**500:
        peak = float(np.abs(phys).max())
        if peak != 0.0 and math.isfinite(peak):
            scale = math.ldexp(1.0, -math.frexp(peak)[1])
            mag = _plain_magnitude(grid, phys * scale) / scale
            top = float(mag.max())
    norms = []
    for p in ps:
        if math.isinf(p):
            norms.append(top)
        elif _plain_range(top, p):
            norms.append(float((grid.cell_volume * np.sum(mag**p)) ** (1.0 / p)))
        else:
            norms.append(top * float((grid.cell_volume * np.sum((mag / top) ** p)) ** (1.0 / p)))
    return norms


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm with |f(x)| the Euclidean (Frobenius) length of the value.

    Finite p uses the uniform quadrature ((2*pi/res)^dim * sum_x |f(x)|^p)^(1/p);
    p = inf is the grid max.
    """
    if p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    return _lp_norms(f.grid, phys_values(f.grid, f.coeffs), (p,))[0]


def linf(f: SpectralField) -> float:
    return lp_norm(f, math.inf)


def energy(f: SpectralVectorField) -> float:
    """Kinetic energy 0.5 * ||f||_2^2 (inf when the square overflows)."""
    l2 = lp_norm(f, 2.0)
    return 0.5 * l2 * l2


# ---------------------------------------------------------------------------
# random fields (seeded; used by tests and the verification suite)
# ---------------------------------------------------------------------------

def random_field(grid: Grid, rng: np.random.Generator, slope: float = 2.0,
                 band: tuple[int, int] | None = None, ncomp: int | None = None,
                 normalize: bool = True) -> np.ndarray:
    """Random Hermitian mean-zero coefficient stack of shape (ncomp, *spatial).

    Gaussian coefficients shaped by |k|^(-slope) on the annulus band[0] <= |k|
    <= band[1] (default [1, res/3]). Normalized to unit sup norm so that norm
    ratios in the verification suite have denominators bounded away from zero.
    """
    d = grid.dim
    ncomp = d if ncomp is None else ncomp
    if band is None:
        band = (1, max(2, grid.res // 3))
    kmod = grid.kmod
    shell = (kmod >= band[0]) & (kmod <= band[1]) & (kmod <= grid.nyquist - 1)
    amp = np.zeros(grid.shape)
    amp[shell] = np.power(np.maximum(kmod[shell], 1.0), -slope)

    shape = (ncomp,) + grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= amp
    c = hermitianize(grid, c)
    c[(slice(None),) + (0,) * d] = 0.0
    if normalize:
        peak = _lp_norms(grid, phys_values(grid, c), (math.inf,))[0]
        if peak > 0:
            c /= peak
    return c


def random_vector_field(grid: Grid, rng: np.random.Generator, slope: float = 2.0,
                        band: tuple[int, int] | None = None) -> SpectralVectorField:
    return SpectralVectorField(grid, random_field(grid, rng, slope, band))


def random_tensor_field(grid: Grid, rng: np.random.Generator, slope: float = 2.0,
                        band: tuple[int, int] | None = None) -> TensorField:
    d = grid.dim
    c = random_field(grid, rng, slope, band, ncomp=d * d)
    return TensorField(grid, c.reshape((d, d) + grid.shape))
