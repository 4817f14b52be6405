"""Vector/tensor fields on the torus, stored as real-to-complex half spectra.

Fields are real, so their spectra are Hermitian, c(-k) = conj(c(k)), and the
first res//2 + 1 entries of the last axis determine the rest. That half is
the only layout: coefficients are complex128 arrays shaped
(dim, *spectral_shape) for velocity fields and (dim, dim, *spectral_shape)
for rank-2 tensors (Grid.spectral_shape = (res, ..., res, res//2 + 1)). Both
derive from SpectralField, which holds the shape check, the dtype coercion,
copying and the arithmetic. The velocity convention downstream is mean-zero
(c(0) = 0 per component), upheld by the profile builders and solvers rather
than enforced at construction (tests use constant fields for quadrature
checks).

The package's FFTs and the box layout are here. phys_values and
spectral_values are the real transform pair of a whole half.
_box_phys_values and _box_spectrum are the band-limited pair on the box
max_i |k_i| <= r, in the compact layout that _box_of gathers a half into
(times a multiplier, if given) and _from_box scatters back; no module but
grid indexes a box. The pair skips the transform lines the box leaves empty;
the transform of an all-zero line is exactly zero, so it gives the full
pair's values cut to the box, and once r >= res/2 it is the full pair. Every
dealiased product (_products, behind pointwise_tensor, the Navier-Stokes
right-hand side and the paraproducts) runs on it with the 2/3 box
r = res // 3, and so does every Besov block.

On the two self-conjugate planes of the half (last index 0 and res/2) a
half holds both c(k) and c(-k); spectral_values and _from_box replace those
planes by their Hermitian part, which is what the inverse real transform
reads there.

_lp_norms below is the package's only Lebesgue norm: lp_norm, linf, energy,
the monitor columns, the Picard increment and the exact divergence guard all
use it. It rescales where squares or p-th powers would leave the float range
(by a power of two once the largest magnitude is beyond about 2^+-500), so
no finite norm overflows or underflows; ordinary values take the plain
arithmetic. Only the Kato ladder reads the unrescaled magnitude itself. The
exact divergence guard runs only where the transform-free _divergence_bound
cannot pass the input.

All operations here are pure: inputs are never mutated and returned fields own
fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

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
        expect = (self.grid.dim,) * self.rank + self.grid.spectral_shape
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
    """Velocity field as plane-wave coefficients, shape (dim, *spectral_shape)."""

    rank = 1


class TensorField(SpectralField):
    """Rank-2 tensor field, coefficients shaped (dim, dim, *spectral_shape)."""

    rank = 2


def _same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


# ---------------------------------------------------------------------------
# the transform pair (leading axes arbitrary, spatial axes trailing)
# ---------------------------------------------------------------------------

# numpy's transforms as this module found them at import
_NUMPY_TRANSFORMS = {name: getattr(np.fft, name) for name in
                     ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")}


def _transforms_rebound() -> bool:
    """Whether something has rebound numpy's transforms since import, as a
    profiler does that wraps them to attribute each transform to its caller."""
    return any(getattr(np.fft, name) is not fn for name, fn in _NUMPY_TRANSFORMS.items())


def phys_values(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Physical samples of a (..., *spectral_shape) stack, by an inverse real transform."""
    return np.fft.irfftn(coeffs, s=grid.shape, axes=grid.spatial_axes, norm="forward")


def _reflect(grid: Grid, a: np.ndarray) -> np.ndarray:
    """a (..., res, ..., res, m) read at -k on all spatial axes but the last."""
    for axis in range(-grid.dim, -1):
        a = np.take(a, grid.reflect_index, axis=axis)
    return a


def _hermitian_planes(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Replace the self-conjugate planes (last index 0 and res/2) of a half
    spectrum by their Hermitian parts, in place, and return it.

    On those planes the half holds both c(k) and its mirror c(-k).
    """
    edges = half[..., ::grid.nyquist]
    edges[...] = 0.5 * (edges + np.conj(_reflect(grid, edges)))
    return half


def spectral_values(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Half spectrum of real physical samples, Hermitian on the self-conjugate planes."""
    if np.iscomplexobj(samples):
        raise TypeError("spectral_values needs real samples, got a complex array")
    half = np.fft.rfftn(samples, axes=grid.spatial_axes, norm="forward")
    return _hermitian_planes(grid, half)


# ---------------------------------------------------------------------------
# the band-limited pair: transforms of spectra held only on the box
# max_i |k_i| <= radius, in the compact layout Grid.box_index gathers
# ---------------------------------------------------------------------------

def _box_spread(grid: Grid, a: np.ndarray, axis: int, radius: int) -> np.ndarray:
    """a with its 2r+1 box rows along axis put back on their res rows, zeros between."""
    shape = list(a.shape)
    shape[axis] = grid.res
    out = np.zeros(shape, dtype=a.dtype)
    out[(Ellipsis, grid.box_rows(radius)) + (slice(None),) * (-1 - axis)] = a
    return out


def _box_phys_values(grid: Grid, box: np.ndarray, radius: int) -> np.ndarray:
    """Physical samples of a (..., *box shape) stack: irfftn of the half
    spectrum that is box inside the box and zero outside.

    Each complex stage (axis -dim first, as irfftn runs them) transforms only
    the lines the box can fill; the transform of an all-zero line is exactly
    zero, so the samples are irfftn's. Once radius >= res/2 the box is the
    whole half and this is phys_values.
    """
    if radius >= grid.nyquist:
        return phys_values(grid, box)
    a = box
    for axis in range(-grid.dim, -1):
        a = np.fft.ifft(_box_spread(grid, a, axis, radius), axis=axis, norm="forward")
    return np.fft.irfft(a, n=grid.res, axis=-1, norm="forward")


def _box_spectrum(grid: Grid, samples: np.ndarray, radius: int) -> np.ndarray:
    """The box of rfftn(samples) in the compact layout, self-conjugate planes
    as the transform gives them.

    rfft on the last axis, then the complex stages on axes -2 .. -dim (in
    rfftn's order), each run only on the lines that reach the box and cut to
    the box rows after it. Once radius >= res/2 this is rfftn.
    """
    if radius >= grid.nyquist:
        return np.fft.rfftn(samples, axes=grid.spatial_axes, norm="forward")
    rows = grid.box_rows(radius)
    a = np.fft.rfft(samples, axis=-1, norm="forward")[..., :radius + 1]
    for axis in range(-2, -grid.dim - 1, -1):
        a = np.fft.fft(a, axis=axis, norm="forward").take(rows, axis=axis)
    return a


def _box_of(grid: Grid, half: np.ndarray, radius: int,
            mult: np.ndarray | None = None) -> np.ndarray:
    """The box of a (..., *spectral_shape) stack in the compact layout, times
    the box of mult (broadcast against it) when given. Without mult it is a
    view once radius >= res/2."""
    box = (Ellipsis,) + grid.box_index(radius)
    return half[box] if mult is None else half[box] * mult[box]


def _from_box(grid: Grid, box: np.ndarray, radius: int) -> np.ndarray:
    """The half spectrum that is box inside the box and zero outside, its
    self-conjugate planes made Hermitian (in box itself once radius >= res/2)."""
    if radius >= grid.nyquist:
        return _hermitian_planes(grid, box)
    half = np.zeros(box.shape[:-grid.dim] + grid.spectral_shape, dtype=np.complex128)
    half[(Ellipsis,) + grid.box_index(radius)] = box
    return _hermitian_planes(grid, half)


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
    return SpectralVectorField(grid, np.zeros((grid.dim,) + grid.spectral_shape,
                                              dtype=np.complex128))


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
    """Spectral divergence sum_a i*k_a c_a(k) of a (dim, *spectral_shape) stack."""
    k = grid.k_deriv
    div = k[0] * coeffs[0]
    for a in range(1, grid.dim):
        div += k[a] * coeffs[a]
    div *= 1j
    return div


def divergence_sup(f: SpectralVectorField) -> float:
    """Physical-space sup of |div f|."""
    return float(np.max(np.abs(phys_values(f.grid, divergence_coeffs(f.grid, f.coeffs)))))


# A transform-free bound decides only below its threshold by this factor, far
# above the transform roundoff relative to the coefficient sum.
_BOUND_MARGIN = 1.0 + 1e-9


def _divergence_bound(grid: Grid, coeffs: np.ndarray) -> float:
    """Bound sum_k |k . c(k)| over the full spectrum on sup |div f|, with no
    transform; a bound for non-Hermitian self-conjugate planes too, and nan or
    inf for non-finite or overflow-scale input."""
    return float(np.vdot(grid.mirror_weights, np.abs(divergence_coeffs(grid, coeffs))))


def project_mean_zero(f: SpectralVectorField) -> SpectralVectorField:
    """Zero the k=0 coefficient of every component."""
    c = f.coeffs.copy()
    c[(slice(None),) + (0,) * f.grid.dim] = 0.0
    return SpectralVectorField(f.grid, c)


# ---------------------------------------------------------------------------
# products and norms
# ---------------------------------------------------------------------------

def _products(grid: Grid, pu: np.ndarray, pv: np.ndarray,
              radius: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (a, b, box of the half spectrum of pu[a] * pv[b]) over the
    component pairs in row-major order, on the box max_i |k_i| <= radius
    (the whole half once radius >= res/2), self-conjugate planes left as the
    transform gives them.

    pu and pv are (dim, *spatial) physical samples; passing the same array
    twice yields only the pairs b >= a of the symmetric product.
    """
    for a in range(grid.dim):
        for b in range(a if pv is pu else 0, grid.dim):
            yield a, b, _box_spectrum(grid, pu[a] * pv[b], radius)


def _product_radius(grid: Grid, use_dealias: bool) -> int:
    """The box a product keeps: the 2/3 box, or the whole half."""
    return grid.dealias_radius if use_dealias else grid.nyquist


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
    radius = _product_radius(grid, use_dealias)
    kept = _box_of(grid, u.coeffs, radius)
    pu = _box_phys_values(grid, kept, radius)
    pv = pu if v is u else _box_phys_values(grid, _box_of(grid, v.coeffs, radius), radius)
    out = np.empty((grid.dim,) + kept.shape, dtype=np.complex128)
    for a, b, prod in _products(grid, pu, pv, radius):
        out[a, b] = prod
        if pv is pu:
            out[b, a] = prod
    return TensorField(grid, _from_box(grid, out, radius))


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
            e = math.frexp(peak)[1]
            mag = np.ldexp(_plain_magnitude(grid, np.ldexp(phys, -e)), e)
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
    if not p >= 1:
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
    """Random mean-zero half spectrum of shape (ncomp, *spectral_shape).

    Gaussian coefficients shaped by |k|^(-slope) on the annulus band[0] <= |k|
    <= band[1] (default [1, res/3]). Normalized to unit sup norm so that norm
    ratios in the verification suite have denominators bounded away from zero.
    The normal draw covers the full grid, so the random stream consumed is
    that of a full-spectrum draw; the result is the half of its Hermitian
    part (c(k) + conj(c(-k))) / 2.
    """
    d = grid.dim
    ncomp = d if ncomp is None else ncomp
    if band is None:
        band = (1, max(2, grid.res // 3))
    kmod = grid.kmod
    shell = (kmod >= band[0]) & (kmod <= band[1]) & (kmod <= grid.nyquist - 1)
    amp = np.zeros(grid.spectral_shape)
    amp[shell] = np.power(np.maximum(kmod[shell], 1.0), -slope)

    shape = (ncomp,) + grid.shape
    draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # c(-k) for k in the half; |k| is even in k, so amp(-k) = amp(k)
    mirror = _reflect(grid, draw[..., (-np.arange(grid.half_len)) % grid.res])
    c = 0.5 * (draw[..., :grid.half_len] * amp + np.conj(mirror * amp))
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
    return TensorField(grid, c.reshape((d, d) + grid.spectral_shape))
