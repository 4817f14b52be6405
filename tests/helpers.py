"""Shared test oracles, deliberately independent of the library code paths.

The library stores real-to-complex half spectra; the oracles here work on
full spectra (mirror entries by flip-and-roll reflection) and cut the result
back to the half. The convolution oracle works on a doubled grid where
products of band-limited inputs cannot alias; paraproduct oracles re-sum
block pairs directly from the multiplier tables. Everything here trades speed
for obviousness. The one exception is picard_reference: it is the
whole-trajectory Picard iteration that the in-place sweep replaced, built
from the library's own operators, so that the two can be compared bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np

from cnlab.fields import SpectralVectorField, TensorField, _lp_norms, phys_values
from cnlab.grid import Grid
from cnlab.semigroup import duhamel_L, nonlinearity


def conj_reflect(grid: Grid, c: np.ndarray) -> np.ndarray:
    """conj(c(-k)) of full spectra, -k by flip-and-roll over the spatial axes."""
    axes = grid.spatial_axes
    return np.conj(np.roll(np.flip(c, axis=axes), 1, axis=axes))


def hermitian_part(grid: Grid, full: np.ndarray) -> np.ndarray:
    """(c(k) + conj(c(-k))) / 2 of full spectra: the spectrum of the real part."""
    return 0.5 * (full + conj_reflect(grid, full))


def half_of(grid: Grid, full: np.ndarray) -> np.ndarray:
    """The real-to-complex half (first res//2 + 1 last-axis entries) of full spectra."""
    return np.ascontiguousarray(full[..., :grid.half_len])


def full_spectrum(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full spectra holding `half`, the other last-axis entries the conjugate
    mirrors conj(c(-k)); Hermitian exactly when the half's self-conjugate
    planes (last index 0 and res/2) are."""
    h = grid.half_len
    full = np.zeros(half.shape[:-1] + (grid.res,), dtype=np.complex128)
    full[..., :h] = half
    full[..., h:] = conj_reflect(grid, full)[..., h:]
    return full


def hermitian_defect(grid: Grid, half: np.ndarray) -> float:
    """max |c(k) - conj(c(-k))| over the full spectra of a half; only the
    self-conjugate planes can contribute."""
    full = full_spectrum(grid, half)
    return float(np.max(np.abs(full - conj_reflect(grid, full))))


def dealias(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """coeffs with every mode outside the 2/3 box (any |k_i| > res/3) zeroed."""
    return np.where(grid.dealias_mask, coeffs, 0.0)


def embed_coeffs(small: Grid, coeffs: np.ndarray, big: Grid) -> np.ndarray:
    """Place a coefficient array onto a finer grid, preserving frequencies."""
    assert big.res >= small.res and big.dim == small.dim
    axes = tuple(range(-small.dim, 0))
    shifted = np.fft.fftshift(coeffs, axes=axes)
    out = np.zeros(coeffs.shape[: -small.dim] + big.shape, dtype=np.complex128)
    off = (big.res - small.res) // 2
    sel = (Ellipsis,) + tuple(slice(off, off + small.res) for _ in range(small.dim))
    out[sel] = shifted
    return np.fft.ifftshift(out, axes=axes)


def restrict_coeffs(big: Grid, coeffs: np.ndarray, small: Grid) -> np.ndarray:
    """Extract the centered small-grid spectrum from a finer grid."""
    axes = tuple(range(-small.dim, 0))
    shifted = np.fft.fftshift(coeffs, axes=axes)
    off = (big.res - small.res) // 2
    sel = (Ellipsis,) + tuple(slice(off, off + small.res) for _ in range(small.dim))
    return np.fft.ifftshift(shifted[sel], axes=axes)


def exact_product_coeffs(grid: Grid, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Alias-free half spectrum of the pointwise product of two scalar fields
    given by their half spectra.

    Zero-pads both full spectra onto a grid of twice the resolution,
    multiplies in physical space there (no wraparound is possible since
    max |k_a + k_b| stays below the doubled Nyquist), and restricts back.
    """
    big = Grid(grid.dim, grid.res * 2)
    pa = embed_coeffs(grid, full_spectrum(grid, ca), big)
    pb = embed_coeffs(grid, full_spectrum(grid, cb), big)
    axes = tuple(range(-grid.dim, 0))
    fa = np.fft.ifftn(pa, axes=axes) * big.npoints
    fb = np.fft.ifftn(pb, axes=axes) * big.npoints
    prod = np.fft.fftn(fa * fb, axes=axes) / big.npoints
    return half_of(grid, restrict_coeffs(big, prod, grid))


def mode_index(grid: Grid, k: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ki % grid.res for ki in k)


def single_mode_vector(grid: Grid, k: tuple[int, ...], component: int,
                       amplitude: float = 1.0) -> SpectralVectorField:
    """amplitude * cos(k . x) in one velocity component, exact two-mode spectrum."""
    coeffs = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[component] = single_mode_scalar(grid, k, amplitude)
    return SpectralVectorField(grid, coeffs)


def single_mode_scalar(grid: Grid, k: tuple[int, ...], amplitude: float = 1.0) -> np.ndarray:
    """Half spectrum of amplitude * cos(k . x)."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[mode_index(grid, k)] = amplitude / 2.0
    coeffs[mode_index(grid, tuple(-ki for ki in k))] += amplitude / 2.0
    return half_of(grid, coeffs)


def axis_tensor(grid: Grid, m: int, row: int = 1, col: int = 0) -> TensorField:
    """cos(m x_1) placed in one tensor entry; the Oseen-probe extremizer."""
    c = np.zeros((grid.dim, grid.dim) + grid.spectral_shape, dtype=np.complex128)
    c[(row, col)] = single_mode_scalar(grid, (m,) + (0,) * (grid.dim - 1))
    return TensorField(grid, c)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / scale)


def picard_reference(u0: SpectralVectorField, cfg) -> tuple[np.ndarray, list[float]]:
    """(trajectory, increments) of the whole-trajectory Picard iteration.

    Every iteration builds a fresh trajectory from duhamel_L and one heat
    table, then takes the increment over both whole trajectories; it stops
    where solver.picard_solve stops.
    """
    grid, tg, nu = u0.grid, cfg.time_grid(), cfg.nu
    nodes = tg.nodes
    decay = np.exp((-nu * nodes[1:]).reshape((-1,) + (1,) * grid.dim) * grid.ksq)
    curr = np.concatenate([u0.coeffs[np.newaxis], u0.coeffs * decay[:, np.newaxis]])

    def increment(prev: np.ndarray, nxt: np.ndarray) -> float:
        sup_w = sup_n = 0.0
        for t, a, b in zip(nodes, prev, nxt):
            sup, n_norm = _lp_norms(grid, phys_values(grid, b - a), (math.inf, float(grid.dim)))
            if not math.isfinite(sup + n_norm):
                return sup + n_norm
            sup_w = max(sup_w, math.sqrt(float(t)) * sup)
            sup_n = max(sup_n, n_norm)
        return sup_w + sup_n

    increments: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.picard.max_iters):
            forcing = (nonlinearity(SpectralVectorField(grid, c), cfg.dealias) for c in curr)
            nxt = duhamel_L(forcing, tg, nu)
            nxt[0] += u0.coeffs
            for row, d in zip(nxt[1:], decay):
                row += u0.coeffs * d
            inc = increment(curr, nxt)
            increments.append(inc)
            curr = nxt
            if inc < cfg.picard.contraction_tol or not math.isfinite(inc) or (
                    len(increments) > 1 and inc > 1e8 * (increments[0] + 1e-300)):
                break
    return curr, increments
