"""Low-high paraproducts and the two-term Bony-style product split.

The weakened paraproduct with offset i in {0, 1} pairs cumulative low-pass
pieces of the first factor with dyadic blocks of the second:

    para_i(phi, psi) = sum_{k=0}^{jmax} S_{k+i}(phi) * D_k(psi),

every product dealiased exactly as in pointwise_tensor. The telescoping
identity (for mean-zero factors, so S_0 phi = 0)

    phi * psi = sum_k S_k(phi) D_k(psi) + sum_k S_{k+1}(psi) D_k(phi)

is exact with sharp cutoffs because the dealias projector commutes with the
block multipliers; bony_split exploits it entrywise on tensors so that the two
returned parts reassemble the dealiased pointwise product to roundoff.
"""

from __future__ import annotations

import numpy as np

from .fields import (SpectralVectorField, TensorField, _box_of,
                     _box_phys_values, _box_spectrum, _from_box, _same_grid)
from .grid import Grid
from .littlewood_paley import DyadicPartition


def _check_offset(i: int) -> None:
    if i not in (0, 1):
        raise ValueError(f"paraproduct offset must be 0 or 1, got {i}")


def _blocks_phys(grid: Grid, coeffs: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Physical values of each multiplier in mults applied to dealiased coeffs.

    coeffs: (..., *spectral_shape); mults: (J, *spectral_shape), such as
    part.delta or the low-pass run part.lowpass[i : jmax + 1 + i]; result:
    (J, ..., *spatial). Only the 2/3 box of coeffs and mults is read.
    """
    radius = grid.dealias_radius
    lead = (len(mults),) + (1,) * (coeffs.ndim - grid.dim)
    blocks = _box_of(grid, coeffs, radius, mults.reshape(lead + grid.spectral_shape))
    return _box_phys_values(grid, blocks, radius)


def _dealiased_spectrum(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """The half spectrum of samples on the 2/3 box, zero outside it, with
    its self-conjugate planes made Hermitian."""
    radius = grid.dealias_radius
    return _from_box(grid, _box_spectrum(grid, samples, radius), radius)


def scalar_paraproduct(i: int, phi: np.ndarray, psi: np.ndarray,
                       part: DyadicPartition) -> np.ndarray:
    """para_i of two scalar coefficient arrays on the partition's grid."""
    _check_offset(i)
    grid = part.grid
    phi, psi = (np.asarray(a, dtype=np.complex128) for a in (phi, psi))
    low = _blocks_phys(grid, phi, part.lowpass[i:part.jmax + 1 + i])
    high = _blocks_phys(grid, psi, part.delta)
    acc = np.sum(low * high, axis=0)
    return _dealiased_spectrum(grid, acc)


def tensor_paraproduct(i: int, f: SpectralVectorField, g: SpectralVectorField,
                       part: DyadicPartition) -> TensorField:
    """Entrywise paraproduct tensor: entry (a, b) = para_i(f_a, g_b)."""
    return _tensor_paraproducts((i,), f, g, part)[0]


def _tensor_paraproducts(offsets: tuple[int, ...], f: SpectralVectorField,
                         g: SpectralVectorField, part: DyadicPartition) -> list[TensorField]:
    """tensor_paraproduct(i, f, g, part) for each offset i, in order, from one
    low-pass run of f that covers every offset and one set of high blocks of g."""
    for i in offsets:
        _check_offset(i)
    _same_grid(f.grid, g.grid)
    if part.grid != f.grid:
        raise ValueError("partition grid does not match the fields")
    grid, span, first = f.grid, part.jmax + 1, min(offsets)
    low = _blocks_phys(grid, f.coeffs, part.lowpass[first:max(offsets) + span])  # (J+, d, *sp)
    high = _blocks_phys(grid, g.coeffs, part.delta)                               # (J, d, *sp)
    products = []
    for i in offsets:
        acc = np.einsum("ka...,kb...->ab...", low[i - first:i - first + span], high)
        products.append(TensorField(grid, _dealiased_spectrum(grid, acc)))
    return products


def bony_split(h: SpectralVectorField, g: SpectralVectorField,
               part: DyadicPartition) -> tuple[TensorField, TensorField]:
    """Exact two-part split of the dealiased product h (x) g (sharp cutoffs).

    Returns (A, B) with A = tensor_paraproduct(0, h, g) and
    B[a, b] = scalar_paraproduct(1, g_b, h_a), that is tensor_paraproduct(1, g, h)
    with its two component axes swapped; for mean-zero inputs
    A + B = pointwise_tensor(h, g) to roundoff.
    """
    if part.mode != "sharp":
        raise ValueError("bony_split requires a sharp-mode partition")
    a_part = tensor_paraproduct(0, h, g, part)
    b_swapped = tensor_paraproduct(1, g, h, part).coeffs
    return a_part, TensorField(h.grid, b_swapped.swapaxes(0, 1))
