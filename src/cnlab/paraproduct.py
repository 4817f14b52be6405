"""Low-high paraproducts and the two-term Bony-style product split.

The weakened paraproduct with offset i in {0, 1} pairs cumulative low-pass
pieces of the first factor with dyadic blocks of the second:

    para_i(phi, psi) = sum_{k=0}^{jmax} S_{k+i}(phi) * D_k(psi),

every product dealiased exactly as in pointwise_tensor. _paraproducts is the
one place it is formed: for stacks of factors and any offsets, from one
low-pass run and one set of high blocks on the 2/3 box. It raises ValueError
unless both stacks hold scalar spectra of the partition's grid. The telescoping
identity (for mean-zero factors, so S_0 phi = 0)

    phi * psi = sum_k S_k(phi) D_k(psi) + sum_k S_{k+1}(psi) D_k(phi)

is exact with sharp cutoffs because the dealias projector commutes with the
block multipliers; bony_split exploits it entrywise on tensors so that the two
returned parts reassemble the dealiased pointwise product to roundoff.
"""

from __future__ import annotations

import numpy as np

from .fields import (SpectralVectorField, TensorField, _box_of,
                     _box_phys_values, _box_spectrum, _from_box)
from .littlewood_paley import DyadicPartition


def _paraproducts(offsets: tuple[int, ...], lows: np.ndarray, highs: np.ndarray,
                  part: DyadicPartition) -> list[np.ndarray]:
    """For each offset i, in order, the (m, n, *spectral_shape) spectrum whose
    entry (a, b) is para_i(lows[a], highs[b]), for (m, *spectral_shape) lows
    and (n, *spectral_shape) highs of the partition's grid, else ValueError.

    One low-pass run of lows covers every offset and one set of high blocks
    of highs serves them all; only the 2/3 box of either is read.
    """
    for i in offsets:
        if i not in (0, 1):
            raise ValueError(f"paraproduct offset must be 0 or 1, got {i}")
    grid, span, first = part.grid, part.jmax + 1, min(offsets)
    if not lows.shape[1:] == highs.shape[1:] == grid.spectral_shape:
        raise ValueError(f"factor stacks of shapes {lows.shape} and {highs.shape} do not hold "
                         f"spectra of the partition grid {grid}")
    radius = grid.dealias_radius

    def blocks(coeffs: np.ndarray, mults: np.ndarray) -> np.ndarray:  # (J, m, *spatial)
        return _box_phys_values(grid, _box_of(grid, coeffs, radius, mults[:, np.newaxis]), radius)

    low = blocks(lows, part.lowpass[first:max(offsets) + span])
    high = blocks(highs, part.delta)
    accs = (np.einsum("ka...,kb...->ab...", low[i - first:i - first + span], high) for i in offsets)
    return [_from_box(grid, _box_spectrum(grid, acc, radius), radius) for acc in accs]


def scalar_paraproduct(i: int, phi: np.ndarray, psi: np.ndarray,
                       part: DyadicPartition) -> np.ndarray:
    """para_i of two scalar coefficient arrays on the partition's grid."""
    phi, psi = (np.asarray(a, dtype=np.complex128) for a in (phi, psi))
    return _paraproducts((i,), phi[np.newaxis], psi[np.newaxis], part)[0][0, 0]


def tensor_paraproduct(i: int, f: SpectralVectorField, g: SpectralVectorField,
                       part: DyadicPartition) -> TensorField:
    """Entrywise paraproduct tensor: entry (a, b) = para_i(f_a, g_b)."""
    return TensorField(f.grid, _paraproducts((i,), f.coeffs, g.coeffs, part)[0])


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
