"""Dyadic (Littlewood-Paley) frequency decompositions and Besov norms.

A partition is built from cumulative radial low-pass multipliers L_j(k),
j = 0 .. jmax+1, with dyadic blocks defined by differencing:

    S_0  := L_0            (retains only k = 0 on the integer lattice)
    D_j  := L_{j+1} - L_j  for 0 <= j <= jmax
    S_j  := L_j            (low_pass)

so the identity S_0 + sum_j D_j = L_{jmax+1} = 1 telescopes exactly in both
cutoff modes. jmax = ceil(log2(nyquist * sqrt(dim))) guarantees the top
low-pass is identically 1 on every resolved frequency.

sharp mode:   L_j(k) = 1 if |k| < 2^j else 0, so D_j is the 0/1 indicator of
              the annulus 2^j <= |k| < 2^{j+1}.
smooth mode:  L_j(k) = theta(|k| / 2^j) with the C^inf radial ramp

                  theta(r) = 1                      for r <= 1/2
                           = psi(1-u) / (psi(1-u) + psi(u)),  u = 2r - 1,
                             psi(t) = exp(-1/t)     for 1/2 < r < 1
                           = 0                      for r >= 1

              giving D_j supported in the open annulus 2^{j-1} < |k| < 2^{j+1}
              with consecutive blocks summing to 1 on [2^j, 2^{j+1}].

Besov norms B^{s,inf}_inf take physical-space sup norms of the blocks:
besov_norm(f, s) = max(||S_0 f||_inf, max_j 2^{js} ||D_j f||_inf).
Block index j = -1 addresses S_0. Every Besov number weighs the block sups of
one kernel, _states_block_sups, which takes (n, dim, ..., dim, *spectral_shape)
stacks of states of the partition's grid and raises ValueError on any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import SpectralField, _box_of, _same_grid, _squared_magnitudes
from .grid import Grid


def _smooth_ramp(r: np.ndarray) -> np.ndarray:
    """C^inf cutoff profile: 1 for r <= 1/2, 0 for r >= 1."""
    out = np.ones_like(r)
    out[r >= 1.0] = 0.0
    mid = (r > 0.5) & (r < 1.0)
    u = 2.0 * r[mid] - 1.0
    with np.errstate(over="ignore"):
        psi_u = np.exp(-1.0 / u)
        psi_1mu = np.exp(-1.0 / (1.0 - u))
    out[mid] = psi_1mu / (psi_1mu + psi_u)
    return out


@dataclass(frozen=True)
class DyadicPartition:
    """Cached multiplier tables of one dyadic decomposition of a grid."""

    grid: Grid
    mode: str
    jmax: int
    lowpass: np.ndarray = field(repr=False, compare=False)  # (jmax+2, *spatial)
    delta: np.ndarray = field(repr=False, compare=False)    # (jmax+1, *spatial)
    # radius of the support box (max_i |k_i| over the nonzero entries) of
    # S_0, D_0 .. D_jmax, in that order
    radii: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def s0(self) -> np.ndarray:
        return self.lowpass[0]

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """The multipliers S_0, D_0 .. D_jmax (views)."""
        return (self.s0, *self.delta)


@lru_cache(maxsize=16)
def build_partition(grid: Grid, mode: str = "sharp") -> DyadicPartition:
    """Build (and cache) the dyadic partition for a grid and cutoff mode."""
    if mode not in ("sharp", "smooth"):
        raise ValueError(f"mode must be 'sharp' or 'smooth', got {mode!r}")
    jmax = math.ceil(math.log2(grid.nyquist * math.sqrt(grid.dim)))
    kmod = grid.kmod
    levels = []
    for j in range(jmax + 2):
        r = kmod / float(2**j)
        if mode == "sharp":
            levels.append((r < 1.0).astype(np.float64))
        else:
            levels.append(_smooth_ramp(r))
    lowpass = np.stack(levels)
    delta = lowpass[1:] - lowpass[:-1]
    lowpass.setflags(write=False)
    delta.setflags(write=False)
    radii = tuple(int(grid.kinf[m != 0].max(initial=0)) for m in (lowpass[0], *delta))
    return DyadicPartition(grid, mode, jmax, lowpass, delta, radii)


def _need_field(f, part: DyadicPartition) -> None:
    if not isinstance(f, SpectralField):
        raise ValueError(f"expected a SpectralVectorField or TensorField, got {type(f).__name__}")
    _same_grid(f.grid, part.grid)


def block(f: SpectralField, j: int, part: DyadicPartition) -> SpectralField:
    """Dyadic block D_j f; j = -1 selects the low-frequency piece S_0 f."""
    _need_field(f, part)
    if not -1 <= j <= part.jmax:
        raise ValueError(f"block index {j} outside [-1, {part.jmax}]")
    return f * (part.s0 if j == -1 else part.delta[j])


def low_pass(f: SpectralField, j: int, part: DyadicPartition) -> SpectralField:
    """Cumulative low-pass S_j f for 0 <= j <= jmax+1 (sharp: retains |k| < 2^j)."""
    _need_field(f, part)
    if not 0 <= j <= part.jmax + 1:
        raise ValueError(f"low-pass index {j} outside [0, {part.jmax + 1}]")
    return f * part.lowpass[j]


# Bytes of half spectra per batched block transform: long trajectories go
# through in batches of _batch_len states, which bounds the transient memory
# of their block transforms. The monitor takes its records on the same
# slices, which simulate's routes fill from their solves as the states come.
# 2 MiB batches were the fastest measured: 65 states of 3D/32 took 367-546
# ms, against 522-702 ms at 4 MiB and 476-724 ms at 8 MiB (2-core VM, sizes
# interleaved).
_BATCH_BYTES = 2 << 20


def _batch_len(state_bytes: int) -> int:
    """States per batch: max(1, _BATCH_BYTES // bytes of one state)."""
    return max(1, _BATCH_BYTES // state_bytes)


def besov_norm(f: SpectralField, s: float, part: DyadicPartition | None = None) -> float:
    """Inhomogeneous Besov norm B^{s,inf}_inf via physical-space block sups.

    Accepts velocity and tensor fields; the pointwise magnitude is Euclidean
    over all component axes. When no partition is supplied the field's grid
    gets the sharp one.
    """
    if part is None and isinstance(f, SpectralField):
        part = build_partition(f.grid, "sharp")
    _need_field(f, part)
    return float(besov_norm_states(f.coeffs[np.newaxis], s, part)[0])


def besov_norm_states(coeffs: np.ndarray, s: float, part: DyadicPartition) -> np.ndarray:
    """Besov norms of an (n, dim, ..., dim, *spectral_shape) stack of states of
    the partition's grid such as Trajectory.coeffs (_states_block_sups)."""
    return _weighted_sups(_states_block_sups(coeffs, part), s)


def _states_block_sups(coeffs: np.ndarray, part: DyadicPartition) -> np.ndarray:
    """The one block-sup kernel: the (n, jmax+2) sups (column 0 S_0, column
    1+j D_j) of an (n, dim, ..., dim, *spectral_shape) stack of states of the
    partition's grid, with zero or more component axes; other shapes raise
    ValueError. The stack goes through in slices (views) of _BATCH_BYTES. A
    block is transformed, over a slice's states and components, only where
    the slice's support meets its multiplier's (else its sup is exactly 0),
    on the smaller of the multiplier's box (part.radii) and the slice's
    support box (Grid.kinf over its nonzero entries); a slice with a
    non-finite coefficient on the whole half for every block, since inf * 0
    is nan. Sups are finite for every finite state (_squared_magnitudes).
    """
    grid, dim = part.grid, part.grid.dim
    if (coeffs.ndim <= dim or coeffs.shape[-dim:] != grid.spectral_shape
            or set(coeffs.shape[1:-dim]) - {dim}):
        raise ValueError(f"stack shape {coeffs.shape} does not hold states of {grid}: "
                         f"expected (n, {dim}, ..., {dim}, *{grid.spectral_shape})")
    flat = coeffs.reshape((len(coeffs), math.prod(coeffs.shape[1:-dim])) + grid.spectral_shape)
    out = np.zeros((len(flat), part.jmax + 2))
    per = _batch_len(flat.itemsize * math.prod(flat.shape[1:]))
    for i in range(0, len(flat), per):
        batch = flat[i:i + per]
        occupied = np.any(batch != 0, axis=(0, 1))
        finite = np.all(np.isfinite(batch))
        support = int(grid.kinf[occupied].max(initial=0))
        for col, (mult, reach) in enumerate(zip(part.blocks, part.radii)):
            if finite and not np.any(occupied[mult != 0]):
                continue
            radius = min(reach, support) if finite else grid.nyquist
            blocks = _box_of(grid, batch, radius, mult)
            out[i:i + per, col] = _squared_magnitudes(grid, blocks, radius)[2]
    return out


def _weighted_sups(sups: np.ndarray, s: float) -> np.ndarray:
    """B^{s,inf}_inf norms from (..., jmax+2) block sups: the max of the S_0
    sup and 2^{js} times the D_j sups."""
    weights = np.concatenate([[1.0], np.power(2.0, s * np.arange(sups.shape[-1] - 1))])
    return np.max(sups * weights, axis=-1)

