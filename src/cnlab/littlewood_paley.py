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
Block index j = -1 addresses S_0.
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


def _stack_block_sups(stack: np.ndarray, part: DyadicPartition) -> np.ndarray:
    """Per-state block sup norms for a (nstates, ncomp, *spectral_shape) stack.

    Returns (nstates, jmax+2): column 0 is the S_0 sup, column 1+j the D_j sup.
    Transforms are batched per block over states and components. A block is
    transformed only for the states whose spectral support meets the support
    of its multiplier; the others have an all-zero block, whose sup is exactly
    0. The transform runs on the smaller of two boxes (fields._box_phys_values):
    the multiplier's (part.radii) and the batch's support box (Grid.kinf over
    its nonzero entries); outside both the block is zero. A batch with a
    non-finite coefficient is transformed on the whole half, and its
    non-finite states for every block, since inf * 0 is nan. Sups are
    finite for every finite state (fields._squared_magnitudes).
    """
    grid, nstates = part.grid, stack.shape[0]
    out = np.zeros((nstates, part.jmax + 2))
    occupied = np.any(stack != 0, axis=1).reshape(nstates, -1)
    nonfinite = ~np.all(np.isfinite(stack).reshape(nstates, -1), axis=1)
    if nonfinite.any():
        radii = [grid.nyquist] * len(part.radii)
    else:
        support = int(grid.kinf.ravel()[occupied.any(axis=0)].max(initial=0))
        radii = [min(reach, support) for reach in part.radii]
    for col, (mult, radius) in enumerate(zip(part.blocks, radii)):
        rows = nonfinite | np.any(occupied[:, mult.ravel() != 0], axis=1)
        if not rows.any():
            continue
        blocks = _box_of(grid, stack if rows.all() else stack[rows], radius, mult)
        out[rows, col] = _squared_magnitudes(grid, blocks, radius)[2]
    return out


# Bytes of half spectra per batched block transform: long trajectories go
# through in batches, which bounds the transient memory of their block
# transforms. At 2 MiB, simulate --method both on 3D/32 can run one route's
# monitor pass beside the other route's solve and still peak below the
# memory of running them one after the other. 2 MiB batches were also the
# fastest measured: 65 states of 3D/32 took 367-546 ms, against 522-702 ms
# at 4 MiB and 476-724 ms at 8 MiB (2-core VM, sizes interleaved).
_BATCH_BYTES = 2 << 20


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
    """Besov norms of an (n, *component axes, *spectral_shape) stack such as
    Trajectory.coeffs, batched by slicing (views, not copies) at _BATCH_BYTES."""
    return _weighted_sups(_states_block_sups(coeffs, part), s)


def _states_block_sups(coeffs: np.ndarray, part: DyadicPartition) -> np.ndarray:
    """The (n, jmax+2) block sups of _stack_block_sups for an (n, *component
    axes, *spectral_shape) stack, batched at _BATCH_BYTES; any level s of
    besov_norm_states reads them through _weighted_sups."""
    grid = part.grid
    if len(coeffs) == 0:
        return np.zeros((0, part.jmax + 2))
    flat = coeffs.reshape((len(coeffs), -1) + grid.spectral_shape)
    per = max(1, _BATCH_BYTES // flat[0].nbytes)
    return np.concatenate([_stack_block_sups(flat[i:i + per], part)
                           for i in range(0, len(flat), per)])


def _weighted_sups(sups: np.ndarray, s: float) -> np.ndarray:
    """B^{s,inf}_inf norms from (..., jmax+2) block sups: the max of the S_0
    sup and 2^{js} times the D_j sups."""
    weights = np.concatenate([[1.0], np.power(2.0, s * np.arange(sups.shape[-1] - 1))])
    return np.max(sups * weights, axis=-1)

