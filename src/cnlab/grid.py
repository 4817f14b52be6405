"""Periodic grids and their cached spectral index tables.

Everything downstream lives on the 2*pi-periodic torus [0, 2*pi)^dim sampled on
a uniform res^dim lattice. Spectral coefficients are indexed by integer
frequency vectors k (numpy FFT ordering, |k_i| <= res/2) and normalized so that

    f(x) = sum_k c(k) * exp(i k . x),

i.e. c = fftn(samples) / res^dim. Real fields have Hermitian spectra,
c(-k) = conj(c(k)), so the first res//2 + 1 entries of the last axis (the
real-to-complex half, `half_len`) determine the rest. That half is the only
spectral layout: every coefficient array and every table below is shaped
`spectral_shape` = (res, ..., res, res//2 + 1) over the spatial axes. The
last-axis entry res/2 keeps the FFT-ordering frequency -res/2, as in the
first half of a full spectrum. The one exception is the box of radius r,
max_i |k_i| <= r: box_index gathers it from a half as a compact
(2r+1, ..., 2r+1, r+1) array, and the projected-divergence table is held on
it (the 2/3 box r = res // 3 for dealiased products, 28 % of the half on
3D/32). A Grid is immutable once constructed; the derived tables are plain
caches of pure functions of (dim, res) and, for the box tables, the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Grid:
    """Uniform spectral grid on the 2*pi-periodic torus.

    Attributes:
        dim: spatial dimension, 2 or 3.
        res: points per axis; a power of two, at least 8.
    """

    dim: int
    res: int

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.res < 8 or (self.res & (self.res - 1)) != 0:
            raise ValueError(f"res must be a power of two >= 8, got {self.res}")

    @property
    def nyquist(self) -> int:
        return self.res // 2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.res,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Spatial shape of a real-to-complex half spectrum."""
        return self.shape[:-1] + (self.half_len,)

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        """Axis indices of the spatial dimensions in a (..., res, ..., res) array."""
        return tuple(range(-self.dim, 0))

    @property
    def cell_volume(self) -> float:
        return (TAU / self.res) ** self.dim

    @property
    def half_len(self) -> int:
        """Last-axis length of the real-to-complex half spectrum."""
        return self.res // 2 + 1

    @cached_property
    def reflect_index(self) -> np.ndarray:
        """Indices i -> -i mod res; taken along every spatial axis but the last
        (fields._reflect) they read the mirror entry at -k."""
        r = (-np.arange(self.res)) % self.res
        r.setflags(write=False)
        return r

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer frequency vectors, shape (dim, *spectral_shape)."""
        k1 = (np.fft.fftfreq(self.res) * self.res).astype(np.int64)
        mesh = np.meshgrid(*([k1] * (self.dim - 1) + [k1[:self.half_len]]), indexing="ij")
        k = np.stack(mesh)
        k.setflags(write=False)
        return k

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 with the true Nyquist magnitude; drives heat and dyadic multipliers."""
        ksq = np.sum(self.wavenumbers.astype(np.float64) ** 2, axis=0)
        ksq.setflags(write=False)
        return ksq

    @cached_property
    def kmod(self) -> np.ndarray:
        kmod = np.sqrt(self.ksq)
        kmod.setflags(write=False)
        return kmod

    @cached_property
    def k_deriv(self) -> np.ndarray:
        """Frequency vectors for odd (vector) multipliers, Nyquist entries zeroed.

        The -res/2 mode has no +res/2 partner on an even grid; the trigonometric
        interpolant's derivative vanishes at the sample points there, so zeroing
        is exact and keeps derivatives of real fields real. Divergence and Leray
        projection use the same table so the two agree mode by mode.
        """
        kd = self.wavenumbers.astype(np.float64).copy()
        kd[kd == -self.nyquist] = 0.0
        kd.setflags(write=False)
        return kd

    @cached_property
    def ksq_deriv(self) -> np.ndarray:
        ksq = np.sum(self.k_deriv**2, axis=0)
        ksq.setflags(write=False)
        return ksq

    @property
    def dealias_radius(self) -> int:
        """K = res // 3: the 2/3 rule keeps the box max_i |k_i| <= K."""
        return self.res // 3

    @cached_property
    def kinf(self) -> np.ndarray:
        """max_i |k_i|: the radius of the smallest box holding each entry."""
        kinf = np.max(np.abs(self.wavenumbers), axis=0)
        kinf.setflags(write=False)
        return kinf

    @cached_property
    def _per_radius(self) -> dict:
        """Box tables keyed by (name, radius), each built on first use."""
        return {}

    def _box_table(self, name: str, radius: int, build):
        key = (name, min(radius, self.nyquist))
        table = self._per_radius.get(key)
        if table is None:
            table = self._per_radius[key] = build(key[1])
        return table

    def box_rows(self, radius: int) -> np.ndarray:
        """Indices 0..r, res-r..res-1 (r = radius) of the box rows along a
        full-length axis; all res rows once radius >= res/2."""
        def build(r: int) -> np.ndarray:
            rows = np.arange(self.res) if r == self.nyquist else np.r_[0:r + 1, self.res - r:self.res]
            rows.setflags(write=False)
            return rows
        return self._box_table("rows", radius, build)

    def box_index(self, radius: int) -> tuple:
        """Index of the box max_i |k_i| <= radius over the spatial axes of a
        half spectrum: a[(..., *box_index(r))] gathers its entries, shaped
        (2r+1, ..., 2r+1, r+1) with the rows in FFT order. Once radius >=
        res/2 the box is the whole half and the index is plain slices, so the
        gather is a view."""
        def build(r: int) -> tuple:
            if r == self.nyquist:
                return (slice(None),) * self.dim
            return np.ix_(*[self.box_rows(r)] * (self.dim - 1)) + (slice(0, r + 1),)
        return self._box_table("index", radius, build)

    def projected_divergence(self, radius: int) -> np.ndarray:
        """M[p, a] with Leray(div T)_a = i * sum_p M[p, a] T_bc for symmetric T,
        over the pairs p = (b, c), b <= c, in row-major order: P_ac k_b + P_ab k_c
        (P_ab k_b if b = c), P the Leray matrix on k_deriv (identity where it
        vanishes, so M is 0 there), on the box max_i |k_i| <= radius. Shape
        (dim (dim + 1) / 2, dim, *box shape).
        """
        def build(r: int) -> np.ndarray:
            d = self.dim
            box = (Ellipsis,) + self.box_index(r)
            k = self.k_deriv[box]
            ksq = self.ksq_deriv[box]
            safe = np.where(ksq == 0.0, 1.0, ksq)
            leray = np.eye(d).reshape((d, d) + (1,) * d) - k[:, np.newaxis] * k / safe
            m = np.stack([leray[:, b] * k[b] if b == c else leray[:, c] * k[b] + leray[:, b] * k[c]
                          for b in range(d) for c in range(b, d)])
            m.setflags(write=False)
            return m
        return self._box_table("projected_divergence", radius, build)

    @cached_property
    def mirror_weights(self) -> np.ndarray:
        """Full-spectrum entries each half entry stands for: 2 (itself and its
        mirror), 1 on the self-conjugate planes (last index 0 and res/2)."""
        w = np.full(self.spectral_shape, 2.0)
        w[..., ::self.nyquist] = 1.0
        w.setflags(write=False)
        return w

    def coords(self) -> tuple[np.ndarray, ...]:
        """Physical meshgrid arrays x_1..x_dim, each of shape grid.shape."""
        x1 = TAU * np.arange(self.res) / self.res
        return tuple(np.meshgrid(*([x1] * self.dim), indexing="ij"))
