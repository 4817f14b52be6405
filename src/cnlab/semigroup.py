"""Heat flow, Leray projection, the convective nonlinearity, and the Duhamel
integral operator, all diagonal (or block-diagonal) in frequency.

The Duhamel operator maps a forcing path f(t_0..t_M) to

    L(f)(t_m) = - integral_0^{t_m} e^{(t_m - s) nu Laplacian} f(s) ds,

evaluated per mode with an exponential quadrature that is exact whenever f is
piecewise linear in time: on one interval of length h with lam = nu |k|^2 and
z = -lam h,

    integral = h * [ f_left * (phi1(z) - phi2(z)) + f_right * phi2(z) ],

accumulated by the recursion L(t_{m+1}) = e^{-lam h} L(t_m) - integral_m.
duhamel_rows runs the recursion as a generator, one row per node, reading
the forcing path no further ahead than the row it yields; duhamel_L
collects its rows into one array, and the Picard sweep consumes them
directly (solver.picard_solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .fields import (_BOUND_MARGIN, SpectralVectorField, TensorField, _box_of,
                     _box_phys_values, _divergence_bound, _from_box,
                     _product_radius, _products, _same_grid, divergence_sup,
                     linf)
from .phi import phi1, phi2

DIV_FREE_TOL = 1e-8


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing quadrature nodes t_0 <= ... <= t_M = horizon.

    The solvers always build grids starting at t_0 = 0 (uniform / graded do
    this by construction); the Duhamel recursion integrates from the first
    node, whatever it is. A nonzero start is only meaningful for replaying
    stored state sequences.
    """

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two time nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("time nodes must be finite")
        if not nodes[0] >= 0.0:
            raise ValueError("time grid must start at t >= 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("time nodes must be strictly increasing")

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def nintervals(self) -> int:
        return self.nodes.size - 1

    @classmethod
    def uniform(cls, horizon: float, intervals: int) -> "TimeGrid":
        if not (horizon > 0 and intervals >= 1):
            raise ValueError("horizon must be positive and intervals >= 1")
        return cls(np.linspace(0.0, horizon, intervals + 1))

    @classmethod
    def graded(cls, horizon: float, intervals: int, power: float = 2.0) -> "TimeGrid":
        """Nodes horizon * (i/M)^power, clustered near t = 0 for power > 1."""
        if not (horizon > 0 and intervals >= 1 and power > 0):
            raise ValueError("horizon, intervals and power must be positive")
        frac = np.arange(intervals + 1) / intervals
        return cls(horizon * frac**power)


def heat(f: SpectralVectorField, t: float, nu: float = 1.0) -> SpectralVectorField:
    """Heat semigroup e^{t nu Laplacian}: multiply modes by exp(-nu t |k|^2)."""
    if not t >= 0:
        raise ValueError(f"heat flow requires t >= 0, got {t}")
    if not nu > 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    if t == 0:
        return f.copy()
    return SpectralVectorField(f.grid, f.coeffs * np.exp(-nu * t * f.grid.ksq))


def leray_project(f: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: c -> c - k (k.c)/|k|^2, k = 0 kept."""
    k = f.grid.k_deriv
    ksq = f.grid.ksq_deriv
    # k = 0 (and bare Nyquist lines, where k_deriv vanishes) pass through untouched
    safe = np.where(ksq == 0.0, 1.0, ksq)
    kdotc = np.sum(k * f.coeffs, axis=0)
    return SpectralVectorField(f.grid, f.coeffs - k * (kdotc / safe))


def div_tensor(F: TensorField) -> SpectralVectorField:
    """Row-wise tensor divergence: v_a = sum_b d_b F_ab."""
    div = np.einsum("b...,ab...->a...", F.grid.k_deriv, F.coeffs)
    return SpectralVectorField(F.grid, 1j * div)


def nonlinearity(u: SpectralVectorField, use_dealias: bool = True) -> SpectralVectorField:
    """Projected convective term: Leray(sum_b d_b (u_a u_b)), dealiased.

    Rejects inputs whose divergence exceeds DIV_FREE_TOL relative to
    max(1, ||u||_inf); for divergence-free u this equals Leray((u.grad) u).
    Inputs whose transform-free bound on sup |div u| (fields._divergence_bound,
    at roundoff on Leray-projected states) is below DIV_FREE_TOL pass at once;
    all others, non-finite ones included, get the exact sup against the gate
    DIV_FREE_TOL * max(1, linf(u)), two whole-half transforms.
    Each product u_b u_c (b <= c) is transformed onto the 2/3 box only
    (fields._box_spectrum) and goes straight into the result through
    Grid.projected_divergence on that box; fields._from_box spreads the sum
    onto the half once.
    """
    grid = u.grid
    radius = _product_radius(grid, use_dealias)
    if not _divergence_bound(grid, u.coeffs) * _BOUND_MARGIN <= DIV_FREE_TOL:
        gate = DIV_FREE_TOL * max(1.0, linf(u))
        defect = divergence_sup(u)
        if not defect <= gate:  # also trips on NaN
            raise ValueError(f"nonlinearity needs divergence-free input: |div u| = {defect:.3e}")
    pu = _box_phys_values(grid, _box_of(grid, u.coeffs, radius), radius)
    table = grid.projected_divergence(radius)
    pairs = _products(grid, pu, pu, radius)
    acc = table[0] * next(pairs)[2]
    for p, (_, _, prod) in enumerate(pairs, 1):
        acc += table[p] * prod
    acc *= 1j
    return SpectralVectorField(grid, _from_box(grid, acc, radius))


def duhamel_rows(path: Iterable[SpectralVectorField], tgrid: TimeGrid,
                 nu: float = 1.0) -> Iterator[np.ndarray]:
    """Yield the rows L(f)(t_0), L(f)(t_1), ... of the (negative-signed)
    Duhamel integral along a forcing path, starting with L(f)(t_0) = 0.

    path supplies f(t_m) for every node of tgrid, in order, and is read one
    field at a time: row m is yielded right after f(t_m) is read, and f(t_m)
    is read only when row m is asked for, so neither the forcing nor the
    result is ever held whole. Each row is a fresh array, which the next
    step of the recursion reads, so callers must not write to it. Exact for
    paths that are piecewise linear in time between nodes.
    """
    if not nu > 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    it = iter(path)
    try:
        f_prev = next(it)
    except StopIteration:
        raise ValueError("empty forcing path") from None
    grid = f_prev.grid
    ksq = grid.ksq
    nodes = tgrid.nodes

    row = np.zeros(f_prev.coeffs.shape, dtype=np.complex128)
    yield row
    decay = w_left = w_right = None
    h_cached = None
    for m in range(tgrid.nintervals):
        try:
            f_next = next(it)
        except StopIteration:
            raise ValueError(f"forcing path has fewer fields than time nodes ({m + 1} < {nodes.size})") from None
        _same_grid(grid, f_next.grid)
        h = float(nodes[m + 1] - nodes[m])
        if h != h_cached:  # uniform grids reuse one set of weights
            z = -nu * h * ksq
            decay = np.exp(z)
            p1, p2 = phi1(z), phi2(z)
            w_left = h * (p1 - p2)
            w_right = h * p2
            h_cached = h
        row = decay * row - (w_left * f_prev.coeffs + w_right * f_next.coeffs)
        yield row
        f_prev = f_next


def duhamel_L(path: Iterable[SpectralVectorField], tgrid: TimeGrid,
              nu: float = 1.0) -> np.ndarray:
    """The rows of duhamel_rows as one fresh (nodes, dim, *spectral_shape)
    array: row m is L(f)(t_m)."""
    rows = duhamel_rows(path, tgrid, nu)
    first = next(rows)
    out = np.empty((tgrid.nodes.size,) + first.shape, dtype=np.complex128)
    out[0] = first
    for m, row in enumerate(rows, 1):
        out[m] = row
    return out

