"""Property tests of the real-to-complex transform pair and the half-spectrum
right-hand side, over dims 2/3, res 8..32 and extra leading axes.

The oracles (full complex inverse FFT, reflection by flip-and-roll) are
independent of the library's transform code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnlab.fields import (hermitianize, phys_values, pointwise_tensor,
                          random_vector_field, spectral_values)
from cnlab.grid import Grid
from cnlab.semigroup import div_tensor, leray_project, nonlinearity

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

grids = st.builds(Grid, st.sampled_from([2, 3]), st.sampled_from([8, 16, 32]))
leading = st.lists(st.integers(1, 3), max_size=2).map(tuple)
seeds = st.integers(0, 2**32 - 1)


def conj_reflect(grid, c):
    axes = grid.spatial_axes
    return np.conj(np.roll(np.flip(c, axis=axes), 1, axis=axes))


def hermitian_stack(grid, lead, seed):
    rng = np.random.default_rng(seed)
    shape = lead + grid.shape
    return hermitianize(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@PROPS
@given(grids, leading, seeds)
def test_phys_values_matches_full_inverse(grid, lead, seed):
    c = hermitian_stack(grid, lead, seed)
    ref = np.fft.ifftn(c, axes=grid.spatial_axes).real * grid.npoints
    got = phys_values(grid, c)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@PROPS
@given(grids, leading, seeds)
def test_round_trip_returns_coefficients(grid, lead, seed):
    c = hermitian_stack(grid, lead, seed)
    back = spectral_values(grid, phys_values(grid, c))
    assert np.max(np.abs(back - c)) <= 1e-14 * np.max(np.abs(c))


@PROPS
@given(grids, leading, seeds)
def test_spectral_values_exactly_hermitian(grid, lead, seed):
    samples = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    c = spectral_values(grid, samples)
    assert c.shape == lead + grid.shape
    assert np.max(np.abs(c - conj_reflect(grid, c))) == 0.0
    ref = np.fft.fftn(samples, axes=grid.spatial_axes) / grid.npoints
    assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))


@PROPS
@given(grids, seeds, st.booleans())
def test_nonlinearity_matches_full_layout_operators(grid, seed, use_dealias):
    u = leray_project(random_vector_field(grid, np.random.default_rng(seed)))
    got = nonlinearity(u, use_dealias).coeffs
    ref = leray_project(div_tensor(pointwise_tensor(u, u, use_dealias))).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1e-300)
    assert np.max(np.abs(got - conj_reflect(grid, got))) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_spectral_values_rejects_complex_samples(dim):
    grid = Grid(dim, 8)
    samples = np.ones((dim,) + grid.shape, dtype=np.complex128)
    with pytest.raises(TypeError, match="real samples"):
        spectral_values(grid, samples)
