"""Dyadic partitions, blocks, and the B^{s,inf}_inf norms.

Frozen values: a single mode with |k| = 4 sits in the sharp block j = 2
(annulus [4, 8)), so with s = -1 the norm is 2^{-2} = 0.25 and with s = 0
it is 1.0.
"""

import math

import numpy as np
import pytest

from cnlab.fields import SpectralVectorField, linf, random_vector_field, zero_field
from cnlab.grid import Grid
from cnlab.littlewood_paley import (_states_block_sups, besov_norm, besov_norm_states,
                                    block, build_partition, low_pass)
from cnlab.monitor import bv_variation
from cnlab.paraproduct import scalar_paraproduct, tensor_paraproduct
from cnlab.semigroup import TimeGrid
from cnlab.solver import Trajectory

from helpers import rel_err, single_mode_vector


class TestPartition:
    def test_jmax_formula(self):
        part = build_partition(Grid(2, 64), "sharp")
        assert part.jmax == math.ceil(math.log2(32 * math.sqrt(2)))

    def test_sharp_block_membership(self):
        # N=32, n=2: block 2 holds 4 <= |k| < 8
        part = build_partition(Grid(2, 32), "sharp")
        d2 = part.delta[2]
        assert d2[4, 0] == 1.0
        assert d2[3, 3] == 1.0  # |k| ~ 4.24
        assert d2[8, 0] == 0.0
        assert part.s0[0, 0] == 1.0 and d2[0, 0] == 0.0

    def test_zero_mode_only_in_s0(self):
        for mode in ("sharp", "smooth"):
            part = build_partition(Grid(2, 16), mode)
            assert part.s0[0, 0] == 1.0
            assert np.all(part.delta[:, 0, 0] == 0.0)

    def test_smooth_block_support(self):
        part = build_partition(Grid(2, 64), "smooth")
        kmod = part.grid.kmod
        for j in range(part.jmax + 1):
            outside = (kmod <= 2.0 ** (j - 1)) & (kmod > 0)
            above = kmod >= 2.0 ** (j + 1)
            assert np.all(np.abs(part.delta[j][outside | above]) <= 1e-15)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            build_partition(Grid(2, 16), "boxcar")

    def test_cached(self):
        assert build_partition(Grid(2, 16), "sharp") is build_partition(Grid(2, 16), "sharp")


class TestBlocks:
    def test_single_mode_block_selection(self, g2_32):
        part = build_partition(g2_32, "sharp")
        f = single_mode_vector(g2_32, (4, 0), 0)
        assert rel_err(block(f, 2, part).coeffs, f.coeffs) == 0.0
        for j in [-1] + [j for j in range(part.jmax + 1) if j != 2]:
            assert linf(block(f, j, part)) == 0.0

    def test_zero_field(self, g2_16):
        part = build_partition(g2_16, "sharp")
        assert linf(block(zero_field(g2_16), 1, part)) == 0.0

    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    def test_reconstruction(self, g2_32, rng, mode):
        part = build_partition(g2_32, mode)
        f = random_vector_field(g2_32, rng)
        total = block(f, -1, part).coeffs.copy()
        for j in range(part.jmax + 1):
            total += block(f, j, part).coeffs
        assert rel_err(total, f.coeffs) <= 1e-12

    def test_index_validation(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        with pytest.raises(ValueError):
            block(f, -2, part)
        with pytest.raises(ValueError):
            block(f, part.jmax + 1, part)

    def test_low_pass_thresholds(self, g2_32):
        part = build_partition(g2_32, "sharp")
        f = single_mode_vector(g2_32, (4, 0), 0)
        assert linf(low_pass(f, 2, part)) == 0.0
        assert rel_err(low_pass(f, 3, part).coeffs, f.coeffs) == 0.0

    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    def test_top_low_pass_is_identity(self, g2_32, rng, mode):
        part = build_partition(g2_32, mode)
        f = random_vector_field(g2_32, rng)
        assert rel_err(low_pass(f, part.jmax + 1, part).coeffs, f.coeffs) <= 1e-12

    def test_telescoping(self, g2_32, rng):
        part = build_partition(g2_32, "smooth")
        f = random_vector_field(g2_32, rng)
        for j in range(part.jmax + 1):
            lhs = low_pass(f, j + 1, part).coeffs - low_pass(f, j, part).coeffs
            assert rel_err(lhs, block(f, j, part).coeffs) <= 1e-13

    def test_smooth_blocks_uniformly_bounded(self, rng):
        # classical uniform L^inf bound holds for the smooth cutoff; the sharp
        # one may grow with N and is only recorded, not asserted
        worst = {"smooth": 0.0, "sharp": 0.0}
        for res in (32, 64, 128):
            grid = Grid(2, res)
            f = random_vector_field(grid, rng)
            for mode in worst:
                part = build_partition(grid, mode)
                sups = _states_block_sups(f.coeffs[np.newaxis], part)[0, 1:]
                worst[mode] = max(worst[mode], float(np.max(sups)) / linf(f))
        assert worst["smooth"] <= 5.0
        print(f"sharp-mode block sup ratio (diagnostic): {worst['sharp']:.3f}")


class TestBesov:
    def test_single_mode_values(self, g2_32):
        part = build_partition(g2_32, "sharp")
        f = single_mode_vector(g2_32, (4, 0), 0)
        assert besov_norm(f, -1.0, part) == pytest.approx(0.25, rel=1e-12)
        assert besov_norm(f, 0.0, part) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        assert besov_norm(f * 3.0, -1.0, part) == pytest.approx(
            3.0 * besov_norm(f, -1.0, part), rel=1e-13)

    def test_default_partition_is_sharp(self, g2_32):
        f = single_mode_vector(g2_32, (4, 0), 0)
        assert besov_norm(f, -1.0) == pytest.approx(0.25, rel=1e-12)

    def test_bare_array_needs_partition(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        with pytest.raises(ValueError):
            besov_norm(f.coeffs, -1.0)

    def test_bare_arrays_rejected(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        for call in (lambda: block(f.coeffs, 1, part), lambda: low_pass(f.coeffs, 1, part),
                     lambda: besov_norm(f.coeffs, -1.0, part)):
            with pytest.raises(ValueError):
                call()

    def test_monotonicity_literal(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        s0_sup = _states_block_sups(f.coeffs[np.newaxis], part)[0, 0]
        for s1, s2 in [(-1.0, 0.0), (0.0, 1.5), (-2.0, 2.0)]:
            lhs = besov_norm(f, s1, part)
            assert lhs <= max(besov_norm(f, s2, part), s0_sup) * (1 + 1e-13)

    def test_batched_matches_single(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        states = [random_vector_field(g2_16, rng) for _ in range(5)]
        batched = besov_norm_states(np.stack([f.coeffs for f in states]), -1.0, part)
        singles = [besov_norm(f, -1.0, part) for f in states]
        assert np.allclose(batched, singles, rtol=1e-13, atol=0)

    def test_batches_match_one_stack(self, g3_16, rng, monkeypatch):
        part = build_partition(g3_16, "sharp")
        states = np.stack([random_vector_field(g3_16, rng).coeffs for _ in range(7)])
        whole = besov_norm_states(states, -1.0, part)
        monkeypatch.setattr("cnlab.littlewood_paley._BATCH_BYTES", 1)
        assert besov_norm_states(states, -1.0, part).tobytes() == whole.tobytes()

    def test_empty_states(self, g2_16):
        part = build_partition(g2_16, "sharp")
        assert besov_norm_states(np.zeros((0, 2) + g2_16.spectral_shape, complex), -1.0, part).size == 0


class TestBesovDistance:
    """The B^{-1,inf}_inf distance of f and g is besov_norm(f - g)."""

    def test_identical(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        assert besov_norm(f - f, -1.0, part) == 0.0

    def test_zero_reference(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        assert besov_norm(f - zero_field(g2_16), -1.0, part) == pytest.approx(
            besov_norm(f, -1.0, part), rel=1e-14)

    def test_triangle_inequality(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        for _ in range(10):
            f, g, h = (random_vector_field(g2_16, rng) for _ in range(3))
            lhs = besov_norm(f - h, -1.0, part)
            rhs = besov_norm(f - g, -1.0, part) + besov_norm(g - h, -1.0, part)
            assert lhs - rhs <= 1e-12


_F3 = random_vector_field(Grid(3, 8), np.random.default_rng(0))
_P2 = build_partition(Grid(2, 8), "sharp")
_C32 = random_vector_field(Grid(2, 32), np.random.default_rng(1)).coeffs[0]
_C16 = random_vector_field(Grid(2, 16), np.random.default_rng(2)).coeffs[0]


@pytest.mark.parametrize("call", [
    lambda: besov_norm(_F3, -1.0, _P2),
    lambda: block(_F3, 1, _P2),
    lambda: low_pass(_F3, 1, _P2),
    lambda: bv_variation(Trajectory(_F3.grid, TimeGrid.uniform(1.0, 1),
                                    np.stack([_F3.coeffs] * 2), "synthetic"), -1.0, _P2),
    lambda: scalar_paraproduct(0, _C32, _C32, build_partition(Grid(2, 16))),
    lambda: scalar_paraproduct(0, _C16, _C16, build_partition(Grid(2, 32))),
    lambda: besov_norm_states(_F3.coeffs[np.newaxis], -1.0, _P2),
    lambda: tensor_paraproduct(0, _F3, _F3, _P2),
], ids=["besov_norm", "block", "low_pass", "bv_variation", "paraproduct-coarse-partition",
        "paraproduct-fine-partition", "besov_norm_states", "tensor_paraproduct"])
def test_partition_of_another_grid_is_rejected(call):
    # each once returned a number or a field, or raised IndexError
    with pytest.raises(ValueError):
        call()


def test_scalar_stacks_are_accepted():
    # a stack may hold zero or more component axes of length dim
    part = build_partition(_F3.grid, "sharp")
    scalars = besov_norm_states(_F3.coeffs, -1.0, part)
    assert scalars.tolist() == [besov_norm_states(c[np.newaxis], -1.0, part)[0]
                                for c in _F3.coeffs]
    assert max(scalars) <= besov_norm(_F3, -1.0, part)
