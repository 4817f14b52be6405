"""Weakened paraproducts and the exact two-part product split.

Frozen hand values (sharp cutoffs, f = cos(x1) e_a with |k|=1 in block 0,
g = cos(8 x1) e_b with |k|=8 in block 3, s > 0):

    besov(para0(f,g), s) / (besov(f,-1) besov(g,1+s))   = 2^-4  = 0.0625
    besov(para0(f,g), 1+s) / (||f||_inf besov(g,1+s))   = 1/2
"""

import numpy as np
import pytest

from cnlab.fields import (SpectralVectorField, linf, random_field,
                          random_vector_field, zero_field)
from cnlab.grid import Grid
from cnlab.littlewood_paley import besov_norm, build_partition
from cnlab.paraproduct import (_paraproducts, bony_split, scalar_paraproduct,
                               tensor_paraproduct)

from helpers import (dealias, exact_product_coeffs, rel_err, single_mode_scalar,
                     single_mode_vector)


def brute_paraproduct(i, phi, psi, part):
    """Direct double sum over block pairs, alias-free products."""
    grid = part.grid
    phi = dealias(grid, np.asarray(phi, dtype=np.complex128))
    psi = dealias(grid, np.asarray(psi, dtype=np.complex128))
    acc = np.zeros(grid.spectral_shape, dtype=np.complex128)
    for k in range(part.jmax + 1):
        dk = psi * part.delta[k]
        for m in range(-1, k + i):  # m = -1 denotes S_0
            sm = phi * (part.s0 if m == -1 else part.delta[m])
            acc += exact_product_coeffs(grid, sm, dk)
    return dealias(grid, acc)


class TestScalarParaproduct:
    def test_single_mode_low_high(self):
        grid = Grid(2, 32)
        part = build_partition(grid, "sharp")
        phi = single_mode_scalar(grid, (2, 0))   # block 1
        psi = single_mode_scalar(grid, (8, 0))   # block 3
        got = scalar_paraproduct(0, phi, psi, part)
        want = exact_product_coeffs(grid, phi, psi)  # pure product; modes 6,10 survive dealias
        assert rel_err(got, want) <= 1e-13
        swapped = scalar_paraproduct(0, psi, phi, part)
        assert np.max(np.abs(swapped)) <= 1e-15

    def test_zero_inputs(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        phi = random_field(g2_16, rng, ncomp=1)[0]
        z = np.zeros(g2_16.spectral_shape, dtype=np.complex128)
        assert np.max(np.abs(scalar_paraproduct(0, z, phi, part))) == 0.0
        assert np.max(np.abs(scalar_paraproduct(1, phi, z, part))) == 0.0

    @pytest.mark.parametrize("i", [0, 1])
    def test_bilinearity(self, g2_16, rng, i):
        part = build_partition(g2_16, "sharp")
        p1, p2, psi = (random_field(g2_16, rng, ncomp=1)[0] for _ in range(3))
        lhs = scalar_paraproduct(i, 2.0 * p1 - 0.5 * p2, psi, part)
        rhs = 2.0 * scalar_paraproduct(i, p1, psi, part) - 0.5 * scalar_paraproduct(i, p2, psi, part)
        assert rel_err(lhs, rhs) <= 1e-12

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    def test_brute_force_double_sum(self, g2_16, rng, i, mode):
        part = build_partition(g2_16, mode)
        for _ in range(3):
            phi = random_field(g2_16, rng, ncomp=1)[0]
            psi = random_field(g2_16, rng, ncomp=1)[0]
            got = scalar_paraproduct(i, phi, psi, part)
            assert rel_err(got, brute_paraproduct(i, phi, psi, part)) <= 1e-12

    def test_offset_validation(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        phi = random_field(g2_16, rng, ncomp=1)[0]
        with pytest.raises(ValueError):
            scalar_paraproduct(2, phi, phi, part)


class TestTensorParaproduct:
    @pytest.mark.parametrize("i", [0, 1])
    def test_entrywise_definition(self, g2_16, rng, i):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        g = random_vector_field(g2_16, rng)
        tens = tensor_paraproduct(i, f, g, part)
        for a in range(2):
            for b in range(2):
                want = scalar_paraproduct(i, f.coeffs[a], g.coeffs[b], part)
                assert tens.coeffs[a, b].tobytes() == want.tobytes()

    def test_zero_inputs(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        f = random_vector_field(g2_16, rng)
        z = zero_field(g2_16)
        assert linf(tensor_paraproduct(0, f, z, part)) == 0.0
        assert linf(tensor_paraproduct(0, z, f, part)) == 0.0

    def test_grid_mismatch(self, g2_16, g2_32, rng):
        part = build_partition(g2_32, "sharp")
        f = random_vector_field(g2_16, rng)
        with pytest.raises(ValueError):
            tensor_paraproduct(0, f, f, part)

    @pytest.mark.parametrize("dim, res", [(2, 16), (2, 64), (3, 16), (3, 32)])
    @pytest.mark.parametrize("mode", ["sharp", "smooth"])
    def test_offsets_from_one_run_are_the_single_offsets_bit_for_bit(self, rng, dim, res, mode):
        grid = Grid(dim, res)
        part = build_partition(grid, mode)
        f, g = random_vector_field(grid, rng), random_vector_field(grid, rng)
        both = _paraproducts((0, 1), f.coeffs, g.coeffs, part)
        assert [pi.tobytes() for pi in both] == [
            tensor_paraproduct(i, f, g, part).coeffs.tobytes() for i in (0, 1)]
        with pytest.raises(ValueError):
            _paraproducts((0, 2), f.coeffs, g.coeffs, part)

    def test_frozen_ratio_single_modes(self):
        grid = Grid(2, 32)
        part = build_partition(grid, "sharp")
        f = single_mode_vector(grid, (1, 0), 0)
        g = single_mode_vector(grid, (8, 0), 1)
        for s in (1.5, 2.0):
            pi = tensor_paraproduct(0, f, g, part)
            low = besov_norm(pi, s, part) / (besov_norm(f, -1.0, part) * besov_norm(g, 1.0 + s, part))
            const = besov_norm(pi, 1.0 + s, part) / (linf(f) * besov_norm(g, 1.0 + s, part))
            assert low == pytest.approx(0.0625, rel=1e-12)
            assert const == pytest.approx(0.5, rel=1e-12)


class TestBonySplit:
    def test_zero_inputs(self, g2_16, rng):
        part = build_partition(g2_16, "sharp")
        h = random_vector_field(g2_16, rng)
        z = zero_field(g2_16)
        for pair in (bony_split(h, z, part), bony_split(z, h, part)):
            assert linf(pair[0]) == 0.0 and linf(pair[1]) == 0.0

    def test_single_modes_one_part_active(self):
        grid = Grid(2, 32)
        part = build_partition(grid, "sharp")
        h = single_mode_vector(grid, (2, 0), 0)  # block 1
        g = single_mode_vector(grid, (8, 0), 1)  # block 3
        a, b = bony_split(h, g, part)
        assert linf(a) > 0.0 and linf(b) == 0.0
        a2, b2 = bony_split(g, h, part)
        assert linf(a2) == 0.0 and linf(b2) > 0.0

    def test_smooth_partition_rejected(self, g2_16, rng):
        part = build_partition(g2_16, "smooth")
        h = random_vector_field(g2_16, rng)
        with pytest.raises(ValueError):
            bony_split(h, h, part)
