"""Grid tables, transforms, norms, and the dealiased tensor product."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import cnlab

from cnlab.fields import (SpectralVectorField, derivative,
                          divergence_sup, linf, lp_norm,
                          pointwise_tensor, project_mean_zero, random_field,
                          random_vector_field, to_physical, to_spectral,
                          zero_field)
from cnlab.grid import TAU, Grid
from cnlab.monitor import monitor
from cnlab.semigroup import TimeGrid, heat
from cnlab.solver import Trajectory, make_profile

from helpers import (dealias, dealias_mask, exact_product_coeffs, full_spectrum,
                     hermitian_defect, rel_err, single_mode_vector)

PI_SQRT2 = 4.442882938158366  # || (sin x1, 0) ||_2 on the 2-torus


class TestGrid:
    @pytest.mark.parametrize("dim,res", [(2, 8), (2, 128), (3, 16)])
    def test_valid(self, dim, res):
        g = Grid(dim, res)
        assert g.nyquist == res // 2
        assert g.shape == (res,) * dim
        assert g.spectral_shape == (res,) * (dim - 1) + (res // 2 + 1,)
        assert g.cell_volume == pytest.approx((TAU / res) ** dim)

    @pytest.mark.parametrize("dim,res", [(4, 16), (1, 16), (2, 12), (2, 4), (3, 17)])
    def test_invalid(self, dim, res):
        with pytest.raises(ValueError):
            Grid(dim, res)

    def test_wavenumber_tables(self, g2_16):
        k = g2_16.wavenumbers
        assert k.shape == (2, 16, 9)  # the real-to-complex half
        assert k[0, 0, 0] == 0 and k[0, 8, 0] == -8  # fft order, Nyquist at -N/2
        assert k[1, 0, 8] == -8 and k[1, 0, 7] == 7  # the half's last entry too
        assert np.all(g2_16.ksq == k[0] ** 2 + k[1] ** 2)
        # odd multipliers zero the unpaired Nyquist line, even ones keep it
        assert g2_16.k_deriv[0, 8, 0] == 0.0 and g2_16.k_deriv[1, 0, 8] == 0.0
        assert g2_16.ksq[8, 0] == 64.0 and g2_16.ksq[0, 8] == 64.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tables_share_the_half_layout(self, dim):
        g = Grid(dim, 16)
        for table in (g.ksq, g.kmod, g.ksq_deriv, g.kinf):
            assert table.shape == g.spectral_shape
        for table in (g.wavenumbers, g.k_deriv):
            assert table.shape == (dim,) + g.spectral_shape

    def test_immutable_tables(self, g2_16):
        with pytest.raises(ValueError):
            g2_16.ksq[0, 0] = 1.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_box_tables(self, dim):
        g = Grid(dim, 16)
        assert g.dealias_radius == 5  # 16/3 = 5.33
        mask = dealias_mask(g)
        assert np.array_equal(g.kinf <= g.dealias_radius, mask)
        box = (Ellipsis,) + g.box_index(5)
        assert g.kinf[box].shape == (11,) * (dim - 1) + (6,)
        assert np.array_equal(np.sort(g.kinf[box].ravel()), np.sort(g.kinf[mask]))
        table = g.projected_divergence(5)
        assert table.shape == (dim * (dim + 1) // 2, dim) + g.kinf[box].shape
        assert np.array_equal(table, g.projected_divergence(g.nyquist)[box])
        # cached per radius, radii past the half share the whole-half tables
        assert g.projected_divergence(5) is table
        assert g.box_index(99) is g.box_index(g.nyquist) == (slice(None),) * dim
        for t in (g.kinf, g.box_rows(5), table):
            with pytest.raises(ValueError):
                t.flat[0] = 1


def test_fft_calls_only_in_fields():
    # the transform pair is the one place that knows the spectral layout;
    # grid only reads the frequency ordering from fftfreq
    src = Path(cnlab.__file__).parent
    for path in sorted(src.glob("*.py")):
        for name in re.findall(r"(?:np|numpy)\.fft\b\.?(\w*)", path.read_text()):
            assert path.name == "fields.py" or (path.name, name) == ("grid.py", "fftfreq"), \
                f"{path.name} calls np.fft.{name}"


def test_box_layout_only_in_fields():
    # fields._box_of gathers a box and fields._from_box scatters it back,
    # Hermitian planes included; grid builds the index and its box tables
    src = Path(cnlab.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name not in ("fields.py", "grid.py"):
            assert not re.search(r"box_index|_hermitian_planes\(", path.read_text()), path.name


class TestTransforms:
    @pytest.mark.parametrize("dim,res", [(2, 16), (2, 32), (3, 16)])
    def test_round_trip(self, dim, res, rng):
        grid = Grid(dim, res)
        for _ in range(34):
            f = random_vector_field(grid, rng)
            back = to_spectral(to_physical(f), grid)
            assert rel_err(back.coeffs, f.coeffs) <= 1e-12

    def test_zero_field(self, g2_16):
        assert np.all(to_physical(zero_field(g2_16)) == 0.0)

    def test_single_mode_samples(self, g2_32):
        f = single_mode_vector(g2_32, (3, 0), 0, amplitude=2.0)
        x1 = g2_32.coords()[0]
        assert rel_err(to_physical(f)[0], 2.0 * np.cos(3 * x1)) <= 1e-13

    def test_hermitian_defect(self, rng):
        # a stored half is Hermitian off its self-conjugate planes (last index
        # 0 and res/2) by construction; on them the library keeps it exact
        for grid in (Grid(2, 16), Grid(3, 16)):
            dim = grid.dim
            f = random_vector_field(grid, rng)
            x = grid.coords()[-1]
            g = to_spectral(np.stack([np.sin(x + 0.3)] * dim) + to_physical(f), grid)
            for c in (f.coeffs, g.coeffs, pointwise_tensor(f, g).coeffs):
                assert hermitian_defect(grid, c) == 0.0
            broken = f.coeffs.copy()
            broken[(0, 1) + (0,) * (dim - 2) + (2,)] += 0.5
            assert hermitian_defect(grid, broken) == 0.0
            broken[(0, 1) + (0,) * (dim - 1)] += 0.5
            assert hermitian_defect(grid, broken) > 1e-3

    def test_mean_zero_projection(self, g2_16, rng):
        c = random_field(g2_16, rng)
        c[:, 0, 0] = 3.0
        f = project_mean_zero(SpectralVectorField(g2_16, c))
        assert np.all(f.coeffs[:, 0, 0] == 0.0)


class TestDerivative:
    def test_axis_independence(self, g2_32):
        f = single_mode_vector(g2_32, (3, 0), 0)  # x2-independent
        assert linf(derivative(f, 1)) <= 1e-14

    def test_single_mode_slope(self, g2_32):
        f = single_mode_vector(g2_32, (3, 0), 0)
        x1 = g2_32.coords()[0]
        d = to_physical(derivative(f, 0))
        assert rel_err(d[0], -3.0 * np.sin(3 * x1)) <= 1e-13

    def test_curl_form_divergence_free(self, g2_32):
        # psi = sin x1 sin x2, u = (d2 psi, -d1 psi)
        x1, x2 = g2_32.coords()
        u = to_spectral(np.stack([np.sin(x1) * np.cos(x2),
                                  -np.cos(x1) * np.sin(x2)]), g2_32)
        assert divergence_sup(u) <= 1e-12

    def test_commutes_with_heat(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        a = derivative(heat(f, 0.3), 0)
        b = heat(derivative(f, 0), 0.3)
        assert rel_err(a.coeffs, b.coeffs) <= 1e-12

    def test_nyquist_mode_killed(self, g2_16):
        f = single_mode_vector(g2_16, (8, 0), 0)  # pure Nyquist line
        assert linf(derivative(f, 0)) <= 1e-14


class TestPointwiseTensor:
    def test_dealiased_matches_exact_convolution_on_band(self, g2_16, rng):
        # inputs inside |k_i| <= res/3: surviving modes carry the exact convolution
        u = SpectralVectorField(g2_16, random_field(g2_16, rng, band=(1, 5)))
        v = SpectralVectorField(g2_16, random_field(g2_16, rng, band=(1, 5)))
        got = pointwise_tensor(u, v)
        mask = dealias_mask(g2_16)
        for a in range(2):
            for b in range(2):
                exact = exact_product_coeffs(g2_16, dealias(g2_16, u.coeffs[a]),
                                             dealias(g2_16, v.coeffs[b]))
                assert rel_err(got.coeffs[a, b] * mask, exact * mask) <= 1e-12

    def test_small_band_matches_exact_convolution_fully(self, g2_16, rng):
        # products of res/6-banded inputs fit entirely under the dealias bound
        u = SpectralVectorField(g2_16, random_field(g2_16, rng, band=(1, 2)))
        v = SpectralVectorField(g2_16, random_field(g2_16, rng, band=(1, 2)))
        got = pointwise_tensor(u, v)
        for a in range(2):
            for b in range(2):
                exact = exact_product_coeffs(g2_16, u.coeffs[a], v.coeffs[b])
                assert rel_err(got.coeffs[a, b], exact) <= 1e-12

    def test_transpose_symmetry(self, g2_16, rng):
        u = random_vector_field(g2_16, rng)
        v = random_vector_field(g2_16, rng)
        uv = pointwise_tensor(u, v).coeffs
        vu = pointwise_tensor(v, u).coeffs
        for a in range(2):
            for b in range(2):
                assert np.array_equal(uv[a, b], vu[b, a])

    def test_self_product_bit_symmetric(self, g2_16, rng):
        u = random_vector_field(g2_16, rng)
        t = pointwise_tensor(u, u).coeffs
        assert np.array_equal(t[0, 1], t[1, 0])

    def test_grid_mismatch(self, g2_16, g2_32, rng):
        with pytest.raises(ValueError):
            pointwise_tensor(random_vector_field(g2_16, rng),
                             random_vector_field(g2_32, rng))


class TestNorms:
    def test_constant_field_closed_form(self, g2_16):
        c = np.zeros((2,) + g2_16.spectral_shape, dtype=np.complex128)
        c[0, 0, 0] = 1.5  # constant velocity (1.5, 0), test-only (not mean-zero)
        f = SpectralVectorField(g2_16, c)
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(1.5 * TAU ** (2.0 / p), rel=1e-12)
        assert linf(f) == pytest.approx(1.5, rel=1e-12)

    def test_zero_field(self, g2_16):
        for p in (1.0, 2.0, math.inf):
            assert lp_norm(zero_field(g2_16), p) == 0.0

    def test_sine_l2_value(self, g2_32):
        f = single_mode_vector(g2_32, (1, 0), 0)
        samples = to_physical(f)
        x1 = g2_32.coords()[0]
        assert rel_err(samples[0], np.cos(x1)) <= 1e-13
        # shift to sin via the phase-free norm: |sin| and |cos| share quadrature
        g = to_spectral(np.stack([np.sin(x1), np.zeros_like(x1)]), g2_32)
        assert lp_norm(g, 2.0) == pytest.approx(PI_SQRT2, abs=1e-10)

    def test_scaling_exact(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        for p in (1.0, 3.0, math.inf):
            assert lp_norm(f * -2.5, p) == pytest.approx(2.5 * lp_norm(f, p), rel=1e-14)

    def test_parseval(self, rng):
        for dim, res in [(2, 16), (2, 64), (2, 128), (3, 16)]:
            grid = Grid(dim, res)
            f = random_vector_field(grid, rng)
            full = full_spectrum(grid, f.coeffs)
            via_modes = TAU ** (dim / 2.0) * math.sqrt(float(np.sum(np.abs(full) ** 2)))
            assert lp_norm(f, 2.0) == pytest.approx(via_modes, rel=1e-12)

    def test_p_below_one_rejected(self, g2_16):
        with pytest.raises(ValueError):
            lp_norm(zero_field(g2_16), 0.5)

    @staticmethod
    def energies(f):
        """The monitor's energy column for two copies of f."""
        traj = Trajectory(f.grid, TimeGrid.uniform(1.0, 1), np.stack([f.coeffs] * 2), "x")
        return [rec.energy for rec in monitor(traj)]

    def test_energy(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        l2 = lp_norm(f, 2.0)
        assert self.energies(f) == [0.5 * l2 * l2] * 2

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_huge_and_tiny_fields_keep_finite_norms(self, g3_16, scale):
        u = make_profile(g3_16, "random_divfree", seed=4)
        for p in (1.0, 2.0, 3.0, 4.0, math.inf):
            got = lp_norm(u * scale, p)
            assert math.isfinite(got)
            assert got == pytest.approx(scale * lp_norm(u, p), rel=1e-12, abs=0)
        assert linf(u * scale) == pytest.approx(scale * linf(u), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p,rel", [(2e3, 1e-2), (1e6, 1e-4)])
    def test_large_exponents_approach_the_sup_norm(self, g2_16, rng, p, rel):
        f = random_vector_field(g2_16, rng) * 1.3
        assert lp_norm(f, p) == pytest.approx(linf(f), rel=rel)

    def test_energy_of_a_huge_field_is_inf(self, g2_16, rng):
        f = random_vector_field(g2_16, rng) * 1e200
        assert math.isfinite(lp_norm(f, 2.0)) and self.energies(f) == [math.inf] * 2


class TestRandomFields:
    def test_determinism(self, g2_16):
        a = random_field(g2_16, np.random.default_rng(7))
        b = random_field(g2_16, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_band_support(self, g2_32, rng):
        c = random_field(g2_32, rng, band=(3, 6))
        kmod = g2_32.kmod
        outside = (kmod < 3) | (kmod > 6)
        assert np.all(c[:, outside] == 0.0)

    def test_mean_zero_and_real(self, g3_16, rng):
        c = random_field(g3_16, rng)
        assert np.all(c[(slice(None),) + (0,) * 3] == 0.0)
        assert c.shape == (3,) + g3_16.spectral_shape
        assert hermitian_defect(g3_16, c) <= 1e-13

    def test_unit_sup_normalization(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        assert linf(f) == pytest.approx(1.0, rel=1e-12)
