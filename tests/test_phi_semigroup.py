"""Heat flow, projection, Duhamel quadrature, and the phi-function kernels."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnlab import semigroup
from cnlab.fields import (SpectralVectorField, divergence_sup, linf, lp_norm,
                          pointwise_tensor, random_vector_field, to_physical,
                          to_spectral, zero_field)
from cnlab.grid import Grid
from cnlab.phi import phi1, phi2, phi3
from cnlab.semigroup import (TimeGrid, div_tensor, duhamel_L, heat,
                             leray_project, nonlinearity)

from helpers import axis_tensor, rel_err, single_mode_vector

E_M2 = 0.1353352832366127  # exp(-2)


class TestPhi:
    def test_values_at_zero(self):
        assert phi1(0.0) == pytest.approx(1.0, abs=1e-15)
        assert phi2(0.0) == pytest.approx(0.5, abs=1e-15)
        assert phi3(0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_values_at_one(self):
        e = math.e
        assert phi1(1.0) == pytest.approx(e - 1.0, rel=1e-14)
        assert phi2(1.0) == pytest.approx(e - 2.0, rel=1e-14)
        assert phi3(1.0) == pytest.approx(e - 2.5, rel=1e-14)

    def test_series_against_expm1_recurrence(self):
        # phi1 = expm1(z)/z; higher orders via phi_{k+1} = (phi_k - 1/k!)/z.
        z = np.concatenate([np.linspace(-0.49, -0.05, 23), np.linspace(0.05, 0.49, 23)])
        p1 = np.expm1(z) / z
        p2 = (p1 - 1.0) / z
        p3 = (p2 - 0.5) / z
        assert np.max(np.abs(phi1(z) - p1) / np.abs(p1)) <= 1e-13
        assert np.max(np.abs(phi2(z) - p2) / np.abs(p2)) <= 1e-12
        assert np.max(np.abs(phi3(z) - p3) / np.abs(p3)) <= 1e-11

    @pytest.mark.parametrize("fn", [phi1, phi2, phi3])
    def test_branch_continuity(self, fn):
        for sign in (1.0, -1.0):
            lo = fn(sign * 0.5 * (1 - 1e-9))
            hi = fn(sign * 0.5 * (1 + 1e-9))
            assert abs(lo - hi) <= 1e-9 * abs(hi)

    def test_large_negative_argument(self):
        z = np.array([-5.0, -40.0, -400.0])
        assert np.allclose(phi1(z), (np.exp(z) - 1.0) / z, rtol=1e-14)
        assert np.allclose(phi2(z), (np.exp(z) - 1.0 - z) / z**2, rtol=1e-13)


class TestTimeGrid:
    def test_uniform(self):
        tg = TimeGrid.uniform(2.0, 8)
        assert tg.nodes.shape == (9,)
        assert tg.nodes[0] == 0.0 and tg.nodes[-1] == 2.0
        assert np.allclose(np.diff(tg.nodes), 0.25)
        assert tg.horizon == 2.0 and tg.nintervals == 8

    def test_graded(self):
        tg = TimeGrid.graded(1.0, 4, power=2.0)
        assert np.allclose(tg.nodes, [0.0, 1 / 16, 4 / 16, 9 / 16, 1.0])

    def test_nonzero_start_allowed(self):
        tg = TimeGrid(np.array([0.5, 0.75, 1.0]))
        assert tg.nodes[0] == 0.5 and tg.horizon == 1.0

    @pytest.mark.parametrize("nodes", [[0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.4], [-0.1, 0.5]])
    def test_invalid_nodes(self, nodes):
        with pytest.raises(ValueError):
            TimeGrid(np.array(nodes))


class TestHeat:
    def test_t_zero_is_copy(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        g = heat(f, 0.0)
        assert np.array_equal(g.coeffs, f.coeffs)
        assert g.coeffs is not f.coeffs

    def test_single_mode_decay(self):
        grid = Grid(2, 32)
        f = single_mode_vector(grid, (2, 0), 0)
        g = heat(f, 0.5, nu=1.0)
        assert rel_err(g.coeffs, E_M2 * f.coeffs) <= 1e-14

    def test_semigroup_property(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        one = heat(heat(f, 0.3, nu=0.7), 0.45, nu=0.7)
        both = heat(f, 0.75, nu=0.7)
        assert rel_err(one.coeffs, both.coeffs) <= 1e-13

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_lp_contraction(self, g2_32, rng, p):
        for _ in range(5):
            f = random_vector_field(g2_32, rng)
            assert lp_norm(heat(f, 0.1), p) <= lp_norm(f, p) * (1 + 1e-12)

    def test_invalid_args(self, g2_16, rng):
        f = random_vector_field(g2_16, rng)
        with pytest.raises(ValueError):
            heat(f, -0.1)
        with pytest.raises(ValueError):
            heat(f, 0.1, nu=0.0)


class TestLeray:
    def test_kills_gradients(self, g2_32):
        # grad of sin(x1 + 2 x2) is curl-free, so the projection is zero
        x = g2_32.coords()
        gradp = to_spectral(np.stack([np.cos(x[0] + 2.0 * x[1]),
                                      2.0 * np.cos(x[0] + 2.0 * x[1])]), g2_32)
        assert linf(gradp) == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert linf(leray_project(gradp)) <= 1e-13


class TestDivTensor:
    def test_zero(self, g2_16):
        t = pointwise_tensor(zero_field(g2_16), zero_field(g2_16))
        assert linf(div_tensor(t)) == 0.0

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_axis_tensor_closed_form(self, m):
        grid = Grid(2, 32)
        t = axis_tensor(grid, m)  # entry (1,0) = cos(m x1)
        got = to_physical(div_tensor(t))
        x = grid.coords()
        want = np.zeros_like(got)
        want[1] = -m * np.sin(m * x[0])
        assert np.max(np.abs(got - want)) <= 1e-12 * m


class TestNonlinearity:
    def _taylor_green(self, grid):
        x = grid.coords()
        samples = np.stack([np.sin(x[0]) * np.cos(x[1]),
                            -np.cos(x[0]) * np.sin(x[1])])
        return to_spectral(samples, grid)

    def test_taylor_green_is_pure_gradient(self, g2_32):
        u = self._taylor_green(g2_32)
        assert linf(nonlinearity(u)) <= 1e-12

    def test_gradient_form_oracle(self, g2_32):
        # div(u (x) u) = grad(-(cos 2x1 + cos 2x2)/4) for the cellular profile
        u = self._taylor_green(g2_32)
        x = g2_32.coords()
        want = to_spectral(np.stack([0.5 * np.sin(2 * x[0]),
                                     0.5 * np.sin(2 * x[1])]), g2_32)
        got = div_tensor(pointwise_tensor(u, u))
        assert rel_err(got.coeffs, want.coeffs) <= 1e-12

    def test_zero_field(self, g2_16):
        assert linf(nonlinearity(zero_field(g2_16))) == 0.0

    def test_output_divergence_free(self, g3_16, rng):
        u = leray_project(random_vector_field(g3_16, rng))
        out = nonlinearity(u)
        assert divergence_sup(out) <= 1e-10 * max(1.0, linf(out))

    def test_rejects_divergent_input(self, g2_16):
        u = single_mode_vector(g2_16, (1, 0), 0)  # div = -sin(x1)
        with pytest.raises(ValueError):
            nonlinearity(u)

    @pytest.mark.parametrize("dim,res", [(2, 64), (3, 32)])
    def test_projected_input_needs_no_divergence_transform(self, dim, res, rng, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return divergence_sup(f)

        monkeypatch.setattr(semigroup, "divergence_sup", counted)
        grid = Grid(dim, res)
        u = leray_project(random_vector_field(grid, rng))
        nonlinearity(u)
        nonlinearity(u, use_dealias=False)
        assert calls == []
        with pytest.raises(ValueError):
            nonlinearity(single_mode_vector(grid, (1,) + (0,) * (dim - 1), 0))
        assert len(calls) == 1  # a divergent input gets the exact guard

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    def test_the_divergence_guard_keeps_to_one_core(self):
        # the guard's sum once went to BLAS's threaded dot from 3D/32 on, whose
        # helper thread spun for about 0.1 s after each call when no BLAS
        # thread count is set: 1.98 CPU seconds per wall second on 2 CPUs
        script = """
import os, time
from cnlab.grid import Grid
from cnlab.semigroup import nonlinearity
from cnlab.solver import make_profile
u = make_profile(Grid(3, 32), "random_divfree", amplitude=0.1)
nonlinearity(u)
time.sleep(0.5)
wall, cpu = time.perf_counter(), os.times()
for _ in range(200):
    nonlinearity(u)
end = os.times()
print((end.user + end.system - cpu.user - cpu.system) / (time.perf_counter() - wall))
"""
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else "")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= 1.3


class TestDuhamel:
    def test_zero_path(self, g2_16):
        tg = TimeGrid.uniform(0.5, 6)
        path = [zero_field(g2_16) for _ in range(7)]
        out = duhamel_L(path, tg)
        assert len(out) == 7
        assert all(linf(SpectralVectorField(g2_16, f)) == 0.0 for f in out)

    def test_starts_at_zero(self, g2_16, rng):
        tg = TimeGrid.uniform(0.5, 6)
        path = [random_vector_field(g2_16, rng) for _ in range(7)]
        assert linf(SpectralVectorField(g2_16, duhamel_L(path, tg)[0])) == 0.0

    @pytest.mark.parametrize("nu", [1.0, 0.3])
    def test_constant_path_closed_form(self, nu):
        grid = Grid(2, 32)
        f = single_mode_vector(grid, (2, 0), 1)  # |k|^2 = 4
        lam = 4.0
        tg = TimeGrid.uniform(0.5, 64)
        out = duhamel_L([f.copy() for _ in range(65)], tg, nu=nu)
        for m in (16, 64):
            t = tg.nodes[m]
            factor = -(1.0 - math.exp(-nu * lam * t)) / (nu * lam)
            assert rel_err(out[m], factor * f.coeffs) <= 1e-10

    def test_linear_path_closed_form(self):
        grid = Grid(2, 32)
        g = single_mode_vector(grid, (0, 2), 0)
        lam, nu = 4.0, 1.0
        tg = TimeGrid.uniform(0.8, 64)
        path = [g * float(t) for t in tg.nodes]
        out = duhamel_L(path, tg, nu=nu)
        t = tg.horizon
        a = nu * lam
        integral = t * (1.0 - math.exp(-a * t)) / a - (1.0 - (1.0 + a * t) * math.exp(-a * t)) / a**2
        assert rel_err(out[-1], -integral * g.coeffs) <= 1e-10

    def test_linearity(self, g2_16, rng):
        tg = TimeGrid.uniform(0.4, 8)
        p1 = [random_vector_field(g2_16, rng) for _ in range(9)]
        p2 = [random_vector_field(g2_16, rng) for _ in range(9)]
        combo = [a * 2.0 + b * (-0.5) for a, b in zip(p1, p2)]
        lhs = duhamel_L(combo, tg)
        o1, o2 = duhamel_L(p1, tg), duhamel_L(p2, tg)
        for m in range(9):
            want = o1[m] * 2.0 - 0.5 * o2[m]
            assert rel_err(lhs[m], want) <= 1e-12

    def test_exact_on_piecewise_linear_refinement(self, g2_16, rng):
        # quadrature is exact for node-wise linear paths: midpoint refinement
        # of a linear interpolant must reproduce coarse-node values
        coarse = TimeGrid.uniform(0.3, 8)
        path = [random_vector_field(g2_16, rng) for _ in range(9)]
        out_c = duhamel_L(path, coarse)
        fine_nodes = np.sort(np.concatenate([coarse.nodes,
                                             0.5 * (coarse.nodes[1:] + coarse.nodes[:-1])]))
        fine = TimeGrid(fine_nodes)
        fine_path = []
        for t in fine_nodes:
            i = min(np.searchsorted(coarse.nodes, t, side="right") - 1, 7)
            w = (t - coarse.nodes[i]) / (coarse.nodes[i + 1] - coarse.nodes[i])
            fine_path.append(path[i] * float(1 - w) + path[i + 1] * float(w))
        out_f = duhamel_L(fine_path, fine)
        for m in range(9):
            assert rel_err(out_f[2 * m], out_c[m]) <= 1e-12

    def test_errors(self, g2_16, rng):
        tg = TimeGrid.uniform(0.5, 4)
        path = [random_vector_field(g2_16, rng) for _ in range(5)]
        with pytest.raises(ValueError):
            duhamel_L(path[:3], tg)
        with pytest.raises(ValueError):
            duhamel_L([], tg)
        with pytest.raises(ValueError):
            duhamel_L(path, tg, nu=0.0)


class TestOseen:
    """The Oseen-type kernel e^{t nu Laplacian} Leray(div F)."""

    def test_zero(self, g2_16):
        t = pointwise_tensor(zero_field(g2_16), zero_field(g2_16))
        assert linf(heat(leray_project(div_tensor(t)), 0.5, 1.0)) == 0.0

    def test_axis_probe_closed_form(self):
        grid = Grid(2, 64)
        m, nu, t = 4, 1.0, 0.05
        out = heat(leray_project(div_tensor(axis_tensor(grid, m))), t, nu)
        want = m * math.exp(-nu * m * m * t)
        assert linf(out) == pytest.approx(want, rel=1e-12)

    def test_commutes_with_heat(self, g2_32, rng):
        u = random_vector_field(g2_32, rng)
        t = pointwise_tensor(u, u)
        one = heat(heat(leray_project(div_tensor(t)), 0.2, 0.8), 0.3, nu=0.8)
        both = heat(leray_project(div_tensor(t)), 0.5, 0.8)
        assert rel_err(one.coeffs, both.coeffs) <= 1e-13
