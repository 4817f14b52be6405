"""Property tests of the real-to-complex transform pair, the band-limited
(box-pruned) pair, the half-spectrum right-hand side and the exact transform
pruning, over dims 2/3, res 8..32 and extra leading axes; of the single
implementation behind each norm: the monitor's Lebesgue columns are lp_norm,
the batched Besov norms are besov_norm per state; and of the algebraic
identities: the partition of unity, Leray idempotence and exact Bony
reassembly.

The oracles (full complex FFTs of the full spectra that helpers.py
completes by flip-and-roll reflection) are independent of the library's
transform code. The band-limited pair, the products built on it, the
pruned block sups, heat ladder and Oseen envelope are compared bit for bit
with numpy's whole-spectrum transforms or loops that transform everything.
The divergence guard's transform-free bound is checked against the
transformed sup it bounds, and the guard against the exact one.
"""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnlab.fields import (_BOUND_MARGIN, SpectralVectorField, _box_of, _box_phys_values,
                          _box_spectrum, _divergence_bound, _from_box,
                          divergence_sup, linf, lp_norm, phys_values,
                          pointwise_tensor, random_field, random_tensor_field,
                          random_vector_field, spectral_values)
from cnlab.grid import Grid
from cnlab.littlewood_paley import (_batch_len, _states_block_sups, besov_norm,
                                    besov_norm_states, build_partition)
from cnlab.monitor import monitor, monitor_rows
from cnlab.paraproduct import bony_split
from cnlab.semigroup import (DIV_FREE_TOL, TimeGrid, div_tensor, heat, leray_project,
                             nonlinearity)
from cnlab.solver import (Trajectory, _heat_bounds, _heat_ladder_sup, _heat_linf,
                          _kato_ladder)
from cnlab.verification import verify_oseen_kernel

from helpers import full_spectrum, half_of, hermitian_defect, hermitian_part, rel_err

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

grids = st.builds(Grid, st.sampled_from([2, 3]), st.sampled_from([8, 16, 32]))
leading = st.lists(st.integers(1, 3), max_size=2).map(tuple)
seeds = st.integers(0, 2**32 - 1)


def hermitian_stack(grid, lead, seed):
    """Half spectra of a random Hermitian full-spectrum stack."""
    rng = np.random.default_rng(seed)
    shape = lead + grid.shape
    return half_of(grid, hermitian_part(grid, rng.standard_normal(shape)
                                        + 1j * rng.standard_normal(shape)))


@PROPS
@given(grids, leading, seeds)
def test_phys_values_matches_full_inverse(grid, lead, seed):
    c = hermitian_stack(grid, lead, seed)
    ref = np.fft.ifftn(full_spectrum(grid, c), axes=grid.spatial_axes).real * grid.res ** grid.dim
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
    assert c.shape == lead + grid.spectral_shape
    assert hermitian_defect(grid, c) == 0.0
    ref = np.fft.fftn(samples, axes=grid.spatial_axes) / grid.res ** grid.dim
    full = full_spectrum(grid, c)
    assert np.max(np.abs(full - ref)) <= 1e-14 * np.max(np.abs(ref))


@PROPS
@given(grids, seeds, st.booleans())
def test_nonlinearity_matches_full_layout_operators(grid, seed, use_dealias):
    u = leray_project(random_vector_field(grid, np.random.default_rng(seed)))
    got = nonlinearity(u, use_dealias).coeffs
    ref = leray_project(div_tensor(pointwise_tensor(u, u, use_dealias))).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1e-300)
    assert hermitian_defect(grid, got) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_spectral_values_rejects_complex_samples(dim):
    grid = Grid(dim, 8)
    samples = np.ones((dim,) + grid.shape, dtype=np.complex128)
    with pytest.raises(TypeError, match="real samples"):
        spectral_values(grid, samples)


# ---------------------------------------------------------------------------
# the band-limited pair and the products built on it
# ---------------------------------------------------------------------------

def box_radius_table(grid):
    """max_i |k_i| over the half spectrum, from the FFT frequencies."""
    k = np.abs(np.fft.fftfreq(grid.res) * grid.res).astype(int)
    mesh = np.meshgrid(*([k] * (grid.dim - 1) + [k[:grid.half_len]]), indexing="ij")
    return np.max(mesh, axis=0)


def hermitian_planes_reference(grid, half):
    """half with its self-conjugate planes (last index 0 and res/2) replaced by
    their Hermitian parts, the mirror -k by flip-and-roll."""
    out = half.copy()
    axes = tuple(range(1 - grid.dim, 0))  # the spatial axes of a plane
    for i in (0, grid.nyquist):
        plane = half[..., i]
        mirror = np.roll(np.flip(plane, axis=axes), 1, axis=axes)
        out[..., i] = 0.5 * (plane + np.conj(mirror))
    return out


def full_transform_products(grid, u, v, use_dealias):
    """{(a, b): the (dealiased) half spectrum of u_a v_b}, by full irfftn and
    rfftn, every mode outside the 2/3 box zeroed before and after."""
    keep = box_radius_table(grid) <= (grid.res // 3 if use_dealias else grid.res)
    axes = grid.spatial_axes

    def samples(c):
        return np.fft.irfftn(np.where(keep, c, 0.0), s=grid.shape, axes=axes, norm="forward")

    pu, pv = samples(u), samples(v)
    return {(a, b): np.where(keep, np.fft.rfftn(pu[a] * pv[b], axes=axes, norm="forward"), 0.0)
            for a in range(grid.dim) for b in range(grid.dim)}


def projected_divergence_reference(grid):
    """The Leray-projected divergence table over the whole half, pairs b <= c."""
    d = grid.dim
    k1 = np.fft.fftfreq(grid.res) * grid.res
    k1[grid.nyquist] = 0.0
    k = np.stack(np.meshgrid(*([k1] * (d - 1) + [k1[:grid.half_len]]), indexing="ij"))
    ksq = np.sum(k**2, axis=0)
    safe = np.where(ksq == 0.0, 1.0, ksq)
    leray = np.eye(d).reshape((d, d) + (1,) * d) - k[:, np.newaxis] * k / safe
    return [leray[:, b] * k[b] if b == c else leray[:, c] * k[b] + leray[:, b] * k[c]
            for b in range(d) for c in range(b, d)]


def assert_box_bits_and_equal(grid, got, ref, use_dealias):
    """Bit for bit on the kept box, equal (up to the sign of zero) everywhere."""
    keep = box_radius_table(grid) <= (grid.res // 3 if use_dealias else grid.res)
    assert got.shape == ref.shape
    assert got[..., keep].tobytes() == ref[..., keep].tobytes()
    assert np.array_equal(got, ref)


@PROPS
@given(grids, leading, seeds, st.data())
def test_box_pair_is_the_full_pair_cut_to_the_box(grid, lead, seed, data):
    radius = data.draw(st.integers(0, grid.nyquist + 1), label="radius")
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(lead + grid.spectral_shape) + 1j * rng.standard_normal(lead + grid.spectral_shape)
    samples = rng.standard_normal(lead + grid.shape)
    inside = box_radius_table(grid) <= radius
    box = (Ellipsis,) + grid.box_index(radius)
    if radius < grid.nyquist:
        width = 2 * radius + 1
        assert half[box].shape == lead + (width,) * (grid.dim - 1) + (radius + 1,)
    assert np.array_equal(half[box].ravel(), half[..., inside].ravel())

    ref = np.fft.irfftn(np.where(inside, half, 0.0), s=grid.shape, axes=grid.spatial_axes,
                        norm="forward")
    got = _box_phys_values(grid, half[box], radius)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    ref = np.fft.rfftn(samples, axes=grid.spatial_axes, norm="forward")[box]
    got = _box_spectrum(grid, samples, radius)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    # the one gather: the multiplied half read on the box, in the box layout
    mult = rng.standard_normal(grid.spectral_shape)
    assert _box_of(grid, half, radius).tobytes() == half[..., inside].tobytes()
    assert _box_of(grid, half, radius, mult).tobytes() == (half * mult)[..., inside].tobytes()

    # the one scatter: zero outside the box, Hermitian on both self-conjugate
    # planes, the rest of the box as given
    for r in (radius, grid.nyquist):
        keep = box_radius_table(grid) <= r
        spread = _from_box(grid, _box_of(grid, half, r).copy(), r)
        assert hermitian_defect(grid, spread) == 0.0
        ref = hermitian_planes_reference(grid, np.where(keep, half, 0.0))
        assert spread.tobytes() == ref.tobytes()


@PROPS
@given(grids, seeds, st.booleans(), st.booleans())
def test_pointwise_tensor_matches_full_transforms(grid, seed, use_dealias, same):
    u = hermitian_stack(grid, (grid.dim,), seed)
    v = u if same else hermitian_stack(grid, (grid.dim,), seed + 1)
    fu = SpectralVectorField(grid, u)
    got = pointwise_tensor(fu, fu if same else SpectralVectorField(grid, v), use_dealias).coeffs
    prods = full_transform_products(grid, u, v, use_dealias)
    ref = np.empty_like(got)
    for (a, b), prod in prods.items():
        ref[a, b] = prods[min(a, b), max(a, b)] if same else prod
    assert_box_bits_and_equal(grid, got, hermitian_planes_reference(grid, ref), use_dealias)


@PROPS
@given(grids, seeds, st.booleans())
def test_nonlinearity_matches_full_transforms(grid, seed, use_dealias):
    u = leray_project(SpectralVectorField(grid, hermitian_stack(grid, (grid.dim,), seed)))
    got = nonlinearity(u, use_dealias).coeffs
    prods = full_transform_products(grid, u.coeffs, u.coeffs, use_dealias)
    pairs = [prods[b, c] for b in range(grid.dim) for c in range(b, grid.dim)]
    table = projected_divergence_reference(grid)
    ref = table[0] * pairs[0]
    for m, prod in zip(table[1:], pairs[1:]):
        ref += m * prod
    ref *= 1j
    assert_box_bits_and_equal(grid, got, hermitian_planes_reference(grid, ref), use_dealias)


# ---------------------------------------------------------------------------
# transform pruning
# ---------------------------------------------------------------------------

KINDS = ["zero", "single_mode", "single_shell", "band", "broadband",
         "mode_and_noise", "huge", "tiny", "nan", "inf"]


def make_state(grid, kind, seed):
    """(dim, *spectral_shape) coefficients of one kind of state."""
    rng = np.random.default_rng(seed)
    c = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    top = grid.res // 3
    if kind == "single_mode":
        x = grid.coords()[0]
        samples = np.zeros((grid.dim,) + grid.shape)
        samples[1] = np.cos(int(rng.integers(1, top + 1)) * x)
        c = spectral_values(grid, samples)
    elif kind == "single_shell":
        m = int(rng.integers(1, top + 1))
        c = random_field(grid, rng, slope=0.0, band=(m, m))
    elif kind == "band":
        lo = int(rng.integers(1, top + 1))
        c = random_field(grid, rng, slope=1.0, band=(lo, int(rng.integers(lo, top + 1))))
    elif kind == "mode_and_noise":
        # a low mode that dominates late behind broadband noise that dominates
        # the bound early: the largest bound is not where the sup is
        x = grid.coords()[-1]
        samples = np.zeros((grid.dim,) + grid.shape)
        samples[0] = np.cos(x)
        c = spectral_values(grid, samples) + random_field(grid, rng, slope=0.0, band=(2, top))
    elif kind != "zero":
        c = random_field(grid, rng, slope=float(rng.choice([0.0, 2.0])))
    if kind == "huge":
        c *= 1e160
    elif kind == "tiny":
        c *= 1e-200
    elif kind in ("nan", "inf"):
        idx = tuple(int(rng.integers(0, n)) for n in c.shape)
        c[idx] = np.nan if kind == "nan" else np.inf
    return c


def sup_reference(grid, coeffs):
    """Grid max of the Euclidean magnitude of one (ncomp, *spectral_shape)
    spectrum, from plain squares of its whole-half transform. A finite,
    nonzero state whose top square leaves [2^-1000, 2^1000) is measured from
    its spectrum scaled by 2^-e, e the exponent of its largest coefficient
    part, and the sup scaled back; power-of-two scaling is exact."""
    def plain(c):
        with np.errstate(over="ignore"):
            return float(np.max(np.sum(phys_values(grid, c) ** 2, axis=0)))

    top, e = plain(coeffs), 0
    peak = float(np.max(np.abs(np.stack([coeffs.real, coeffs.imag]))))
    if not 2.0**-1000 <= top < 2.0**1000 and 0.0 < peak < math.inf:
        e = math.frexp(peak)[1]
        top = plain(np.ldexp(coeffs.real, -e) + 1j * np.ldexp(coeffs.imag, -e))
    return float(np.ldexp(math.sqrt(top), e))


def ladder_reference(grid, coeffs, ts, nu):
    """The max of sqrt(t) ||heat(c, t)||_inf over every ladder point, nan
    values left out; -1 when every value is nan."""
    vals = [math.sqrt(t) * sup_reference(grid, coeffs * np.exp(-nu * t * grid.ksq)) for t in ts]
    return max((v for v in vals if not math.isnan(v)), default=-1.0)


def block_sups_reference(grid, stack, part):
    mults = np.concatenate([part.s0[np.newaxis], part.delta])
    return np.array([[sup_reference(grid, c * mult) for mult in mults] for c in stack])


@PROPS
@given(grids, st.sampled_from(KINDS), seeds, st.sampled_from([1e-3, 0.3, 1.0]),
       st.sampled_from([0.5, 1.0, 2.0]))
@example(Grid(2, 8), "nan", 0, 1.0, 1.0)
def test_pruned_heat_ladder_matches_every_transform(grid, kind, seed, horizon, nu):
    c = make_state(grid, kind, seed)
    ts = _kato_ladder(horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _heat_ladder_sup(grid, c, ts, nu)
        ref = ladder_reference(grid, c, ts, nu)
    assert repr(got) == repr(ref)
    if kind == "nan":  # every ladder value is nan
        assert got == -1.0


@PROPS
@given(grids, st.sampled_from(KINDS), seeds, st.integers(-900, 900),
       st.sampled_from([1e-6, 5e-7, 1e-4, 0.3, 1.0]), st.sampled_from([0.5, 1.0]))
def test_heat_linf_is_linf_of_heat(grid, kind, seed, scale, t, nu):
    # the ladder, heat_ln_linf and oseen_kernel evaluate ||heat(c, t)||_inf
    # by _heat_linf, and their JSONs keep linf(heat(...))'s bits
    c = np.ldexp(make_state(grid, kind, seed).view(np.float64), scale).view(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _heat_linf(grid, c, t, nu)
        ref = linf(heat(SpectralVectorField(grid, c), t, nu))
    assert repr(got) == repr(ref)


@PROPS
@given(grids, st.sampled_from(KINDS[:8]), seeds, st.sampled_from([0.5, 1.0, 2.0]))
def test_heat_bounds_cap_the_sup_norm(grid, kind, seed, nu):
    c = make_state(grid, kind, seed)
    ts = _kato_ladder(1.0)
    bounds = _heat_bounds(grid, c, ts, nu)
    for t, bound in zip(ts, bounds):
        assert sup_reference(grid, c * np.exp(-nu * t * grid.ksq)) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_heat_bounds_exact_on_one_mode(dim):
    # a single cosine is its own worst case along every axis, including the
    # last one, whose mirror mode the real-to-complex half does not store
    grid = Grid(dim, 16)
    ts = _kato_ladder(1.0)
    for axis, m in enumerate((1, 3, 5)[:dim]):
        c = np.zeros((dim,) + grid.shape, dtype=np.complex128)
        for k in (m, -m):  # cos(m x_axis) in component 0
            idx = [0] * dim
            idx[axis] = k
            c[(0,) + tuple(idx)] = 0.5
        exact = np.exp(-0.5 * ts * m * m)
        bounds = _heat_bounds(grid, half_of(grid, c), ts, 0.5)
        assert np.allclose(bounds, exact, rtol=1e-13, atol=0)


@PROPS
@given(grids, st.lists(st.sampled_from(KINDS[:8]), min_size=1, max_size=6),
       st.booleans(), st.integers(0, 6), st.sampled_from([1, 2, 3, None]), seeds,
       st.sampled_from(["sharp", "smooth"]))
def test_pruned_block_sups_match_every_transform(grid, kinds, nonfinite, at, per, seed, mode):
    # per states go through in one batch (None: the whole stack), so batch
    # boundaries mix zero, single-shell and nan states
    if nonfinite:
        kinds = kinds[:at] + ["nan"] + kinds[at:]
    stack = np.stack([make_state(grid, kind, seed + i) for i, kind in enumerate(kinds)])
    part = build_partition(grid, mode)
    batch_bytes = stack.nbytes if per is None else per * stack[0].nbytes
    with np.errstate(invalid="ignore"), mock.patch("cnlab.littlewood_paley._BATCH_BYTES",
                                                   batch_bytes):
        got = _states_block_sups(stack, part)
        ref = block_sups_reference(grid, stack, part)
    assert got.tobytes() == ref.tobytes()


@PROPS
@given(grids, seeds, st.sampled_from([-900, -600, -300, 0, 300, 600, 900]))
def test_magnitude_sups_scale_exactly_by_powers_of_two(grid, seed, k):
    # scaling by 2^k is exact, and so must be every sup, also where the
    # squares of the scaled samples leave the float range (|k| > 500)
    u = random_vector_field(grid, np.random.default_rng(seed))
    v = u * 2.0**k
    part = build_partition(grid)
    assert besov_norm(v, -1.0, part) == math.ldexp(besov_norm(u, -1.0, part), k)
    sups = _states_block_sups(v.coeffs[np.newaxis], part)
    sups_u = _states_block_sups(u.coeffs[np.newaxis], part)
    assert sups.tobytes() == np.ldexp(sups_u, k).tobytes()
    ts = _kato_ladder(1.0)
    assert _heat_ladder_sup(grid, v.coeffs, ts, 0.5) == math.ldexp(
        _heat_ladder_sup(grid, u.coeffs, ts, 0.5), k)
    assert linf(v) == math.ldexp(linf(u), k)
    for p in (2.0, float(grid.dim)):  # x**(1/p) is not exact
        assert math.isclose(lp_norm(v, p), math.ldexp(lp_norm(u, p), k), rel_tol=1e-12)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3]), st.integers(1, 4), seeds, st.sampled_from([0.5, 1.0]))
def test_pruned_oseen_envelope_matches_every_transform(dim, trials, seed, nu):
    kwargs = dict(trials=trials, res_list=(8, 16), dim=dim, seed=seed, nu=nu)
    (got,) = verify_oseen_kernel(**kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cnlab.verification._heat_bounds",
                   lambda grid, coeffs, ts, nu: np.full(np.shape(ts), np.inf))
        (ref,) = verify_oseen_kernel(**kwargs)
    assert repr(got.to_dict()) == repr(ref.to_dict())


@PROPS
@given(grids, seeds, st.lists(st.sampled_from([0.0, 2.0**-1060, 1e-310, 1e-200, 1e-3, 1.0,
                                                1e150, 1e200, 1e300]),
                              min_size=1, max_size=4))
def test_monitor_norm_columns_are_lp_norm(grid, seed, scales):
    rng = np.random.default_rng(seed)
    states = [random_vector_field(grid, rng) * a for a in scales]
    traj = Trajectory(grid, TimeGrid.uniform(1.0, len(states)), np.stack([u.coeffs for u in states]),
                      "synthetic")
    for rec, u in zip(monitor(traj, p_list=(1.0, 4.0)), states):
        assert rec.lp_2 == lp_norm(u, 2.0)
        assert rec.lp_n == lp_norm(u, float(grid.dim))
        assert rec.lp_inf == lp_norm(u, math.inf) == linf(u)
        assert rec.extra_lp == {1.0: lp_norm(u, 1.0), 4.0: lp_norm(u, 4.0)}
        l2 = lp_norm(u, 2.0)
        assert rec.energy == 0.5 * l2 * l2


@PROPS
@given(grids, st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
       st.sampled_from([1, 2, 3, None]), seeds, st.booleans(),
       st.sampled_from([None, "default", 0.25]), st.sampled_from(["sharp", "smooth"]))
@example(Grid(2, 8), ["zero", "single_shell", "nan", "broadband", "single_shell"], 2, 0, True,
         "default", "sharp")
def test_streamed_records_are_one_pass_records(grid, kinds, per, seed, with_omega, kato, mode):
    # per states go through in one batch (None: the whole stack), streamed
    # from a generator as simulate's routes stream them; the reference is
    # one pass over the whole stack
    stack = np.stack([make_state(grid, kind, seed + i) for i, kind in enumerate(kinds)])
    traj = Trajectory(grid, TimeGrid.uniform(1.0, len(kinds)), stack, "synthetic", {"nu": 0.5})
    omega = SpectralVectorField(grid, make_state(grid, "broadband", seed)) if with_omega else None
    opts = dict(p_list=(1.0, 4.0), omega=omega, kato_horizon=kato, cutoff=mode)
    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch("cnlab.littlewood_paley._BATCH_BYTES", stack.nbytes):
            whole = monitor(traj, **opts)
        with mock.patch("cnlab.littlewood_paley._BATCH_BYTES",
                        stack.nbytes if per is None else per * stack[0].nbytes):
            assert _batch_len(stack[0].nbytes) == (len(stack) if per is None else per)
            got = monitor_rows((row for row in stack), grid, traj.times, 1.0, 0.5, **opts)
    assert [repr(dataclasses.asdict(r)) for r in got] == [repr(dataclasses.asdict(r))
                                                          for r in whole]


@PROPS
@given(grids, seeds, st.sampled_from(["sharp", "smooth"]), st.sampled_from([-1.0, 0.0, 1.5]),
       st.booleans())
def test_batched_besov_norms_are_besov_norm_per_state(grid, seed, mode, s, tensor):
    rng = np.random.default_rng(seed)
    make = random_tensor_field if tensor else random_vector_field
    f, g = make(grid, rng), make(grid, rng)
    part = build_partition(grid, mode)
    batched = besov_norm_states(np.stack([f.coeffs, g.coeffs, (f - g).coeffs]), s, part)
    assert list(batched) == [besov_norm(h, s, part) for h in (f, g, f - g)]


# ---------------------------------------------------------------------------
# algebraic identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, tol", [("sharp", 0.0), ("smooth", 1e-14)])
@PROPS
@given(grids)
def test_partition_of_unity(mode, tol, grid):
    # sharp multipliers are 0/1 differences, so their sum is exact
    part = build_partition(grid, mode)
    assert np.max(np.abs(part.s0 + part.delta.sum(axis=0) - 1.0)) <= tol


@PROPS
@given(grids, seeds, st.sampled_from([0.0, 1.0, 2.0]))
def test_leray_projection_is_idempotent(grid, seed, slope):
    pu = leray_project(random_vector_field(grid, np.random.default_rng(seed), slope))
    assert rel_err(leray_project(pu).coeffs, pu.coeffs) <= 1e-13


@PROPS
@given(grids, seeds, st.sampled_from([0.0, 1.0, 2.0]))
def test_projected_unit_fields_take_the_transform_free_guard(grid, seed, slope):
    # nonlinearity skips the exact divergence sup on these inputs
    pu = leray_project(random_vector_field(grid, np.random.default_rng(seed), slope))
    assert divergence_sup(pu) <= 1e-12
    assert _divergence_bound(grid, pu.coeffs) * _BOUND_MARGIN <= DIV_FREE_TOL


@pytest.mark.parametrize("same", [False, True])
@PROPS
@given(grids, seeds)
def test_bony_split_reassembles_the_product(same, grid, seed):
    rng = np.random.default_rng(seed)
    h = random_vector_field(grid, rng)  # mean-zero, as are g's
    g = h if same else random_vector_field(grid, rng)
    a, b = bony_split(h, g, build_partition(grid, "sharp"))
    assert rel_err(a.coeffs + b.coeffs, pointwise_tensor(h, g).coeffs) <= 1e-12


# ---------------------------------------------------------------------------
# the divergence guard
# ---------------------------------------------------------------------------

def guard_state(grid, kind, seed):
    """make_state's kinds, plus a stack whose self-conjugate planes are not Hermitian."""
    if kind != "non_hermitian":
        return make_state(grid, kind, seed)
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.spectral_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPS
@given(grids, st.sampled_from(KINDS + ["non_hermitian"]), seeds, st.booleans())
def test_divergence_bound_caps_the_divergence_sup(grid, kind, seed, project):
    c = guard_state(grid, kind, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        if project:
            c = leray_project(SpectralVectorField(grid, c)).coeffs
        bound = _divergence_bound(grid, c)
        sup = divergence_sup(SpectralVectorField(grid, c))
    if math.isfinite(sup):
        assert sup <= bound * (1.0 + 1e-12)
    else:  # a non-finite state never takes the transform-free pass
        assert not math.isfinite(bound)


@PROPS
@given(grids, seeds, st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]),
       st.sampled_from([1.0, 1e3, 1e160]), st.sampled_from(["finite", "nan", "inf"]),
       st.booleans())
def test_guard_rejects_what_the_exact_guard_rejects(grid, seed, eps, scale, bad, use_dealias):
    # projected data plus a divergent part of relative size eps straddles the gate
    rng = np.random.default_rng(seed)
    c = scale * (leray_project(random_vector_field(grid, rng)).coeffs
                 + eps * random_field(grid, rng))
    if bad != "finite":
        c[(0,) + (1,) * grid.dim] = np.nan if bad == "nan" else np.inf
    u = SpectralVectorField(grid, c)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = divergence_sup(u)
        gate = DIV_FREE_TOL * max(1.0, linf(u))
        if defect <= gate:
            nonlinearity(u, use_dealias)
        else:
            message = f"nonlinearity needs divergence-free input: |div u| = {defect:.3e}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                nonlinearity(u, use_dealias)
