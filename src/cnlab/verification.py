"""Numerical verification of the quantitative estimates the solver relies on.

Every check is a measurement, not a proof: operator norms are lower-bounded by
random sampling, scaling laws are recovered as log-log slopes over parameter
sweeps, and constants are declared healthy when they are stable under grid
refinement (at most 2x drift across the resolution list) with fitted exponents
within +-0.15 of their targets. Checks are deterministic functions of
(seed, parameters); smooth cutoffs are used for norm measurements, sharp ones
only where a reconstruction must be exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .fields import (_BOUND_MARGIN, SpectralVectorField, TensorField, linf,
                     lp_norm, pointwise_tensor, random_field, random_tensor_field,
                     random_vector_field, spectral_values, to_spectral)
from .grid import Grid
from .littlewood_paley import (_states_block_sups, _weighted_sups, besov_norm,
                               besov_norm_states, build_partition)
from .paraproduct import _paraproducts, bony_split
from .semigroup import TimeGrid, div_tensor, duhamel_L, heat, leray_project
from .solver import (PicardOptions, SolverConfig,
                     _heat_bounds, _heat_ladder_sup, _heat_linf, _kato_ladder, make_profile,
                     picard_solve)


@dataclass
class VerificationReport:
    name: str
    passed: bool
    trials: int
    constants: dict[str, float] = field(default_factory=dict)
    exponents: dict[str, float] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    headline_constant: float | None = None
    headline_exponent: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_row(self) -> tuple[str, str, str, str]:
        c = "" if self.headline_constant is None else repr(float(self.headline_constant))
        e = "" if self.headline_exponent is None else repr(float(self.headline_exponent))
        return (self.name, c, e, "pass" if self.passed else "fail")


EXPONENT_TOL = 0.15
STABILITY_FACTOR = 2.0


def _stable(values: Sequence[float]) -> bool:
    vals = [v for v in values if v > 0]
    if len(vals) < 2:
        return True
    return max(vals) <= STABILITY_FACTOR * min(vals)


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> float:
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Duhamel smoothing gain
# ---------------------------------------------------------------------------

def verify_smoothing(levels: Sequence[tuple[float, float]] = (
                         (-1.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (0.0, 2.0)),
                     T_list: Sequence[float] | None = None,
                     trials: int = 50, res: int = 64, dim: int = 2, nodes: int = 64,
                     seed: int = 0, nu: float = 1.0) -> list[VerificationReport]:
    """Horizon scaling of the Duhamel operator between Besov levels, one
    report per (r, alpha) of levels, in that order.

    Measures sup-over-paths of the ratio ||L f||_{C_T B^{r+alpha}} /
    ||f||_{C_T B^r} on each horizon T and fits the T-exponent, whose target is
    (2 - alpha)/2: a T^{1/2} gain for alpha = 1 and uniform boundedness for the
    full two-derivative gain alpha = 2. Every level reads the same paths and
    the same block sups; only the weights 2^{js} differ.
    """
    for _, alpha in levels:
        if alpha not in (1.0, 2.0, 1, 2):
            raise ValueError(f"alpha must be 1 or 2, got {alpha}")
    if T_list is None:
        T_list = [2.0**-j for j in range(6, 0, -1)]
    if len(T_list) < 4:
        raise ValueError(f"need at least 4 horizon values for a fit, got {len(T_list)}")
    grid = Grid(dim, res)
    part = build_partition(grid, "smooth")
    rng = np.random.default_rng([seed, 101])

    # single-|k| probes, one per integer shell: the sup ratio between two
    # Besov levels is attained on one frequency shell, and any spectral spread
    # lets different blocks dominate numerator and denominator. The ladder
    # must be dense because the dyadic block weight against the |k|^2 decay
    # rate saw-tooths within each octave.
    shells = list(range(1, grid.dealias_radius + 1))

    # spread the trial budget evenly over the ladder so reduced-budget runs
    # still probe the saturating top shells
    picks = np.round(np.linspace(0, len(shells) - 1, trials)).astype(int)
    draws = []
    for i in range(trials):
        m = shells[picks[i]]
        g = random_field(grid, rng, slope=0.0, band=(m, m))
        q = int(rng.integers(1, 4))
        phase = float(rng.uniform(0, 2 * math.pi))
        draws.append((g, q, phase, _states_block_sups(g[np.newaxis], part)[0]))

    rows = []  # per horizon, the operator norm of each level
    for T in T_list:
        tg = TimeGrid.uniform(T, nodes)
        best = [0.0] * len(levels)
        for g, q, phase, g_sups in draws:
            a = 1.0 + 0.5 * np.sin(2 * math.pi * q * tg.nodes / T + phase)
            path = [SpectralVectorField(grid, am * g) for am in a]
            sups = _states_block_sups(duhamel_L(path, tg, nu), part)
            for k, (r, alpha) in enumerate(levels):
                num = float(np.max(_weighted_sups(sups, r + alpha)))
                den = float(np.max(a)) * float(_weighted_sups(g_sups, r))
                if den == 0.0:
                    raise ValueError("zero path in the sampling ensemble")
                best[k] = max(best[k], num / den)
        rows.append(best)

    reports = []
    for (r, alpha), norms in zip(levels, map(list, zip(*rows))):
        if not all(math.isfinite(v) and v > 0 for v in norms):
            raise ValueError(f"degenerate fit: operator norms {norms}")
        target = (2.0 - alpha) / 2.0
        slope = _fit_loglog(np.array(T_list), np.array(norms))
        passed = abs(slope - target) <= EXPONENT_TOL
        if alpha == 2:
            # the full gain must also be uniformly bounded in the horizon
            passed = passed and max(norms) <= STABILITY_FACTOR * min(norms)
        reports.append(VerificationReport(
            name=f"smoothing_r{r:+g}_a{alpha:g}",
            passed=passed,
            trials=trials,
            constants={f"opnorm_T{T:g}": v for T, v in zip(T_list, norms)},
            exponents={"T_slope": slope, "target": target, "tolerance": EXPONENT_TOL},
            params={"r": r, "alpha": alpha, "res": res, "dim": dim, "nodes": nodes,
                    "seed": seed, "T_list": list(T_list)},
            headline_constant=norms[-1],
            headline_exponent=slope,
        ))
    return reports


# ---------------------------------------------------------------------------
# paraproduct bounds
# ---------------------------------------------------------------------------

def paraproduct_name(s: float) -> str:
    """The name of verify_paraproduct's report of s and of its JSON file."""
    return f"paraproduct_s{s:g}"


def verify_paraproduct(s_list: Sequence[float] = (1.5, 2.0), trials: int = 50,
                       res_list: Sequence[int] = (32, 64, 128), dim: int = 2,
                       seed: int = 0) -> list[VerificationReport]:
    """Resolution stability of the two paraproduct-bound constants, one report
    per s of s_list, in that order.

    Instance "low": ||para_i(f (x) g)||_{B^s} <= K ||f||_{B^-1} ||g||_{B^{1+s}}.
    Instance "const": ||para_i(f (x) g)||_{B^{1+s}} <= K ||f||_inf ||g||_{B^{1+s}}.
    Passes when the max measured ratio at the finest grid is at most twice the
    one at the coarsest (smooth cutoffs). Every s reads the same fields, the
    same paraproducts and the same block sups.
    """
    for s in s_list:
        if s <= 1.0:
            raise ValueError(f"requires s > 1, got {s}")
    rng = np.random.default_rng([seed, 202])
    lows, consts = [], []  # per resolution, the max ratio of each s
    for res in res_list:
        grid = Grid(dim, res)
        part = build_partition(grid, "smooth")
        best_low = [0.0] * len(s_list)
        best_const = [0.0] * len(s_list)
        for _ in range(trials):
            f = random_vector_field(grid, rng, slope=float(rng.choice([0.5, 1.0, 2.0])))
            g = random_vector_field(grid, rng, slope=float(rng.choice([0.5, 1.0, 2.0])))
            g_sups, f_sups = _states_block_sups(np.stack([g.coeffs, f.coeffs]), part)
            bf = float(_weighted_sups(f_sups, -1.0))
            fi = linf(f)
            paras = np.stack(_paraproducts((0, 1), f.coeffs, g.coeffs, part))
            pi_sups = _states_block_sups(paras, part)
            for k, s in enumerate(s_list):
                bg = float(_weighted_sups(g_sups, 1.0 + s))
                for sups in pi_sups:
                    best_low[k] = max(best_low[k], float(_weighted_sups(sups, s)) / (bf * bg))
                    best_const[k] = max(best_const[k],
                                        float(_weighted_sups(sups, 1.0 + s)) / (fi * bg))
        lows.append(best_low)
        consts.append(best_const)
    return [VerificationReport(
        name=paraproduct_name(s),
        passed=(low[-1] <= STABILITY_FACTOR * low[0]
                and const[-1] <= STABILITY_FACTOR * const[0]),
        trials=trials,
        constants={
            **{f"K_low_N{n}": v for n, v in zip(res_list, low)},
            **{f"K_const_N{n}": v for n, v in zip(res_list, const)},
        },
        params={"s": s, "res_list": list(res_list), "dim": dim, "seed": seed},
        headline_constant=low[-1],
    ) for s, low, const in zip(s_list, zip(*lows), zip(*consts))]


# ---------------------------------------------------------------------------
# exact product split
# ---------------------------------------------------------------------------

def verify_bony_identity(pairs: int = 200, res_list: Sequence[int] = (16, 32, 64),
                         dims: Sequence[int] = (2, 3), seed: int = 0) -> list[VerificationReport]:
    """Reassembly of the dealiased tensor product from its two split parts.

    Random mean-zero band-limited pairs on every (dim, res) combination; the
    pair budget is spread inversely to transform cost so large 3-d grids get
    fewer draws. Passes when the worst relative coefficient error is 1e-12
    or better.
    """
    rng = np.random.default_rng([seed, 303])
    combos = [(d, n) for d in dims for n in res_list]
    weights = np.array([1.0 / (n**d) for d, n in combos])
    weights /= weights.sum()
    alloc = np.maximum(3, np.round(weights * pairs).astype(int))
    # trim/grow to the exact budget, adjusting the cheapest combo
    alloc[int(np.argmax(weights))] += pairs - int(alloc.sum())

    worst = 0.0
    total = 0
    for (d, n), count in zip(combos, alloc):
        grid = Grid(d, n)
        part = build_partition(grid, "sharp")
        for j in range(count):
            h = random_vector_field(grid, rng)
            g = h if j % 7 == 0 else random_vector_field(grid, rng)
            a, b = bony_split(h, g, part)
            target = pointwise_tensor(h, g)
            scale = float(np.max(np.abs(target.coeffs)))
            err = float(np.max(np.abs(a.coeffs + b.coeffs - target.coeffs)))
            worst = max(worst, err / max(scale, 1e-300))
            total += 1
    passed = worst <= 1e-12
    return [VerificationReport(
        name="bony_identity",
        passed=passed,
        trials=total,
        constants={"max_rel_error": worst},
        params={"res_list": list(res_list), "dims": list(dims), "seed": seed},
        headline_constant=worst,
    )]


# ---------------------------------------------------------------------------
# heat L^n -> L^inf smoothing
# ---------------------------------------------------------------------------

def verify_heat_ln_linf(trials: int = 50, res_list: Sequence[int] = (32, 64, 128),
                        dim: int = 2, seed: int = 0, nu: float = 1.0) -> list[VerificationReport]:
    """The t^{-1/2} smoothing constant of the heat flow from L^n into L^inf.

    K(N) = max over random fields of sup_t sqrt(t) ||heat(f, t)||_inf / ||f||_n
    must be resolution-stable; single-mode suprema match the closed form
    a / sqrt(2 e nu |k|^2) to 1 percent, and for band-limited data the
    compensated sup-norm decays toward the sqrt(1/2) halving factor as t -> 0.
    """
    rng = np.random.default_rng([seed, 404])
    ladder = _kato_ladder(1.0)
    ks = []
    for res in res_list:
        grid = Grid(dim, res)
        best = 0.0
        for _ in range(trials):
            f = random_vector_field(grid, rng, slope=float(rng.choice([0.0, 1.0, 2.0, 3.0])))
            best = max(best, _heat_ladder_sup(grid, f.coeffs, ladder, nu) / lp_norm(f, float(dim)))
        ks.append(best)

    grid = Grid(dim, res_list[-1])
    x = grid.coords()[0]
    mode_errs = []
    for kmod in (1, 2, 4):
        samples = np.zeros((dim,) + grid.shape)
        samples[1] = np.cos(kmod * x)
        f = to_spectral(samples, grid)
        lam = nu * kmod**2
        exact = 1.0 / math.sqrt(2.0 * math.e * lam) if 1.0 / (2 * lam) <= 1.0 else math.exp(-lam)
        measured = _heat_ladder_sup(grid, f.coeffs, ladder, nu)
        mode_errs.append(abs(measured - exact) / exact)

    f = random_vector_field(grid, rng)
    trivial_s = 1e-4
    trivial = math.sqrt(trivial_s) * _heat_linf(grid, f.coeffs, trivial_s, nu)
    trivial_ok = trivial <= math.sqrt(trivial_s) * linf(f)
    # halving factor probed closer to the limit, where the kernel decay on
    # the highest retained mode is negligible and sqrt(1/2) is clean
    s = 1e-6
    v1 = math.sqrt(s) * _heat_linf(grid, f.coeffs, s, nu)
    v2 = math.sqrt(s / 2) * _heat_linf(grid, f.coeffs, s / 2, nu)
    halving = v2 / v1
    halving_ok = v2 < v1 and abs(halving / math.sqrt(0.5) - 1.0) <= 0.05

    passed = _stable(ks) and max(mode_errs) <= 0.01 and trivial_ok and halving_ok
    return [VerificationReport(
        name="heat_ln_linf",
        passed=passed,
        trials=trials,
        constants={
            **{f"K_N{n}": v for n, v in zip(res_list, ks)},
            "single_mode_max_rel_err": max(mode_errs),
            "compensated_sup_s1em4": trivial,
            "halving_factor": halving,
        },
        params={"res_list": list(res_list), "dim": dim, "seed": seed, "nu": nu},
        headline_constant=ks[-1],
    )]


# ---------------------------------------------------------------------------
# projected tensor-divergence kernel decay
# ---------------------------------------------------------------------------

def verify_oseen_kernel(trials: int = 50, res_list: Sequence[int] = (32, 64, 128),
                        dim: int = 2, seed: int = 0, nu: float = 1.0,
                        t_grid: Sequence[float] | None = None) -> list[VerificationReport]:
    """t^{-1/2} decay of the smoothed projected divergence of unit tensors.

    Measures the compensated quantity sup_t sqrt(t) ||.||_inf over t in
    [1e-4, 1] and checks it for resolution stability. The slope fit uses the
    small-t regime (t <= 1e-2) but drops times below ~3/(nu |k_max|^2): there
    a finite band cannot express the decay and the curve flattens, which is
    a discretization artifact, not a property of the kernel.
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-4, 1.0, 33)
    t_grid = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng([seed, 505])
    comp_sups = []
    env_by_res = {}
    for res in res_list:
        grid = Grid(dim, res)
        # single-|k| probes: the t^{-1/2} envelope is attained on the shell
        # |k| ~ t^{-1/2}, while broadband random tensors self-average to a
        # steeper decay and would misstate the kernel law. The deterministic
        # axis probe A cos(m x_1) with A = e_2 (x) e_1 yields exactly
        # m |sin(m x_1)| after projection and anchors every shell.
        shells = list(range(1, grid.dealias_radius + 1))
        x1 = grid.coords()[0]
        envelope = np.zeros_like(t_grid)
        probes = []
        for m in shells:
            samples = np.zeros((dim, dim) + grid.shape)
            samples[1, 0] = np.cos(m * x1)
            probes.append(TensorField(grid, spectral_values(grid, samples)))
        for i in range(trials):
            m = shells[i % len(shells)]
            probes.append(random_tensor_field(grid, rng, slope=0.0, band=(m, m)))
        for F in probes:
            # heat factor applied last commutes, so hoist the projected divergence
            v = leray_project(div_tensor(F))
            # the envelope is a max: a time whose bound stays below it cannot move it
            bounds = _heat_bounds(grid, v.coeffs, t_grid, nu)
            for idx, t in enumerate(t_grid):
                if bounds[idx] * _BOUND_MARGIN < envelope[idx]:
                    continue
                envelope[idx] = max(envelope[idx], _heat_linf(grid, v.coeffs, float(t), nu))
        env_by_res[res] = envelope
        comp_sups.append(float(np.max(np.sqrt(t_grid) * envelope)))

    kcap = Grid(dim, res_list[-1]).dealias_radius
    t_resolved = 3.0 / (nu * kcap * kcap)
    small = (t_grid <= 1e-2) & (t_grid >= t_resolved)
    if int(small.sum()) < 4:  # coarse grids resolve almost nothing below 1e-2
        small = t_grid <= 1e-2
    slope = _fit_loglog(t_grid[small], env_by_res[res_list[-1]][small])
    passed = (-0.65 <= slope <= -0.35) and _stable(comp_sups)
    return [VerificationReport(
        name="oseen_kernel",
        passed=passed,
        trials=trials,
        constants={f"comp_sup_N{n}": v for n, v in zip(res_list, comp_sups)},
        exponents={"small_t_slope": slope, "target": -0.5,
                   "fit_t_min": float(t_grid[small][0]),
                   "fit_t_max": float(t_grid[small][-1])},
        params={"res_list": list(res_list), "dim": dim, "seed": seed, "nu": nu},
        headline_constant=comp_sups[-1],
        headline_exponent=slope,
    )]


# ---------------------------------------------------------------------------
# L^n -> critical Besov embedding
# ---------------------------------------------------------------------------

def verify_embedding(trials: int = 100, res_list: Sequence[int] = (32, 64, 128),
                     dim: int = 2, seed: int = 0, mode: str = "smooth") -> list[VerificationReport]:
    """Measured constant of ||f||_{B^{-1,inf}} <= K ||f||_n.

    The ensemble mixes random spectra of several slopes with deterministic
    low-frequency probes (single modes and the cellular-vortex profile), since
    the ratio is maximized by low-frequency-dominated fields. K_emb is exported
    for the monitor's coherence invariant.
    """
    rng = np.random.default_rng([seed, 606])
    ks = []
    for res in res_list:
        grid = Grid(dim, res)
        part = build_partition(grid, mode)
        fields = []
        for _ in range(trials):
            fields.append(random_vector_field(grid, rng, slope=float(rng.choice([0.0, 1.0, 2.0, 3.0]))))
        x = grid.coords()[0]
        for kmod in (1, 2, 4):
            samples = np.zeros((dim,) + grid.shape)
            samples[-1] = np.cos(kmod * x)
            fields.append(to_spectral(samples, grid))
        kind = "taylor_green_2d" if dim == 2 else "taylor_green_3d"
        fields.append(make_profile(grid, kind))
        best = 0.0
        for f in fields:
            best = max(best, besov_norm(f, -1.0, part) / lp_norm(f, float(dim)))
        ks.append(best)
    passed = _stable(ks)
    return [VerificationReport(
        name="embedding",
        passed=passed,
        trials=trials,
        constants={f"K_emb_N{n}": v for n, v in zip(res_list, ks)},
        params={"res_list": list(res_list), "dim": dim, "seed": seed, "mode": mode},
        headline_constant=ks[-1],
    )]


# ---------------------------------------------------------------------------
# composite short-horizon bound near a reference profile
# ---------------------------------------------------------------------------

def smallest_admissible_constant(profile_norms: np.ndarray, denom_base: float) -> float:
    """Least C with running_sup(norms) <= norms[0] + C * denom_base * running_sup.

    Zero when the running sup never exceeds the initial value (the bound then
    holds with any nonnegative C).
    """
    profile_norms = np.asarray(profile_norms, dtype=float)
    running = np.maximum.accumulate(profile_norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = (running[1:] - profile_norms[0]) / (denom_base * running[1:])
    cands = np.clip(np.nan_to_num(cands, nan=0.0, posinf=0.0), 0.0, None)
    return float(np.max(cands)) if cands.size else 0.0


def verify_composite_bound(s: float = 1.5, delta: float = 0.25,
                           res_list: Sequence[int] = (16, 32), dim: int = 2,
                           seed: int = 0, nu: float = 1.0, amplitude: float = 0.3,
                           omega: str = "initial",
                           profile_kind: str = "random_divfree") -> list[VerificationReport]:
    """Trajectory-level check of the composite bound behind short-time control.

    For a converged trajectory w on [0, delta] and a reference profile, the
    running sup of ||w||_{B^{1+s}} must satisfy

        sup_{t<=d'} ||w|| <= ||w(0)|| + C (eps + ||omega||_inf sqrt(delta)) sup_{t<=d'} ||w||

    with eps the sup Besov(-1) distance of w to omega. The smallest admissible
    C is reported and must be resolution-stable; in addition the trajectory is
    reassembled from the heat term plus the four Duhamel paths of the split
    nonlinearity (exact up to the contraction tolerance), validating that the
    bound's ingredients add back to the solution.
    """
    cs, resids, slacks = [], [], []
    for res in res_list:
        grid = Grid(dim, res)
        cfg = SolverConfig(dim=dim, res=res, nu=nu, horizon=delta,
                           picard=PicardOptions(node_count=32, contraction_tol=1e-11))
        w0 = make_profile(grid, profile_kind, amplitude=amplitude, seed=seed)
        traj, _ = picard_solve(w0, cfg)
        w = traj.states
        om = w[0].copy() if omega == "initial" else w[0] * 0.0
        smooth = build_partition(grid, "smooth")
        sharp = build_partition(grid, "sharp")

        eps = float(np.max(besov_norm_states(traj.coeffs - om.coeffs, -1.0, smooth)))
        profile_norms = besov_norm_states(traj.coeffs, 1.0 + s, smooth)
        denom_base = eps + linf(om) * math.sqrt(delta)
        c_min = smallest_admissible_constant(profile_norms, denom_base)
        if profile_norms[0] > 0:
            slack = float((profile_norms[0] - np.max(profile_norms)) / profile_norms[0])
        else:  # zero data: the bound is 0 <= 0
            slack = 0.0

        paths: list[list[SpectralVectorField]] = [[], [], [], []]
        for st in w:
            a1, b1 = bony_split(st - om, st, sharp)
            a2, b2 = bony_split(om, st, sharp)
            for idx, tens in enumerate((a1, b1, a2, b2)):
                paths[idx].append(leray_project(div_tensor(tens)))
        pieces = [duhamel_L(pth, traj.tgrid, nu) for pth in paths]
        resid = 0.0
        scale = max(1e-300, max(linf(st) for st in w))
        for m, t in enumerate(traj.tgrid.nodes):
            recon = heat(w0, float(t), nu).coeffs + sum(p[m] for p in pieces)
            resid = max(resid, float(np.max(np.abs(recon - traj.coeffs[m]))) / scale)
        cs.append(c_min)
        resids.append(resid)
        slacks.append(slack)

    nonzero = [c for c in cs if c > 0]
    stability_ok = _stable(nonzero) if len(nonzero) == len(cs) else True
    passed = stability_ok and max(resids) <= 1e-6
    return [VerificationReport(
        name="composite_bound",
        passed=passed,
        trials=len(res_list),
        constants={
            **{f"C_N{n}": v for n, v in zip(res_list, cs)},
            "max_reassembly_residual": max(resids),
            "min_slack_rel": min(slacks),
        },
        params={"s": s, "delta": delta, "res_list": list(res_list), "dim": dim,
                "seed": seed, "omega": omega, "amplitude": amplitude,
                "profile_kind": profile_kind},
        headline_constant=cs[-1],
    )]


# ---------------------------------------------------------------------------
# registry and summaries
# ---------------------------------------------------------------------------

# Each check's verify_* function and the size overrides it accepts; the
# defaults live in the verify_* signatures. Every verify_* returns its
# reports as a list, in order.
_REGISTRY: dict[str, tuple[Callable[..., list[VerificationReport]], set[str]]] = {
    "smoothing": (verify_smoothing, {"trials", "res", "dim", "nodes", "T_list"}),
    "paraproduct": (verify_paraproduct, {"trials", "res_list", "dim", "s_list"}),
    "bony_identity": (verify_bony_identity, {"pairs", "res_list", "dims"}),
    "heat_ln_linf": (verify_heat_ln_linf, {"trials", "res_list", "dim"}),
    "oseen_kernel": (verify_oseen_kernel, {"trials", "res_list", "dim"}),
    "embedding": (verify_embedding, {"trials", "res_list", "dim"}),
    "composite_bound": (verify_composite_bound, {"res_list", "dim"}),
}
CHECKS = {name: verify for name, (verify, _) in _REGISTRY.items()}
SIZE_KEYS = {name: frozenset(keys) for name, (_, keys) in _REGISTRY.items()}


def _run_task(task: tuple[str, dict]) -> list[VerificationReport]:
    """The reports of one (name, keywords) task. CHECKS[name] is looked up
    when the task runs, so that a wrapper put there is called."""
    name, keywords = task
    return CHECKS[name](**keywords)


def run_checks(names: Sequence[str], seed: int = 0, sizes: dict | None = None,
               run: Callable = map) -> list[VerificationReport]:
    """The reports of the named checks, in canonical order. Each check is one
    task, called with sizes[name] and the seed as keywords; run(task runner,
    tasks) runs them: map one after another, cnlab verify in forked children.
    Each check draws its random data from seed alone (its own
    default_rng([seed, k])), so it does not depend on which other checks
    run, or in which process."""
    sizes = sizes or {}
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    tasks = [(name, {**sizes.get(name, {}), "seed": seed}) for name in CHECKS if name in names]
    return [rep for reports in run(_run_task, tasks) for rep in reports]


def summary_csv(reports: Sequence[VerificationReport]) -> str:
    lines = ["check,constant,exponent,pass"]
    for rep in reports:
        lines.append(",".join(rep.summary_row()))
    return "\n".join(lines) + "\n"
