"""Mild-formulation solvers and their diagnostics.

Two routes to the same trajectory:

* picard_path iterates the integral fixed point
      u^{m+1} = e^{t nu Lap} u0 + L(nonlinearity(u^m))
  on a time grid, stopping when the weighted increment
      sup_m sqrt(t_m) ||du(t_m)||_inf + sup_m ||du(t_m)||_n
  falls below the contraction tolerance (n = spatial dimension). The
  forcing, and so the Duhamel part, lives on the 2/3 box: the solve sweeps
  its path there in place (0.28 to 0.45 of a trajectory), and each state,
  row plus heat(u0, t), is formed where it is read (PicardPath.rows).

* etdrk4_rows advances the spectral Galerkin system with the classical
  four-stage exponential time differencing scheme of Cox & Matthews (2002),
  coefficients evaluated through the stable phi functions. It yields each
  node's state as it is made and keeps only the current one;
  etdrk4_integrate collects the states into one Trajectory.

kato_smallness is the number (1 + ||u0||_n) * sup_t sqrt(t) ||e^{t nu Lap} u0||_inf,
the sup taken over a fixed geometric ladder of times: the standard smallness
functional controlling convergence of the fixed point.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fields import (_BOUND_MARGIN, SpectralVectorField, _box_of, _from_box,
                     _lp_norms, _product_radius, _squared_magnitudes, linf,
                     lp_norm, project_mean_zero, random_field, to_spectral)
from .grid import Grid
from .phi import phi1, phi2, phi3
from .semigroup import TimeGrid, duhamel_rows, heat, leray_project, nonlinearity


class NonConvergence(RuntimeError):
    """Picard iteration failed to contract; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory", report: "ConvergenceReport"):
        super().__init__(message)
        self.trajectory = trajectory
        self.report = report

    def __reduce__(self):
        # RuntimeError pickles only the message; a forked verify worker
        # sends the whole exception back
        return type(self), (self.args[0], self.trajectory, self.report)


class BlowupSuspected(RuntimeError):
    """Time stepping hit NaN/overflow at trajectory.meta["blowup_time"]; the
    trajectory holds finite states before it, the last one last_state: all
    of them from etdrk4_integrate, only that last one from etdrk4_rows. It
    pickles with its trajectory, as a forked verify check sends it back."""

    def __init__(self, trajectory: "Trajectory"):
        super().__init__(f"non-finite state at t = {trajectory.meta['blowup_time']:.6g}")
        self.trajectory = trajectory

    @property
    def time(self) -> float:
        return self.trajectory.meta["blowup_time"]

    @property
    def last_state(self) -> SpectralVectorField:
        return SpectralVectorField(self.trajectory.grid, self.trajectory.coeffs[-1])

    def __reduce__(self):
        return type(self), (self.trajectory,)


@dataclass
class PicardOptions:
    max_iters: int = 25
    contraction_tol: float = 1e-10
    node_count: int = 64
    grading: str = "uniform"          # "uniform" | "graded"
    grading_power: float = 2.0


@dataclass
class EtdrkOptions:
    dt: float | None = None           # None -> horizon / 1000; upper bound per step


@dataclass
class ProfileSpec:
    kind: str = "taylor_green_2d"
    amplitude: float = 1.0
    slope: float = 2.0
    seed: int = 0
    band: tuple[int, int] | None = None


@dataclass
class SolverConfig:
    dim: int = 2
    res: int = 32
    nu: float = 1.0
    horizon: float = 1.0
    dealias: bool = True
    cross_tol: float = 1e-4
    picard: PicardOptions = field(default_factory=PicardOptions)
    etdrk4: EtdrkOptions = field(default_factory=EtdrkOptions)
    profile: ProfileSpec = field(default_factory=ProfileSpec)

    def __post_init__(self) -> None:
        if not self.nu > 0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.picard.grading not in ("uniform", "graded"):
            raise ValueError(f"picard.grading must be 'uniform' or 'graded', got {self.picard.grading!r}")
        Grid(self.dim, self.res)  # reject bad dim/res at config time

    def grid(self) -> Grid:
        return Grid(self.dim, self.res)

    def time_grid(self) -> TimeGrid:
        if self.picard.grading == "graded":
            return TimeGrid.graded(self.horizon, self.picard.node_count, self.picard.grading_power)
        return TimeGrid.uniform(self.horizon, self.picard.node_count)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Trajectory:
    """States on a time grid plus provenance: row m of coeffs, shaped (n, dim,
    *spectral_shape), is the state at tgrid.nodes[m] (fewer rows if partial)."""

    grid: Grid
    tgrid: TimeGrid
    coeffs: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.shape(self.coeffs)[1:] != (self.grid.dim,) + self.grid.spectral_shape:
            raise ValueError(f"trajectory coeffs do not stack states of {self.grid}")

    @property
    def states(self) -> list[SpectralVectorField]:
        """The rows as velocity fields that view, not copy, coeffs."""
        return [SpectralVectorField(self.grid, c) for c in self.coeffs]

    @property
    def times(self) -> np.ndarray:
        return self.tgrid.nodes[: len(self.coeffs)]


@dataclass
class ConvergenceReport:
    converged: bool
    iterations: int
    increments: list[float]
    ratios: list[float]
    contraction_ratio: float | None
    tolerance: float
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


# Fixed geometric ladder 1e-6 * r^j with r = 10^(6/63): exactly 64 points on
# (0, 1], and nested across horizons so the sup is exactly monotone in the
# horizon.
_LADDER_BASE = 1e-6
_LADDER_RATIO = 10.0 ** (6.0 / 63.0)


def _kato_ladder(horizon: float) -> np.ndarray:
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    count = max(1, math.ceil(math.log(horizon / _LADDER_BASE, _LADDER_RATIO)) + 1)
    ts = _LADDER_BASE * _LADDER_RATIO ** np.arange(count + 1)
    ts = ts[ts <= horizon * (1.0 + 1e-12)]
    if ts.size == 0:
        ts = np.array([horizon])
    return ts


def _heat_bounds(grid: Grid, coeffs: np.ndarray, ts: np.ndarray, nu: float) -> np.ndarray:
    """Upper bounds sum_k |c(k)| exp(-nu t |k|^2) on ||heat(c, t)||_inf, per t in ts.

    coeffs is a (ncomp, *spectral_shape) stack, |c(k)| the Euclidean length
    over components, and the sum runs over the spectrum the inverse real
    transform reads (Grid.mirror_weights). One matrix-vector product over
    the occupied shells |k|^2 gives every t. Bounds are nan or inf for
    non-finite states.
    """
    amp = np.hypot.reduce(np.abs(coeffs), axis=0) * grid.mirror_weights
    shells = np.bincount(grid.ksq.astype(np.int64).ravel(), weights=amp.ravel())
    occupied = np.flatnonzero(shells)
    return np.exp(-nu * np.outer(ts, occupied)) @ shells[occupied]


def _heat_linf(grid: Grid, coeffs: np.ndarray, t: float, nu: float) -> float:
    """||heat(c, t)||_inf of a (ncomp, *spectral_shape) stack, bit for bit linf(heat(f, t, nu))."""
    heated = (coeffs * np.exp(-nu * t * grid.ksq))[np.newaxis]
    return float(_squared_magnitudes(grid, heated, grid.nyquist)[2][0])


def _heat_ladder_sup(grid: Grid, coeffs: np.ndarray, ts: np.ndarray, nu: float) -> float:
    """sup over ts of sqrt(t) ||heat(c, t)||_inf.

    Ladder points are evaluated in descending order of their bound
    sqrt(t) * _heat_bounds, stopping once the bound falls below the best
    value, so every point left out is strictly below the sup. nan values
    never qualify, and -1 is returned when every value is nan. Values are
    finite for every finite state (fields._squared_magnitudes).
    """
    bounds = np.sqrt(ts) * _heat_bounds(grid, coeffs, ts, nu)
    best = -1.0
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] * _BOUND_MARGIN < best:
            break
        # max keeps best when the value is nan
        best = max(best, math.sqrt(ts[i]) * _heat_linf(grid, coeffs, ts[i], nu))
    return best


def _kato(u0: SpectralVectorField, horizon: float, nu: float, n_norm: float) -> float:
    """kato_smallness with ||u0||_n supplied by the caller."""
    if not 0 < nu < math.inf:
        raise ValueError(f"viscosity must be a finite number > 0, got {nu}")
    return (1.0 + n_norm) * _heat_ladder_sup(u0.grid, u0.coeffs, _kato_ladder(horizon), nu)


def kato_smallness(u0: SpectralVectorField, horizon: float, nu: float = 1.0) -> float:
    """Smallness functional (1 + ||u0||_n) * sup_t sqrt(t) ||heat(u0, t)||_inf.

    The sup runs over the fixed geometric time ladder on (0, horizon].
    """
    return _kato(u0, horizon, nu, lp_norm(u0, float(u0.grid.dim)))


# ---------------------------------------------------------------------------
# initial-data profiles
# ---------------------------------------------------------------------------

PROFILE_KINDS = ("taylor_green_2d", "taylor_green_3d", "random_divfree")


def make_profile(grid: Grid, kind: str, amplitude: float = 1.0, slope: float = 2.0,
                 seed: int = 0, band: tuple[int, int] | None = None) -> SpectralVectorField:
    """Divergence-free mean-zero initial data of a named family."""
    if kind == "taylor_green_2d":
        if grid.dim != 2:
            raise ValueError("taylor_green_2d needs dim = 2")
        x1, x2 = grid.coords()
        samples = np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)])
        return amplitude * project_mean_zero(to_spectral(samples, grid))
    if kind == "taylor_green_3d":
        if grid.dim != 3:
            raise ValueError("taylor_green_3d needs dim = 3")
        x1, x2, x3 = grid.coords()
        samples = np.stack([
            np.sin(x1) * np.cos(x2) * np.cos(x3),
            -np.cos(x1) * np.sin(x2) * np.cos(x3),
            np.zeros_like(x1),
        ])
        return amplitude * project_mean_zero(to_spectral(samples, grid))
    if kind == "random_divfree":
        rng = np.random.default_rng(seed)
        raw = random_field(grid, rng, slope=slope, band=band, normalize=False)
        f = leray_project(SpectralVectorField(grid, raw))
        peak = linf(f)
        if peak > 0:
            f = f * (1.0 / peak)
        return amplitude * f
    raise ValueError(f"unknown profile kind {kind!r}")


def profile_from_spec(grid: Grid, spec: ProfileSpec) -> SpectralVectorField:
    return make_profile(grid, spec.kind, spec.amplitude, spec.slope, spec.seed, spec.band)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def _kato_increment(nodes: np.ndarray, norms: Sequence[tuple[float, float]]) -> float:
    """sup_m sqrt(t_m) ||du(t_m)||_inf + sup_m ||du(t_m)||_n from the per-node
    norms (||du||_inf, ||du||_n); non-finite as soon as one node's norms are
    (max() would drop a nan)."""
    sup_w = 0.0
    sup_n = 0.0
    for t, (sup, n_norm) in zip(nodes, norms):
        if not math.isfinite(sup + n_norm):
            return sup + n_norm
        sup_w = max(sup_w, math.sqrt(float(t)) * sup)
        sup_n = max(sup_n, n_norm)
    return sup_w + sup_n


def _full(grid: Grid, radius: int, box: np.ndarray, heated: np.ndarray) -> np.ndarray:
    """The state of Duhamel row box plus heat term heated, bit for bit the
    whole-half sum (box is copied: _from_box writes a whole-half box)."""
    return _from_box(grid, box.copy(), radius) + heated


@dataclass
class PicardPath:
    """A Picard solve: its report and its Duhamel rows on the box of the
    product radius, (nodes, dim, *box shape), None while no sweep has run."""

    u0: SpectralVectorField
    cfg: SolverConfig
    duhamel: np.ndarray | None = None
    report: ConvergenceReport | None = None

    def states(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(heat(u0, t_m), state at t_m) per node, formed when asked for."""
        grid, radius = self.u0.grid, _product_radius(self.u0.grid, self.cfg.dealias)
        for m, t in enumerate(self.cfg.time_grid().nodes):
            heated = heat(self.u0, t, self.cfg.nu).coeffs
            yield heated, heated if self.duhamel is None else _full(grid, radius, self.duhamel[m], heated)

    def rows(self) -> Iterator[np.ndarray]:
        return (state for _, state in self.states())

    def trajectory(self) -> Trajectory:
        tg = self.cfg.time_grid()
        coeffs = np.fromiter(self.rows(), (np.complex128, self.u0.coeffs.shape), tg.nodes.size)
        return Trajectory(self.u0.grid, tg, coeffs, "picard",
                          {"nu": self.cfg.nu, "converged": self.report.converged})


def picard_path(u0: SpectralVectorField, cfg: SolverConfig) -> PicardPath:
    """Iterate the mild fixed point to convergence on the configured time
    grid, sweeping the Duhamel rows in place. Raises NonConvergence (with
    the partial trajectory collected) when the increment fails to drop
    below the tolerance within max_iters or grows without bound."""
    grid = u0.grid
    if (grid.dim, grid.res) != (cfg.dim, cfg.res):
        raise ValueError(f"initial data on {grid}, config says ({cfg.dim}, {cfg.res})")
    tg = cfg.time_grid()
    radius = _product_radius(grid, cfg.dealias)
    ksq = _box_of(grid, grid.ksq, radius)
    t0 = time.perf_counter()
    path = PicardPath(u0, cfg)
    duhamel = np.empty((tg.nodes.size, grid.dim) + ksq.shape, dtype=np.complex128)
    increments: list[float] = []
    converged = blew_up = False
    formed = []  # (heat term, state) of the node whose forcing was read last

    def forcing():
        for heated, state in path.states():
            formed.append((heated, state))
            yield _box_of(grid, nonlinearity(SpectralVectorField(grid, state), cfg.dealias).coeffs, radius)

    # divergence is detected from the increments, so let inf/nan flow
    # through the arithmetic silently instead of spraying warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.picard.max_iters):
            norms = []
            # duhamel_rows has read row m's forcing, made from the old row m,
            # when it yields the new one
            for m, row in enumerate(duhamel_rows(forcing(), tg, ksq, cfg.nu)):
                heated, old = formed.pop()
                new = _full(grid, radius, row, heated)
                norms.append(_lp_norms(grid, new - old, (math.inf, float(grid.dim))))
                duhamel[m] = row
            path.duhamel = duhamel
            inc = _kato_increment(tg.nodes, norms)
            increments.append(inc)
            if inc < cfg.picard.contraction_tol:
                converged = True
                break
            if not math.isfinite(inc) or (len(increments) > 1 and inc > 1e8 * (increments[0] + 1e-300)):
                blew_up = True
                break

    floor = 1e-13 * (increments[0] if increments else 0.0)
    ratios = [increments[i] / increments[i - 1] for i in range(1, len(increments))
              if increments[i - 1] > floor]
    contraction = max(ratios) if ratios else None
    path.report = ConvergenceReport(converged, len(increments), increments, ratios,
                                    contraction, cfg.picard.contraction_tol,
                                    time.perf_counter() - t0)
    if not converged:
        reason = "increment diverged" if blew_up else f"no contraction within {cfg.picard.max_iters} iterations"
        raise NonConvergence(reason, path.trajectory(), path.report)
    return path


def picard_solve(u0: SpectralVectorField, cfg: SolverConfig) -> tuple[Trajectory, ConvergenceReport]:
    """picard_path's states collected into one Trajectory, with its report."""
    path = picard_path(u0, cfg)
    return path.trajectory(), path.report


# ---------------------------------------------------------------------------
# ETDRK4
# ---------------------------------------------------------------------------

class _NonFinite(Exception):
    pass


def _etdrk4_coefficients(lam: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """Cox-Matthews weights (e^z, e^{z/2}, q, f1, f2, f3) for one step size h.

    Each phi function is evaluated once per argument.
    """
    z = h * lam
    p1, p2, p3 = phi1(z), phi2(z), phi3(z)
    return (np.exp(z), np.exp(0.5 * z), 0.5 * h * phi1(0.5 * z),
            h * (p1 - 3.0 * p2 + 4.0 * p3), h * (p2 - 2.0 * p3), h * (4.0 * p3 - p2))


def _etdrk4_segment(u: np.ndarray, weights: tuple[np.ndarray, ...], nsteps: int,
                    rhs) -> np.ndarray:
    """March nsteps with the step size the weights were built for."""
    e_full, e_half, q, f1, f2, f3 = weights
    for _ in range(nsteps):
        n_u = rhs(u)
        a = e_half * u + q * n_u
        n_a = rhs(a)
        b = e_half * u + q * n_a
        n_b = rhs(b)
        c = e_half * a + q * (2.0 * n_b - n_u)
        n_c = rhs(c)
        u = e_full * u + f1 * n_u + 2.0 * f2 * (n_a + n_b) + f3 * n_c
    return u


def _etdrk4_meta(cfg: SolverConfig) -> dict:
    """ETDRK4's run meta {nu, dt}: dt is the requested step, an upper bound per
    step (horizon / 1000 when the config gives none)."""
    dt = cfg.etdrk4.dt if cfg.etdrk4.dt is not None else cfg.horizon / 1000.0
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return {"nu": cfg.nu, "dt": dt}


def etdrk4_rows(u0: SpectralVectorField, cfg: SolverConfig) -> Iterator[np.ndarray]:
    """Fixed-step exponential integrator yielding the state at each time-grid
    node as a fresh array, a copy of u0's coefficients first.

    The requested dt is an upper bound: each inter-node interval is covered by
    an integer number of equal steps so node times are hit exactly. Raises
    BlowupSuspected on NaN/overflow: its meta["blowup_time"] is the node it
    missed, its trajectory the last finite state alone, on the time grid from
    that state's node on. It has no stop: simulate ends the solve early by
    ending the forked child that runs it.
    """
    grid = u0.grid
    if (grid.dim, grid.res) != (cfg.dim, cfg.res):
        raise ValueError(f"initial data on {grid}, config says ({cfg.dim}, {cfg.res})")
    meta = _etdrk4_meta(cfg)
    nodes = cfg.time_grid().nodes
    lam = -cfg.nu * grid.ksq

    def rhs(coeffs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(coeffs)):
            raise _NonFinite
        f = SpectralVectorField(grid, coeffs)
        return -nonlinearity(f, cfg.dealias).coeffs

    u = u0.coeffs.copy()
    yield u
    spans = np.diff(nodes).tolist()
    counts = [max(1, math.ceil(span / meta["dt"] - 1e-12)) for span in spans]
    steps = [span / n for span, n in zip(spans, counts)]
    # keyed on the exact step (spacings that agree to the bit share weights),
    # each set dropped after the last interval that steps by it
    last = {h: m for m, h in enumerate(steps)}
    weights: dict[float, tuple[np.ndarray, ...]] = {}
    for m, (h, nsteps) in enumerate(zip(steps, counts)):
        # rhs screens for non-finite input, so silence the overflow warnings of
        # the final doomed step; not across a yield, where it would reach the consumer
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if h not in weights:
                    weights[h] = _etdrk4_coefficients(lam, h)
                step_weights = weights.pop(h) if last[h] == m else weights[h]
                new = _etdrk4_segment(u, step_weights, nsteps, rhs)
                if not np.all(np.isfinite(new)):
                    raise _NonFinite
            except _NonFinite:
                meta["blowup_time"] = float(nodes[m + 1])
                raise BlowupSuspected(Trajectory(grid, TimeGrid(nodes[m:]), u[None], "etdrk4",
                                                 meta)) from None
        u = new
        yield u


def etdrk4_integrate(u0: SpectralVectorField, cfg: SolverConfig) -> Trajectory:
    """etdrk4_rows collected into one trajectory; a BlowupSuspected carries
    every finite state before it as the partial trajectory."""
    tg = cfg.time_grid()
    out = np.empty((tg.nodes.size,) + u0.coeffs.shape, dtype=np.complex128)
    m = 0
    try:
        for m, row in enumerate(etdrk4_rows(u0, cfg), 1):
            out[m - 1] = row
    except BlowupSuspected as exc:
        exc.trajectory.tgrid, exc.trajectory.coeffs = tg, out[:m]
        raise
    return Trajectory(u0.grid, tg, out, "etdrk4", _etdrk4_meta(cfg))


# ---------------------------------------------------------------------------
# cross validation and the amplitude probe
# ---------------------------------------------------------------------------

def compare_trajectories(a: Iterable[SpectralVectorField], b: Iterable[SpectralVectorField],
                         b_linf: Sequence[float], tol: float) -> dict:
    """Sup-norm discrepancy of two iterables of states, such as Trajectory.states, read pairwise.

    Node errors are ||a(t_m) - b(t_m)||_inf / max(1, max(b_linf)), b_linf[m] =
    ||b(t_m)||_inf; returns {discrepancy: their max, tolerance, passed,
    node_errors}. A nan at any node of either sequence makes the discrepancy
    nan (np.max propagates it where the builtin max() would drop it), which fails.
    """
    scale = float(np.maximum(1.0, np.max(b_linf)))
    errs = [linf(sa - sb) / scale for sa, sb in zip(a, b)]
    if len(b_linf) != len(errs):
        raise ValueError(f"b_linf has {len(b_linf)} values for {len(errs)} states")
    disc = float(np.max(errs))
    return {"discrepancy": disc, "tolerance": tol, "passed": disc <= tol,
            "node_errors": errs}


@dataclass
class ProbeEntry:
    amplitude: float
    kato: float
    converged: bool
    iterations: int
    contraction_ratio: float | None


@dataclass
class ProbeReport:
    entries: list[ProbeEntry]
    monotone: bool
    last_converged: float | None
    first_diverged: float | None
    candidate_threshold: float


def probe_contraction_threshold(base: SpectralVectorField, cfg: SolverConfig,
                                amplitudes: Sequence[float]) -> ProbeReport:
    """Amplitude sweep of Picard contraction for a unit profile.

    Reports, per amplitude, the smallness functional and whether the fixed
    point converged, plus the empirical convergence/divergence boundary. The
    boundary is reported, never thresholded against a theoretical constant.
    """
    entries = []
    for a in amplitudes:
        u0 = base * float(a)
        kato = kato_smallness(u0, cfg.horizon, cfg.nu)
        try:
            rep = picard_solve(u0, cfg)[1]
        except NonConvergence as exc:
            rep = exc.report
        entries.append(ProbeEntry(float(a), kato, rep.converged, rep.iterations,
                                  rep.contraction_ratio))
    flags = [e.converged for e in entries]
    first_div = flags.index(False) if False in flags else None
    monotone = all(not f for f in flags[first_div:]) if first_div is not None else True
    last_conv = max((e.amplitude for e in entries if e.converged), default=None)
    first_div_amp = min((e.amplitude for e in entries if not e.converged), default=None)
    # empirical smallness boundary: midpoint of the bracketing kato values,
    # falling back to the one-sided bound when the sweep never crossed over
    conv_katos = [e.kato for e in entries if e.converged]
    div_katos = [e.kato for e in entries if not e.converged]
    if conv_katos and div_katos:
        candidate = 0.5 * (max(conv_katos) + min(div_katos))
    elif conv_katos:
        candidate = max(conv_katos)
    elif div_katos:
        candidate = min(div_katos)
    else:
        candidate = float("nan")
    return ProbeReport(entries, monotone, last_conv, first_div_amp, candidate)
