"""Critical-quantity monitoring along computed trajectories.

Each trajectory state yields one record of the norms that control regularity:
Lebesgue norms (always including p = dim and p = inf), the critical Besov norm
of regularity -1, optionally the Besov distance to a reference profile and the
smallness functional over the remaining horizon, and the kinetic energy.
Records serialize to CSV with full round-trip float precision; Lebesgue
norms for extra exponents go to a JSON sidecar beside it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .fields import SpectralVectorField, _lp_norms, _same_grid
from .grid import Grid
from .littlewood_paley import DyadicPartition, _batch_len, besov_norm_states, build_partition
from .snapshots import atomic_write
from .solver import Trajectory, _kato

CSV_COLUMNS = ("t", "lp_2", "lp_n", "lp_inf", "besov_m1", "besov_dist_omega",
               "kato_I", "energy")


class FitUndefined(ValueError):
    """Raised when a rate fit has no increasing tail to work with."""


@dataclass
class MonitorRecord:
    t: float
    lp_2: float
    lp_n: float
    lp_inf: float
    besov_m1: float
    besov_dist_omega: float | None
    kato_I: float | None
    energy: float
    extra_lp: dict[float, float] = field(default_factory=dict)


@dataclass
class BVResult:
    total: float
    max_increment: float
    argmax_index: int


@dataclass
class RateFit:
    exponent: float
    intercept: float
    residual: float
    npoints: int


def check_exponents(p_list: Sequence[float]) -> None:
    """Raise ValueError unless every Lebesgue exponent is in [1, inf]."""
    bad = [p for p in p_list if not p >= 1]
    if bad:
        raise ValueError(f"Lebesgue exponents must satisfy 1 <= p <= inf, got {bad}")


def check_kato_horizon(kato_horizon: float | str | None) -> None:
    """Raise ValueError unless kato_horizon is None, "default" or a finite number > 0."""
    if not (kato_horizon is None or kato_horizon == "default"
            or isinstance(kato_horizon, (int, float)) and not isinstance(kato_horizon, bool)
            and 0 < kato_horizon < math.inf):
        raise ValueError(f"kato_horizon must be None, 'default' or a finite number > 0, "
                         f"got {kato_horizon!r}")


def monitor_rows(rows: Iterable[np.ndarray], grid: Grid, times: Sequence[float], horizon: float,
                 nu: float, p_list: Sequence[float] = (), omega: SpectralVectorField | None = None,
                 kato_horizon: float | str | None = None, cutoff: str = "sharp",
                 on_batch: Callable[[int, np.ndarray], None] | None = None) -> list[MonitorRecord]:
    """One record per state that rows yields, the m-th at times[m].

    p_list adds Lebesgue norms beyond the always-computed {2, dim, inf}. The
    smallness column has viscosity nu; kato_horizon None disables it,
    "default" uses min(1, horizon - t) per record, a number fixes the
    remaining horizon. The states are copied as they come into one reused
    buffer of _batch_len states, the slices of a whole-stack pass, and their
    records taken a batch at a time, each batch first handed to
    on_batch(index of its first state, states) if given.
    """
    check_exponents(p_list)
    check_kato_horizon(kato_horizon)
    if omega is not None:
        _same_grid(grid, omega.grid)
    part = build_partition(grid, cutoff)
    n = float(grid.dim)
    shape = (grid.dim,) + grid.spectral_shape
    batch = np.empty((_batch_len(16 * math.prod(shape)),) + shape, dtype=np.complex128)
    rows, times = iter(rows), np.asarray(times, dtype=np.float64)
    records: list[MonitorRecord] = []
    while True:
        count = 0
        for count, row in enumerate(itertools.islice(rows, len(batch)), 1):
            batch[count - 1] = row
        if count == 0:
            return records
        states = batch[:count]
        if on_batch is not None:
            on_batch(len(records), states)
        # a NaN or inf state gives nan block sups; the column says so
        with np.errstate(invalid="ignore"):
            besov = besov_norm_states(states, -1.0, part)
            dists = (besov_norm_states(states - omega.coeffs, -1.0, part)
                     if omega is not None else [None] * count)
        at = times[len(records):len(records) + count].tolist()
        for c, t, b, d in zip(states, at, besov, dists):
            # one transform per state for every exponent; the same values lp_norm gives
            lp2, lpn, lpinf, *extra = _lp_norms(grid, c, (2.0, n, math.inf, *p_list))
            rec = MonitorRecord(t=t, lp_2=lp2, lp_n=lpn, lp_inf=lpinf, besov_m1=float(b),
                                besov_dist_omega=None if d is None else float(d),
                                kato_I=None, energy=0.5 * lp2 * lp2,
                                extra_lp=dict(zip(p_list, extra)))
            if kato_horizon is not None:
                rem = min(1.0, horizon - t) if kato_horizon == "default" else float(kato_horizon)
                if rem > 0:
                    with np.errstate(invalid="ignore"):
                        rec.kato_I = _kato(SpectralVectorField(grid, c), rem, nu, lpn)
            records.append(rec)


def monitor(traj: Trajectory, p_list: Sequence[float] = (), omega: SpectralVectorField | None = None,
            kato_horizon: float | str | None = None, cutoff: str = "sharp") -> list[MonitorRecord]:
    """monitor_rows over a trajectory's states, nu its meta["nu"] (1.0 when the
    meta has none). Works on partial (blow-up) trajectories as-is."""
    return monitor_rows(traj.coeffs, traj.grid, traj.times, traj.tgrid.horizon,
                        float(traj.meta.get("nu", 1.0)), p_list, omega, kato_horizon, cutoff)


def bv_variation(traj: Trajectory, s: float, part: DyadicPartition | None = None) -> BVResult:
    """Discrete variation sum_j ||u(t_{j+1}) - u(t_j)||_{B^{s,inf}} with witness.

    A bounded-variation bound on the trajectory caps this sum independently of
    the node count; the largest single increment localizes where it fails.
    """
    if len(traj.coeffs) < 2:
        raise ValueError("need at least two stored states")
    part = build_partition(traj.grid, "sharp") if part is None else part
    norms = besov_norm_states(np.diff(traj.coeffs, axis=0), s, part)
    idx = int(np.argmax(norms))
    return BVResult(float(np.sum(norms)), float(norms[idx]), idx)


def expected_blowup_exponent(n: int, p: float) -> float:
    """Lower-bound blow-up rate exponent (1/2)(n/p - 1) for p > n."""
    ratio = 0.0 if math.isinf(p) else n / p
    return 0.5 * (ratio - 1.0)


def _lp_of_record(rec: MonitorRecord, p: float, n: int | None) -> float:
    if p == 2.0:
        return rec.lp_2
    if n is not None and p == float(n):
        return rec.lp_n
    if math.isinf(p):
        return rec.lp_inf
    if p in rec.extra_lp:
        return rec.extra_lp[p]
    raise KeyError(f"records carry no L^{p} column")


def giga_rate_fit(records: Sequence[MonitorRecord], p: float, t_star: float,
                    n: int | None = None) -> RateFit:
    """Least-squares slope of log ||u(t)||_p against log(t_star - t).

    Requires at least eight records, all earlier than t_star, with strictly
    increasing norms; otherwise FitUndefined. A norm following
    c (t_star - t)^gamma is recovered with exponent gamma exactly.

    n is the spatial dimension of the records; the lp_n column answers
    p = n only when n is given, since records do not carry it. An exponent
    with no column raises KeyError.
    """
    if len(records) < 8:
        raise FitUndefined(f"need >= 8 records, got {len(records)}")
    ts = np.array([r.t for r in records])
    if np.any(ts >= t_star):
        raise FitUndefined("records must lie strictly before t_star")
    vals = np.array([_lp_of_record(r, p, n) for r in records])
    if np.any(np.diff(vals) <= 0) or np.any(vals <= 0):
        raise FitUndefined("norms are not strictly increasing toward t_star")
    x = np.log(t_star - ts)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(slope * x + intercept - y)))
    return RateFit(float(slope), float(intercept), resid, len(records))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _extra_lp_path(csv_path: str | Path) -> Path:
    """The sidecar <csv stem>.extra_lp.json that holds the extra Lebesgue norms."""
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".extra_lp.json")


def write_monitor_csv(records: Sequence[MonitorRecord], path: str | Path,
                      config_echo: dict | None = None) -> None:
    """Write the fixed CSV columns, and the records' extra Lebesgue norms, if
    they carry any, to _extra_lp_path(path) as {"t": [...], "<p>": [...]};
    a sidecar left by an earlier write without them is removed."""
    lines = []
    if config_echo is not None:
        lines.append("# config: " + json.dumps(config_echo, sort_keys=True))
    lines.append(",".join(CSV_COLUMNS))
    for r in records:
        lines.append(",".join(_fmt(getattr(r, column)) for column in CSV_COLUMNS))
    atomic_write(path, ("\n".join(lines) + "\n").encode())
    exponents = list(records[0].extra_lp) if records else []
    if exponents:
        extra = {"t": [r.t for r in records],
                 **{repr(float(p)): [r.extra_lp[p] for r in records] for p in exponents}}
        atomic_write(_extra_lp_path(path), (json.dumps(extra) + "\n").encode())
    else:
        _extra_lp_path(path).unlink(missing_ok=True)


def read_monitor_csv(path: str | Path) -> list[MonitorRecord]:
    """Records of a monitor CSV, with extra_lp read from its sidecar if there is one."""
    records = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        vals = [float(v) if v else None for v in line.split(",")]
        records.append(MonitorRecord(**dict(zip(CSV_COLUMNS, vals))))
    sidecar = _extra_lp_path(path)
    if sidecar.is_file():
        extra = json.loads(sidecar.read_text())
        del extra["t"]
        for m, rec in enumerate(records):
            rec.extra_lp = {float(p): vals[m] for p, vals in extra.items()}
    return records
