"""Norm monitoring, smallness tracking, variation sums, and rate fits."""

import json
import math

import numpy as np
import pytest

from cnlab.fields import linf, lp_norm, zero_field
from cnlab.grid import Grid
from cnlab.littlewood_paley import besov_norm
from cnlab.monitor import (CSV_COLUMNS, FitUndefined, MonitorRecord,
                           giga_rate_fit, bv_variation,
                           expected_blowup_exponent, monitor,
                           read_monitor_csv, write_monitor_csv)
from cnlab.semigroup import TimeGrid
from cnlab.solver import (BlowupSuspected, EtdrkOptions, PicardOptions,
                          SolverConfig, Trajectory, etdrk4_integrate,
                          kato_smallness, make_profile, picard_solve)


@pytest.fixture(scope="module")
def tg_traj():
    g = Grid(2, 32)
    u0 = make_profile(g, "taylor_green_2d")
    cfg = SolverConfig(dim=2, res=32, nu=1.0, horizon=1.0,
                       picard=PicardOptions(node_count=16))
    traj, _ = picard_solve(u0, cfg)
    return traj


class TestMonitor:
    def test_zero_trajectory(self, g2_16):
        tg = TimeGrid.uniform(1.0, 4)
        traj = Trajectory(g2_16, tg, np.stack([zero_field(g2_16).coeffs for _ in range(5)]),
                          "synthetic", {"nu": 1.0})
        recs = monitor(traj)
        assert len(recs) == 5
        for r in recs:
            assert r.lp_2 == r.lp_n == r.lp_inf == r.besov_m1 == r.energy == 0.0
            assert r.besov_dist_omega is None and r.kato_I is None

    def test_taylor_green_decay(self, tg_traj):
        recs = monitor(tg_traj)
        b0 = recs[0].besov_m1
        for r in recs:
            assert abs(r.besov_m1 - b0 * math.exp(-2.0 * r.t)) <= 1e-6 * b0

    def test_columns_match_norms(self, tg_traj):
        recs = monitor(tg_traj, p_list=(4.0,))
        for r, state in zip(recs, tg_traj.states):
            assert r.lp_2 == pytest.approx(lp_norm(state, 2.0), rel=1e-12)
            assert r.lp_n == pytest.approx(lp_norm(state, 2.0), rel=1e-12)
            assert r.lp_inf == pytest.approx(linf(state), rel=1e-12)
            assert r.besov_m1 == pytest.approx(besov_norm(state, -1.0), rel=1e-12)
            assert r.energy == pytest.approx(0.5 * r.lp_2**2, rel=1e-12)
            assert r.extra_lp[4.0] == pytest.approx(lp_norm(state, 4.0), rel=1e-12)

    def test_distance_to_initial_profile(self, tg_traj):
        recs = monitor(tg_traj, omega=tg_traj.states[0])
        assert recs[0].besov_dist_omega == 0.0
        want = besov_norm(tg_traj.states[3] - tg_traj.states[0], -1.0)
        assert recs[3].besov_dist_omega == pytest.approx(want, rel=1e-12)

    def test_kato_column_default_horizon(self, tg_traj):
        recs = monitor(tg_traj, kato_horizon="default")
        assert recs[-1].kato_I is None  # nothing remains past the final node
        rem0 = min(1.0, tg_traj.tgrid.horizon)
        want = kato_smallness(tg_traj.states[0], rem0, 1.0)
        assert recs[0].kato_I == pytest.approx(want, rel=1e-12)

    def test_kato_column_fixed_horizon(self, tg_traj):
        recs = monitor(tg_traj, kato_horizon=0.3)
        for r, state in zip(recs, tg_traj.states):
            want = kato_smallness(state, 0.3, 1.0)
            assert r.kato_I == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("meta, nu", [({"nu": 0.25}, 0.25), ({}, 1.0)])
    def test_kato_column_takes_the_trajectorys_viscosity(self, tg_traj, meta, nu):
        traj = Trajectory(tg_traj.grid, tg_traj.tgrid, tg_traj.coeffs, "synthetic", meta)
        want = [kato_smallness(state, 0.3, nu) for state in tg_traj.states]
        assert [r.kato_I for r in monitor(traj, kato_horizon=0.3)] == want

    def test_omega_grid_is_checked_before_any_pass(self, tg_traj, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Besov pass ran before the grid check")

        monkeypatch.setattr("cnlab.monitor.besov_norm_states", refuse)
        with pytest.raises(ValueError, match="grid mismatch"):
            monitor(tg_traj, omega=zero_field(Grid(2, 16)))

    def test_kato_column_reuses_the_lp_n_column(self, tg_traj, monkeypatch):
        # the record's lp_n is ||u||_n to the bit, so no second L^n norm is taken
        want = [kato_smallness(state, 0.3, 1.0) for state in tg_traj.states]
        calls = []

        def counted(f, p):
            calls.append(p)
            return lp_norm(f, p)

        monkeypatch.setattr("cnlab.fields.lp_norm", counted)
        monkeypatch.setattr("cnlab.solver.lp_norm", counted)
        recs = monitor(tg_traj, kato_horizon=0.3)
        assert calls == []
        assert [r.kato_I for r in recs] == want

    def test_pure_function_of_trajectory(self, tg_traj):
        a = monitor(tg_traj, p_list=(4.0,), kato_horizon="default")
        b = monitor(tg_traj, p_list=(4.0,), kato_horizon="default")
        assert a == b

    def test_partial_blowup_trajectory(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "random_divfree", amplitude=1e3, seed=1)
        cfg = SolverConfig(dim=2, res=16, nu=1e-3, horizon=1.0,
                           picard=PicardOptions(node_count=10),
                           etdrk4=EtdrkOptions(dt=0.05))
        with pytest.raises(BlowupSuspected) as exc:
            etdrk4_integrate(u0, cfg)
        recs = monitor(exc.value.trajectory)
        assert len(recs) == len(exc.value.trajectory.states)
        assert all(math.isfinite(r.lp_inf) for r in recs)


def test_kato_smallness_monotone_in_horizon(tg_traj):
    lo = kato_smallness(tg_traj.states[2], 0.2, 1.0)
    hi = kato_smallness(tg_traj.states[2], 0.8, 1.0)
    assert lo <= hi


class TestBvVariation:
    def _synthetic(self, grid, states, horizon=1.0):
        tg = TimeGrid.uniform(horizon, len(states) - 1)
        return Trajectory(grid, tg, np.stack([s.coeffs for s in states]), "synthetic", {})

    def test_constant_trajectory(self, g2_16, rng):
        u = make_profile(g2_16, "random_divfree", seed=8)
        traj = self._synthetic(g2_16, [u.copy() for _ in range(5)])
        res = bv_variation(traj, -1.0)
        assert res.total == 0.0 and res.max_increment == 0.0

    def test_two_states_equal_distance(self, g2_16):
        a = make_profile(g2_16, "random_divfree", seed=1)
        b = make_profile(g2_16, "random_divfree", seed=2)
        traj = self._synthetic(g2_16, [a, b])
        res = bv_variation(traj, -1.0)
        want = besov_norm(b - a, -1.0)
        assert res.total == want and res.max_increment == want
        assert res.argmax_index == 0

    def test_subset_never_exceeds_refinement(self, tg_traj):
        full = bv_variation(tg_traj, -1.0)
        sub = self._synthetic(tg_traj.grid, tg_traj.states[::4],
                              horizon=tg_traj.tgrid.horizon)
        coarse = bv_variation(sub, -1.0)
        assert coarse.total <= full.total + 1e-12

    def test_needs_two_states(self, g2_16):
        tg = TimeGrid.uniform(1.0, 1)
        traj = Trajectory(g2_16, tg, zero_field(g2_16).coeffs[np.newaxis], "synthetic", {})
        with pytest.raises(ValueError):
            bv_variation(traj, -1.0)


def synth_records(t_star, gamma, c=1.0, count=12, t0=0.1, t1=0.9):
    recs = []
    for t in np.linspace(t0, t1, count):
        v = c * (t_star - t) ** gamma
        recs.append(MonitorRecord(float(t), v, v, v, v, None, None, 0.5 * v * v))
    return recs


class TestBlowupRateFit:
    def test_expected_exponents(self):
        assert expected_blowup_exponent(3, math.inf) == -0.5
        assert expected_blowup_exponent(3, 3.0) == 0.0
        assert expected_blowup_exponent(3, 6.0) == -0.25
        assert expected_blowup_exponent(2, 4.0) == -0.25

    def test_recovers_half_rate(self):
        fit = giga_rate_fit(synth_records(1.0, -0.5), math.inf, 1.0)
        assert abs(fit.exponent - (-0.5)) <= 1e-6
        assert fit.residual <= 1e-9
        assert fit.npoints == 12

    def test_recovers_generic_rate_and_intercept(self):
        fit = giga_rate_fit(synth_records(2.0, -1.25, c=3.0), math.inf, 2.0)
        assert fit.exponent == pytest.approx(-1.25, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)

    def test_lp_n_column_needs_dimension(self):
        # in 2D records the lp_n column is L^2; without n, p = 3 has no column
        recs = synth_records(1.0, -0.5)
        for rec in recs:
            rec.lp_n = rec.lp_2
        with pytest.raises(KeyError):
            giga_rate_fit(recs, 3.0, 1.0)
        with pytest.raises(KeyError):
            giga_rate_fit(recs, 3.0, 1.0, n=2)
        assert giga_rate_fit(recs, 2.0, 1.0, n=2).exponent == pytest.approx(-0.5, abs=1e-9)
        assert giga_rate_fit(recs, 3.0, 1.0, n=3).exponent == pytest.approx(-0.5, abs=1e-9)

    def test_undefined_cases(self):
        flat = [MonitorRecord(t, 1.0, 1.0, 1.0, 1.0, None, None, 0.5)
                for t in np.linspace(0.1, 0.9, 12)]
        with pytest.raises(FitUndefined):
            giga_rate_fit(flat, math.inf, 1.0)
        with pytest.raises(FitUndefined):
            giga_rate_fit(synth_records(1.0, -0.5, count=7), math.inf, 1.0)
        with pytest.raises(FitUndefined):
            giga_rate_fit(synth_records(1.0, -0.5), math.inf, 0.5)
        decreasing = synth_records(1.0, 0.5)  # norms fall toward t_star
        with pytest.raises(FitUndefined):
            giga_rate_fit(decreasing, math.inf, 1.0)


class TestCsv:
    def test_round_trip_exact(self, tmp_path, tg_traj):
        recs = monitor(tg_traj, omega=tg_traj.states[0], kato_horizon="default")
        path = tmp_path / "m.csv"
        write_monitor_csv(recs, path, config_echo={"res": 32, "nu": 1.0})
        back = read_monitor_csv(path)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            for col in CSV_COLUMNS:
                va, vb = getattr(a, col), getattr(b, col)
                assert va == vb or (va is None and vb is None)

    def test_header_and_echo_lines(self, tmp_path, tg_traj):
        path = tmp_path / "m.csv"
        write_monitor_csv(monitor(tg_traj), path, config_echo={"b": 1, "a": 2})
        lines = path.read_text().splitlines()
        assert lines[0] == '# config: {"a": 2, "b": 1}'
        assert lines[1] == "t,lp_2,lp_n,lp_inf,besov_m1,besov_dist_omega,kato_I,energy"
        assert len(lines) == 2 + len(tg_traj.states)

    def test_no_echo_when_absent(self, tmp_path, tg_traj):
        path = tmp_path / "m.csv"
        write_monitor_csv(monitor(tg_traj)[:2], path)
        assert path.read_text().splitlines()[0].startswith("t,")

    def test_none_serializes_empty(self, tmp_path):
        rec = MonitorRecord(0.5, 1.0, 1.0, 1.0, 1.0, None, None, 0.5)
        path = tmp_path / "m.csv"
        write_monitor_csv([rec], path)
        row = path.read_text().splitlines()[-1]
        assert row == "0.5,1.0,1.0,1.0,1.0,,,0.5"
        back = read_monitor_csv(path)[0]
        assert back.besov_dist_omega is None and back.kato_I is None
