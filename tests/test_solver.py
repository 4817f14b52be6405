"""Fixed-point and exponential time-stepping solvers on exact references."""

import math
import tracemalloc

import numpy as np
import pytest

from cnlab import solver
from cnlab.fields import (SpectralVectorField, _lp_norms, divergence_sup, linf, lp_norm,
                          zero_field)
from cnlab.grid import Grid
from cnlab.monitor import monitor
from cnlab.semigroup import TimeGrid, duhamel_L, heat
from cnlab.solver import (BlowupSuspected, EtdrkOptions, NonConvergence,
                          PicardOptions, SolverConfig, Trajectory, compare_trajectories,
                          etdrk4_integrate, etdrk4_rows, kato_smallness, make_profile,
                          picard_solve, probe_contraction_threshold)

from helpers import picard_reference, rel_err, single_mode_vector

PI_SQRT2 = 4.442882938158366  # L2 norm of a unit single-mode component in 2d


class TestMakeProfile:
    def test_taylor_green_2d(self):
        g = Grid(2, 32)
        u = make_profile(g, "taylor_green_2d")
        assert divergence_sup(u) <= 1e-13
        assert linf(u) == pytest.approx(1.0, rel=1e-12)

    def test_taylor_green_3d(self):
        g = Grid(3, 16)
        u = make_profile(g, "taylor_green_3d", amplitude=0.5)
        assert divergence_sup(u) <= 1e-13

    def test_random_divfree(self):
        g = Grid(2, 32)
        u = make_profile(g, "random_divfree", amplitude=0.3, seed=9)
        assert divergence_sup(u) <= 1e-12
        assert linf(u) == pytest.approx(0.3, rel=1e-12)

    def test_deterministic_in_seed(self):
        g = Grid(3, 16)
        a = make_profile(g, "random_divfree", seed=4)
        b = make_profile(g, "random_divfree", seed=4)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_amplitude_is_a_pure_scale(self):
        g = Grid(2, 16)
        one = make_profile(g, "random_divfree", amplitude=1.0, seed=2)
        big = make_profile(g, "random_divfree", amplitude=2.5, seed=2)
        assert np.array_equal(big.coeffs, 2.5 * one.coeffs)

    def test_kind_and_dim_validation(self):
        with pytest.raises(ValueError):
            make_profile(Grid(2, 16), "vortex_sheet")
        with pytest.raises(ValueError):
            make_profile(Grid(2, 16), "taylor_green_3d")
        with pytest.raises(ValueError):
            make_profile(Grid(3, 16), "taylor_green_2d")


class TestKatoSmallness:
    def test_zero_data(self, g2_16):
        assert kato_smallness(zero_field(g2_16), 1.0) == 0.0

    def test_single_mode_closed_form(self):
        # (1 + a*pi*sqrt2) * max_t sqrt(t) a e^{-4 nu t}, max at t = 1/(8 nu)
        g = Grid(2, 32)
        a = 0.7
        u = single_mode_vector(g, (2, 0), 1, amplitude=a)
        got = kato_smallness(u, 1.0, nu=1.0)
        want = (1.0 + a * PI_SQRT2) * a * math.sqrt(0.125) * math.exp(-0.5)
        assert got == pytest.approx(want, rel=0.01)

    def test_horizon_monotone_exactly(self):
        g = Grid(2, 16)
        u = single_mode_vector(g, (1, 0), 1, amplitude=0.4)
        vals = [kato_smallness(u, h) for h in (0.01, 0.05, 0.2, 1.0, 2.0)]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_horizon_below_the_ladder_base(self):
        # the ladder's first point is 1e-6; a shorter horizon is its own one point
        u = single_mode_vector(Grid(2, 16), (1, 0), 1, amplitude=0.4)
        assert solver._kato_ladder(5e-7).tolist() == [5e-7]
        want = (1.0 + lp_norm(u, 2.0)) * (math.sqrt(5e-7) * linf(heat(u, 5e-7)))
        assert kato_smallness(u, 5e-7) == want

    def test_superadditive_in_amplitude(self):
        g = Grid(2, 16)
        u = single_mode_vector(g, (1, 0), 1, amplitude=0.4)
        one = kato_smallness(u, 0.5)
        two = kato_smallness(u * 2.0, 0.5)
        assert two > 2.0 * one


class TestPicard:
    def test_zero_data(self, g2_16):
        cfg = SolverConfig(dim=2, res=16, picard=PicardOptions(node_count=8))
        traj, rep = picard_solve(zero_field(g2_16), cfg)
        assert rep.converged and rep.iterations == 1
        assert all(linf(s) == 0.0 for s in traj.states)

    def test_taylor_green_exact(self):
        g = Grid(2, 32)
        u0 = make_profile(g, "taylor_green_2d")
        cfg = SolverConfig(dim=2, res=32, nu=1.0, horizon=1.0,
                           picard=PicardOptions(node_count=64))
        traj, rep = picard_solve(u0, cfg)
        assert rep.converged and rep.iterations <= 2
        assert len(traj.states) == 65
        assert np.array_equal(traj.times, traj.tgrid.nodes)
        worst = max(rel_err(s.coeffs, math.exp(-2.0 * t) * u0.coeffs)
                    for t, s in zip(traj.times, traj.states))
        assert worst <= 1e-12
        assert traj.meta["converged"] is True and traj.meta["nu"] == 1.0

    def test_graded_nodes(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "taylor_green_2d", amplitude=0.5)
        cfg = SolverConfig(dim=2, res=16, horizon=1.0,
                           picard=PicardOptions(node_count=4, grading="graded",
                                                grading_power=2.0))
        traj, _ = picard_solve(u0, cfg)
        assert np.allclose(traj.tgrid.nodes, [0.0, 1 / 16, 4 / 16, 9 / 16, 1.0])

    def test_grid_config_mismatch(self, g2_16):
        cfg = SolverConfig(dim=2, res=32)
        with pytest.raises(ValueError):
            picard_solve(zero_field(g2_16), cfg)

    def test_nonconvergence_carries_partial_result(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "random_divfree", amplitude=1.0, seed=3)
        cfg = SolverConfig(dim=2, res=16, nu=0.05, horizon=1.0,
                           picard=PicardOptions(max_iters=3, node_count=16))
        with pytest.raises(NonConvergence) as exc:
            picard_solve(u0, cfg)
        rep = exc.value.report
        assert not rep.converged and rep.iterations == 3
        assert len(rep.increments) == 3
        assert len(exc.value.trajectory.states) == 17

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_iteration_leaves_the_heat_trajectory(self, dim):
        # the heat term comes from one decay table, by the expressions of heat();
        # negated, the empty modes are -0.0, which heat(u0, 0) copies as they are
        g = Grid(dim, 16)
        u0 = -make_profile(g, "random_divfree", amplitude=0.3, seed=7)
        cfg = SolverConfig(dim=dim, res=16, nu=0.7, horizon=0.2,
                           picard=PicardOptions(max_iters=0, node_count=6,
                                                grading="graded"))
        with pytest.raises(NonConvergence) as exc:
            picard_solve(u0, cfg)
        traj = exc.value.trajectory
        assert traj.coeffs.shape == (7, dim) + g.spectral_shape
        for t, row in zip(traj.times, traj.coeffs):
            assert row.tobytes() == heat(u0, float(t), 0.7).coeffs.tobytes()

    @pytest.mark.parametrize("max_iters", [0, 1, 2, 25])
    @pytest.mark.parametrize("grading", ["uniform", "graded"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sweep_matches_the_whole_trajectory_iteration(self, dim, grading, max_iters):
        # 25 iterations converge; fewer leave the NonConvergence partial trajectory
        self.assert_matches_reference(dim, grading, max_iters, nu=0.7, amplitude=0.3)

    @pytest.mark.parametrize("amplitude", [1e3, 1e155])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_diverging_sweep_matches_the_whole_trajectory_iteration(self, dim, amplitude):
        # 1e3 at nu = 1e-3 diverges by growth, 1e155 by a nan first iterate
        self.assert_matches_reference(dim, "uniform", 25, nu=1e-3, amplitude=amplitude,
                                      diverges=True)

    @staticmethod
    def assert_matches_reference(dim, grading, max_iters, nu, amplitude, diverges=False):
        g = Grid(dim, 16)
        u0 = make_profile(g, "random_divfree", amplitude=amplitude, seed=1)
        cfg = SolverConfig(dim=dim, res=16, nu=nu, horizon=0.2,
                           picard=PicardOptions(max_iters=max_iters, node_count=6,
                                                grading=grading))
        try:
            traj, rep = picard_solve(u0, cfg)
            reason = "converged"
        except NonConvergence as exc:
            traj, rep, reason = exc.trajectory, exc.report, str(exc)
        coeffs, increments = picard_reference(u0, cfg)
        if diverges:
            assert reason == "increment diverged"
        elif max_iters < 25:
            assert reason == f"no contraction within {max_iters} iterations"
        else:
            assert reason == "converged" and rep.iterations > 2
        assert traj.coeffs.tobytes() == coeffs.tobytes()
        # as float64 bytes, so that a nan increment matches itself
        assert np.array(rep.increments).tobytes() == np.array(increments).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_increment_not_finite_when_a_node_is_not(self, g2_16, bad):
        # max() drops a nan, so a nan node once read as increment 0: converged
        nodes = np.linspace(0.0, 1.0, 3)
        prev = np.stack([zero_field(g2_16).coeffs for _ in nodes])
        curr = np.stack([single_mode_vector(g2_16, (1, 0), 1).coeffs for _ in nodes])
        curr[1, 0, 0, 1] = bad

        def increment(prev, curr, nodes):
            norms = [_lp_norms(g2_16, b - a, (math.inf, 2.0)) for a, b in zip(prev, curr)]
            return solver._kato_increment(nodes, norms)

        assert not math.isfinite(increment(prev, curr, nodes))
        assert math.isfinite(increment(prev, curr[:1], nodes))


class TestEtdrk4:
    def test_taylor_green_exact(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "taylor_green_2d")
        cfg = SolverConfig(dim=2, res=16, nu=1.0, horizon=0.5,
                           picard=PicardOptions(node_count=8),
                           etdrk4=EtdrkOptions(dt=0.05))
        traj = etdrk4_integrate(u0, cfg)
        assert np.array_equal(traj.states[0].coeffs, u0.coeffs)
        worst = max(rel_err(s.coeffs, math.exp(-2.0 * t) * u0.coeffs)
                    for t, s in zip(traj.times, traj.states))
        assert worst <= 1e-10
        assert traj.meta["dt"] == 0.05

    def test_graded_grid_holds_one_set_of_weights(self):
        # every graded interval steps by its own size; each size's six weight
        # arrays once stayed alive until the solve returned
        u0 = make_profile(Grid(3, 16), "random_divfree", amplitude=0.5, seed=5)
        peaks = {}
        for grading in ("graded", "uniform"):
            cfg = SolverConfig(dim=3, res=16, horizon=0.05, etdrk4=EtdrkOptions(dt=0.05),
                               picard=PicardOptions(node_count=16, grading=grading))
            tracemalloc.start()
            try:
                etdrk4_integrate(u0, cfg)
                peaks[grading] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        weight_bytes = 6 * u0.coeffs[0].nbytes
        assert peaks["graded"] <= peaks["uniform"] + 2 * weight_bytes

    def test_fourth_order_convergence(self):
        # successive-refinement differences should shrink ~16x per halving
        g = Grid(3, 16)
        u0 = make_profile(g, "random_divfree", amplitude=0.5, seed=5)
        T = 0.1
        finals = []
        for dt in (T / 8, T / 16, T / 32, T / 64):
            cfg = SolverConfig(dim=3, res=16, nu=0.3, horizon=T,
                               picard=PicardOptions(node_count=4),
                               etdrk4=EtdrkOptions(dt=dt))
            finals.append(etdrk4_integrate(u0, cfg).states[-1])
        d = [linf(finals[i] - finals[i + 1]) for i in range(3)]
        assert d[0] / d[1] >= 11.0 and d[1] / d[2] >= 11.0

    def test_rows_leave_the_error_state_alone(self):
        # numpy's error state is a context variable: one held across a yield
        # would reach the consumer
        g = Grid(2, 16)
        u0 = make_profile(g, "random_divfree", amplitude=1e3, seed=1)
        cfg = SolverConfig(dim=2, res=16, nu=1e-3, horizon=1.0,
                           picard=PicardOptions(node_count=10),
                           etdrk4=EtdrkOptions(dt=0.05))
        before = np.geterr()
        rows = etdrk4_rows(u0, cfg)
        for _ in range(2):
            next(rows)
            assert np.geterr() == before
        with pytest.raises(BlowupSuspected):
            next(rows)
        assert np.geterr() == before

    def test_rows_are_fresh_arrays_of_the_collected_trajectory(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "random_divfree", amplitude=0.3, seed=1)
        cfg = SolverConfig(dim=2, res=16, nu=0.7, horizon=0.2,
                           picard=PicardOptions(node_count=8),
                           etdrk4=EtdrkOptions(dt=0.005))
        rows = list(etdrk4_rows(u0, cfg))
        assert not any(np.shares_memory(a, b) for i, a in enumerate(rows)
                       for b in rows[i + 1:] + [u0.coeffs])
        assert np.stack(rows).tobytes() == etdrk4_integrate(u0, cfg).coeffs.tobytes()

    def test_blowup_carries_partial_trajectory(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "random_divfree", amplitude=1e3, seed=1)
        cfg = SolverConfig(dim=2, res=16, nu=1e-3, horizon=1.0,
                           picard=PicardOptions(node_count=10),
                           etdrk4=EtdrkOptions(dt=0.05))
        with pytest.raises(BlowupSuspected) as exc:
            etdrk4_integrate(u0, cfg)
        assert exc.value.time == pytest.approx(0.2)
        assert exc.value.trajectory.meta["blowup_time"] == exc.value.time
        assert len(exc.value.trajectory.states) == 2
        assert np.array_equal(exc.value.trajectory.times, cfg.time_grid().nodes[:2])
        assert np.all(np.isfinite(exc.value.last_state.coeffs))

    def test_streamed_blowup_carries_the_last_finite_state(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "random_divfree", amplitude=1e3, seed=1)
        cfg = SolverConfig(dim=2, res=16, nu=1e-3, horizon=1.0,
                           picard=PicardOptions(node_count=10),
                           etdrk4=EtdrkOptions(dt=0.05))
        rows = []
        with pytest.raises(BlowupSuspected) as exc:
            for row in etdrk4_rows(u0, cfg):
                rows.append(row)
        assert len(rows) == 2 and exc.value.time == pytest.approx(0.2)
        # the row yielded last, at t = 0.1, on the time grid from there on
        last = exc.value.last_state.coeffs
        assert np.shares_memory(last, rows[-1]) and np.array_equal(last, rows[-1])
        traj = exc.value.trajectory
        nodes = cfg.time_grid().nodes
        assert len(traj.coeffs) == 1 and np.array_equal(traj.tgrid.nodes, nodes[1:])
        assert traj.times.tolist() == [nodes[1]]

    def test_a_caller_trap_is_not_a_blowup(self):
        # underflow in the heat factors of a finite solve: only the caller's
        # trap raises, and it reaches the caller as Picard's does
        g = Grid(2, 64)
        u0 = make_profile(g, "random_divfree", amplitude=0.1, seed=1)
        cfg = SolverConfig(dim=2, res=64, nu=1.0, horizon=1.0,
                           picard=PicardOptions(node_count=2),
                           etdrk4=EtdrkOptions(dt=0.5))
        for solve in (etdrk4_integrate, picard_solve):
            with np.errstate(under="raise"), pytest.raises(FloatingPointError):
                solve(u0, cfg)
        assert np.all(np.isfinite(etdrk4_integrate(u0, cfg).coeffs))

    def test_blowup_trajectory_is_the_finite_states(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "random_divfree", amplitude=1e3, seed=1)
        cfg = SolverConfig(dim=2, res=16, nu=1e-3, horizon=1.0,
                           picard=PicardOptions(node_count=10),
                           etdrk4=EtdrkOptions(dt=0.05))
        with pytest.raises(BlowupSuspected) as exc:
            etdrk4_integrate(u0, cfg)
        coeffs = exc.value.trajectory.coeffs
        # the states at t = 0 and 0.1, as a run that stops at 0.1 records them
        short = SolverConfig(dim=2, res=16, nu=1e-3, horizon=0.1,
                             picard=PicardOptions(node_count=1),
                             etdrk4=EtdrkOptions(dt=0.05))
        assert coeffs.tobytes() == etdrk4_integrate(u0, short).coeffs.tobytes()
        assert np.all(np.isfinite(coeffs))
        last = exc.value.last_state.coeffs
        assert np.shares_memory(last, coeffs[-1]) and np.array_equal(last, coeffs[-1])

    def test_weights_built_once_per_step_size(self, monkeypatch):
        calls = []
        for name in ("phi1", "phi2", "phi3"):
            fn = getattr(solver, name)
            monkeypatch.setattr(solver, name,
                                lambda z, fn=fn: calls.append(fn) or fn(z))
        g = Grid(2, 16)
        cfg = SolverConfig(dim=2, res=16, horizon=0.5,
                           picard=PicardOptions(node_count=32),
                           etdrk4=EtdrkOptions(dt=0.004))
        etdrk4_integrate(make_profile(g, "taylor_green_2d"), cfg)
        # phi1(z), phi2(z), phi3(z), phi1(z/2) once per distinct step size;
        # uniform node spacings agree to the bit for most intervals
        spans = set(np.diff(cfg.time_grid().nodes).tolist())
        assert len(calls) == 4 * len(spans) < 4 * 32

    def test_invalid_dt(self, g2_16):
        cfg = SolverConfig(dim=2, res=16, etdrk4=EtdrkOptions(dt=-0.1))
        with pytest.raises(ValueError):
            etdrk4_integrate(zero_field(g2_16), cfg)


class TestTrajectory:
    def test_states_view_the_rows(self, g2_16):
        u = single_mode_vector(g2_16, (1, 0), 1)
        traj = Trajectory(g2_16, TimeGrid.uniform(1.0, 1), np.stack([u.coeffs, u.coeffs]), "x")
        assert all(np.shares_memory(s.coeffs, row) for s, row in zip(traj.states, traj.coeffs))
        assert np.array_equal(traj.times, [0.0, 1.0])

    def test_rejects_what_does_not_stack_states(self, g2_16):
        u = single_mode_vector(g2_16, (1, 0), 1)
        tg = TimeGrid.uniform(1.0, 1)
        for bad in ([u, u], u.coeffs, np.stack([u.coeffs, u.coeffs])[:, :1]):
            with pytest.raises(ValueError, match="do not stack states"):
                Trajectory(g2_16, tg, bad, "x")


class TestStatesOwnTheirArrays:
    """No two states of a result share memory, with each other or with u0."""

    @staticmethod
    def assert_disjoint(u0, states):
        arrays = [u0.coeffs] + [s.coeffs for s in states]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def setup_method(self):
        self.u0 = make_profile(Grid(2, 16), "random_divfree", amplitude=0.3, seed=5)
        self.kept = self.u0.coeffs.copy()
        self.cfg = SolverConfig(dim=2, res=16, horizon=0.1,
                                picard=PicardOptions(node_count=4),
                                etdrk4=EtdrkOptions(dt=0.01))

    def teardown_method(self):
        assert np.array_equal(self.u0.coeffs, self.kept)  # u0 is never written

    def test_picard(self):
        traj, _ = picard_solve(self.u0, self.cfg)
        self.assert_disjoint(self.u0, traj.states)
        self.cfg.picard.max_iters = 0  # the heat term alone
        with pytest.raises(NonConvergence) as exc:
            picard_solve(self.u0, self.cfg)
        self.assert_disjoint(self.u0, exc.value.trajectory.states)

    def test_etdrk4(self):
        self.assert_disjoint(self.u0, etdrk4_integrate(self.u0, self.cfg).states)

    def test_duhamel(self):
        tg = TimeGrid.uniform(0.1, 4)
        path = [heat(self.u0, float(t)) for t in tg.nodes]
        out = duhamel_L(path, tg)
        self.assert_disjoint(self.u0, path + [SpectralVectorField(self.u0.grid, c) for c in out])


class TestCrossValidate:
    @staticmethod
    def both_routes(u0, cfg):
        """compare_trajectories of the two routes, and Picard's report."""
        traj, report = picard_solve(u0, cfg)
        etd = etdrk4_integrate(u0, cfg)
        return compare_trajectories(traj.states, etd.states, [linf(s) for s in etd.states],
                                    cfg.cross_tol), report

    def test_zero_data(self, g2_16):
        cfg = SolverConfig(dim=2, res=16, horizon=0.5,
                           picard=PicardOptions(node_count=8),
                           etdrk4=EtdrkOptions(dt=0.05))
        cv, _ = self.both_routes(zero_field(g2_16), cfg)
        assert cv["discrepancy"] == 0.0 and cv["passed"]

    def test_taylor_green(self):
        g = Grid(2, 16)
        u0 = make_profile(g, "taylor_green_2d")
        cfg = SolverConfig(dim=2, res=16, horizon=0.5, cross_tol=1e-6,
                           picard=PicardOptions(node_count=8),
                           etdrk4=EtdrkOptions(dt=0.01))
        cv, _ = self.both_routes(u0, cfg)
        assert cv["discrepancy"] <= 1e-10 and cv["passed"]

    def test_random_3d_small_data(self):
        g = Grid(3, 16)
        u0 = make_profile(g, "random_divfree", amplitude=0.25, seed=7)
        cfg = SolverConfig(dim=3, res=16, nu=1.0, horizon=0.25,
                           picard=PicardOptions(node_count=32),
                           etdrk4=EtdrkOptions(dt=2.5e-3))
        cv, report = self.both_routes(u0, cfg)
        assert cv["passed"] and cv["discrepancy"] <= 1e-4
        assert report.iterations <= 10
        assert len(cv["node_errors"]) == 33

    @pytest.mark.parametrize("spoiled", ["a", "b"])
    def test_nan_at_a_later_node_fails(self, g2_16, spoiled):
        # the builtin max() dropped a nan unless it came first: this once
        # reported discrepancy 0.0 and passed
        u = single_mode_vector(g2_16, (1, 2), 0)
        rows = np.stack([u.coeffs] * 4)
        spoilt = rows.copy()
        spoilt[2, 0, 1, 2] = np.nan
        tg = TimeGrid.uniform(1.0, 3)
        good, bad = Trajectory(g2_16, tg, rows, "a"), Trajectory(g2_16, tg, spoilt, "b")
        a, b = (bad, good) if spoiled == "a" else (good, bad)
        cmp = compare_trajectories(a.states, b.states, [linf(s) for s in b.states], 1e-4)
        assert math.isnan(cmp["discrepancy"])
        assert cmp["passed"] is False
        assert math.isnan(cmp["node_errors"][2])

    def test_sup_norms_of_b_come_from_the_caller(self, g2_16, monkeypatch):
        # the caller's values, the monitor records' lp_inf in simulate, scale
        # the errors; only the node differences are transformed here
        u = single_mode_vector(g2_16, (1, 2), 0)
        tg = TimeGrid.uniform(1.0, 3)
        a = Trajectory(g2_16, tg, np.stack([u.coeffs * (1 + m) for m in range(4)]), "a")
        b = Trajectory(g2_16, tg, np.stack([u.coeffs * (1 + 2 * m) for m in range(4)]), "b")
        b_linf = [linf(s) for s in b.states]
        seen = []
        monkeypatch.setattr(solver, "linf", lambda f: seen.append(f) or linf(f))
        cmp = compare_trajectories(a.states, b.states, b_linf, 1e-4)
        assert len(seen) == 4
        for f, sa, sb in zip(seen, a.states, b.states):
            assert np.array_equal(f.coeffs, (sa - sb).coeffs)
        assert cmp["node_errors"] == [linf(sa - sb) / max(b_linf)
                                      for sa, sb in zip(a.states, b.states)]
        with pytest.raises(ValueError, match="3 values for 4 states"):
            compare_trajectories(a.states, b.states, b_linf[:3], 1e-4)


class TestContractionProbe:
    def test_sweep_brackets_boundary(self):
        g = Grid(2, 16)
        base = make_profile(g, "random_divfree", amplitude=1.0, seed=11)
        cfg = SolverConfig(dim=2, res=16, nu=0.1, horizon=0.5,
                           picard=PicardOptions(node_count=16, max_iters=20))
        rep = probe_contraction_threshold(base, cfg, [0.05, 0.2, 0.8, 3.2, 12.8])
        assert rep.monotone
        assert rep.last_converged == 0.8
        assert rep.first_diverged == 3.2
        katos = [e.kato for e in rep.entries]
        assert all(katos[i] < katos[i + 1] for i in range(4))
        lo = max(e.kato for e in rep.entries if e.converged)
        hi = min(e.kato for e in rep.entries if not e.converged)
        assert lo < rep.candidate_threshold < hi


NAN = float("nan")
_U = make_profile(Grid(2, 8), "taylor_green_2d")
_TRAJ = Trajectory(_U.grid, TimeGrid.uniform(1.0, 1), np.stack([_U.coeffs] * 2), "synthetic")


@pytest.mark.parametrize("call, match", [
    (lambda: lp_norm(_U, NAN), "1 <= p"),
    (lambda: monitor(_TRAJ, kato_horizon=NAN), "kato_horizon"),
    (lambda: TimeGrid(np.array([0.0, NAN, 1.0])), "finite"),
    (lambda: TimeGrid(np.array([0.0, 1.0, math.inf])), "finite"),
    (lambda: TimeGrid.uniform(NAN, 4), "horizon must be positive"),
    (lambda: TimeGrid.graded(NAN, 4), "must be positive"),
    (lambda: TimeGrid.graded(1.0, 4, NAN), "must be positive"),
    (lambda: heat(_U, NAN), "t >= 0"),
    (lambda: heat(_U, 0.1, NAN), "viscosity"),
    (lambda: duhamel_L([_U, _U], TimeGrid.uniform(1.0, 1), NAN), "viscosity"),
    (lambda: SolverConfig(nu=NAN), "viscosity"),
    (lambda: SolverConfig(horizon=NAN), "horizon"),
    (lambda: kato_smallness(_U, NAN), "horizon must be positive"),
    (lambda: kato_smallness(_U, 1.0, NAN), "viscosity"),
    (lambda: etdrk4_integrate(_U, SolverConfig(res=8, etdrk4=EtdrkOptions(dt=NAN))),
     "dt must be positive"),
], ids=["lp_norm", "monitor", "TimeGrid-nan", "TimeGrid-inf",
        "uniform", "graded-horizon", "graded-power", "heat-t", "heat-nu", "duhamel_L",
        "SolverConfig-nu", "SolverConfig-horizon", "kato_ladder", "kato-nu",
        "etdrk4-dt"])
def test_nan_fails_every_range_guard(call, match):
    # each guard once read "if x <= 0", which a NaN passes
    with pytest.raises(ValueError, match=match):
        call()
