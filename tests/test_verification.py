"""Reduced-size runs of every estimate check, plus registry plumbing.

Full-size parameters are exercised by the acceptance suite; these runs shrink
trial counts (never the resolution where the physics needs it) to keep the
unit suite fast while still failing on regressions in the measured constants.
"""

import numpy as np
import pytest

from cnlab.verification import (CHECKS, EXPONENT_TOL, STABILITY_FACTOR,
                                run_checks, smallest_admissible_constant,
                                summary_csv, verify_bony_identity,
                                verify_composite_bound, verify_embedding,
                                verify_heat_ln_linf, verify_oseen_kernel,
                                verify_paraproduct, verify_smoothing)


SMOOTHING_SMALL = dict(trials=3, res=16, nodes=6, T_list=[0.125, 0.25, 0.5, 1.0], seed=2)


@pytest.fixture(scope="module")
def smoothing_small():
    return verify_smoothing(**SMOOTHING_SMALL)


class TestSmoothing:
    def test_reduced_run(self):
        reports = verify_smoothing(levels=[(-1, 1), (0, 2)], trials=12, res=64, nodes=48, seed=0)
        assert [rep.name for rep in reports] == ["smoothing_r-1_a1", "smoothing_r+0_a2"]
        for rep, target in zip(reports, (0.5, 0.0)):
            assert rep.passed
            assert abs(rep.headline_exponent - target) <= EXPONENT_TOL
            assert rep.exponents["tolerance"] == EXPONENT_TOL

    @pytest.mark.parametrize("level", [(-1.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (0.0, 2.0)])
    def test_a_level_alone_reports_as_among_all_four(self, smoothing_small, level):
        # the levels share draws, paths and block sups; none changes another's report
        assert [(rep.params["r"], rep.params["alpha"]) for rep in smoothing_small] == [
            (-1.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (0.0, 2.0)]
        every = {rep.name: rep.to_dict() for rep in smoothing_small}
        (alone,) = verify_smoothing(levels=[level], **SMOOTHING_SMALL)
        assert alone.to_dict() == every[alone.name]
        assert (alone.params["r"], alone.params["alpha"]) == level

    @pytest.mark.parametrize("levels", [[(-1, 3)], [(-1, 1), (0, 3)]])
    def test_rejects_bad_alpha(self, levels):
        with pytest.raises(ValueError, match="alpha must be 1 or 2, got 3"):
            verify_smoothing(levels=levels)

    def test_rejects_short_horizon_list(self):
        with pytest.raises(ValueError):
            verify_smoothing(T_list=[0.5, 0.25, 0.125])


class TestParaproduct:
    def test_reduced_run(self):
        (rep,) = verify_paraproduct(s_list=[1.5], trials=6, res_list=(32, 64), seed=0)
        assert rep.passed
        assert rep.name == "paraproduct_s1.5"
        for fam in ("K_low", "K_const"):
            first = rep.constants[f"{fam}_N32"]
            last = rep.constants[f"{fam}_N64"]
            assert last <= STABILITY_FACTOR * first

    def test_reports_follow_s_list(self):
        # every s reads the same fields and paraproducts
        small = dict(trials=3, res_list=(16, 32), dim=2, seed=4)
        forward = verify_paraproduct(s_list=(1.5, 2.0), **small)
        backward = verify_paraproduct(s_list=[2.0, 1.5], **small)
        assert [rep.name for rep in forward] == ["paraproduct_s1.5", "paraproduct_s2"]
        assert [rep.to_dict() for rep in backward] == [rep.to_dict() for rep in forward[::-1]]

    @pytest.mark.parametrize("s_list", [[1.0], [1.5, 1.0]])
    def test_rejects_subcritical_s(self, s_list):
        with pytest.raises(ValueError, match="requires s > 1, got 1.0"):
            verify_paraproduct(s_list=s_list)


class TestBonyIdentity:
    def test_reduced_run(self):
        (rep,) = verify_bony_identity(pairs=12, res_list=(16,), dims=(2,), seed=0)
        assert rep.passed
        assert rep.constants["max_rel_error"] <= 1e-12
        assert rep.name == "bony_identity"


class TestHeatLnLinf:
    def test_reduced_run(self):
        (rep,) = verify_heat_ln_linf(trials=6, res_list=(16, 32), seed=0)
        assert rep.passed
        assert rep.constants["single_mode_max_rel_err"] <= 0.01
        # sqrt(s)||heat f||_inf never exceeds sqrt(s)||f||_inf
        assert rep.constants["compensated_sup_s1em4"] <= 0.01
        assert rep.constants["halving_factor"] == pytest.approx(2.0**-0.5, rel=1e-3)
        ks = [rep.constants["K_N16"], rep.constants["K_N32"]]
        assert max(ks) <= STABILITY_FACTOR * min(ks)


class TestOseenKernel:
    def test_reduced_run(self):
        (rep,) = verify_oseen_kernel(trials=4, res_list=(32, 128), seed=0)
        assert rep.passed
        assert -0.65 <= rep.exponents["small_t_slope"] <= -0.35
        assert rep.exponents["target"] == -0.5
        sups = [rep.constants["comp_sup_N32"], rep.constants["comp_sup_N128"]]
        assert max(sups) <= STABILITY_FACTOR * min(sups)


class TestEmbedding:
    @pytest.mark.parametrize("mode", ["smooth", "sharp"])
    def test_reduced_run(self, mode):
        (rep,) = verify_embedding(trials=10, res_list=(16, 32), seed=0, mode=mode)
        assert rep.passed
        ks = [rep.constants["K_emb_N16"], rep.constants["K_emb_N32"]]
        assert 0 < max(ks) <= STABILITY_FACTOR * min(ks)


class TestCompositeBound:
    def test_default_run(self):
        (rep,) = verify_composite_bound()
        assert rep.passed
        assert rep.constants["max_reassembly_residual"] <= 1e-6
        assert rep.constants["min_slack_rel"] >= -1e-6

    def test_taylor_green_zero_reference(self):
        (rep,) = verify_composite_bound(profile_kind="taylor_green_2d",
                                     omega="zero", amplitude=1.0)
        assert rep.passed
        assert rep.constants["C_N16"] == 0.0 and rep.constants["C_N32"] == 0.0
        assert rep.constants["max_reassembly_residual"] <= 1e-9

    def test_zero_data(self):
        (rep,) = verify_composite_bound(amplitude=0.0)
        assert rep.passed
        assert rep.constants["max_reassembly_residual"] == 0.0


class TestSmallestAdmissibleConstant:
    def test_hand_value(self):
        got = smallest_admissible_constant(np.array([1.0, 1.2, 1.5]), 0.5)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_never_exceeding_initial_needs_no_constant(self):
        assert smallest_admissible_constant(np.array([2.0, 2.0, 2.0]), 0.5) == 0.0
        assert smallest_admissible_constant(np.array([3.0, 2.0, 1.0]), 0.5) == 0.0

    def test_single_sample(self):
        assert smallest_admissible_constant(np.array([1.0]), 0.5) == 0.0


class TestRegistry:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_checks(["smoothing", "bogus"])

    def test_canonical_order(self):
        sizes = {"embedding": {"trials": 6, "res_list": [16]},
                 "bony_identity": {"pairs": 6, "res_list": [16], "dims": [2]}}
        reps = run_checks(["embedding", "bony_identity"], seed=3, sizes=sizes)
        assert [r.name for r in reps] == ["bony_identity", "embedding"]

    def test_size_key_the_check_does_not_take_raises(self):
        with pytest.raises(TypeError):
            run_checks(["composite_bound"], sizes={"composite_bound": {"trials": 3}})

    def test_registry_names(self):
        assert list(CHECKS) == ["smoothing", "paraproduct", "bony_identity",
                                "heat_ln_linf", "oseen_kernel", "embedding",
                                "composite_bound"]

    def test_deterministic_reports(self):
        (a,) = verify_embedding(trials=6, res_list=(16,), seed=5)
        (b,) = verify_embedding(trials=6, res_list=(16,), seed=5)
        assert a.to_dict() == b.to_dict()

    def test_summary_csv_shape(self):
        (rep,) = verify_bony_identity(pairs=4, res_list=(16,), dims=(2,), seed=1)
        text = summary_csv([rep])
        lines = text.splitlines()
        assert lines[0] == "check,constant,exponent,pass"
        assert lines[1].startswith("bony_identity,") and lines[1].endswith(",pass")
