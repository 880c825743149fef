import time

import numpy as np
import pytest

from cqlock import (
    StrategySpec,
    build_locking_state,
    classical_key_bound_check,
    classical_mutual_information,
    conditional_mutual_information,
    Povm,
    key_then_measure_info,
    measured_mutual_information,
    one_time_pad_joint,
    projective_povm,
    simulate_locking_run,
)
from cqlock.protocol import _miller_madow_mi


class TestSimulateLockingRun:
    def test_after_key_converges_to_m_plus_one(self):
        inst, _ = build_locking_state(1)
        rep = simulate_locking_run(inst, StrategySpec("after_key"), 100000, seed=1)
        assert abs(rep.empirical_mi - 2.0) <= 0.02
        assert abs(rep.analytic_mi - 2.0) < 1e-9
        assert rep.decoding_errors == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_after_key_table_matches_key_then_measure(self, m):
        inst, _ = build_locking_state(m)
        rep = simulate_locking_run(inst, StrategySpec("after_key"), 1000, seed=0)
        assert abs(rep.analytic_mi - key_then_measure_info(inst)) < 1e-12

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_before_key_table_is_the_induced_table(self, m, family):
        inst, _ = build_locking_state(m, family)
        d = inst.dim_b
        rng = np.random.default_rng(m)
        g = rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d))
        for povm in (projective_povm(inst.basis_unitaries[1]), Povm(np.linalg.qr(g)[0])):
            rep = simulate_locking_run(inst, StrategySpec("before_key", povm), 1000, seed=0)
            assert abs(rep.analytic_mi - measured_mutual_information(inst.ensemble, povm)) < 1e-12

    def test_before_key_converges_to_half_m(self):
        inst, _ = build_locking_state(1)
        povm = projective_povm(np.eye(2, dtype=complex))
        rep = simulate_locking_run(inst, StrategySpec("before_key", povm), 100000, seed=1)
        assert abs(rep.empirical_mi - 0.5) <= 0.02
        assert abs(rep.analytic_mi - 0.5) < 1e-9

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["before_key", "after_key"])
    def test_empirical_analytic_convergence(self, m, kind):
        inst, _ = build_locking_state(m)
        povm = projective_povm(np.eye(inst.dim_b, dtype=complex)) if kind == "before_key" else None
        rep = simulate_locking_run(inst, StrategySpec(kind, povm), 100000, seed=3)
        assert abs(rep.empirical_mi - rep.analytic_mi) <= 0.02

    def test_single_sample_degeneracy(self):
        inst, _ = build_locking_state(1)
        rep = simulate_locking_run(inst, StrategySpec("after_key"), 1, seed=0)
        assert rep.empirical_mi == 0.0

    def test_determinism(self):
        inst, _ = build_locking_state(1)
        povm = projective_povm(np.eye(2, dtype=complex))
        a = simulate_locking_run(inst, StrategySpec("before_key", povm), 5000, seed=9)
        b = simulate_locking_run(inst, StrategySpec("before_key", povm), 5000, seed=9)
        assert a == b

    def test_dimension_mismatch(self):
        inst, _ = build_locking_state(2)
        povm = projective_povm(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            simulate_locking_run(inst, StrategySpec("before_key", povm), 100, seed=0)

    @pytest.mark.parametrize("n", [0, 2**63])
    def test_sample_count_out_of_range(self, n):
        inst, _ = build_locking_state(1)
        with pytest.raises(ValueError, match="number of samples"):
            simulate_locking_run(inst, StrategySpec("after_key"), n, seed=0)

    def test_cost_independent_of_sample_count(self):
        # the count table is drawn whole, so 10**12 rounds cost what 10 do;
        # per-sample arrays would need terabytes here
        inst, _ = build_locking_state(3)
        t0 = time.perf_counter()
        rep = simulate_locking_run(inst, StrategySpec("after_key"), 10**12, seed=2)
        assert time.perf_counter() - t0 < 1.0
        assert rep.decoding_errors == 0
        assert abs(rep.empirical_mi - rep.analytic_mi) < 1e-4

    def test_before_key_requires_povm(self):
        with pytest.raises(ValueError):
            StrategySpec("before_key")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            StrategySpec("sideways")


class TestMillerMadow:
    def test_formula_on_hand_built_tables(self):
        # perfectly correlated: 2 + 2 - 2 occupied cells, correction +1/(2n ln 2)
        diag = np.array([[4, 0], [0, 4]])
        assert _miller_madow_mi(diag, 8, 1.0) == pytest.approx(1.0 + 1 / (16 * np.log(2)), abs=1e-15)
        # independent and fully occupied: 2 + 2 - 4 cells, correction -1/(2n ln 2)
        flat = np.full((2, 2), 2)
        assert _miller_madow_mi(flat, 8, 0.0) == pytest.approx(-1 / (16 * np.log(2)), abs=1e-15)
        # an empty row and column count for nothing: 2 + 2 - 3 cells
        sparse = np.array([[3, 1, 0], [0, 0, 0], [0, 2, 0]])
        assert _miller_madow_mi(sparse, 6, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_less_biased_than_plug_in(self):
        inst, _ = build_locking_state(2)
        povm = projective_povm(np.eye(inst.dim_b, dtype=complex))
        reps = [simulate_locking_run(inst, StrategySpec("before_key", povm), 500, seed=s) for s in range(300)]
        exact = reps[0].analytic_mi
        plug_in_bias = np.mean([r.empirical_mi for r in reps]) - exact
        mm_bias = np.mean([r.miller_madow_mi for r in reps]) - exact
        assert abs(mm_bias) < abs(plug_in_bias)


class TestOneTimePad:
    def test_m1_hiding_and_revealing(self):
        j = one_time_pad_joint(1)
        assert abs(classical_mutual_information(j.sum(axis=2))) < 1e-12
        i_abk = classical_mutual_information(j.reshape(2, -1))
        assert abs(i_abk - 1) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_conditional_information_equals_key(self, m):
        j = one_time_pad_joint(m)
        assert abs(conditional_mutual_information(j) - m) < 1e-12

    def test_chain_rule_residual_zero(self):
        rep = classical_key_bound_check(one_time_pad_joint(1))
        assert rep.chain_residual < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_time_pad_joint(0)
        with pytest.raises(ValueError):
            one_time_pad_joint(4)


class TestKeyBoundCheck:
    def test_pad_bound_tight(self):
        rep = classical_key_bound_check(one_time_pad_joint(2))
        assert rep.bound_holds
        assert abs(rep.slack) < 1e-12
        assert abs(rep.i_ab) < 1e-12
        assert abs(rep.i_abk - 2) < 1e-12

    def test_independent_key_full_slack(self):
        ab = np.random.default_rng(4).random((2, 2))
        ab /= ab.sum()
        t = ab[:, :, None] * np.array([0.5, 0.5])[None, None, :]
        rep = classical_key_bound_check(t)
        assert abs(rep.i_ak_given_b) < 1e-12
        assert abs(rep.slack - 1) < 1e-12

    def test_bound_never_violated_on_random_joints(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            t = rng.random((3, 3, 2))
            t /= t.sum()
            assert classical_key_bound_check(t).bound_holds
