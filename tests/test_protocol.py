import dataclasses
import json
import time

import numpy as np
import pytest

from cqlock import (
    after_key_table,
    build_locking_state,
    classical_mutual_information,
    induced_table,
    Povm,
    key_then_measure_info,
    measured_mutual_information,
    projective_povm,
    shannon_entropy,
    simulate_locking_run,
)
from cqlock.protocol import _miller_madow_mi, _plugin_mi_and_stderr

from conftest import conditional_mutual_information, key_information, one_time_pad_table


class TestSimulateLockingRun:
    def test_after_key_converges_to_m_plus_one(self):
        inst, _ = build_locking_state(1)
        rep = simulate_locking_run(inst, None, 100000, seed=1)
        assert abs(rep.empirical_mi - 2.0) <= 0.02
        assert abs(rep.analytic_mi - 2.0) < 1e-9
        assert rep.decoding_errors == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_after_key_table_matches_key_then_measure(self, m):
        inst, _ = build_locking_state(m)
        rep = simulate_locking_run(inst, None, 1000, seed=0)
        assert abs(rep.analytic_mi - key_then_measure_info(inst)) < 1e-12

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_before_key_table_is_the_induced_table(self, m, family):
        inst, _ = build_locking_state(m, family)
        d = inst.dim_b
        rng = np.random.default_rng(m)
        g = rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d))
        for povm in (projective_povm(inst.basis_unitaries[1]), Povm(np.linalg.qr(g)[0])):
            rep = simulate_locking_run(inst, povm, 1000, seed=0)
            assert abs(rep.analytic_mi - measured_mutual_information(inst.ensemble, povm)) < 1e-12

    def test_before_key_converges_to_half_m(self):
        inst, _ = build_locking_state(1)
        povm = projective_povm(np.eye(2, dtype=complex))
        rep = simulate_locking_run(inst, povm, 100000, seed=1)
        assert abs(rep.empirical_mi - 0.5) <= 0.02
        assert abs(rep.analytic_mi - 0.5) < 1e-9

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["before_key", "after_key"])
    def test_empirical_analytic_convergence(self, m, kind):
        inst, _ = build_locking_state(m)
        povm = projective_povm(np.eye(inst.dim_b, dtype=complex)) if kind == "before_key" else None
        rep = simulate_locking_run(inst, povm, 100000, seed=3)
        assert abs(rep.empirical_mi - rep.analytic_mi) <= 0.02

    def test_single_sample_degeneracy(self):
        inst, _ = build_locking_state(1)
        rep = simulate_locking_run(inst, None, 1, seed=0)
        assert rep.empirical_mi == 0.0

    @pytest.mark.parametrize("povm", [None, projective_povm(np.eye(2))], ids=["after-key", "before-key"])
    def test_rejects_negative_seed(self, povm):
        inst, _ = build_locking_state(1)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            simulate_locking_run(inst, povm, 10, seed=-1)

    def test_determinism(self):
        inst, _ = build_locking_state(1)
        povm = projective_povm(np.eye(2, dtype=complex))
        a = simulate_locking_run(inst, povm, 5000, seed=9)
        b = simulate_locking_run(inst, povm, 5000, seed=9)
        assert a == b

    def test_dimension_mismatch(self):
        inst, _ = build_locking_state(2)
        povm = projective_povm(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            simulate_locking_run(inst, povm, 100, seed=0)

    @pytest.mark.parametrize("n", [0, 2**63])
    def test_sample_count_out_of_range(self, n):
        inst, _ = build_locking_state(1)
        with pytest.raises(ValueError, match="number of samples"):
            simulate_locking_run(inst, None, n, seed=0)

    @pytest.mark.parametrize("n", [1000.5, 1.5, 1e6, 1000.0, True, "1000", None])
    def test_sample_count_must_be_an_integer(self, n):
        # numpy would draw floor(n) rounds of a fractional count, which the report then divides by n
        inst, _ = build_locking_state(1)
        with pytest.raises(ValueError, match="number of samples must be an integer"):
            simulate_locking_run(inst, None, n, 1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        inst, _ = build_locking_state(1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_locking_run(inst, None, 10, seed)

    def test_numpy_integers_accepted(self):
        inst, _ = build_locking_state(2)
        rep = simulate_locking_run(inst, None, np.int64(1000), np.uint32(4))
        assert rep == simulate_locking_run(inst, None, 1000, 4)
        assert json.loads(json.dumps(dataclasses.asdict(rep)))["n_samples"] == 1000

    def test_cost_independent_of_sample_count(self):
        # the count table is drawn whole, so 10**12 rounds cost what 10 do;
        # per-sample arrays would need terabytes here
        inst, _ = build_locking_state(3)
        t0 = time.perf_counter()
        rep = simulate_locking_run(inst, None, 10**12, seed=2)
        assert time.perf_counter() - t0 < 1.0
        assert rep.decoding_errors == 0
        assert abs(rep.empirical_mi - rep.analytic_mi) < 1e-4


def entropy_plugin_mi_and_stderr(counts, n):
    """The plug-in MI from three entropies and its standard error from log-ratios masked on p > 0."""
    p = counts / n
    pa, pb = p.sum(axis=1), p.sum(axis=0)
    mi = shannon_entropy(pa) + shannon_entropy(pb) - shannon_entropy(p)
    mask = p > 0
    dens = np.zeros_like(p)
    dens[mask] = np.log2(p[mask] / np.outer(pa, pb)[mask])
    return mi, np.sqrt(max(float((p * (dens - mi) ** 2).sum()), 0.0) / n)


class TestPluginEstimate:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_the_entropy_formula(self, m):
        # the tables simulate samples, at the benchmark's n = 10^6
        inst, ens = build_locking_state(m)
        n = 1_000_000
        for joint in (after_key_table(inst), induced_table(ens, projective_povm(np.eye(2**m, dtype=complex)))):
            for seed in range(3):
                counts = np.random.default_rng(seed).multinomial(n, joint.ravel()).reshape(joint.shape)
                mi, stderr = _plugin_mi_and_stderr(counts, n)
                ref_mi, ref_stderr = entropy_plugin_mi_and_stderr(counts, n)
                assert abs(mi - ref_mi) <= 1e-12
                assert abs(stderr - ref_stderr) <= 1e-12


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
        reps = [simulate_locking_run(inst, povm, 500, seed=s) for s in range(300)]
        exact = reps[0].analytic_mi
        plug_in_bias = np.mean([r.empirical_mi for r in reps]) - exact
        mm_bias = np.mean([r.miller_madow_mi for r in reps]) - exact
        assert abs(mm_bias) < abs(plug_in_bias)


class TestOneTimePad:
    """The classical foil: an m-bit key that hides an m-bit message completely."""

    def test_m1_hiding_and_revealing(self):
        t = one_time_pad_table(1)
        assert abs(classical_mutual_information(t.sum(axis=2))) < 1e-12
        i_abk = classical_mutual_information(t.reshape(2, -1))
        assert abs(i_abk - 1) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_conditional_information_equals_key(self, m):
        assert abs(key_information(one_time_pad_table(m)) - m) < 1e-12

    def test_chain_rule_residual_zero(self):
        t = one_time_pad_table(1)
        assert abs(key_information(t) - conditional_mutual_information(t)) < 1e-12


class TestKeyBoundCheck:
    """A classical key of |K| values adds at most log2 |K| bits: I(A;BK) - I(A;B) <= log2 |K|."""

    def test_pad_bound_tight(self):
        t = one_time_pad_table(2)
        assert abs(key_information(t) - np.log2(t.shape[2])) < 1e-12
        assert abs(classical_mutual_information(t.sum(axis=2))) < 1e-12
        assert abs(classical_mutual_information(t.reshape(4, -1)) - 2) < 1e-12

    def test_independent_key_full_slack(self):
        ab = np.random.default_rng(4).random((2, 2))
        ab /= ab.sum()
        t = ab[:, :, None] * np.array([0.5, 0.5])[None, None, :]
        assert abs(key_information(t)) < 1e-12
        assert abs(conditional_mutual_information(t)) < 1e-12

    def test_bound_never_violated_on_random_joints(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            t = rng.random((3, 3, 2))
            t /= t.sum()
            assert key_information(t) <= 1 + 1e-12
