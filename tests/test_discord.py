import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlock import (
    CQEnsemble,
    OptimizerConfig,
    build_locking_state,
    accessible_information,
    holevo_chi,
    key_then_measure_info,
    locking_delta,
    maassen_uffink_bound,
    quantum_discord_cq,
    random_cq_ensemble,
)
from cqlock.qmath import quantum_mutual_information
from cqlock.states import cq_to_density

from conftest import assert_matches_bipartite_oracle, key_extended_ensemble

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)


class TestQuantumDiscord:
    def test_orthogonal_ensemble_zero(self, fast_cfg):
        ens = CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, KET1))
        rep = quantum_discord_cq(ens, fast_cfg)
        assert abs(rep.discord) < 1e-6

    def test_locking_m1_half_bit(self, fast_cfg):
        _, ens = build_locking_state(1)
        rep = quantum_discord_cq(ens, fast_cfg)
        assert abs(rep.discord - 0.5) < 1e-3

    def test_bb84_pair_vs_grid_oracle(self):
        from test_accessible import bb84_pair, grid_oracle

        ens = bb84_pair()
        rep = quantum_discord_cq(ens, OptimizerConfig(restarts=10, max_iters=200, seed=0))
        assert abs(rep.discord - (holevo_chi(ens) - grid_oracle(ens))) < 1e-4

    def test_report_is_definitionally_consistent(self, fast_cfg):
        ens = random_cq_ensemble(3, 2, "mixed", seed=5)
        rep = quantum_discord_cq(ens, fast_cfg)
        assert abs(rep.discord - (rep.mutual_info_q - rep.i_acc)) < 1e-12
        assert_matches_bipartite_oracle(ens, rep)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        d=st.integers(2, 4),
        purity=st.sampled_from(["pure", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_ensembles_match_bipartite_oracle(self, n, d, purity, seed):
        ens = random_cq_ensemble(n, d, purity, seed=seed)
        rep = quantum_discord_cq(ens, OptimizerConfig(restarts=2, max_iters=60, seed=0))
        assert_matches_bipartite_oracle(ens, rep)
        assert -1e-9 <= rep.discord <= rep.mutual_info_q + 1e-9

    def test_nonnegativity_and_holevo_ceiling(self):
        cfg = OptimizerConfig(restarts=2, max_iters=60, seed=0)
        for seed in range(20):
            ens = random_cq_ensemble(3, 2, "mixed" if seed % 2 else "pure", seed=seed)
            rep = quantum_discord_cq(ens, cfg)
            assert rep.discord >= -1e-6
            assert rep.discord <= holevo_chi(ens) + 1e-6

    def test_commuting_states_zero_discord(self, fast_cfg):
        # simultaneously diagonal letters: a classical-classical state
        diag = lambda p: np.diag([p, 1 - p]).astype(complex)
        ens = CQEnsemble((0, 1, 2), np.array([0.5, 0.3, 0.2]), (diag(0.9), diag(0.2), diag(0.5)))
        rep = quantum_discord_cq(ens, fast_cfg)
        assert abs(rep.discord) < 1e-6

    def test_local_unitary_invariance(self):
        from conftest import random_unitary
        from cqlock import Povm, measured_mutual_information

        rng = np.random.default_rng(53)
        ens = random_cq_ensemble(3, 2, "pure", seed=8)
        v = random_unitary(2, rng)
        rotated = CQEnsemble(ens.labels, ens.probs, tuple(v @ s @ v.conj().T for s in ens.states))
        cfg = OptimizerConfig(restarts=8, max_iters=200, seed=1)
        a = quantum_discord_cq(ens, cfg)
        b = quantum_discord_cq(rotated, cfg)
        assert abs(a.mutual_info_q - b.mutual_info_q) < 1e-6
        # match the candidate sets by offering each side the other's rotated maximizer
        rotate = lambda povm, u: Povm(povm.vectors @ u.T)
        best_a = max(a.i_acc, measured_mutual_information(ens, rotate(b.optimizer.best_povm, v.conj().T)))
        best_b = max(b.i_acc, measured_mutual_information(rotated, rotate(a.optimizer.best_povm, v)))
        assert abs(best_a - best_b) < 1e-6
        assert abs((a.mutual_info_q - best_a) - (b.mutual_info_q - best_b)) < 1e-6


class TestKeyThenMeasure:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_value(self, m):
        inst, _ = build_locking_state(m)
        assert abs(key_then_measure_info(inst) - (m + 1)) < 1e-9


class TestLockingDelta:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_delta_is_half_m(self, m):
        inst, _ = build_locking_state(m)
        rep = locking_delta(inst)
        assert abs(rep.delta - m / 2) < 1e-9
        assert abs(rep.discord - m / 2) < 1e-9
        assert rep.delta_equals_discord_residual < 1e-9
        assert abs(rep.i_acc_upper_bound - m / 2) <= 1e-12

    def test_report_definitions(self):
        inst, _ = build_locking_state(1)
        rep = locking_delta(inst)
        assert rep.delta == rep.i_acc_with_key - (rep.i_acc_without_key + rep.key_bits)
        assert rep.discord == rep.i_q_without_key - rep.i_acc_without_key
        assert rep.i_acc_upper_bound == maassen_uffink_bound(inst)
        assert abs(rep.i_q_without_key - 1) < 1e-9
        assert abs(rep.i_acc_with_key - 2) < 1e-9


class TestMaassenUffinkBound:
    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_search_never_exceeds_the_bound(self, m, family):
        inst, ens = build_locking_state(m, family)
        assert accessible_information(ens, OptimizerConfig()).value <= maassen_uffink_bound(inst) + 1e-9

    def test_bound_caps_random_measurements(self):
        # I of any rank-1 POVM on the m=2 ensemble, including ones far from either basis
        from cqlock import Povm, measured_mutual_information

        inst, ens = build_locking_state(2, "fourier")
        rng = np.random.default_rng(61)
        bound = maassen_uffink_bound(inst)
        for n in (4, 8, 16):
            for _ in range(20):
                g = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
                v, _ = np.linalg.qr(g)
                assert measured_mutual_information(ens, Povm(v)) <= bound + 1e-12


class TestIdentityChain:
    """The single-copy chain I_acc(with key) = I(A:BK) = I(A:B) + H(K), with I(A:BK) taken on
    the ensemble that also hands Bob the key, so that |Delta - D| is the chain's end-to-end residual."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    def test_three_way_equality(self, m, family):
        inst, ens = build_locking_state(m, family)
        rep = locking_delta(inst)
        i_q_with_key = holevo_chi(key_extended_ensemble(ens, inst.keys, 2))
        i_q_plus_key = rep.i_q_without_key + rep.key_bits
        vals = (rep.i_acc_with_key, i_q_with_key, i_q_plus_key)
        assert max(vals) - min(vals) <= 1e-12
        assert abs(rep.i_acc_with_key - (m + 1)) <= 1e-12
        assert abs(rep.delta_equals_discord_residual - abs(rep.i_acc_with_key - i_q_plus_key)) <= 1e-14
        assert i_q_plus_key <= m + rep.key_bits + 1e-12

    def test_perturbed_ensemble_keeps_inequalities(self):
        # non-locking keyed ensembles obey the two inequalities even though
        # the equalities fail
        for seed in range(10):
            ens = random_cq_ensemble(4, 2, "mixed", seed=seed)
            ext = key_extended_ensemble(ens, [lab % 2 for lab in range(4)], 2)
            iq_with = holevo_chi(ext)
            # A stays classical, so chi is the mutual information of the full bipartite state
            assert abs(iq_with - quantum_mutual_information(cq_to_density(ext), 4, 4)) <= 1e-9
            iq_plus = holevo_chi(ens) + 1
            cap = np.log2(ens.dim_b) + 1
            assert iq_with <= iq_plus + 1e-9
            assert iq_plus <= cap + 1e-9
