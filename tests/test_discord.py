import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cqlock import (
    CQEnsemble,
    OptimizerConfig,
    build_locking_state,
    accessible_information,
    holevo_chi,
    key_then_measure_info,
    locking_delta,
    maassen_uffink_bound,
    measured_conditional_entropy,
    quantum_discord_cq,
    random_cq_ensemble,
)
from cqlock.accessible import MAX_DIM_B
from cqlock.qmath import quantum_mutual_information
from cqlock.states import cq_to_density

from conftest import assert_matches_bipartite_oracle, key_extended_ensemble, random_unitary, two_basis_ensemble

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)


def pure_ensemble(vecs, probs=None):
    """Letters |v><v| for the unit rows v of vecs, uniform unless probs is given."""
    n = len(vecs)
    probs = np.full(n, 1.0 / n) if probs is None else np.asarray(probs)
    return CQEnsemble(tuple(range(n)), probs, vecs[:, :, None] * vecs[:, None, :].conj())


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

    @pytest.mark.parametrize("make", [
        lambda: random_cq_ensemble(3, 2, "pure", seed=6),
        lambda: random_cq_ensemble(5, 3, "mixed", seed=15),
        lambda: random_cq_ensemble(12, 4, "mixed", seed=48),
        lambda: random_cq_ensemble(6, 4, "pure", seed=24),
        lambda: build_locking_state(1)[1],
        lambda: build_locking_state(2)[1],
        lambda: build_locking_state(3)[1],
    ], ids=["random-3-2-pure", "random-5-3-mixed", "random-12-4-mixed", "random-6-4-pure",
            "locking-m1", "locking-m2", "locking-m3"])
    def test_min_measured_cond_entropy_is_that_of_the_best_povm(self, make, fast_cfg):
        # the report gives H(A) - I_acc; the best POVM's induced table gives H(A|B) directly
        ens = make()
        rep = quantum_discord_cq(ens, fast_cfg)
        assert abs(rep.min_measured_cond_entropy - measured_conditional_entropy(ens, rep.optimizer.best_povm)) <= 1e-12

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

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [5, 6])
    def test_locking_beyond_the_ascent_cap(self, m, family):
        # d = 32 and 64 exceed MAX_DIM_B, but the computational basis meets the
        # Maassen-Uffink bound, so no ascent runs and the guard is not reached
        _, ens = build_locking_state(m, family)
        assert ens.dim_b > MAX_DIM_B
        opt = quantum_discord_cq(ens).optimizer
        assert opt.certified
        assert opt.per_restart_values == opt.per_restart_iterations == opt.per_restart_grad_norms == ()
        assert abs(opt.upper_bound - m / 2) <= 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 3),
        family=st.sampled_from(["hadamard", "fourier"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_locking_report_invariant_under_rotation_and_relabelling(self, m, family, seed):
        _, ens = build_locking_state(m, family)
        rng = np.random.default_rng(seed)
        u = random_unitary(ens.dim_b, rng)
        perm = rng.permutation(ens.n_letters)
        moved = CQEnsemble(tuple(ens.labels[i] for i in perm), ens.probs[perm], u @ ens.states[perm] @ u.conj().T)
        a, b = quantum_discord_cq(ens), quantum_discord_cq(moved)
        assert a.optimizer.certified and b.optimizer.certified
        assert abs(a.i_acc - b.i_acc) <= 1e-9
        assert abs(a.discord - b.discord) <= 1e-9
        assert abs(a.optimizer.upper_bound - b.optimizer.upper_bound) <= 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 6),
        d=st.integers(2, 3),
        purity=st.sampled_from(["pure", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_report_invariant_under_rotation_and_relabelling(self, n, d, purity, seed):
        # where every start of every search reaches one value, a Haar unitary on B and a
        # relabelling of the letters leave the answer in place
        ens = random_cq_ensemble(n, d, purity, seed=seed)
        rng = np.random.default_rng(seed)
        u = random_unitary(d, rng)
        perm = rng.permutation(n)
        sides = (
            ens,
            CQEnsemble(ens.labels, ens.probs, u @ ens.states @ u.conj().T),
            CQEnsemble(tuple(ens.labels[i] for i in perm), ens.probs[perm], ens.states[perm]),
        )
        reps = [quantum_discord_cq(e) for e in sides]
        assume(all(np.ptp(r.optimizer.per_restart_values or [0.0]) <= 1e-9 for r in reps))
        for rep in reps[1:]:
            assert abs(rep.i_acc - reps[0].i_acc) <= 1e-6
            assert abs(rep.discord - reps[0].discord) <= 1e-6


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
        assert rep.i_acc_upper_bound == maassen_uffink_bound(inst.ensemble)
        assert abs(rep.i_q_without_key - 1) < 1e-9
        assert abs(rep.i_acc_with_key - 2) < 1e-9


class TestMaassenUffinkBound:
    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_search_never_exceeds_the_bound(self, m, family):
        inst, ens = build_locking_state(m, family)
        assert accessible_information(ens, OptimizerConfig()).value <= maassen_uffink_bound(ens) + 1e-9

    def test_bound_caps_random_measurements(self):
        # I of any rank-1 POVM on the m=2 ensemble, including ones far from either basis
        from cqlock import Povm, measured_mutual_information

        inst, ens = build_locking_state(2, "fourier")
        rng = np.random.default_rng(61)
        bound = maassen_uffink_bound(ens)
        for n in (4, 8, 16):
            for _ in range(20):
                g = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
                v, _ = np.linalg.qr(g)
                assert measured_mutual_information(ens, Povm(v)) <= bound + 1e-12


class TestTwoBasisDetection:
    """maassen_uffink_bound answers only for 2d uniform pure letters that split into two orthonormal bases."""

    def test_locking_ensemble(self):
        inst, ens = build_locking_state(3, "fourier")
        u0, u1 = inst.basis_unitaries
        assert abs(maassen_uffink_bound(ens) - 1.5) <= 1e-12
        assert abs(maassen_uffink_bound(two_basis_ensemble(u0, u1)) - 1.5) <= 1e-12

    def test_non_uniform_probabilities(self):
        inst, _ = build_locking_state(2)
        probs = np.full(8, 1 / 8) + np.array([1e-3, -1e-3, 0, 0, 0, 0, 0, 0])
        assert maassen_uffink_bound(two_basis_ensemble(*inst.basis_unitaries, probs)) is None

    def test_one_mixed_letter(self):
        _, ens = build_locking_state(2)
        states = ens.states.copy()
        states[0] = 0.9 * states[0] + 0.1 * states[2]
        assert maassen_uffink_bound(CQEnsemble(ens.labels, ens.probs, states)) is None

    def test_pure_letters_that_are_not_two_bases(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        # eight random pure letters in C^4, no two orthogonal
        vecs = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert maassen_uffink_bound(pure_ensemble(vecs)) is None
        # |00>, |01>, |0+>, |0->: two bases of the first block; |10>, |11>, |1+> and a
        # random |1 psi> in the second cannot split, since |10>, |1+>, |1 psi> overlap pairwise
        psi = g[0, :2] / np.linalg.norm(g[0, :2])
        blocks = np.array([[1, 0], [0, 1], [2**-0.5, 2**-0.5], [2**-0.5, -(2**-0.5)]], dtype=complex)
        vecs = np.zeros((8, 4), dtype=complex)
        vecs[:4, :2] = blocks
        vecs[4:7, 2:] = blocks[:3]
        vecs[7, 2:] = psi
        assert maassen_uffink_bound(pure_ensemble(vecs)) is None

    @pytest.mark.parametrize("n_bases", [1, 3])
    def test_letter_count_other_than_2d(self, n_bases):
        # one basis, or the three qubit Pauli bases
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        y = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
        vecs = np.concatenate([np.eye(2), h.T, y.T][:n_bases]).astype(complex)
        assert maassen_uffink_bound(pure_ensemble(vecs)) is None

    def test_letter_permutation(self):
        rng = np.random.default_rng(9)
        # Z(x)Z and Z(x)X share orthogonal pairs across the bases, so their graph of
        # non-orthogonal pairs is not complete bipartite
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = random_unitary(4, rng)
        ens = two_basis_ensemble(u, u @ np.kron(np.eye(2), h))
        bound = maassen_uffink_bound(ens)
        assert abs(bound - 1.5) <= 1e-12
        for _ in range(5):
            perm = rng.permutation(8)
            permuted = CQEnsemble(ens.labels, ens.probs[perm], ens.states[perm])
            assert maassen_uffink_bound(permuted) == bound
        # measuring in the first basis attains the bound, which certifies the search
        res = accessible_information(ens, OptimizerConfig(restarts=2))
        assert res.certified
        assert abs(res.value - 1.5) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_non_mutually_unbiased_pair(self, seed):
        u1 = random_unitary(4, np.random.default_rng(seed))
        ens = two_basis_ensemble(np.eye(4, dtype=complex), u1)
        c = np.max(np.abs(u1))
        assert c > 0.5
        assert abs(maassen_uffink_bound(ens) - (2 + np.log2(c))) <= 1e-12
        assert accessible_information(ens).value <= maassen_uffink_bound(ens) + 1e-9


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
