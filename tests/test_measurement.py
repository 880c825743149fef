import numpy as np
import pytest

from cqlock import (
    CQEnsemble,
    Povm,
    after_key_table,
    build_locking_state,
    classical_mutual_information,
    induced_table,
    measured_conditional_entropy,
    measured_mutual_information,
    projective_povm,
    random_cq_ensemble,
    shannon_entropy,
    von_neumann_entropy,
)
from cqlock.measurement import measure_b, povm_from_json_dict, povm_to_json_dict
from cqlock.qmath import partial_trace
from cqlock.states import cq_to_density, hadamard_tensor

from conftest import random_unitary

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def orthogonal_ensemble():
    return CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, KET1))


def elements(povm):
    """The POVM elements |v_b><v_b|, stacked as an (n, d, d) array."""
    return povm.vectors[:, :, None] * povm.vectors[:, None, :].conj()


class TestPovm:
    def test_computational_basis(self):
        povm = projective_povm(np.eye(2, dtype=complex))
        assert np.allclose(elements(povm)[0], KET0)
        assert np.allclose(elements(povm)[1], KET1)

    def test_hadamard_basis(self):
        povm = projective_povm(hadamard_tensor(1))
        assert np.allclose(elements(povm)[0], PLUS)

    def test_random_unitary_completeness(self):
        rng = np.random.default_rng(31)
        for d in (2, 4):
            povm = projective_povm(random_unitary(d, rng))
            assert np.max(np.abs(sum(elements(povm)) - np.eye(d))) < 1e-12

    def test_equality(self):
        assert projective_povm(np.eye(2)) == projective_povm(np.eye(2))
        assert not projective_povm(np.eye(2)) != projective_povm(np.eye(2))
        assert (projective_povm(np.eye(2)) == projective_povm(hadamard_tensor(1))) is False
        # same outcomes in another order, and another outcome count
        assert projective_povm(np.eye(2)) != projective_povm(np.eye(2)[:, ::-1])
        assert projective_povm(np.eye(2)) != Povm(np.vstack([np.eye(2), np.zeros((1, 2))]))
        assert projective_povm(np.eye(2)) != "not a povm"

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            projective_povm(np.ones((2, 2), dtype=complex))

    def test_rejects_incomplete(self):
        # fewer outcomes than the dimension, or elements that miss part of the identity
        with pytest.raises(ValueError, match="n >= d"):
            Povm(np.array([[1, 0]]))
        with pytest.raises(ValueError, match="isometry"):
            Povm(np.array([[1, 0], [0, 0], [0, 0]]))

    def test_rejects_non_isometry(self):
        # unit columns that overlap, and an isometry scaled by 2
        with pytest.raises(ValueError, match="isometry"):
            Povm(np.array([[1, 2**-0.5], [0, 2**-0.5]]))
        with pytest.raises(ValueError, match="isometry"):
            Povm(2 * np.eye(2))

    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: Povm(np.array([[bad, 0], [0, 1]])),
            lambda bad: projective_povm(np.full((2, 2), bad)),
            lambda bad: povm_from_json_dict({"dim": 2, "vectors": [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}),
        ],
        ids=["Povm", "projective_povm", "povm_from_json_dict"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, make, bad):
        with pytest.raises(ValueError, match="not finite"):
            make(bad)

    def test_json_round_trip(self):
        povm = projective_povm(hadamard_tensor(1))
        doc = povm_to_json_dict(povm)
        assert set(doc) == {"dim", "vectors"}
        assert np.array_equal(povm_from_json_dict(doc).vectors, povm.vectors)
        with pytest.raises(ValueError, match="dim"):
            povm_from_json_dict({**doc, "dim": 3})

    @pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 0.0], 1.0, ["1", "0"], [None, 0.0], "1"])
    def test_json_entry_not_a_pair_rejected(self, entry):
        doc = povm_to_json_dict(projective_povm(hadamard_tensor(1)))
        doc["vectors"][1][0] = entry
        with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
            povm_from_json_dict(doc)


class TestMeasureB:
    def test_product_state_conditionals(self):
        rho_a = 0.5 * KET0 + 0.5 * PLUS
        rho = np.kron(rho_a, np.eye(2) / 2)
        _, states = measure_b(rho, 2, 2, projective_povm(hadamard_tensor(1)))
        for s in states:
            assert np.max(np.abs(s - rho_a)) < 1e-9

    def test_locking_state_computational(self):
        _, ens = build_locking_state(1)
        rho = cq_to_density(ens)
        probs, states = measure_b(rho, 4, 2, projective_povm(np.eye(2, dtype=complex)))
        assert np.allclose(probs, [0.5, 0.5])
        # hand-evaluated conditionals over letters (a,k) encoded a*2+k
        expected_b0 = np.diag([0.5, 0.25, 0.0, 0.25])
        expected_b1 = np.diag([0.0, 0.25, 0.5, 0.25])
        assert np.max(np.abs(states[0] - expected_b0)) < 1e-9
        assert np.max(np.abs(states[1] - expected_b1)) < 1e-9

    def test_orthogonal_ensemble_own_basis(self):
        ens = orthogonal_ensemble()
        probs, states = measure_b(cq_to_density(ens), 2, 2, projective_povm(np.eye(2, dtype=complex)))
        assert np.allclose(probs, ens.probs)
        for b, s in enumerate(states):
            assert abs(np.linalg.eigvalsh(s)[-1] - 1) < 1e-9

    def test_non_disturbance(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            ens = random_cq_ensemble(3, 2, "mixed", seed=rng.integers(1 << 30))
            povm = projective_povm(random_unitary(2, rng))
            rho = cq_to_density(ens)
            probs, states = measure_b(rho, 3, 2, povm)
            avg = sum(p * s for p, s in zip(probs, states))
            rho_a = partial_trace(rho, 3, 2, "A")
            assert np.max(np.abs(avg - rho_a)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measure_b(np.eye(4) / 4, 2, 2, projective_povm(np.eye(4, dtype=complex)))


class TestInducedJoint:
    def test_orthogonal_matching_basis(self):
        j = induced_table(orthogonal_ensemble(), projective_povm(np.eye(2, dtype=complex)))
        assert np.allclose(j, np.diag([0.5, 0.5]))

    def test_shared_state_reveals_nothing(self):
        # letters that share one state: every measurement gives p(a) q(b)
        rng = np.random.default_rng(29)
        shared = random_cq_ensemble(1, 3, "mixed", seed=4).states[0]
        ens = CQEnsemble((0, 1, 2), np.array([0.2, 0.3, 0.5]), (shared,) * 3)
        for povm in (projective_povm(random_unitary(3, rng)), Povm(random_unitary(9, rng)[:3].T)):
            j = induced_table(ens, povm)
            assert np.max(np.abs(j - np.outer(ens.probs, j.sum(axis=0)))) < 1e-12
            assert abs(measured_mutual_information(ens, povm)) < 1e-12

    def test_a_marginal_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            ens = random_cq_ensemble(4, 2, "pure", seed=rng.integers(1 << 30))
            j = induced_table(ens, projective_povm(random_unitary(2, rng)))
            assert np.max(np.abs(j.sum(axis=1) - ens.probs)) < 1e-12

    def test_locking_computational_half_bit(self):
        _, ens = build_locking_state(1)
        j = induced_table(ens, projective_povm(np.eye(2, dtype=complex)))
        assert abs(classical_mutual_information(j) - 0.5) < 1e-9


class TestMeasuredQuantities:
    def test_orthogonal_matching_basis_gives_ha(self):
        ens = orthogonal_ensemble()
        povm = projective_povm(np.eye(2, dtype=complex))
        assert abs(measured_mutual_information(ens, povm) - 1) < 1e-12
        assert abs(measured_conditional_entropy(ens, povm)) < 1e-9

    def test_locking_state_values(self):
        _, ens = build_locking_state(1)
        povm = projective_povm(np.eye(2, dtype=complex))
        assert abs(measured_mutual_information(ens, povm) - 0.5) < 1e-9
        assert abs(measured_conditional_entropy(ens, povm) - 1.5) < 1e-9

    def test_single_letter_zero(self):
        ens = CQEnsemble((0,), np.array([1.0]), (PLUS,))
        povm = projective_povm(np.eye(2, dtype=complex))
        assert abs(measured_conditional_entropy(ens, povm)) < 1e-9

    def test_two_lines_consistent(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            ens = random_cq_ensemble(3, 2, "mixed", seed=rng.integers(1 << 30))
            povm = projective_povm(random_unitary(2, rng))
            h_a = shannon_entropy(ens.probs)
            mi = measured_mutual_information(ens, povm)
            ce = measured_conditional_entropy(ens, povm)
            assert abs(mi + ce - h_a) < 1e-9

    @pytest.mark.parametrize("n_outcomes", ["d", "d^2"])
    def test_conditional_entropy_matches_measure_b(self, n_outcomes):
        """The CQ-native H(A|B) equals sum_b p_b S(rho_{A|b}) from the bipartite state."""
        rng = np.random.default_rng(53)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            ens = random_cq_ensemble(int(rng.integers(2, 6)), d, "mixed", seed=rng.integers(1 << 30))
            if n_outcomes == "d":
                povm = projective_povm(random_unitary(d, rng))
            else:
                # the first d rows of a d^2 x d^2 unitary: d^2 rank-1 outcomes
                w = random_unitary(d * d, rng)[:d]
                povm = Povm(w.T)
            probs, states = measure_b(cq_to_density(ens), ens.n_letters, d, povm)
            oracle = sum(p * von_neumann_entropy(s) for p, s in zip(probs, states))
            assert abs(measured_conditional_entropy(ens, povm) - oracle) < 1e-9

    def test_refinement_never_decreases_information(self):
        # coarse-graining merges outcomes, i.e. sums columns of the induced table
        rng = np.random.default_rng(47)
        for _ in range(20):
            ens = random_cq_ensemble(3, 2, "pure", seed=rng.integers(1 << 30))
            povm = Povm(random_unitary(4, rng)[:2].T)
            fine = induced_table(ens, povm)
            pairs = fine.reshape(3, 2, 2).sum(axis=2)
            mi = measured_mutual_information(ens, povm)
            assert mi >= classical_mutual_information(pairs) - 1e-12
            assert classical_mutual_information(pairs) >= classical_mutual_information(fine.sum(axis=1, keepdims=True)) - 1e-12


class TestAfterKeyTable:
    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_keyed_block_structure(self, m, family):
        inst, _ = build_locking_state(m, family)
        table = after_key_table(inst)
        assert table.shape == (2 * inst.dim_b, 2 * inst.dim_b)
        assert abs(table.sum() - 1) < 1e-12
        # outcome column b * 2 + k carries the key k, as letters do
        assert np.all(table[inst.keys[:, None] != inst.keys] == 0)
        assert abs(classical_mutual_information(table) - (m + 1)) < 1e-12

    def test_letters_weighted_by_probabilities(self):
        # the key-conditioned strategy reveals the whole letter, so it reads H(A)
        # of the ensemble's probabilities, whatever they are
        inst, ens = build_locking_state(1)
        skewed = CQEnsemble(ens.labels, np.array([0.7, 0.1, 0.1, 0.1]), ens.states)
        object.__setattr__(inst, "ensemble", skewed)
        table = after_key_table(inst)
        assert np.allclose(table.sum(axis=1), skewed.probs, atol=1e-15)
        assert abs(classical_mutual_information(table) - shannon_entropy(skewed.probs)) < 1e-12
