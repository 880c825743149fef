import numpy as np
import pytest

from cqlock import (
    DimensionError,
    classical_conditional_entropy,
    classical_mutual_information,
    classical_key_bound_check,
    conditional_mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from cqlock.qmath import (
    partial_trace,
    quantum_conditional_entropy,
    quantum_mutual_information,
    validate_density,
    validate_isometry,
    validate_probs,
)
from cqlock.states import CQEnsemble, cq_to_density, random_cq_ensemble

from conftest import bell_state, random_unitary

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def h2(p):
    return shannon_entropy([p, 1 - p])


class TestTensorAndPartialTrace:
    def test_product_marginal(self):
        rng = np.random.default_rng(0)
        ens = random_cq_ensemble(1, 3, "mixed", seed=4)
        sigma = ens.states[0]
        rho = np.kron(np.eye(2) / 2, sigma)
        assert np.allclose(partial_trace(rho, 2, 3, "B"), sigma)
        assert np.allclose(partial_trace(rho, 2, 3, "A"), np.eye(2) / 2)

    def test_bell_marginal_maximally_mixed(self):
        assert np.allclose(partial_trace(bell_state(), 2, 2, "B"), np.eye(2) / 2)

    def test_cq_marginal_matches_direct_sum(self):
        ens = random_cq_ensemble(4, 3, "mixed", seed=2)
        marg = partial_trace(cq_to_density(ens), 4, 3, "B")
        direct = sum(p * s for p, s in zip(ens.probs, ens.states))
        assert np.max(np.abs(marg - direct)) < 1e-12

    def test_bad_factorization(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6) / 6, 4, 2, "A")

    def test_trace_preserving_and_linear(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_cq_ensemble(2, 2, "mixed", seed=rng.integers(1 << 30)).states[0]
            b = random_cq_ensemble(2, 2, "mixed", seed=rng.integers(1 << 30)).states[0]
            rho1 = np.kron(a, np.eye(2) / 2)
            rho2 = np.kron(b, np.eye(2) / 2)
            lam = rng.random()
            mix = lam * rho1 + (1 - lam) * rho2
            red = partial_trace(mix, 2, 2, "A")
            lin = lam * partial_trace(rho1, 2, 2, "A") + (1 - lam) * partial_trace(rho2, 2, 2, "A")
            assert np.max(np.abs(red - lin)) < 1e-12
            assert abs(np.trace(red) - 1) < 1e-12


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(KET0) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - 1) < 1e-12

    def test_maximally_mixed_d8(self):
        assert abs(von_neumann_entropy(np.eye(8) / 8) - 3) < 1e-9

    def test_two_state_mixture_matches_spectrum_oracle(self):
        rho = 0.5 * KET0 + 0.5 * PLUS
        vals = np.linalg.eigvalsh(rho)
        expected = shannon_entropy(vals)
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12
        assert abs(expected - h2((1 + 1 / np.sqrt(2)) / 2)) < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ens = random_cq_ensemble(1, 4, "mixed", seed=rng.integers(1 << 30))
            rho = ens.states[0]
            u = random_unitary(4, rng)
            assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho)) < 1e-9

    def test_entropy_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ens = random_cq_ensemble(1, 4, "mixed", seed=rng.integers(1 << 30))
            s = von_neumann_entropy(ens.states[0])
            assert -1e-12 <= s <= 2 + 1e-12

    def test_shannon_uniform(self):
        assert abs(shannon_entropy(np.full(8, 0.125)) - 3) < 1e-12

    def test_shannon_deterministic(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_shannon_dyadic(self):
        assert abs(shannon_entropy([0.5, 0.25, 0.25]) - 1.5) < 1e-12

    def test_stack_gives_one_entropy_per_matrix(self):
        ens = random_cq_ensemble(5, 3, "mixed", seed=4)
        stacked = von_neumann_entropy(np.stack([KET0, PLUS, np.eye(2) / 2]))
        assert stacked.shape == (3,)
        assert np.allclose(stacked, [0.0, 0.0, 1.0], atol=1e-12)
        assert np.array_equal(von_neumann_entropy(ens.states), [von_neumann_entropy(s) for s in ens.states])


class TestKLDivergence:
    def test_matches_mutual_information(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = rng.random((3, 4))
            t /= t.sum()
            prod = np.outer(t.sum(axis=1), t.sum(axis=0))
            # D(t || prod) = sum t log2(t / prod); every entry of t is positive
            assert abs((t * np.log2(t / prod)).sum() - classical_mutual_information(t)) < 1e-12


class TestClassicalInformation:
    def test_product_distribution(self):
        t = np.outer([0.4, 0.6], [0.3, 0.7])
        assert abs(classical_mutual_information(t)) < 1e-12

    def test_correlated_bits(self):
        t = np.diag([0.5, 0.5])
        assert abs(classical_mutual_information(t) - 1) < 1e-12

    def test_bsc(self):
        eps = 0.11
        t = 0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]])
        assert abs(classical_mutual_information(t) - (1 - h2(eps))) < 1e-12
        assert abs(classical_conditional_entropy(t) - h2(eps)) < 1e-12

    def test_conditional_entropy_independent(self):
        t = np.outer([0.4, 0.6], [0.3, 0.7])
        assert abs(classical_conditional_entropy(t) - shannon_entropy([0.4, 0.6])) < 1e-12

    def test_conditional_entropy_copied_bit(self):
        assert abs(classical_conditional_entropy(np.diag([0.5, 0.5]))) < 1e-12

    def test_both_conditional_entropy_formulas_agree(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            t = rng.random((3, 3))
            t /= t.sum()
            pb = t.sum(axis=0)
            by_average = sum(pb[b] * shannon_entropy(t[:, b] / pb[b]) for b in range(3))
            assert abs(by_average - classical_conditional_entropy(t)) < 1e-12


class TestConditionalMutualInformation:
    def test_independent_key(self):
        ab = np.random.default_rng(2).random((2, 3))
        ab /= ab.sum()
        t = ab[:, :, None] * np.array([0.5, 0.5])[None, None, :]
        assert abs(conditional_mutual_information(t)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_time_pad(self, m):
        size = 2**m
        t = np.zeros((size, size, size))
        for a in range(size):
            for k in range(size):
                t[a, a ^ k, k] = 1.0 / size**2
        # exhaustive oracle: H(A,B) + H(B,K) - H(B) - H(A,B,K)
        assert abs(conditional_mutual_information(t) - m) < 1e-12

    def test_copied_variable(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[1, 1, 1] = 0.5
        assert abs(conditional_mutual_information(t)) < 1e-12

    def test_chain_rule(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            t = rng.random((2, 3, 2))
            t /= t.sum()
            i_abk = classical_mutual_information(t.reshape(2, -1))
            i_ab = classical_mutual_information(t.sum(axis=2))
            assert abs(i_abk - i_ab - conditional_mutual_information(t)) < 1e-12


class TestQuantumInformation:
    def test_product_state(self):
        rho = np.kron(np.eye(2) / 2, PLUS)
        assert abs(quantum_mutual_information(rho, 2, 2)) < 1e-9

    def test_bell_state(self):
        assert abs(quantum_mutual_information(bell_state(), 2, 2) - 2) < 1e-9

    def test_bell_conditional_entropy_negative(self):
        assert abs(quantum_conditional_entropy(bell_state(), 2, 2) + 1) < 1e-9

    def test_product_conditional_entropy(self):
        rho_a = 0.5 * KET0 + 0.5 * PLUS
        rho = np.kron(rho_a, np.eye(2) / 2)
        assert abs(quantum_conditional_entropy(rho, 2, 2) - von_neumann_entropy(rho_a)) < 1e-9

    def test_cq_conditional_entropy_nonnegative(self):
        for seed in range(100):
            ens = random_cq_ensemble(3, 2, "mixed" if seed % 2 else "pure", seed=seed)
            rho = cq_to_density(ens)
            assert quantum_conditional_entropy(rho, ens.n_letters, ens.dim_b) >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            quantum_mutual_information(np.eye(6) / 6, 4, 2)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            validate_density(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            validate_density(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            validate_density(np.diag([1.5, -0.5]).astype(complex))


class TestIsometryValidation:
    def test_accepts_isometry(self):
        v = random_unitary(4, np.random.default_rng(2))[:, :3]
        assert np.array_equal(validate_isometry(v), v)
        assert np.array_equal(validate_isometry(np.eye(2)), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        v = np.eye(3, 2, dtype=complex)
        v[0, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            validate_isometry(v)

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3, 0), (2,), (2, 2, 2)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="n >= d >= 1"):
            validate_isometry(np.zeros(shape))

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError, match="not an isometry"):
            validate_isometry(np.ones((3, 2)) / np.sqrt(3))
        # an isometry off by more than MATRIX_TOL in one entry
        with pytest.raises(ValueError, match="not an isometry"):
            validate_isometry(np.eye(2) * (1 + 1e-8))
        validate_isometry(np.eye(2) * (1 + 1e-11))


class TestJointDistributionValidation:
    """classical_key_bound_check validates the flattened (A, B, K) table it is given with validate_probs."""

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative probability entry"):
            classical_key_bound_check(np.array([[[0.5, -1e-11], [0.25, 0.25 + 1e-11]]]))
        # an entry within PROB_TOL of 0 is accepted
        classical_key_bound_check(np.array([[[0.5, -1e-13], [0.25, 0.25 + 1e-13]]]))

    def test_sum(self):
        with pytest.raises(ValueError, match="probabilities do not sum to 1"):
            classical_key_bound_check(np.full((2, 2, 2), 0.3))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="probabilities are not finite"):
            classical_key_bound_check(np.array([[[np.nan, 0.5], [0.25, 0.25]]]))

    def test_variable_count(self):
        with pytest.raises(ValueError, match="3-variable"):
            classical_key_bound_check(np.full(4, 0.25))


class TestProbabilityValidation:
    def test_sum_check_uses_prob_tolerance(self):
        p = [0.5, 0.5 + 1e-13]
        assert np.array_equal(validate_probs(p), p)
        with pytest.raises(ValueError, match="sum to 1"):
            validate_probs([0.5, 0.5 + 1e-9])


class TestNonFiniteInput:
    @pytest.mark.parametrize("p", [[np.nan, np.nan], [np.inf, 0.0], [0.5, -np.inf, 0.5]])
    def test_probs(self, p):
        with pytest.raises(ValueError, match="not finite"):
            validate_probs(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_density(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            validate_density(np.full((2, 2), bad, dtype=complex))
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            validate_density(mat)

    def test_joint_distribution(self):
        with pytest.raises(ValueError, match="not finite"):
            classical_key_bound_check(np.full((2, 2, 2), np.nan))
        with pytest.raises(ValueError, match="not finite"):
            classical_key_bound_check(np.array([[[np.inf, 0.0], [0.0, 0.0]]]))

    def test_ensemble(self):
        with pytest.raises(ValueError, match="not finite"):
            CQEnsemble((0, 1), np.array([np.nan, np.nan]), (KET0, KET1))
        with pytest.raises(ValueError, match="not finite"):
            CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, np.full((2, 2), np.nan)))
