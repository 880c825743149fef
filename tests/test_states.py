import json

import numpy as np
import pytest

from cqlock import (
    CQEnsemble,
    GuardError,
    LockingInstance,
    build_locking_state,
    fourier_matrix,
    hadamard_tensor,
    mub_check,
    random_cq_ensemble,
)
from cqlock import qmath
from cqlock.qmath import partial_trace, quantum_mutual_information
from cqlock.states import cq_to_density, ensemble_from_json_dict, ensemble_to_json_dict

from conftest import list_layout_json_dict, random_unitary, rank_ensemble

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def rotated_locking_ensemble(m):
    """The m-bit locking ensemble with every letter rotated by one Haar-random unitary on B, given as states."""
    _, ens = build_locking_state(m)
    u = random_unitary(2**m, np.random.default_rng(m))
    return CQEnsemble(ens.labels, ens.probs, u @ ens.states @ u.conj().T)


class TestCqToDensity:
    def test_single_letter(self):
        ens = CQEnsemble((0,), np.array([1.0]), (PLUS,))
        rho = cq_to_density(ens)
        # one-letter A register is trivial: |0><0| (x) sigma = sigma
        assert rho.shape == (2, 2)
        assert np.allclose(rho, PLUS)

    def test_orthogonal_ensemble(self):
        ens = CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, KET1))
        rho = cq_to_density(ens)
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))

    def test_locking_state_mutual_information(self):
        _, ens = build_locking_state(1)
        rho = cq_to_density(ens)
        assert abs(quantum_mutual_information(rho, 4, 2) - 1) < 1e-9

    def test_a_marginal_is_diag_p(self):
        ens = random_cq_ensemble(3, 2, "mixed", seed=6)
        marg = partial_trace(cq_to_density(ens), 3, 2, "A")
        assert np.max(np.abs(marg - np.diag(ens.probs))) < 1e-12


class TestCQEnsemble:
    def test_states_are_one_read_only_stack(self):
        ens = CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, PLUS))
        assert ens.states.shape == (2, 2, 2)
        assert ens.states.dtype == complex
        with pytest.raises(ValueError):
            ens.states[0, 0, 0] = 0.0

    def test_unequal_dimensions_rejected(self):
        with pytest.raises(ValueError, match="share one dimension"):
            CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, np.eye(3) / 3))

    def test_non_square_states_rejected(self):
        with pytest.raises(ValueError, match="share one dimension"):
            CQEnsemble((0,), np.array([1.0]), (np.ones((2, 3)) / 2,))

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, np.array([[0.5, 0.5], [0.0, 0.5]])))

    def test_compares_and_hashes_by_identity(self):
        inst_a, ens_a = build_locking_state(1)
        inst_b, ens_b = build_locking_state(1)
        assert ens_a == ens_a
        assert ens_a != ens_b
        assert inst_a == inst_a
        assert inst_a != inst_b
        assert len({hash(ens_a), hash(ens_b), hash(inst_a), hash(inst_b)}) == 4


class TestVectors:
    """Pure letters are held as their (n, d) state vectors, however given; states is formed from them on each read."""

    def test_builders_hand_in_their_vectors(self):
        inst, ens = build_locking_state(3, "fourier")
        # letter a * 2 + k is column a of U_k, and its dense state is formed by the expression the builders used
        cols = np.stack(inst.basis_unitaries)[inst.keys, :, inst.messages]
        assert ens.vectors.tobytes() == cols.tobytes()
        assert ens.states.tobytes() == (cols[:, :, None] * cols[:, None, :].conj()).tobytes()
        assert random_cq_ensemble(4, 3, "pure", seed=1).vectors.shape == (4, 3)
        assert random_cq_ensemble(4, 3, "mixed", seed=1).vectors is None

    def test_pure_states_are_held_as_their_recovered_vectors(self):
        stack = random_cq_ensemble(5, 3, "pure", seed=2).states
        ens = CQEnsemble(tuple(range(5)), np.full(5, 0.2), stack)
        assert ens.vectors.tobytes() == qmath._rank_one_vectors(stack).tobytes()
        # its states come back from the vectors, within roundoff of those given
        assert np.max(np.abs(ens.states - stack)) <= 1e-15
        # and give the rows that the same vectors give when handed in
        assert ens.rows.tobytes() == CQEnsemble(tuple(range(5)), np.full(5, 0.2), vectors=ens.vectors).rows.tobytes()

    def test_vectors_and_states_are_read_only(self):
        ens = random_cq_ensemble(3, 2, "pure", seed=0)
        for arr in (ens.vectors, ens.states):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_zero_probability_letter_keeps_its_vector(self):
        # its row is 0, but its vector still gives its state
        ens = CQEnsemble((0, 1), np.array([1.0, 0.0]), vectors=np.array([[1, 0], [0, 1]]))
        assert np.all(ens.rows[1] == 0)
        assert np.array_equal(ens.states[1], KET1)

    @pytest.mark.parametrize("states, vectors, message", [
        (None, None, "give the letters as one of states and vectors"),
        ((KET0, KET1), np.eye(2), "give the letters as one of states and vectors"),
        (None, np.eye(2)[:, :, None], r"vectors must be an \(n_letters, d\) array"),
        (None, (np.eye(2)[0], np.ones(3) / 3**0.5), r"vectors must be an \(n_letters, d\) array"),
        (None, np.array([[1, 0], [np.nan, 0]]), "vectors are not finite"),
        (None, np.array([[1, 0], [np.inf, 0]]), "vectors are not finite"),
        (None, np.array([[1, 0], [1 + 2e-9, 0]]), "vectors must have unit norm"),
        (None, np.eye(3), "labels, probs and vectors must have equal length"),
    ])
    def test_bad_letters_rejected(self, states, vectors, message):
        with pytest.raises(ValueError, match=message):
            CQEnsemble((0, 1), np.array([0.5, 0.5]), states, vectors=vectors)

    def test_unit_norm_within_matrix_tol(self):
        ens = CQEnsemble((0, 1), np.array([0.5, 0.5]), vectors=np.array([[1, 0], [0, 1 + 4e-10]]))
        assert ens.spectra[1, 0] == (1 + 4e-10) ** 2


class TestBuildLockingState:
    def test_m1_hadamard_states(self):
        inst, ens = build_locking_state(1, "hadamard")
        assert ens.n_letters == 4
        assert np.allclose(ens.probs, 0.25)
        # letter encoding a*2+k: |0>, |+>, |1>, |->
        assert np.allclose(ens.states[0], KET0)
        assert np.allclose(ens.states[1], PLUS)
        assert np.allclose(ens.states[2], KET1)
        assert np.allclose(ens.states[3], MINUS)

    def test_instance_owns_its_ensemble(self):
        inst, ens = build_locking_state(2, "fourier")
        assert ens is inst.ensemble
        # letter a * 2 + k holds the column a of U_k
        for lab, (a, k) in enumerate(zip(inst.messages, inst.keys)):
            assert lab == a * 2 + k
            col = inst.basis_unitaries[k][:, a]
            assert np.allclose(ens.states[lab], np.outer(col, col.conj()))

    @pytest.mark.parametrize("n_bases", [1, 3])
    def test_one_basis_per_key_value(self, n_bases):
        # the three qubit bases are pairwise unbiased, but a one-bit key selects only two
        y_basis = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
        with pytest.raises(ValueError, match="one basis per key value"):
            LockingInstance(m=1, basis_unitaries=(np.eye(2), hadamard_tensor(1), y_basis)[:n_bases])

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_basis_rejected(self, which):
        us = [np.eye(2, dtype=complex), hadamard_tensor(1)]
        us[which][0, 0] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            LockingInstance(m=1, basis_unitaries=tuple(us))

    def test_non_unitary_basis_rejected(self):
        with pytest.raises(ValueError, match="not an isometry"):
            LockingInstance(m=1, basis_unitaries=(np.eye(2), 2 * hadamard_tensor(1)))
        with pytest.raises(ValueError, match="wrong dimension"):
            LockingInstance(m=1, basis_unitaries=(np.eye(2), hadamard_tensor(2)))

    def test_m2_marginal(self):
        inst, ens = build_locking_state(2)
        assert ens.n_letters == 8
        assert ens.dim_b == 4
        direct = sum(p * s for p, s in zip(ens.probs, ens.states))
        assert np.max(np.abs(direct - np.eye(4) / 4)) < 1e-9

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mutual_information_is_m(self, m, family):
        _, ens = build_locking_state(m, family)
        rho = cq_to_density(ens)
        assert abs(quantum_mutual_information(rho, ens.n_letters, ens.dim_b) - m) < 1e-9

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_b_marginal_maximally_mixed(self, m, family):
        _, ens = build_locking_state(m, family)
        d = ens.dim_b
        marg = partial_trace(cq_to_density(ens), ens.n_letters, d, "B")
        assert np.max(np.abs(marg - np.eye(d) / d)) < 1e-9

    def test_instance_invariants(self):
        inst, _ = build_locking_state(2, "fourier")
        d = inst.dim_b
        assert np.allclose(inst.basis_unitaries[0], np.eye(d))
        for u in inst.basis_unitaries:
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-9
        assert mub_check(*inst.basis_unitaries)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            build_locking_state(0)
        with pytest.raises(ValueError):
            build_locking_state(11)

    @pytest.mark.parametrize("m", [0, 11, 12])
    def test_m_out_of_range_is_a_guard_error(self, m):
        with pytest.raises(GuardError, match=r"locking states support m=1\.\.10"):
            build_locking_state(m)

    @pytest.mark.parametrize("m", [3.0, 2.5, True, "3", None])
    def test_non_integer_m_rejected(self, m):
        # a float failed inside numpy with a TypeError, and True built m = 1
        with pytest.raises(ValueError, match="m must be an integer"):
            build_locking_state(m)
        with pytest.raises(ValueError, match="m must be an integer"):
            LockingInstance(m=m, basis_unitaries=(np.eye(2), hadamard_tensor(1)))

    def test_numpy_integer_m_accepted(self):
        inst, ens = build_locking_state(np.int64(2), "fourier")
        assert np.array_equal(ens.states, build_locking_state(2, "fourier")[1].states)


class TestMubCheck:
    def test_identity_vs_hadamard(self):
        assert mub_check(np.eye(2), hadamard_tensor(1))

    def test_identity_vs_identity(self):
        assert not mub_check(np.eye(2), np.eye(2))

    def test_identity_vs_fourier_d4(self):
        u = np.eye(4, dtype=complex)
        f = fourier_matrix(4)
        # oracle: all 16 squared overlaps directly
        for a in range(4):
            for b in range(4):
                assert abs(abs(np.vdot(u[:, a], f[:, b])) ** 2 - 0.25) < 1e-12
        assert mub_check(u, f)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mub_check(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_both_families_unbiased(self, m):
        d = 2**m
        assert mub_check(np.eye(d), hadamard_tensor(m))
        assert mub_check(np.eye(d), fourier_matrix(d))


class TestFourierMatrix:
    def test_d2_is_hadamard(self):
        assert np.allclose(fourier_matrix(2), hadamard_tensor(1))

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_unitarity(self, d):
        f = fourier_matrix(d)
        assert np.max(np.abs(f.conj().T @ f - np.eye(d))) < 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            fourier_matrix(1)


def looped_random_cq_ensemble(n_letters, dim_b, purity, seed):
    """Probabilities and letters of random_cq_ensemble as it was once written, one letter per loop pass."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_letters))
    states = []
    for _ in range(n_letters):
        if purity == "pure":
            v = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
            v /= np.linalg.norm(v)
            states.append(np.outer(v, v.conj()))
        else:
            g = rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b))
            w = g @ g.conj().T
            states.append(w / np.trace(w).real)
    return probs, np.array(states)


class TestRandomCqEnsemble:
    @pytest.mark.parametrize("purity", ["pure", "mixed"])
    @pytest.mark.parametrize("n_letters, dim_b", [(1, 2), (2, 3), (5, 4), (3, 7), (17, 8), (4, 16), (2, 33)])
    def test_batched_draws_match_the_letter_loop(self, n_letters, dim_b, purity):
        for seed in range(3):
            ens = random_cq_ensemble(n_letters, dim_b, purity, seed=seed)
            probs, states = looped_random_cq_ensemble(n_letters, dim_b, purity, seed)
            assert np.array_equal(ens.probs, probs)
            assert np.array_equal(ens.states, states)

    def test_unknown_purity_rejected(self):
        with pytest.raises(ValueError, match="unknown purity: 'partial'"):
            random_cq_ensemble(2, 2, "partial")

    @pytest.mark.parametrize("field, value", [
        ("n_letters", 2.5), ("n_letters", 3.0), ("n_letters", True), ("dim_b", 2.0), ("dim_b", False),
        ("dim_b", "2"), ("seed", 1.5), ("seed", True), ("seed", None),
    ])
    def test_non_integers_rejected(self, field, value):
        # a float failed inside numpy with a TypeError, and seed=True ran as seed 1
        args = {"n_letters": 3, "dim_b": 2, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            random_cq_ensemble(args["n_letters"], args["dim_b"], "pure", seed=args["seed"])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            random_cq_ensemble(3, 2, seed=-1)

    @pytest.mark.parametrize("purity", ["pure", "mixed"])
    def test_numpy_integers_accepted(self, purity):
        ens = random_cq_ensemble(np.int64(3), np.int32(2), purity, seed=np.uint8(5))
        assert np.array_equal(ens.states, random_cq_ensemble(3, 2, purity, seed=5).states)

    def test_deterministic(self):
        a = random_cq_ensemble(4, 2, "pure", seed=7)
        b = random_cq_ensemble(4, 2, "pure", seed=7)
        assert np.allclose(a.probs, b.probs)
        for sa, sb in zip(a.states, b.states):
            assert np.allclose(sa, sb)

    def test_states_are_valid(self):
        for purity in ("pure", "mixed"):
            ens = random_cq_ensemble(4, 3, purity, seed=1)
            for s in ens.states:
                assert np.max(np.abs(s - s.conj().T)) < 1e-12
                assert abs(np.trace(s) - 1) < 1e-12
                assert np.linalg.eigvalsh(s)[0] > -1e-12

    def test_pure_letters_rank_one(self):
        ens = random_cq_ensemble(3, 4, "pure", seed=5)
        for s in ens.states:
            vals = np.linalg.eigvalsh(s)
            assert abs(vals[-1] - 1) < 1e-12


class TestSerialization:
    def test_round_trip(self):
        ens = random_cq_ensemble(3, 2, "mixed", seed=9)
        doc = ensemble_to_json_dict(ens)
        back = ensemble_from_json_dict(doc)
        assert back.labels == ens.labels
        assert np.allclose(back.probs, ens.probs)
        for sa, sb in zip(back.states, ens.states):
            assert np.max(np.abs(sa - sb)) < 1e-15

    def test_schema_fields(self):
        _, ens = build_locking_state(1)
        doc = ensemble_to_json_dict(ens)
        # pure letters are written as their state vectors, any other stack as its states
        assert set(doc) == {"labels", "probs", "dim_b", "vectors"}
        assert set(ensemble_to_json_dict(random_cq_ensemble(2, 2, "mixed", seed=0))) == {"labels", "probs", "dim_b", "states"}
        assert doc["dim_b"] == 2
        # in the list layout, complex entries serialize as [re, im]
        assert list_layout_json_dict(ens)["states"][1][0][1] == pytest.approx([0.5, 0.0])

    def test_json_text_is_exact(self):
        # a mixed stack is held as given, so its list layout shows the letters as written here
        mixed = CQEnsemble((0, 1), np.array([0.25, 0.75]), (np.eye(2) / 2, np.array([[0.5, -0.5j], [0.5j, 0.5]])))
        assert json.dumps(list_layout_json_dict(mixed)) == (
            '{"labels": [0, 1], "probs": [0.25, 0.75], "dim_b": 2, "states": '
            '[[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], '
            '[[[0.5, 0.0], [-0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]]}'
        )
        ens = CQEnsemble((0, 1), np.array([0.25, 0.75]), (np.diag([1.0, 0.0]), np.array([[0.5, -0.5j], [0.5j, 0.5]])))
        # the writer's layout for pure letters: the little-endian complex128 bytes of the (n, d) state vectors
        # in C order, here (1, 0) and (1, i) / sqrt(2), each column j of the letter over sqrt(sigma_jj)
        assert json.dumps(ensemble_to_json_dict(ens)) == (
            '{"labels": [0, 1], "probs": [0.25, 0.75], "dim_b": 2, "vectors": '
            '"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAADMO39mnqDmPwAAAAAAAAAAAAAAAAAAAADMO39mnqDmPw=="}'
        )
        # and for any other stack those of the (n, d, d) stack
        mixed = CQEnsemble((0, 1), np.array([0.25, 0.75]), (np.diag([1.0, 0.0]), np.eye(2) / 2))
        assert json.dumps(ensemble_to_json_dict(mixed)) == (
            '{"labels": [0, 1], "probs": [0.25, 0.75], "dim_b": 2, "states": '
            '"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAOA/'
            'AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAOA/AAAAAAAAAAA="}'
        )
        # the per-entry encoder as the reference
        ens = random_cq_ensemble(5, 4, "mixed", seed=2)
        reference = [[[[float(x.real), float(x.imag)] for x in row] for row in s] for s in ens.states]
        assert json.dumps(list_layout_json_dict(ens)["states"]) == json.dumps(reference)

    @pytest.mark.parametrize("damage", ["ragged row", "unequal letters"])
    def test_unequal_shapes_rejected(self, damage):
        doc = list_layout_json_dict(random_cq_ensemble(2, 2, "pure", seed=0))
        if damage == "ragged row":
            doc["states"][0][1].pop()
        else:
            doc["states"][1] = list_layout_json_dict(random_cq_ensemble(1, 3, "pure", seed=0))["states"][0]
        with pytest.raises(ValueError, match=r"\[re, im\] pairs of numbers, in matrices of one shape"):
            ensemble_from_json_dict(doc)

    def test_json_round_trip_is_exact(self):
        ens = CQEnsemble((0,), np.array([1.0]), (np.array([[0.5, -0.5j], [0.5j, 0.5]]),))
        back = ensemble_from_json_dict(json.loads(json.dumps(ensemble_to_json_dict(ens))))
        assert json.dumps(ensemble_to_json_dict(back)) == json.dumps(ensemble_to_json_dict(ens))

    @pytest.mark.parametrize("make", [
        lambda: CQEnsemble((0, 1, 2), np.array([0.5, 0.5, 0.0]), random_cq_ensemble(3, 4, "pure", seed=1).states),
        lambda: rotated_locking_ensemble(3),
        lambda: rank_ensemble([2] * 5, 4, seed=3),
        lambda: rank_ensemble([4] * 5, 4, seed=3),
    ], ids=["pure-zero-probability", "rotated-m3", "rank-2", "full-rank"])
    def test_written_file_gives_back_the_factors_bitwise(self, make):
        ens = make()
        back = ensemble_from_json_dict(json.loads(json.dumps(ensemble_to_json_dict(ens))))
        assert ("vectors" in ensemble_to_json_dict(ens)) == (ens.vectors is not None)
        for name in ("probs", "spectra", "rows"):
            assert getattr(back, name).tobytes() == getattr(ens, name).tobytes(), name

    def test_dim_mismatch_rejected(self):
        ens = random_cq_ensemble(2, 2, "pure", seed=0)
        doc = ensemble_to_json_dict(ens)
        doc["dim_b"] = 3
        with pytest.raises(ValueError):
            ensemble_from_json_dict(doc)
