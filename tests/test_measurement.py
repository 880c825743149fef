import base64
import json

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

from conftest import STACK_KINDS, complex_to_json, random_unitary, ranked_ensemble, states_form_table

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def orthogonal_ensemble():
    return CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, KET1))


# base64 text of the identity's complex128 bytes, the vectors of projective_povm(np.eye(2))
IDENTITY_TEXT = base64.b64encode(np.eye(2, dtype=complex).tobytes()).decode()


def complex_isometry_povm():
    """A 9 x 3 complex isometry, d^2 outcomes at d = 3."""
    rng = np.random.default_rng(7)
    return Povm(np.linalg.qr(rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))[0])


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
        # a complex isometry with d^2 outcomes comes back through JSON text bit for bit, from base64 vectors
        povm = complex_isometry_povm()
        doc = povm_to_json_dict(povm)
        assert set(doc) == {"dim", "vectors"}
        assert isinstance(doc["vectors"], str)
        assert len(base64.b64decode(doc["vectors"])) == 16 * 9 * 3
        back = povm_from_json_dict(json.loads(json.dumps(doc)))
        assert back == povm
        assert back.vectors.tobytes() == povm.vectors.tobytes()

    def test_reads_nested_list_report(self):
        # reports before schema 1.10 wrote each entry as an [re, im] list; they read to the same bits
        povm = complex_isometry_povm()
        old = {"schema_version": "1.9", "results": {"best_povm": {"dim": 3, "vectors": complex_to_json(povm.vectors)}}}
        back = povm_from_json_dict(json.loads(json.dumps(old, indent=2))["results"]["best_povm"])
        assert back.vectors.tobytes() == povm.vectors.tobytes()

    @pytest.mark.parametrize("change, match", [
        (lambda doc: {**doc, "dim": 3}, "not a positive multiple of 16 \\* dim = 48"),
        (lambda doc: {**doc, "dim": 3, "vectors": complex_to_json(np.eye(2))}, "disagree with dim"),
        (lambda doc: {**doc, "dim": True}, "integer"),
        (lambda doc: {**doc, "dim": 0}, "dim must be a positive integer"),
        (lambda doc: {**doc, "vectors": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "isometry"),
        (lambda doc: {**doc, "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}, r"\[re, im\] pairs"),
    ], ids=["dim-mismatch", "dim-mismatch-lists", "bool-dim", "zero-dim", "non-isometry", "ragged"])
    def test_json_malformed_rejected(self, change, match):
        doc = povm_to_json_dict(projective_povm(np.eye(2)))
        with pytest.raises(ValueError, match=match):
            povm_from_json_dict(change(doc))

    @pytest.mark.parametrize("vectors, match", [
        ("@" + IDENTITY_TEXT[1:], "ASCII base64"),
        (IDENTITY_TEXT.rstrip("="), "ASCII base64"),
        ("\u00c4" + IDENTITY_TEXT[1:], "ASCII base64"),
        ("", "holds 0 bytes, not a positive multiple of 16 \\* dim = 32"),
        (base64.b64encode(np.eye(2, dtype=complex).tobytes()[:-16]).decode(), "holds 48 bytes, not a positive multiple"),
        (base64.b64encode(np.eye(2, dtype=complex).tobytes() + b"\0").decode(), "holds 65 bytes, not a positive multiple"),
        (1.0, "base64 text or nested lists"),
        (None, "base64 text or nested lists"),
        ({"re": 1.0}, "base64 text or nested lists"),
    ], ids=["alphabet", "padding", "non-ascii", "empty", "short", "long", "number", "null", "object"])
    def test_json_bad_base64_vectors_rejected(self, vectors, match):
        with pytest.raises(ValueError, match=match):
            povm_from_json_dict({"dim": 2, "vectors": vectors})

    def test_json_base64_rows_fix_the_outcome_count(self):
        # 48 bytes at dim = 1 are three outcomes; the one-column isometry (1, 0, 0) is a valid POVM
        text = base64.b64encode(np.array([1, 0, 0], dtype="<c16").tobytes()).decode()
        assert povm_from_json_dict({"dim": 1, "vectors": text}).n_outcomes == 3

    @pytest.mark.parametrize("change, match", [
        (lambda doc: {"vectors": doc["vectors"]}, "missing field 'dim'"),
        (lambda doc: {"dim": doc["dim"]}, "missing field 'vectors'"),
        (lambda doc: [doc["dim"], doc["vectors"]], "a POVM must be a JSON object"),
        (lambda doc: None, "a POVM must be a JSON object"),
    ], ids=["no-dim", "no-vectors", "list", "null"])
    def test_json_not_a_povm_object_rejected(self, change, match):
        doc = povm_to_json_dict(projective_povm(np.eye(2)))
        with pytest.raises(ValueError, match=match):
            povm_from_json_dict(change(doc))

    @pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 0.0], 1.0, ["1", "0"], [None, 0.0], "1"])
    def test_json_entry_not_a_pair_rejected(self, entry):
        doc = {"dim": 2, "vectors": complex_to_json(projective_povm(hadamard_tensor(1)).vectors)}
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


class TestInducedTableOracle:
    """induced_table reads the letter rows K_k; states_form_table reads the letter matrices sigma_a."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("stack", STACK_KINDS)
    def test_matches_states_form(self, d, stack):
        ens = ranked_ensemble(stack, d)
        rng = np.random.default_rng(d)
        povms = [projective_povm(np.eye(d)), projective_povm(random_unitary(d, rng))]
        povms += [Povm(np.linalg.qr(rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d)))[0])]
        for povm in povms:
            assert np.max(np.abs(induced_table(ens, povm) - states_form_table(ens, povm))) <= 1e-12

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_after_key_table_matches_states_form(self, m, family):
        inst, ens = build_locking_state(m, family)
        oracle = np.zeros((ens.n_letters, ens.n_letters))
        for k, u in enumerate(inst.basis_unitaries):
            mine = inst.keys == k
            oracle[mine, k::2] = states_form_table(ens, projective_povm(u))[mine]
        assert np.max(np.abs(after_key_table(inst) - oracle)) <= 1e-12


class TestAfterKeyTable:
    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_bitwise_the_per_key_induced_tables_with_no_povm(self, m, family, monkeypatch):
        # simulate's counts move when its table moves by roundoff, so the table must not move at all
        inst, ens = build_locking_state(m, family)
        built = []
        post_init = Povm.__post_init__
        monkeypatch.setattr(Povm, "__post_init__", lambda povm: built.append(povm) or post_init(povm))
        table = after_key_table(inst)
        assert built == []
        oracle = np.zeros((ens.n_letters, ens.n_letters))
        for k, u in enumerate(inst.basis_unitaries):
            mine = inst.keys == k
            oracle[mine, k::2] = induced_table(ens, projective_povm(u))[mine]
        assert len(built) == 2
        assert np.array_equal(table, oracle)

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
