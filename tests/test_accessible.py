import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlock import (
    CQEnsemble,
    GuardError,
    OptimizerConfig,
    accessible_information,
    after_key_table,
    build_locking_state,
    hadamard_tensor,
    holevo_chi,
    induced_table,
    locking_delta,
    maassen_uffink_bound,
    measured_mutual_information,
    projective_povm,
    quantum_discord_cq,
    random_cq_ensemble,
    shannon_entropy,
    simulate_locking_run,
    von_neumann_entropy,
)

from cqlock import accessible, qmath
from cqlock.accessible import GRAD_TOL
from cqlock.measurement import Povm, _row_table
from cqlock.qmath import MATRIX_TOL, PROB_TOL, _mi_from_table, quantum_mutual_information
from cqlock.states import cq_to_density

from conftest import STACK_KINDS, rank_ensemble, ranked_ensemble, random_unitary, states_form_table, two_basis_ensemble

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def bb84_pair():
    return CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, PLUS))


def householder_qr(y):
    """Q of the thin QR of each n x d matrix of the stack whose R has a positive real diagonal, by Householder QR."""
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def grid_oracle(ens, resolution=1e-3):
    """Best projective measurement in the real span, exhaustive 1-parameter scan."""
    best = 0.0
    for th in np.arange(0.0, np.pi, resolution):
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        best = max(best, measured_mutual_information(ens, projective_povm(u)))
    return best


class TestHolevoChi:
    def test_orthogonal_pure(self):
        ens = CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, KET1))
        assert abs(holevo_chi(ens) - 1) < 1e-12

    def test_locking_m1(self):
        _, ens = build_locking_state(1)
        assert abs(holevo_chi(ens) - 1) < 1e-9

    def test_bb84_pair_matches_eigenvalue_oracle(self):
        ens = bb84_pair()
        vals = np.linalg.eigvalsh(0.5 * KET0 + 0.5 * PLUS)
        assert abs(holevo_chi(ens) - shannon_entropy(vals)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_quantum_mutual_information(self, seed):
        ens = random_cq_ensemble(3, 2, "mixed", seed=seed)
        rho = cq_to_density(ens)
        assert abs(holevo_chi(ens) - quantum_mutual_information(rho, 3, 2)) < 1e-9


def per_letter_chi(ens):
    """S(sum p_a sigma_a) - sum p_a S(sigma_a), one entropy per letter."""
    avg = sum(p * s for p, s in zip(ens.probs, ens.states))
    return von_neumann_entropy(avg) - sum(p * von_neumann_entropy(s) for p, s in zip(ens.probs, ens.states))


def count_stack_decompositions(monkeypatch, shape):
    """Patch numpy's Hermitian eigensolvers to count their calls on an (n, d, d) letter stack of the given shape; returns the list of calls."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            if np.shape(a) == shape:
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestHolevoChiPerLetterOracle:
    @pytest.mark.parametrize("purity", ["pure", "mixed"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_random_ensembles(self, d, purity):
        for seed in range(3):
            ens = random_cq_ensemble(5, d, purity, seed=seed)
            assert abs(holevo_chi(ens) - per_letter_chi(ens)) <= 1e-12

    def test_zero_probability_letter(self):
        ens = random_cq_ensemble(4, 3, "mixed", seed=8)
        ens = CQEnsemble(ens.labels, np.array([0.5, 0.0, 0.3, 0.2]), ens.states)
        assert abs(holevo_chi(ens) - per_letter_chi(ens)) <= 1e-12

    @pytest.mark.parametrize("p", [1.5e-12, 3e-12, 1e-11])
    def test_letter_near_the_entropy_cutoff(self, p):
        # a letter whose probability is just above the cutoff keeps its whole
        # entropy, though p times its eigenvalues falls below the cutoff
        ens = random_cq_ensemble(2, 4, "mixed", seed=1)
        ens = CQEnsemble(ens.labels, np.array([1 - p, p]), ens.states)
        assert abs(holevo_chi(ens) - per_letter_chi(ens)) <= 1e-12

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_locking_ensembles(self, m, family):
        _, ens = build_locking_state(m, family)
        assert abs(holevo_chi(ens) - per_letter_chi(ens)) <= 1e-12


def pure_letters(n, d, seed):
    """n random unit vectors in C^d and, for each, a random unit vector orthogonal to it."""
    rng = np.random.default_rng(seed)
    v, g = rng.standard_normal((2, n, d)) + 1j * rng.standard_normal((2, n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = g - np.einsum("ai,ai->a", v.conj(), g)[:, None] * v
    return v, w / np.linalg.norm(w, axis=1, keepdims=True)


def outer(v):
    return v[:, :, None] * v[:, None, :].conj()


def letter_stack(case):
    """A (3, 4, 4) stack for the validation parity cases, built from pure_letters(3, 4, seed=2)."""
    v, w = pure_letters(3, 4, seed=2)
    stack = outer(v)
    kind, _, size = case.partition(":")
    eps = float(size or 0)
    if kind == "admixture":
        # rank 2 with eigenvalues 1 - eps and eps
        stack = (1 - eps) * stack + eps * outer(w)
    elif kind == "non-hermitian":
        stack[1, 0, 1] += eps * 1j
    elif kind == "trace":
        stack[0] *= 1 + eps
    elif kind == "negative":
        # eigenvalues 1 + eps and -eps, unit trace
        stack[2] = (1 + eps) * stack[2] - eps * outer(w)[2]
    elif kind in ("nan", "inf"):
        stack[1, 0, 1] = float(kind)
    return stack


def eigh_route(ens, monkeypatch):
    """ens rebuilt with the rank-1 recognizer off, so that construction validates and decomposes its stack."""
    with monkeypatch.context() as patch:
        patch.setattr(qmath, "_rank_one_vectors", lambda mat: None)
        return CQEnsemble(ens.labels, ens.probs, ens.states)


# the message of each letter_stack case that validation rejects; every other case is a valid stack
LETTER_STACK_MESSAGES = {
    "non-hermitian:1e-6": "matrix is not Hermitian",
    "trace:2e-9": "trace is not 1",
    "negative:1e-6": "matrix is not positive semidefinite",
    "nan": "density matrix entries are not finite",
    "inf": "density matrix entries are not finite",
}


class TestPureLetters:
    """A stack of pure letters is factored from its state vectors and never decomposed, with every answer unchanged."""

    @pytest.mark.parametrize("case, pure", [
        ("projectors", True),
        ("admixture:1e-13", True),
        ("admixture:1e-11", False),
        ("admixture:1e-9", False),
        ("admixture:1e-6", False),
        ("non-hermitian:1e-11", False),
        ("non-hermitian:1e-6", False),
        ("trace:2e-9", False),
        ("negative:1e-6", False),
        ("nan", False),
        ("inf", False),
    ])
    def test_validation_matches_validate_density(self, case, pure, monkeypatch):
        stack = letter_stack(case)
        message = LETTER_STACK_MESSAGES.get(case)
        probs = np.array([0.5, 0.3, 0.2])
        calls = count_stack_decompositions(monkeypatch, stack.shape)
        if message is not None:
            with pytest.raises(ValueError) as exc:
                CQEnsemble((0, 1, 2), probs, stack)
            assert str(exc.value) == message
            return
        ens = CQEnsemble((0, 1, 2), probs, stack)
        # the per-letter oracle drops each eigenvalue at or below PROB_TOL, as the pure route drops all but one
        assert abs(holevo_chi(ens) - per_letter_chi(ens)) <= 1e-12
        assert calls == ([] if pure else ["eigh"])

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    def test_pure_stack_never_decomposed(self, family, monkeypatch, fast_cfg):
        # counted from before construction, which factors the letters
        calls = count_stack_decompositions(monkeypatch, (32, 16, 16))
        inst, ens = build_locking_state(4, family)
        rot = rotated(ens, random_unitary(16, np.random.default_rng(4)))
        hadamard = projective_povm(hadamard_tensor(4))
        for e in (ens, rot):
            accessible_information(e, fast_cfg)
            holevo_chi(e)
            maassen_uffink_bound(e)
            induced_table(e, hadamard)
        locking_delta(inst)
        after_key_table(inst)
        simulate_locking_run(inst, None, 1000, seed=1)
        simulate_locking_run(inst, hadamard, 1000, seed=1)
        # and a pure stack that is not two bases, where the d^2-outcome ascent runs on its rows
        letter_calls = count_stack_decompositions(monkeypatch, (6, 4, 4))
        letters = random_cq_ensemble(6, 4, "pure", seed=3)
        assert accessible_information(letters, fast_cfg).per_restart_values
        holevo_chi(letters)
        assert calls == letter_calls == []

    @pytest.mark.parametrize("run, expected", [
        (lambda ens, cfg: CQEnsemble(ens.labels, ens.probs, ens.states), ["eigh"]),
        (accessible_information, []),
        (lambda ens, cfg: holevo_chi(ens), []),
        (lambda ens, cfg: maassen_uffink_bound(ens), []),
        (lambda ens, cfg: induced_table(ens, projective_povm(np.eye(4))), []),
    ], ids=["construction", "search", "holevo_chi", "maassen_uffink_bound", "induced_table"])
    def test_mixed_stack_decomposed_once(self, run, expected, monkeypatch, fast_cfg):
        # construction validates and factors the stack with one eigh; no reader decomposes it again
        ens = random_cq_ensemble(6, 4, "mixed", seed=3)
        calls = count_stack_decompositions(monkeypatch, ens.states.shape)
        run(ens, fast_cfg)
        assert calls == expected

    @pytest.mark.parametrize("make", [
        *(lambda m=m, f=f: build_locking_state(m, f)[1] for f in ("hadamard", "fourier") for m in range(1, 7)),
        *(lambda m=m: rotated(build_locking_state(m)[1], random_unitary(2**m, np.random.default_rng(m)))
          for m in (3, 4, 5)),
        bb84_pair,
    ], ids=[*(f"locking-{f}-m{m}" for f in ("hadamard", "fourier") for m in range(1, 7)),
            "rotated-m3", "rotated-m4", "rotated-m5", "bb84pair"])
    def test_search_agrees_with_the_eigh_route(self, make, monkeypatch):
        calls = count_stack_decompositions(monkeypatch, make().states.shape)
        ens = make()
        assert calls == []
        decomposed = eigh_route(ens, monkeypatch)
        assert calls == ["eigh"]
        pure, full = accessible_information(ens), accessible_information(decomposed)
        for name in ("value", "chi", "upper_bound"):
            assert abs(getattr(pure, name) - getattr(full, name)) <= 1e-12, name
        assert pure.certified == full.certified


class TestLetterRows:
    """CQEnsemble.rows is one (n_letters, r, d) stack, r the largest letter rank, with sum_j K_aj^dagger K_aj = p_a sigma_a."""

    @pytest.mark.parametrize("kind, route, rank", [
        ("pure", "pure", 1),
        ("pure", "eigh", 1),
        ("rank-2", "eigh", 2),
        ("full-rank", "eigh", None),
        ("mixed-rank", "eigh", None),
        ("faint-eigenvalue", "eigh", 2),
    ])
    @pytest.mark.parametrize("d", [4, 8])
    def test_rows_stack_the_kept_eigenvectors(self, kind, route, rank, d, monkeypatch):
        ens = ranked_ensemble(kind, d)
        if route == "eigh":
            ens = eigh_route(ens, monkeypatch)
        r = rank or d
        assert ens.rows.shape == (ens.n_letters, r, d)
        # a row is exactly 0 where its eigenvalue is at or below PROB_TOL, and only there; no dropped eigenvalue is kept
        assert np.array_equal(np.all(ens.rows == 0, axis=2), ens.spectra[:, -r:] <= PROB_TOL)
        assert np.all(ens.spectra[:, :-r] <= PROB_TOL)
        letters = np.einsum("ajk,ajl->akl", ens.rows.conj(), ens.rows)
        assert np.max(np.abs(letters - ens.probs[:, None, None] * ens.states)) <= 1e-12
        assert not ens.rows.flags.writeable

    def test_letter_probability_just_below_zero(self):
        # validation accepts -5e-13 as roundoff; the letter counts with probability 0 and gives finite rows
        ens = CQEnsemble((0, 1, 2), np.array([0.5, 0.5, -5e-13]), (KET0, KET1, np.eye(2) / 2))
        assert ens.probs[2] == 0.0
        assert np.all(np.isfinite(ens.rows))
        assert abs(holevo_chi(ens) - 1) <= 1e-12
        assert abs(accessible_information(ens).value - 1) <= 1e-12


class TestAccessibleInformation:
    def test_orthogonal_attains_ha(self, fast_cfg):
        ens = CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, KET1))
        res = accessible_information(ens, fast_cfg)
        assert abs(res.value - 1) < 1e-6
        assert abs(res.value - holevo_chi(ens)) < 1e-6

    def test_locking_m1(self, fast_cfg):
        _, ens = build_locking_state(1)
        res = accessible_information(ens, fast_cfg)
        assert abs(res.value - 0.5) < 1e-3

    def test_locking_m2(self, fast_cfg):
        _, ens = build_locking_state(2)
        res = accessible_information(ens, fast_cfg)
        assert abs(res.value - 1.0) < 1e-3

    def test_bb84_matches_grid_oracle(self):
        ens = bb84_pair()
        cfg = OptimizerConfig(restarts=10, max_iters=200, seed=0)
        res = accessible_information(ens, cfg)
        assert abs(res.value - grid_oracle(ens)) < 1e-4

    def test_sandwich(self):
        cfg = OptimizerConfig(restarts=3, max_iters=60, seed=2)
        for seed in range(10):
            ens = random_cq_ensemble(3, 2, "pure", seed=seed)
            res = accessible_information(ens, cfg)
            candidate = measured_mutual_information(ens, projective_povm(np.eye(2, dtype=complex)))
            assert candidate <= res.value + 1e-12
            assert res.value <= res.upper_bound + 1e-6

    @pytest.mark.parametrize("bloch, optimum", [
        # trine: three Bloch vectors 120 degrees apart in a plane
        ([(np.cos(t), 0.0, np.sin(t)) for t in 2 * np.pi * np.arange(3) / 3], np.log2(3 / 2)),
        # tetrahedron: the four alternate corners of a cube
        (np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / np.sqrt(3), np.log2(4 / 3)),
    ], ids=["trine", "tetrahedron"])
    def test_symmetric_qubit_ensembles_reach_their_optima(self, bloch, optimum):
        # equal priors (Davies, IEEE Trans. Inf. Theory 24, 596, 1978; Sasaki et al., PRA 59, 3325, 1999)
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        states = (np.eye(2) + np.einsum("ai,ijk->ajk", np.asarray(bloch), paulis)) / 2
        n = len(states)
        res = accessible_information(CQEnsemble(tuple(range(n)), np.full(n, 1 / n), states))
        assert optimum - 1e-9 <= res.value <= optimum + 1e-12

    def test_reevaluation(self, fast_cfg):
        ens = random_cq_ensemble(3, 2, "pure", seed=11)
        res = accessible_information(ens, fast_cfg)
        assert abs(measured_mutual_information(ens, res.best_povm) - res.value) < 1e-9

    def test_deterministic(self, fast_cfg):
        ens = random_cq_ensemble(3, 2, "pure", seed=11)
        a = accessible_information(ens, fast_cfg)
        b = accessible_information(ens, fast_cfg)
        assert a.per_restart_values == b.per_restart_values
        assert a.value == b.value

    def test_value_is_running_maximum(self, fast_cfg):
        ens = random_cq_ensemble(3, 2, "pure", seed=11)
        res = accessible_information(ens, fast_cfg)
        assert res.value >= max(res.per_restart_values) - 1e-12

    def test_dimension_guard(self, fast_cfg):
        ens = random_cq_ensemble(2, 32, "pure", seed=0)
        with pytest.raises(GuardError, match="instance too large"):
            accessible_information(ens, fast_cfg)

    @pytest.mark.parametrize("make, expected", [
        (lambda: build_locking_state(6)[1], []),
        (lambda: random_cq_ensemble(32, 8, "mixed", seed=40), ["eigh"]),
    ], ids=["locking-m6", "random-n32-d8"])
    def test_letter_stack_decomposed_once(self, make, expected, monkeypatch, fast_cfg):
        # chi and the search's letter factors are read from the one eigh that validates the stack
        # at construction, and from none where every letter is pure; counted from before construction
        calls = count_stack_decompositions(monkeypatch, make().states.shape)
        ens = make()
        res = accessible_information(ens, fast_cfg)
        assert calls == expected
        assert abs(res.chi - per_letter_chi(ens)) <= 1e-12

    def test_single_letter(self, fast_cfg):
        ens = CQEnsemble((0,), np.array([1.0]), (PLUS,))
        res = accessible_information(ens, fast_cfg)
        assert abs(res.value) < 1e-9
        # chi = 0 certifies a candidate basis, so no restart runs
        assert res.certified
        assert res.per_restart_values == res.per_restart_iterations == res.per_restart_grad_norms == ()


def commuting_ensemble(d, kind, seed):
    """Letters U diag(lambda_a) U^dagger in one Haar frame U, with random spectra lambda_a.

    kind "uniform": d equiprobable letters whose spectra are the cyclic shifts
    of one random spectrum, so that rho = I/d; kind "dirichlet":
    Dirichlet-weighted letters with independent random spectra, so that rho
    is non-degenerate.
    """
    rng = np.random.default_rng(seed)
    u = random_unitary(d, rng)
    if kind == "uniform":
        spectrum = rng.dirichlet(np.ones(d))
        spectra = np.stack([np.roll(spectrum, a) for a in range(d)])
        probs = np.full(d, 1.0 / d)
    else:
        n = int(rng.integers(1, 2 * d + 1))
        spectra, probs = rng.dirichlet(np.ones(d), size=n), rng.dirichlet(np.ones(n))
    return CQEnsemble(tuple(range(len(probs))), probs, (u[None] * spectra[:, None, :]) @ u.conj().T)


class TestCommutingLetters:
    """Commuting letters share the eigenbasis of the generic combination sum_a c_a p_a sigma_a,
    where measuring attains chi, also where the B marginal is degenerate."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d=st.integers(2, 8), kind=st.sampled_from(["uniform", "dirichlet"]), seed=st.integers(0, 2**31))
    def test_certified_in_stage_one(self, d, kind, seed):
        ens = commuting_ensemble(d, kind, seed)
        res = accessible_information(ens)
        assert res.certified
        assert abs(res.value - res.chi) <= 1e-9
        assert res.per_restart_values == res.per_restart_iterations == res.per_restart_grad_norms == ()

    @pytest.mark.parametrize("d", [4, 16, 32, 64])
    def test_degenerate_marginal_at_any_dimension(self, d):
        # rho = I/d: a Haar-rotated orthogonal ensemble, and cyclic spectra; d = 32 and 64 exceed MAX_DIM_B
        u = random_unitary(d, np.random.default_rng(d))
        orthogonal = CQEnsemble(tuple(range(d)), np.full(d, 1.0 / d), u.T[:, :, None] * u.T[:, None, :].conj())
        for ens in (orthogonal, commuting_ensemble(d, "uniform", d)):
            res = accessible_information(ens)
            assert res.certified
            assert abs(res.value - res.chi) <= 1e-9
            assert res.per_restart_values == ()


def rotated(ens, u):
    """The ensemble with every letter conjugated by the unitary u on B."""
    return CQEnsemble(ens.labels, ens.probs, tuple(u @ s @ u.conj().T for s in ens.states))


def ascent(ens, cfg, n):
    """The search's ascent alone with n outcomes, in the form of the objective the search picks for ens."""
    return accessible._stiefel_ascent(accessible._evaluator(ens), cfg, n, ens.dim_b)


def d_squared_ascent(ens, cfg):
    """The search's d^2-outcome ascent alone: final values, isometries, iterations and gradient norms per restart."""
    return ascent(ens, cfg, ens.dim_b**2)


def form_picked(ens, monkeypatch):
    """Which form of the objective the search builds for ens: "rows" or "matrices"."""
    picked = []
    monkeypatch.setattr(accessible, "_rows_evaluator", lambda *args: picked.append("rows"))
    monkeypatch.setattr(accessible, "_matrix_evaluator", lambda *args: picked.append("matrices"))
    accessible._evaluator(ens)
    (form,) = picked
    return form


def isometry_stack(d):
    """Three Householder-orthonormalized Gaussian d^2 x d matrices, seeded by d: a batch of d^2-outcome POVMs."""
    rng = np.random.default_rng(d)
    return householder_qr(rng.standard_normal((3, d * d, d)) + 1j * rng.standard_normal((3, d * d, d)))


def assert_rows_agree_with_matrices(ens):
    """The rows of any stack give the tables of the letter matrices p_a sigma_a, which stage 1 and induced_table read
    through _row_table, and the objective the search builds from the rows (_evaluator: the rows form of a pure stack,
    the matrix form of any other, its matrices formed from the rows) gives the values and gradients of the matrix
    form of p_a sigma_a."""
    v = isometry_stack(ens.dim_b)
    mat_val, mat_grad = accessible._matrix_evaluator(ens.probs[:, None, None] * ens.states)(v)
    tables = _row_table(ens, v)[1]
    assert np.max(np.abs(_mi_from_table(tables)[0] - mat_val)) <= 1e-12
    for x, table in zip(v, tables):
        assert np.max(np.abs(table.T / table.sum() - states_form_table(ens, Povm(x)))) <= 1e-12
    search_val, search_grad = accessible._evaluator(ens)(v)
    assert np.max(np.abs(search_val - mat_val)) <= 1e-12
    assert np.max(np.abs(search_grad - mat_grad)) <= 1e-10


class TestObjectiveForms:
    """The ascent's objective from the rows of a stack of pure letters and from the letter matrices p_a sigma_a."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("stack", STACK_KINDS)
    def test_forms_agree(self, d, stack):
        ens = ranked_ensemble(stack, d)
        if stack == "faint-eigenvalue":
            assert np.count_nonzero(np.any(ens.rows[0] != 0, axis=1)) == 1
        assert_rows_agree_with_matrices(ens)

    def test_forms_agree_on_bb84pair(self):
        assert_rows_agree_with_matrices(bb84_pair())

    @pytest.mark.parametrize("make", [
        *(lambda n=n, d=d: random_cq_ensemble(n, d, "pure", seed=1) for n, d in [(128, 2), (64, 4), (16, 8), (32, 16)]),
        lambda: build_locking_state(3)[1],
        bb84_pair,
    ], ids=["pure-n128-d2", "pure-n64-d4", "pure-d8", "pure-d16", "locking-m3", "bb84pair"])
    def test_pure_stacks_use_rows(self, make, monkeypatch):
        ens = make()
        assert form_picked(ens, monkeypatch) == form_picked(eigh_route(ens, monkeypatch), monkeypatch) == "rows"

    @pytest.mark.parametrize("make", [
        *(lambda n=n, d=d: random_cq_ensemble(n, d, "mixed", seed=1) for n, d in [(128, 2), (64, 4), (32, 8), (12, 4)]),
        lambda: rank_ensemble([2] * 16, 8, seed=1),
        lambda: rank_ensemble([2] * 16, 16, seed=1),
        lambda: rank_ensemble([4] * 16, 16, seed=1),
        lambda: rank_ensemble([16] * 16, 16, seed=1),
        lambda: ranked_ensemble("faint-eigenvalue", 8),
    ], ids=["mixed-n128-d2", "mixed-n64-d4", "mixed-n32-d8", "mixed-n12-d4", "rank2-d8", "rank2-d16", "rank4-d16",
            "full-rank-d16", "faint-eigenvalue-d8"])
    def test_other_stacks_use_matrices(self, make, monkeypatch):
        assert form_picked(make(), monkeypatch) == "matrices"

    def test_evaluator_built_once_per_search(self, monkeypatch):
        # a two-basis ensemble whose d-outcome stage falls short, so both ascent stages run
        ens = two_basis_ensemble(np.eye(4, dtype=complex), random_unitary(4, np.random.default_rng(1)))
        built, outcomes = [], []
        evaluator, stiefel_ascent = accessible._evaluator, accessible._stiefel_ascent
        monkeypatch.setattr(accessible, "_evaluator", lambda ens: built.append(ens) or evaluator(ens))
        monkeypatch.setattr(accessible, "_stiefel_ascent",
                            lambda evaluate, cfg, n, d: outcomes.append(n) or stiefel_ascent(evaluate, cfg, n, d))
        accessible_information(ens, OptimizerConfig(restarts=1))
        assert outcomes == [4, 16]
        assert built == [ens]


def gaussian_starts(seeds, n, d):
    """The ascent's Gaussian starts, one n x d complex matrix drawn from default_rng(s) for each seed s."""
    rngs = [np.random.default_rng(s) for s in seeds]
    return np.stack([rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)) for rng in rngs])


def orthonormality_error(q):
    return np.max(np.abs(q.conj().swapaxes(1, 2) @ q - np.eye(q.shape[2])))


class TestRetraction:
    """Cholesky QR agrees with Householder QR: one pass on trial points v + s eta, with eta tangent at v,
    and two passes on the Gaussian starts."""

    # the five square starts default_rng(s), s < 20,000, of largest condition number at each d:
    # 531 at d = 2, 1,231 at d = 3, 1,004 at d = 4, 1,098 at d = 8 and 3,175 at d = 16
    WORST_SQUARE_STARTS = {
        2: [2573, 6016, 2524, 3814, 9264],
        3: [10989, 14644, 335, 6795, 4466],
        4: [17292, 19961, 2073, 10998, 5644],
        8: [2284, 4495, 4206, 2233, 17312],
        16: [4025, 351, 4689, 6348, 5044],
    }

    @pytest.mark.parametrize("d", sorted(WORST_SQUARE_STARTS))
    def test_two_passes_on_the_worst_square_starts(self, d):
        y = gaussian_starts(self.WORST_SQUARE_STARTS[d], d, d)
        assert np.linalg.cond(y).min() > 100
        q = accessible._cholesky_retract(accessible._cholesky_retract(y))
        assert orthonormality_error(q) <= 2e-15
        assert np.max(np.abs(q - householder_qr(y))) <= 1e-13

    @pytest.mark.parametrize("n, d", [(4, 4), (16, 4), (16, 16), (256, 16)])
    @pytest.mark.parametrize("cond", [1e4, 1e6])
    def test_two_passes_on_ill_conditioned_matrices(self, n, d, cond):
        # y = U diag(sigma) W^dagger with singular values spread from 1 down to 1 / cond
        rng = np.random.default_rng(n + d)
        u = householder_qr(rng.standard_normal((3, n, d)) + 1j * rng.standard_normal((3, n, d)))
        w = householder_qr(rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d)))
        y = (u * np.geomspace(1.0, 1.0 / cond, d)) @ w.conj().swapaxes(1, 2)
        q = accessible._cholesky_retract(accessible._cholesky_retract(y))
        assert orthonormality_error(q) <= 2e-15
        # the Q factor itself moves by about cond times roundoff under a perturbation of y
        # of roundoff size, so no two QR algorithms agree more closely than that
        assert np.max(np.abs(q - householder_qr(y))) <= cond * 1e-15

    @pytest.mark.parametrize("n, d", [(4, 2), (16, 4), (64, 8), (256, 16), (3, 3)])
    @pytest.mark.parametrize("size", [1e-12, 1e-8, 1e-4, 1.0, 1e2, 1e4])
    def test_cholesky_qr_agrees_with_householder(self, n, d, size):
        # size is s^2 |eta|_F^2, so y^dagger y = I + s^2 eta^dagger eta has condition number at most 1 + size
        rng = np.random.default_rng(n + d)
        v = householder_qr(rng.standard_normal((3, n, d)) + 1j * rng.standard_normal((3, n, d)))
        eta = accessible._tangent(rng.standard_normal((3, n, d)) + 1j * rng.standard_normal((3, n, d)), v)
        s = np.sqrt(size / np.sum(np.abs(eta) ** 2, axis=(1, 2)))
        y = v + s[:, None, None] * eta
        q = accessible._cholesky_retract(y)
        assert np.max(np.abs(q - householder_qr(y))) <= 1e-13
        assert np.max(np.abs(q.conj().swapaxes(1, 2) @ q - np.eye(d))) <= MATRIX_TOL

    @pytest.mark.parametrize("r, n, d", [(2, 4, 2), (2, 16, 4), (2, 64, 8), (10, 256, 16), (1, 9, 3)])
    def test_stacked_projection_equals_separate_calls(self, r, n, d):
        rng = np.random.default_rng(n)
        v = householder_qr(rng.standard_normal((r, n, d)) + 1j * rng.standard_normal((r, n, d)))
        g, eta = rng.standard_normal((2, r, n, d)) + 1j * rng.standard_normal((2, r, n, d))
        stacked = accessible._tangent(np.stack((g, eta)), v)
        assert np.array_equal(stacked[0], accessible._tangent(g, v))
        assert np.array_equal(stacked[1], accessible._tangent(eta, v))


class TestSearchWithoutHints:
    """The search must find the optimum with no hint from the caller.

    After a random rotation neither the computational basis nor the
    generic-combination basis applies; the ensemble's own letter bases, found
    from its letters alone, certify a rotated locking ensemble in stage 1.
    """

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rotated_locking_reaches_half_m(self, m):
        _, ens = build_locking_state(m)
        u = random_unitary(2**m, np.random.default_rng(100 + m))
        res = accessible_information(rotated(ens, u))
        assert abs(res.value - m / 2) < 1e-9
        # a letter basis meets the Maassen-Uffink bound, so no ascent runs
        assert res.certified
        assert res.best_povm.n_outcomes == 2**m
        assert res.per_restart_values == res.per_restart_iterations == res.per_restart_grad_norms == ()

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [5, 6])
    def test_rotated_locking_beyond_the_ascent_cap(self, m, family):
        # d = 32 and 64 exceed MAX_DIM_B, which guards only an ascent
        _, ens = build_locking_state(m, family)
        res = accessible_information(rotated(ens, random_unitary(2**m, np.random.default_rng(100 + m))))
        assert res.certified
        assert abs(res.value - m / 2) <= 1e-9
        assert res.best_povm.n_outcomes == 2**m
        assert res.per_restart_values == res.per_restart_iterations == res.per_restart_grad_norms == ()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_d_outcome_ascent_alone_reaches_half_m(self, m):
        # the n = d ascent, unaided by any candidate basis, at the default config
        _, ens = build_locking_state(m)
        ens = rotated(ens, random_unitary(2**m, np.random.default_rng(100 + m)))
        vals = ascent(ens, OptimizerConfig(), 2**m)[0]
        assert abs(max(vals) - m / 2) <= 1e-9

    def test_stalled_d_outcome_stage_falls_back(self):
        # the two bases are not mutually unbiased, so the Maassen-Uffink bound
        # 1.866 is not attained: the d-outcome stage ends near 1.4044, short of
        # it, and the d^2-outcome ascent runs as well
        ens = two_basis_ensemble(np.eye(4, dtype=complex), random_unitary(4, np.random.default_rng(1)))
        assert abs(accessible.maassen_uffink_bound(ens) - 1.8659) < 1e-4
        cfg = OptimizerConfig(restarts=1)
        stage2 = ascent(ens, cfg, 4)[0]
        assert abs(stage2[0] - 1.4044) < 1e-4
        alone = d_squared_ascent(ens, cfg)[0]
        res = accessible_information(ens, cfg)
        assert res.value >= max(max(alone), stage2[0])
        assert res.per_restart_values == tuple(alone)
        assert not res.certified

    @pytest.mark.parametrize("d, seed, outcomes", [(3, 8, 3), (3, 11, 3), (4, 21, 4), (4, 3, 16)])
    def test_restart_tuples_come_from_the_stage_that_answered(self, d, seed, outcomes):
        # the stage with d or d^2 outcomes answers here, and its best start beats every start of the other
        ens = two_basis_ensemble(np.eye(d), random_unitary(d, np.random.default_rng(seed)))
        res = accessible_information(ens)
        assert not res.certified
        assert res.best_povm.n_outcomes == outcomes
        assert max(res.per_restart_values) == res.value

    @pytest.mark.parametrize("n, d, purity, value", [
        (128, 2, "pure", 0.3535216776369502),
        (64, 4, "mixed", 0.21374219583502727),
        (32, 8, "mixed", 0.24857272065543856),
    ], ids=["128-2-pure", "64-4-mixed", "32-8-mixed"])
    def test_other_ensembles_run_the_d_squared_ascent_alone(self, n, d, purity, value):
        # shaped like the benchmark's discord-sweep inputs, none of which is a two-basis ensemble;
        # value pins the answer, so a form of the objective that moves it fails here
        cfg = OptimizerConfig(restarts=2, max_iters=60, seed=3)
        ens = random_cq_ensemble(n, d, purity, seed=n + d)
        assert accessible.maassen_uffink_bound(ens) is None
        res = accessible_information(ens, cfg)
        assert res.per_restart_values == tuple(float(v) for v in d_squared_ascent(ens, cfg)[0])
        assert abs(res.value - value) <= 1e-12

    def test_default_search_reaches_the_pinned_optimum(self):
        # 0.2479186539 is the best value of 10 restarts x 3,000 iterations, every start stopped on GRAD_TOL
        res = accessible_information(random_cq_ensemble(12, 4, "mixed", seed=1))
        assert res.value >= 0.2479186539 - 1e-9
        assert res.value <= res.upper_bound + 1e-9

    def test_local_unitary_invariance_d4(self):
        ens = random_cq_ensemble(6, 4, "mixed", seed=5)
        u = random_unitary(4, np.random.default_rng(7))
        a = accessible_information(ens).value
        b = accessible_information(rotated(ens, u)).value
        assert abs(a - b) < 1e-6


def re_inner(a, b):
    """Re tr(a_r^dagger b_r) of each stacked pair of (R, n, d) arrays."""
    return np.einsum("rij,rij->r", a.conj(), b).real


class TestConvergence:
    """Each start stops on its tangent-gradient norm and reports how far it got."""

    def test_bb84_starts_stop_early(self):
        res = accessible_information(bb84_pair(), OptimizerConfig(max_iters=60))
        assert len(res.per_restart_iterations) == len(res.per_restart_grad_norms) == 10
        assert all(it < 60 for it in res.per_restart_iterations)
        assert all(g < GRAD_TOL for g in res.per_restart_grad_norms)
        p = 0.5 + 0.5 * 2**-0.5
        closed_form = 1 + p * np.log2(p) + (1 - p) * np.log2(1 - p)
        assert abs(res.value - closed_form) < 1e-9

    def test_capped_starts_report_max_iters(self):
        # the rotated m=3 optimum has vanishing table entries, where the
        # gradient norm decays slowly; every start runs out of iterations
        _, ens = build_locking_state(3)
        cfg = OptimizerConfig(restarts=2, max_iters=30, seed=0)
        _, _, iters, grad_norms = d_squared_ascent(rotated(ens, random_unitary(8, np.random.default_rng(103))), cfg)
        assert tuple(iters) == (30, 30)
        assert all(g >= GRAD_TOL for g in grad_norms)

    def test_underflowed_step_stops_start(self, monkeypatch):
        # this start stops improving near iteration 410 with its gradient
        # norm near 7e-5, after which every trial fails and its step halves
        _, ens = build_locking_state(3)
        ens = rotated(ens, random_unitary(8, np.random.default_rng(103)))
        cfg = OptimizerConfig(restarts=1, max_iters=800, seed=0)
        vals, _, iters, grad_norms = d_squared_ascent(ens, cfg)
        assert iters[0] < 800
        assert grad_norms[0] >= GRAD_TOL
        # without the step stop the start runs out its iterations and gains nothing
        monkeypatch.setattr(accessible, "STEP_TOL", 0.0)
        full_vals, _, full_iters, _ = d_squared_ascent(ens, cfg)
        assert tuple(full_iters) == (800,)
        assert tuple(full_vals) == tuple(vals)

    def test_stopped_start_stays_put(self):
        # a stopped start stays in the batch, masked out of acceptance: cutting the
        # ascent at its stop iteration returns its value and isometry bitwise
        vals, vs, iters, _ = d_squared_ascent(bb84_pair(), OptimizerConfig())
        stopped = np.flatnonzero(iters < OptimizerConfig().max_iters)
        assert len(stopped) > 0
        for r in stopped:
            cut_vals, cut_vs, cut_iters, _ = d_squared_ascent(bb84_pair(), OptimizerConfig(max_iters=int(iters[r])))
            assert cut_iters[r] == iters[r]
            assert cut_vals[r] == vals[r]
            assert np.array_equal(cut_vs[r], vs[r])

    def test_zero_gradient_start_beside_running_ones(self):
        # Re tr(A^dagger v) for start 1, whose gradient with respect to conj(v) is A, and a
        # constant with an exactly zero gradient for start 0: start 0 stops at once while start 1
        # runs on, and its zero gradient must raise no warning (every warning fails a test)
        a = np.arange(8.0).reshape(4, 2) + 1j

        def evaluate(v):
            grad = np.stack([np.zeros_like(a), a])
            return re_inner(grad, v), grad

        cfg = OptimizerConfig(restarts=2, max_iters=50)
        vals, vs, iters, grad_norms = accessible._stiefel_ascent(evaluate, cfg, 4, 2)
        assert iters[0] == 0 and grad_norms[0] == 0.0
        start = accessible._cholesky_retract(accessible._cholesky_retract(gaussian_starts([0], 4, 2)))
        assert np.array_equal(vs[0], start[0])
        assert iters[1] > 0 and vals[1] > 0

    def test_stationary_start_stops_at_once(self, fast_cfg):
        # a single letter gives a constant objective, so every gradient is 0 up to roundoff
        ens = CQEnsemble((0,), np.array([1.0]), (PLUS,))
        _, _, iters, grad_norms = d_squared_ascent(ens, fast_cfg)
        assert tuple(iters) == (0, 0, 0)
        assert all(g < 1e-12 for g in grad_norms)


def reference_ascent(evaluate, cfg, n, d):
    """Oracle of accessible._stiefel_ascent: the same Polak-Ribiere+ ascent written with fresh arrays at every step,
    its accepted trial points merged by np.where, and its own copies of the retraction, projection and inner product."""

    def retract(y):
        low = np.linalg.cholesky(y.conj().swapaxes(1, 2) @ y)
        return y @ np.linalg.inv(low).conj().swapaxes(1, 2)

    def tangent(g, v):
        vg = v.conj().swapaxes(1, 2) @ g
        return g - v @ (0.5 * (vg + vg.conj().swapaxes(-1, -2)))

    def inner(a, b):
        # Re tr(a^dagger b) per start, as the dot product of the float64 views
        r = len(a)
        return (a.view(np.float64).reshape(r, 1, -1) @ b.view(np.float64).reshape(r, -1, 1)).reshape(r)

    v = retract(retract(gaussian_starts(range(cfg.seed, cfg.seed + cfg.restarts), n, d)))
    val, egrad = evaluate(v)
    g = tangent(egrad, v)
    eta, gg = g, inner(g, g)
    ee = gg
    step = np.full(cfg.restarts, accessible.STEP_INIT)
    iters = np.zeros(cfg.restarts, dtype=int)
    for _ in range(cfg.max_iters):
        running = (gg >= GRAD_TOL**2) & (step**2 * ee >= accessible.STEP_TOL**2)
        if not running.any():
            break
        iters += running
        trial = retract(v + step[:, None, None] * eta)
        trial_val, trial_egrad = evaluate(trial)
        up = (trial_val > val) & running
        if not up.any():
            step = step * accessible.STEP_SHRINK
            continue
        trial_g, moved_eta = tangent(np.stack((trial_egrad, eta)), trial)
        trial_gg = inner(trial_g, trial_g)
        beta = np.maximum(0.0, (trial_gg - inner(trial_g, g)) / np.maximum(gg, GRAD_TOL**2))
        trial_eta = trial_g + beta[:, None, None] * moved_eta
        trial_ee = inner(trial_eta, trial_eta)
        steep = inner(trial_eta, trial_g) <= accessible.ASCENT_COS_MIN * np.sqrt(trial_gg * trial_ee)
        trial_eta = np.where(steep[:, None, None], trial_g, trial_eta)
        trial_ee = np.where(steep, trial_gg, trial_ee)
        up3 = up[:, None, None]
        v, g, eta = np.where(up3, trial, v), np.where(up3, trial_g, g), np.where(up3, trial_eta, eta)
        val, gg, ee = np.where(up, trial_val, val), np.where(up, trial_gg, gg), np.where(up, trial_ee, ee)
        step = step * np.where(up, accessible.STEP_GROW, accessible.STEP_SHRINK)
    return val, v, iters, np.sqrt(gg)


def zero_gradient_evaluator(n, d, restarts):
    """Re tr(A^dagger v) for every start but the first, whose objective is constant with an exactly zero gradient."""
    a = np.arange(n * d, dtype=float).reshape(n, d) + 1j
    grad = np.stack([np.zeros_like(a)] + [a] * (restarts - 1))
    return lambda v: (re_inner(grad, v), grad)


class TestWorkspace:
    """The ascent updates one preallocated workspace in place and returns what the fresh-array loop returns."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(2, 4),
        letters=st.integers(1, 6),
        objective=st.sampled_from(["pure", "mixed", "zero-gradient"]),
        square=st.booleans(),
        restarts=st.integers(1, 4),
        max_iters=st.integers(1, 80),
        seed=st.integers(0, 2**32),
        often=st.booleans(),
    )
    def test_matches_the_fresh_array_loop_bitwise(self, d, letters, objective, square, restarts, max_iters, seed, often):
        n = d if square else d * d
        if objective == "zero-gradient":
            evaluate = zero_gradient_evaluator(n, d, restarts)
        else:
            evaluate = accessible._evaluator(random_cq_ensemble(letters, d, objective, seed=seed))
        cfg = OptimizerConfig(restarts=restarts, max_iters=max_iters, seed=seed)
        # often: directions fall back to the gradient and steps stop the starts far more often than at the defaults,
        # so that the squared direction norm that the step stop reads is checked too
        cos_min, step_tol = (0.9, 1e-3) if often else (accessible.ASCENT_COS_MIN, accessible.STEP_TOL)
        with mock.patch.object(accessible, "ASCENT_COS_MIN", cos_min), mock.patch.object(accessible, "STEP_TOL", step_tol):
            got = accessible._stiefel_ascent(evaluate, cfg, n, d)
            want = reference_ascent(evaluate, cfg, n, d)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: random_cq_ensemble(12, 4, "pure", seed=1),
        lambda: random_cq_ensemble(12, 4, "mixed", seed=1),
    ], ids=["rows", "matrices"])
    def test_trial_points_share_one_buffer(self, make):
        evaluate = accessible._evaluator(make())
        points = []

        def recording(v):
            points.append(v)
            return evaluate(v)

        vals, vs, iters, grad_norms = accessible._stiefel_ascent(recording, OptimizerConfig(restarts=3, max_iters=40), 16, 4)
        # the first call evaluates the starts; every trial point after it is retracted into one buffer
        assert len(points) > 2
        assert len({p.ctypes.data for p in points[1:]}) == 1
        # what the ascent returns is its own, not a view of the workspace
        for out in (vals, vs, iters, grad_norms):
            assert not any(np.shares_memory(out, p) for p in points)


class TestOptimizePovm:
    """The maximizing POVM, as returned in best_povm."""

    def test_returns_valid_povm(self, fast_cfg):
        ens = random_cq_ensemble(3, 2, "pure", seed=3)
        povm = accessible_information(ens, fast_cfg).best_povm
        assert povm.dim == 2
        assert povm.n_outcomes <= 4

    def test_search_uses_d_squared_outcomes(self, fast_cfg):
        # on these mixed ensembles a restart beats both candidate bases, and every restart has d^2 outcomes
        for d in (2, 3):
            povm = accessible_information(random_cq_ensemble(4, d, "mixed", seed=0), fast_cfg).best_povm
            assert povm.n_outcomes == d * d


class TestOptimizerConfig:
    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("restarts", 2.5), ("max_iters", 3.5), ("seed", 1.5), ("restarts", True), ("max_iters", False),
        ("restarts", 1e6), ("seed", 2.0), ("max_iters", "10"), ("seed", None),
    ])
    def test_rejects_non_integers(self, field, value):
        # a float would otherwise fail inside numpy with a TypeError, and a bool would run as a count
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        numpy_cfg = OptimizerConfig(np.int64(2), np.int32(30), np.uint8(3))
        assert accessible_information(bb84_pair(), numpy_cfg) == accessible_information(bb84_pair(), OptimizerConfig(2, 30, 3))


@pytest.mark.parametrize("make", [
    lambda: random_cq_ensemble(6, 3, "pure", seed=1),
    lambda: two_basis_ensemble(np.eye(3, dtype=complex), random_unitary(3, np.random.default_rng(8))),
    lambda: random_cq_ensemble(6, 3, "mixed", seed=1),
    lambda: rank_ensemble([2] * 6, 4, seed=1),
    lambda: CQEnsemble((0, 1, 2), np.array([0.5, 0.5, 0.0]), (KET0, PLUS, np.eye(2) / 2)),
], ids=["pure", "two-basis", "full-rank", "rank-2", "zero-probability"])
def test_search_reads_no_states(make, fast_cfg):
    # chi, the bound, the induced table, the search and the discord read only probs, spectra and rows
    ens = make()
    # a copy sharing probs, spectra and rows, whose states are gone, so that any reader of them fails
    bare = copy.copy(ens)
    object.__setattr__(bare, "states", None)
    povm = projective_povm(random_unitary(ens.dim_b, np.random.default_rng(0)))
    assert holevo_chi(bare) == holevo_chi(ens)
    assert maassen_uffink_bound(bare) == maassen_uffink_bound(ens)
    assert np.array_equal(induced_table(bare, povm), induced_table(ens, povm))
    res = accessible_information(bare, fast_cfg)
    assert res.per_restart_values, "the ascent must run"
    assert res == accessible_information(ens, fast_cfg)
    assert quantum_discord_cq(bare, fast_cfg) == quantum_discord_cq(ens, fast_cfg)
