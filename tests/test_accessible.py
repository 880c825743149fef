import numpy as np
import pytest

from cqlock import (
    CQEnsemble,
    GuardError,
    OptimizerConfig,
    accessible_information,
    build_locking_state,
    holevo_chi,
    measured_mutual_information,
    projective_povm,
    random_cq_ensemble,
    shannon_entropy,
    von_neumann_entropy,
)

from cqlock import accessible
from cqlock.accessible import GRAD_TOL
from cqlock.qmath import quantum_mutual_information
from cqlock.states import cq_to_density

from conftest import random_unitary

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def bb84_pair():
    return CQEnsemble((0, 1), np.array([0.5, 0.5]), (KET0, PLUS))


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

    def test_single_letter(self, fast_cfg):
        ens = CQEnsemble((0,), np.array([1.0]), (PLUS,))
        res = accessible_information(ens, fast_cfg)
        assert abs(res.value) < 1e-9


def rotated(ens, u):
    """The ensemble with every letter conjugated by the unitary u on B."""
    return CQEnsemble(ens.labels, ens.probs, tuple(u @ s @ u.conj().T for s in ens.states))


class TestSearchWithoutHints:
    """The default search alone must find the optimum; no candidate basis applies after a random rotation."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rotated_locking_reaches_half_m(self, m):
        _, ens = build_locking_state(m)
        u = random_unitary(2**m, np.random.default_rng(100 + m))
        res = accessible_information(rotated(ens, u))
        assert abs(res.value - m / 2) < {2: 1e-5, 3: 1e-5, 4: 1e-4}[m]

    def test_local_unitary_invariance_d4(self):
        ens = random_cq_ensemble(6, 4, "mixed", seed=5)
        u = random_unitary(4, np.random.default_rng(7))
        a = accessible_information(ens).value
        b = accessible_information(rotated(ens, u)).value
        assert abs(a - b) < 1e-6


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
        res = accessible_information(rotated(ens, random_unitary(8, np.random.default_rng(103))), cfg)
        assert res.per_restart_iterations == (30, 30)
        assert all(g >= GRAD_TOL for g in res.per_restart_grad_norms)

    def test_underflowed_step_stops_start(self, monkeypatch):
        # this start stops improving near iteration 410 with its gradient
        # norm near 7e-5, after which every trial fails and its step halves
        _, ens = build_locking_state(3)
        ens = rotated(ens, random_unitary(8, np.random.default_rng(103)))
        cfg = OptimizerConfig(restarts=1, max_iters=800, seed=0)
        res = accessible_information(ens, cfg)
        assert res.per_restart_iterations[0] < 800
        assert res.per_restart_grad_norms[0] >= GRAD_TOL
        # without the step stop the start runs out its iterations and gains nothing
        monkeypatch.setattr(accessible, "STEP_TOL", 0.0)
        full = accessible_information(ens, cfg)
        assert full.per_restart_iterations == (800,)
        assert full.per_restart_values == res.per_restart_values

    def test_stationary_start_stops_at_once(self, fast_cfg):
        # a single letter gives a constant objective, so every gradient is 0 up to roundoff
        ens = CQEnsemble((0,), np.array([1.0]), (PLUS,))
        res = accessible_information(ens, fast_cfg)
        assert res.per_restart_iterations == (0, 0, 0)
        assert all(g < 1e-12 for g in res.per_restart_grad_norms)


class TestOptimizePovm:
    """The maximizing POVM, as returned in best_povm."""

    def test_returns_valid_povm(self, fast_cfg):
        ens = random_cq_ensemble(3, 2, "pure", seed=3)
        povm = accessible_information(ens, fast_cfg).best_povm
        assert povm.dim == 2
        assert povm.n_outcomes <= 4

    def test_projective_budget(self):
        cfg = OptimizerConfig(restarts=2, max_iters=40, outcome_budget=2, seed=0)
        ens = random_cq_ensemble(3, 2, "pure", seed=3)
        povm = accessible_information(ens, cfg).best_povm
        assert povm.n_outcomes == 2

    def test_budget_bounds_enforced(self):
        cfg = OptimizerConfig(outcome_budget=1)
        ens = random_cq_ensemble(2, 2, "pure", seed=0)
        with pytest.raises(ValueError):
            accessible_information(ens, cfg)


class TestOptimizerConfig:
    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)

    def test_default_budget_is_d_squared(self):
        assert OptimizerConfig().budget_for(3) == 9
