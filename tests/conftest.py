import numpy as np
import pytest

from cqlock import (
    OptimizerConfig,
    cq_to_density,
    measure_b,
    quantum_conditional_entropy,
    quantum_mutual_information,
    von_neumann_entropy,
)


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q


def bell_state():
    """|Phi+><Phi+| on two qubits."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def assert_matches_bipartite_oracle(ens, rep):
    """Check a discord report against the generic formulas on the (n*d)^2 bipartite state.

    I(A:B) and S(A|B) must match within 1e-9, and the discord must equal
    sum_b p_b S(rho_{A|b}) of the reported POVM minus S(A|B) within 1e-6.
    """
    rho = cq_to_density(ens)
    na, db = ens.n_letters, ens.dim_b
    cond_q = quantum_conditional_entropy(rho, na, db)
    assert abs(rep.mutual_info_q - quantum_mutual_information(rho, na, db)) <= 1e-9
    assert abs(rep.cond_entropy_q - cond_q) <= 1e-9
    out = measure_b(rho, na, db, rep.optimizer.best_povm)
    measured = sum(p * von_neumann_entropy(s) for p, s in zip(out.outcome_probs, out.conditional_states))
    assert abs(rep.discord - (measured - cond_q)) <= 1e-6


@pytest.fixture
def fast_cfg():
    """Reduced-budget optimizer config for tests that only need a sane search."""
    return OptimizerConfig(restarts=3, max_iters=60, seed=1)
