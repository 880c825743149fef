import numpy as np
import pytest

from cqlock import CQEnsemble, OptimizerConfig, classical_mutual_information, shannon_entropy, von_neumann_entropy
from cqlock.measurement import measure_b
from cqlock.qmath import quantum_conditional_entropy, quantum_mutual_information
from cqlock.states import cq_to_density, ensemble_to_json_dict


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q


def two_basis_ensemble(u0, u1, probs=None):
    """2d pure letters |u_0a> then |u_1a>, the columns of the two unitaries, uniform unless probs is given."""
    vecs = np.concatenate([u0.T, u1.T])
    n = len(vecs)
    probs = np.full(n, 1 / n) if probs is None else np.asarray(probs)
    return CQEnsemble(tuple(range(n)), probs, vecs[:, :, None] * vecs[:, None, :].conj())


def rank_ensemble(ranks, d, seed):
    """One letter on C^d per entry of ranks, each a normalized Wishart product of that rank, with Dirichlet probabilities."""
    rng = np.random.default_rng(seed)
    states = []
    for k in ranks:
        g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        states.append(g @ g.conj().T / np.vdot(g, g).real)
    return CQEnsemble(tuple(range(len(ranks))), rng.dirichlet(np.ones(len(ranks))), tuple(states))


def faint_ensemble(d, seed, faint=5e-13):
    """Rank-2 letters on C^d, but letter 0 has the eigenvalue faint, below PROB_TOL, so its rows drop that eigenvector."""
    ens = rank_ensemble([2] * 5, d, seed)
    u = random_unitary(d, np.random.default_rng(seed))
    letter0 = (1 - faint) * np.outer(u[:, 0], u[:, 0].conj()) + faint * np.outer(u[:, 1], u[:, 1].conj())
    return CQEnsemble(ens.labels, ens.probs, (letter0, *ens.states[1:]))


STACK_KINDS = ("pure", "rank-2", "full-rank", "mixed-rank", "faint-eigenvalue")


def ranked_ensemble(kind, d):
    """Letters on C^d of one of the STACK_KINDS, seeded by d: six of rank 1, 2 or d, six of mixed ranks, or faint_ensemble."""
    ranks = {"pure": [1] * 6, "rank-2": [2] * 6, "full-rank": [d] * 6, "mixed-rank": [1, d, 2, 1, d, 2]}
    return faint_ensemble(d, seed=d) if kind == "faint-eigenvalue" else rank_ensemble(ranks[kind], d, seed=d)


def states_form_table(ens, povm):
    """Oracle of induced_table from the letter matrices: p_a v_b^dagger sigma_a v_b, negative roundoff clipped to 0, normalized."""
    v = povm.vectors
    table = np.einsum("aib,bi->ab", ens.states @ v.T, v.conj()).real
    table = np.clip(table, 0.0, None) * ens.probs[:, None]
    return table / table.sum()


def complex_to_json(arr):
    """Nested lists of the array's entries, each a two-element [re, im] list: the layout older files and reports use."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def list_layout_json_dict(ens):
    """ensemble_to_json_dict(ens) with states as nested [re, im] lists, the layout older files use."""
    return {**ensemble_to_json_dict(ens), "states": complex_to_json(ens.states)}


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
    probs, states = measure_b(rho, na, db, rep.optimizer.best_povm)
    measured = sum(p * von_neumann_entropy(s) for p, s in zip(probs, states))
    assert abs(rep.discord - (measured - cond_q)) <= 1e-6


def key_extended_ensemble(ens, keys, n_keys):
    """The ensemble with a classical copy of each letter's key on Bob's side: sigma_a (x) |k_a><k_a|.

    Its Holevo quantity is I(A:BK), the information Bob can reach once the key is announced.
    """
    n, d = ens.n_letters, ens.dim_b
    key_projs = np.eye(n_keys)[keys]
    # ext[a, i, k, j, l] = sigma_a[i, j] * |k_a><k_a|[k, l]
    ext = np.einsum("aij,ak,al->aikjl", ens.states, key_projs, key_projs).reshape(n, d * n_keys, d * n_keys)
    return CQEnsemble(ens.labels, ens.probs, ext)


def one_time_pad_table(m):
    """Exact (A, B, K) table of B = A xor K with a uniform m-bit message and key."""
    size = 2**m
    a, k = np.arange(size)[:, None], np.arange(size)
    table = np.zeros((size, size, size))
    table[a, a ^ k, k] = 1.0 / size**2
    return table


def key_information(t):
    """I(A;BK) - I(A;B) of an (A, B, K) table: what K adds to Bob's B, which the chain rule makes I(A;K|B)."""
    return classical_mutual_information(t.reshape(t.shape[0], -1)) - classical_mutual_information(t.sum(axis=2))


def conditional_mutual_information(t):
    """I(A;K|B) = H(A,B) + H(B,K) - H(B) - H(A,B,K) of an (A, B, K) table, from its marginals' entropies."""
    return (
        shannon_entropy(t.sum(axis=2))
        + shannon_entropy(t.sum(axis=0))
        - shannon_entropy(t.sum(axis=(0, 2)))
        - shannon_entropy(t)
    )


@pytest.fixture
def fast_cfg():
    """Reduced-budget optimizer config for tests that only need a sane search."""
    return OptimizerConfig(restarts=3, max_iters=60, seed=1)
