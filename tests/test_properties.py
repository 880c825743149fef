"""Property tests of chi, the measured mutual information and the ensemble JSON format; none runs the search."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from cqlock import CQEnsemble, Povm, holevo_chi, measured_mutual_information, random_cq_ensemble, shannon_entropy
from cqlock.states import ensemble_from_json_dict, ensemble_to_json_dict

from conftest import random_unitary

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
ENSEMBLES = dict(
    n=st.integers(1, 6),
    d=st.integers(2, 4),
    purity=st.sampled_from(["pure", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)


def random_povm(d, rng):
    """Rank-1 POVM with between d and d^2 outcomes: the orthonormal columns of a Gaussian n x d matrix."""
    n = int(rng.integers(d, d * d + 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return Povm(q)


@PROPERTY
@given(**ENSEMBLES, povm_seed=st.integers(0, 2**32 - 1))
def test_measured_information_below_chi(n, d, purity, seed, povm_seed):
    ens = random_cq_ensemble(n, d, purity, seed=seed)
    i_meas = measured_mutual_information(ens, random_povm(d, np.random.default_rng(povm_seed)))
    chi = holevo_chi(ens)
    assert -1e-9 <= i_meas <= chi + 1e-9
    assert chi <= min(shannon_entropy(ens.probs), np.log2(d)) + 1e-9


@PROPERTY
@given(**ENSEMBLES, rng_seed=st.integers(0, 2**32 - 1))
def test_relabelling_invariance(n, d, purity, seed, rng_seed):
    ens = random_cq_ensemble(n, d, purity, seed=seed)
    rng = np.random.default_rng(rng_seed)
    povm = random_povm(d, rng)
    perm = rng.permutation(n)
    relabelled = CQEnsemble(tuple(ens.labels[i] for i in perm), ens.probs[perm], ens.states[perm])
    assert abs(holevo_chi(relabelled) - holevo_chi(ens)) <= 1e-9
    assert abs(measured_mutual_information(relabelled, povm) - measured_mutual_information(ens, povm)) <= 1e-9


@PROPERTY
@given(**ENSEMBLES, rng_seed=st.integers(0, 2**32 - 1))
def test_local_unitary_invariance(n, d, purity, seed, rng_seed):
    # conjugating every letter by u and measuring the vectors u v_b leaves the induced table unchanged
    ens = random_cq_ensemble(n, d, purity, seed=seed)
    rng = np.random.default_rng(rng_seed)
    povm = random_povm(d, rng)
    u = random_unitary(d, rng)
    rotated = CQEnsemble(ens.labels, ens.probs, u @ ens.states @ u.conj().T)
    assert abs(holevo_chi(rotated) - holevo_chi(ens)) <= 1e-9
    moved = measured_mutual_information(rotated, Povm(povm.vectors @ u.T))
    assert abs(moved - measured_mutual_information(ens, povm)) <= 1e-9


@PROPERTY
@given(**ENSEMBLES)
def test_json_round_trip_is_exact(n, d, purity, seed):
    ens = random_cq_ensemble(n, d, purity, seed=seed)
    back = ensemble_from_json_dict(json.loads(json.dumps(ensemble_to_json_dict(ens))))
    assert back.labels == ens.labels
    assert np.array_equal(back.probs, ens.probs)
    assert np.array_equal(back.states, ens.states)
