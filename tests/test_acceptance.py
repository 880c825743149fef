"""Acceptance suite: one test per headline criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json

import numpy as np
import pytest

from cqlock import (
    CQEnsemble,
    OptimizerConfig,
    accessible_information,
    build_locking_state,
    classical_mutual_information,
    holevo_chi,
    key_then_measure_info,
    locking_delta,
    measured_mutual_information,
    projective_povm,
    quantum_discord_cq,
    random_cq_ensemble,
    simulate_locking_run,
    von_neumann_entropy,
)
from cqlock.cli import main
from cqlock.measurement import measure_b
from cqlock.qmath import partial_trace, quantum_conditional_entropy, quantum_mutual_information
from cqlock.states import cq_to_density

from conftest import (
    assert_matches_bipartite_oracle,
    bell_state,
    conditional_mutual_information,
    key_extended_ensemble,
    key_information,
    one_time_pad_table,
    random_unitary,
)

FULL_CFG = OptimizerConfig(restarts=50, max_iters=200, seed=0)
REDUCED_CFG = OptimizerConfig(restarts=5, max_iters=100, seed=0)
SWEEP_CFG = OptimizerConfig(restarts=2, max_iters=60, seed=0)


def report(n, name):
    print(f"ACCEPTANCE {n:2d} {name}: PASS")


def sweep_ensemble(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    dim_b = int(rng.integers(2, 5))
    purity = "mixed" if seed % 2 else "pure"
    return random_cq_ensemble(n, dim_b, purity, seed=seed)


@pytest.mark.parametrize("family", ["hadamard", "fourier"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion_1_headline_table(m, family):
    inst, ens = build_locking_state(m, family)
    rho = cq_to_density(ens)
    assert abs(quantum_mutual_information(rho, ens.n_letters, ens.dim_b) - m) < 1e-9
    assert abs(key_then_measure_info(inst) - (m + 1)) < 1e-9
    # the named candidate bases must attain the optimum exactly
    comp = measured_mutual_information(ens, projective_povm(np.eye(ens.dim_b, dtype=complex)))
    assert abs(comp - m / 2) < 1e-9
    cfg = FULL_CFG if m <= 2 else REDUCED_CFG
    res = accessible_information(ens, cfg)
    assert abs(res.value - m / 2) < 1e-3
    report(1, f"headline table m={m} {family}")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion_2_delta_equals_discord(m):
    for family in ("hadamard", "fourier"):
        inst, _ = build_locking_state(m, family)
        rep = locking_delta(inst)
        assert abs(rep.delta - rep.discord) <= 1e-12
        assert abs(rep.delta - m / 2) <= 1e-12
        assert abs(rep.discord - m / 2) <= 1e-12
    report(2, f"delta equals discord m={m}")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion_3_single_copy_chain(m):
    # I_acc(with key) = I(A:BK) = I(A:B) + H(K), with I(A:BK) the Holevo quantity of
    # the ensemble that also hands Bob the key; the report's residual is the chain end to end
    for family in ("hadamard", "fourier"):
        inst, ens = build_locking_state(m, family)
        rep = locking_delta(inst)
        i_q_with_key = holevo_chi(key_extended_ensemble(ens, inst.keys, 2))
        assert abs(i_q_with_key - rep.i_acc_with_key) <= 1e-12
        assert abs(rep.i_acc_with_key - (rep.i_q_without_key + rep.key_bits)) <= 1e-12
        assert rep.delta_equals_discord_residual <= 1e-12
    report(3, f"single-copy chain m={m}")


def test_criterion_4_discord_identity():
    for m in (1, 2):
        _, ens = build_locking_state(m)
        assert_matches_bipartite_oracle(ens, quantum_discord_cq(ens, REDUCED_CFG))
    for seed in range(20):
        ens = sweep_ensemble(seed)
        assert_matches_bipartite_oracle(ens, quantum_discord_cq(ens, SWEEP_CFG))
    report(4, "measured-conditional-entropy identity")


def test_criterion_5_property_suite():
    rng = np.random.default_rng(71)
    for seed in range(100):
        ens = sweep_ensemble(seed)
        rep = quantum_discord_cq(ens, SWEEP_CFG)
        assert rep.discord >= -1e-6
        assert rep.discord <= holevo_chi(ens) + 1e-6

        rho = cq_to_density(ens)
        assert quantum_conditional_entropy(rho, ens.n_letters, ens.dim_b) >= -1e-9

        povm = projective_povm(random_unitary(ens.dim_b, rng))
        probs, states = measure_b(rho, ens.n_letters, ens.dim_b, povm)
        avg = sum(p * s for p, s in zip(probs, states))
        rho_a = partial_trace(rho, ens.n_letters, ens.dim_b, "A")
        assert np.max(np.abs(avg - rho_a)) < 1e-9
    report(5, "property suite over 100 random ensembles")


def test_criterion_6_grid_oracle_equivalence():
    from test_accessible import bb84_pair, grid_oracle

    ens = bb84_pair()
    oracle = grid_oracle(ens)
    cfg = OptimizerConfig(restarts=10, max_iters=200, seed=0)
    res = accessible_information(ens, cfg)
    assert abs(res.value - oracle) < 1e-4
    rep = quantum_discord_cq(ens, cfg)
    assert abs(rep.discord - (holevo_chi(ens) - oracle)) < 1e-4
    report(6, "two-state grid-search oracle")


def test_criterion_7_classical_baseline():
    for m in (1, 2, 3):
        t = one_time_pad_table(m)
        assert abs(classical_mutual_information(t.sum(axis=2))) <= 1e-12
        assert abs(classical_mutual_information(t.reshape(2**m, -1)) - m) <= 1e-12
        assert abs(key_information(t) - m) <= 1e-12
        assert abs(conditional_mutual_information(t) - m) <= 1e-12
        # the pad as a CQ state: letter (a, k) leaves Bob |a xor k>, which he reads without loss
        size = 2**m
        a, k = np.divmod(np.arange(size * size), size)
        kets = np.eye(size)[a ^ k]
        states = kets[:, :, None] * kets[:, None, :]
        ens = CQEnsemble(tuple(range(size * size)), np.full(size * size, 1.0 / size**2), states)
        rep = quantum_discord_cq(ens, SWEEP_CFG)
        assert abs(rep.discord) <= 1e-9
        assert abs(rep.i_acc - m) <= 1e-9
        assert abs(rep.mutual_info_q - m) <= 1e-9
    rng = np.random.default_rng(73)
    for _ in range(100):
        t = rng.random((3, 4, 2))
        t /= t.sum()
        assert abs(key_information(t) - conditional_mutual_information(t)) <= 1e-12
        assert key_information(t) <= np.log2(t.shape[2]) + 1e-12
    report(7, "one-time-pad baseline and key bound")


def test_criterion_8_monte_carlo_convergence():
    for m in (1, 2):
        inst, _ = build_locking_state(m)
        after = simulate_locking_run(inst, None, 100000, seed=1)
        assert abs(after.empirical_mi - after.analytic_mi) <= 0.02
        assert after.decoding_errors == 0
        povm = projective_povm(np.eye(inst.dim_b, dtype=complex))
        before = simulate_locking_run(inst, povm, 100000, seed=1)
        assert abs(before.empirical_mi - before.analytic_mi) <= 0.02
    report(8, "Monte Carlo convergence")


def test_criterion_9_determinism(tmp_path):
    cases = [
        ["simulate", "--m", "1", "--strategy", "after-key", "--n", "5000", "--seed", "7"],
        ["lock-analyze", "--m", "1", "--seed", "7"],
        ["discord", "--builtin", "bb84pair", "--restarts", "3", "--iters", "40", "--seed", "7"],
    ]
    for i, argv in enumerate(cases):
        a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    report(9, "byte-identical reports")


def test_criterion_10_entropy_units():
    assert abs(quantum_conditional_entropy(bell_state(), 2, 2) + 1) <= 1e-9
    pure = np.zeros((4, 4), dtype=complex)
    pure[2, 2] = 1.0
    assert von_neumann_entropy(pure) <= 1e-9
    assert abs(von_neumann_entropy(np.eye(8) / 8) - 3) <= 1e-9
    report(10, "entropy unit suite")
