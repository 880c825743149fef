"""Quantum discord of CQ states, the locking advantage and its identity checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import classical_mutual_information, shannon_entropy
from .states import KEY_BITS, CQEnsemble, LockingInstance
from .measurement import after_key_table, measured_conditional_entropy
from .accessible import AccessibleInfoResult, OptimizerConfig, accessible_information, holevo_chi

__all__ = [
    "DiscordReport",
    "LockingReport",
    "ChainReport",
    "quantum_discord_cq",
    "key_then_measure_info",
    "locking_delta",
    "single_copy_identity_chain",
    "extend_with_key",
]


@dataclass(frozen=True)
class DiscordReport:
    mutual_info_q: float
    i_acc: float
    discord: float
    cond_entropy_q: float
    min_measured_cond_entropy: float
    optimizer: AccessibleInfoResult | None = None


@dataclass(frozen=True)
class LockingReport:
    m: int
    key_bits: int
    i_acc_with_key: float
    i_acc_without_key: float
    i_q_without_key: float
    delta: float
    discord: float
    delta_equals_discord_residual: float
    optimizer: AccessibleInfoResult | None = None


@dataclass(frozen=True)
class ChainReport:
    """The three quantities of the single-copy chain and their spread."""

    i_acc_with_key: float
    i_q_with_key: float
    i_q_plus_key: float
    max_residual: float
    inequalities_hold: bool


def quantum_discord_cq(
    ens: CQEnsemble, cfg: OptimizerConfig = OptimizerConfig(), extra_candidates=()
) -> DiscordReport:
    """Discord = quantum mutual information minus best-found accessible information.

    A is classical, so I(A:B) is the Holevo quantity chi that the search
    reports as its upper bound and S(A|B) = H(A) - chi; the measured
    conditional entropy is H(A|B) of the table the best POVM induces.
    """
    acc = accessible_information(ens, cfg, extra_candidates)
    chi = acc.upper_bound
    return DiscordReport(
        mutual_info_q=chi,
        i_acc=acc.value,
        discord=chi - acc.value,
        cond_entropy_q=shannon_entropy(ens.probs) - chi,
        min_measured_cond_entropy=measured_conditional_entropy(ens, acc.best_povm),
        optimizer=acc,
    )


def key_then_measure_info(inst: LockingInstance) -> float:
    """Exact accessible information of the key-conditioned strategy.

    For each key k Bob measures in the basis U_k, which reveals a with
    certainty; the result is the classical mutual information between the
    letter (a, k) and the pair (outcome, k).
    """
    return classical_mutual_information(after_key_table(inst))


def locking_delta(inst: LockingInstance, cfg: OptimizerConfig = OptimizerConfig()) -> LockingReport:
    """Locking advantage: with-key information minus (without-key + key bits).

    The with-key term is exact (the key-conditioned measurement is optimal);
    only the without-key term is numerical. The discord of the shared state
    is chi minus the same search's value, so the residual isolates the identity.
    """
    i_with = key_then_measure_info(inst)
    mub_partners = inst.basis_unitaries[1:]
    acc = accessible_information(inst.ensemble, cfg, extra_candidates=mub_partners)
    delta = i_with - (acc.value + KEY_BITS)
    discord = acc.upper_bound - acc.value
    return LockingReport(
        m=inst.m,
        key_bits=KEY_BITS,
        i_acc_with_key=float(i_with),
        i_acc_without_key=float(acc.value),
        i_q_without_key=acc.upper_bound,
        delta=float(delta),
        discord=float(discord),
        delta_equals_discord_residual=float(abs(delta - discord)),
        optimizer=acc,
    )


def extend_with_key(probs, states, keys, n_keys: int):
    """Append a classical copy of the key to Bob: sigma_(a,k) -> sigma_(a,k) (x) |k><k|."""
    states = np.asarray(states, dtype=complex)
    n, d = states.shape[:2]
    projs = np.zeros((n, n_keys, n_keys))
    projs[np.arange(n), keys, keys] = 1.0
    # ext[a, i, k, j, l] = sigma_a[i, j] * |k_a><k_a|[k, l], the Kronecker product of each pair
    ext = (states[:, :, None, :, None] * projs[:, None, :, None, :]).reshape(n, d * n_keys, d * n_keys)
    return CQEnsemble(labels=tuple(range(n)), probs=np.asarray(probs, dtype=float), states=ext)


def single_copy_identity_chain(inst: LockingInstance) -> ChainReport:
    """Check I_acc(key strategy) = I_q(with key on Bob) = I_q(without key) + |K|.

    A stays classical on both sides, so each I_q is a Holevo quantity.
    """
    ens = inst.ensemble
    v1 = key_then_measure_info(inst)

    ext = extend_with_key(ens.probs, ens.states, inst.keys, 2)
    v2 = holevo_chi(ext)
    v3 = holevo_chi(ens) + KEY_BITS

    vals = (v1, v2, v3)
    resid = max(vals) - min(vals)
    cap = inst.m + KEY_BITS
    ineq = v2 <= v3 + 1e-9 and v3 <= cap + 1e-9
    return ChainReport(
        i_acc_with_key=float(v1),
        i_q_with_key=float(v2),
        i_q_plus_key=float(v3),
        max_residual=float(resid),
        inequalities_hold=bool(ineq),
    )
