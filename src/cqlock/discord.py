"""Quantum discord of CQ states and the locking advantage."""

from __future__ import annotations

from dataclasses import dataclass

from .qmath import classical_mutual_information, shannon_entropy
from .states import KEY_BITS, CQEnsemble, LockingInstance
from .measurement import after_key_table
from .accessible import AccessibleInfoResult, OptimizerConfig, accessible_information

__all__ = [
    "DiscordReport",
    "LockingReport",
    "quantum_discord_cq",
    "key_then_measure_info",
    "locking_delta",
]


@dataclass(frozen=True)
class DiscordReport:
    mutual_info_q: float
    i_acc: float
    discord: float
    cond_entropy_q: float
    min_measured_cond_entropy: float
    optimizer: AccessibleInfoResult


@dataclass(frozen=True)
class LockingReport:
    """Locking quantities of one instance; i_acc_upper_bound is the bound that certifies i_acc_without_key."""

    m: int
    key_bits: int
    i_acc_with_key: float
    i_acc_without_key: float
    i_acc_upper_bound: float
    i_q_without_key: float
    delta: float
    discord: float
    delta_equals_discord_residual: float


def quantum_discord_cq(ens: CQEnsemble, cfg: OptimizerConfig = OptimizerConfig()) -> DiscordReport:
    """Discord = quantum mutual information minus best-found accessible information.

    A is classical, so I(A:B) is the Holevo quantity chi that the search
    reports and S(A|B) = H(A) - chi. Likewise the measured conditional
    entropy H(A|B) of the table the best POVM induces is H(A) - I_acc.
    """
    acc = accessible_information(ens, cfg)
    h_a = shannon_entropy(ens.probs)
    return DiscordReport(
        mutual_info_q=acc.chi,
        i_acc=acc.value,
        discord=acc.chi - acc.value,
        cond_entropy_q=h_a - acc.chi,
        min_measured_cond_entropy=h_a - acc.value,
        optimizer=acc,
    )


def key_then_measure_info(inst: LockingInstance) -> float:
    """Exact accessible information of the key-conditioned strategy.

    For each key k Bob measures in the basis U_k, which reveals a with
    certainty; the result is the classical mutual information between the
    letter (a, k) and the pair (outcome, k).
    """
    return classical_mutual_information(after_key_table(inst))


def locking_delta(inst: LockingInstance) -> LockingReport:
    """Locking advantage: with-key information minus (without-key information + key bits).

    The with-key term is exact because the key-conditioned measurement is
    optimal. The without-key terms come from quantum_discord_cq on the
    instance's ensemble, whose first stage certifies them with no ascent:
    measuring in U_0, the computational basis, attains the Maassen-Uffink
    bound up to roundoff, and the report gives that bound next to the value.
    The residual |Delta - D| = |I_acc(with key) - (chi + key bits)| isolates
    the identity Delta = D; it is the end-to-end residual of the single-copy
    chain I_acc(with key) = I(A:BK) = I(A:B) + H(K).
    """
    i_with = key_then_measure_info(inst)
    without = quantum_discord_cq(inst.ensemble)
    delta = i_with - (without.i_acc + KEY_BITS)
    return LockingReport(
        m=inst.m,
        key_bits=KEY_BITS,
        i_acc_with_key=float(i_with),
        i_acc_without_key=without.i_acc,
        i_acc_upper_bound=without.optimizer.upper_bound,
        i_q_without_key=without.mutual_info_q,
        delta=float(delta),
        discord=without.discord,
        delta_equals_discord_residual=float(abs(delta - without.discord)),
    )
