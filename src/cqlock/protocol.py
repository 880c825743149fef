"""Monte Carlo simulation of the locking protocol and the one-time-pad baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    PROB_TOL,
    classical_mutual_information,
    conditional_mutual_information,
    validate_probs,
)
from .states import LockingInstance
from .measurement import Povm, after_key_table, induced_table

__all__ = [
    "StrategySpec",
    "EmpiricalReport",
    "KeyBoundReport",
    "simulate_locking_run",
    "one_time_pad_joint",
    "classical_key_bound_check",
]

# the largest sample count numpy's multinomial accepts (int64)
MAX_SAMPLES = 2**63 - 1


@dataclass(frozen=True)
class StrategySpec:
    """Measurement timing: a fixed POVM before the key, or the U_k basis after."""

    kind: str  # "before_key" | "after_key"
    povm: Povm | None = None

    def __post_init__(self):
        if self.kind not in ("before_key", "after_key"):
            raise ValueError(f"unknown strategy kind: {self.kind!r}")
        if self.kind == "before_key" and self.povm is None:
            raise ValueError("before_key strategy requires a POVM")


@dataclass(frozen=True)
class EmpiricalReport:
    n_samples: int
    empirical_mi: float
    miller_madow_mi: float
    analytic_mi: float
    std_error_estimate: float
    seed: int
    decoding_errors: int | None = None


@dataclass(frozen=True)
class KeyBoundReport:
    i_ak_given_b: float
    key_bits: float
    slack: float
    i_ab: float
    i_abk: float
    chain_residual: float
    bound_holds: bool


def _plugin_mi_and_stderr(counts: np.ndarray, n: int):
    p = counts / n
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mi = classical_mutual_information(p)
    # normal-approximation standard error of the plug-in estimate
    mask = p > 0
    dens = np.zeros_like(p)
    dens[mask] = np.log2(p[mask] / (pa[:, None] * pb[None, :])[mask])
    var = float((p * (dens - mi) ** 2).sum())
    return float(mi), float(np.sqrt(max(var, 0.0) / n))


def _miller_madow_mi(counts: np.ndarray, n: int, plugin_mi: float) -> float:
    """Plug-in MI plus the Miller-Madow terms (m - 1)/(2n) of H(A), H(B) and H(A, B), in bits.

    m counts the nonzero cells of each marginal and of the joint table.
    """
    m_a = np.count_nonzero(counts.sum(axis=1))
    m_b = np.count_nonzero(counts.sum(axis=0))
    m_ab = np.count_nonzero(counts)
    return float(plugin_mi + ((m_a - 1) + (m_b - 1) - (m_ab - 1)) / (2 * n * np.log(2)))


def simulate_locking_run(
    inst: LockingInstance, strategy: StrategySpec, n_samples: int, seed: int
) -> EmpiricalReport:
    """Sample the protocol and compare plug-in and exact mutual information.

    Each of the n rounds draws a letter (a, k) with its probability in the
    instance's ensemble and an outcome from that letter's Born probabilities:
    the joint table is the one the POVM induces on the ensemble, or for the
    after-key strategy after_key_table, where Bob's record is the pair
    (outcome, k). The reports depend on the rounds only through the
    letter-by-outcome table of counts, so that table is drawn directly as one
    multinomial over its cells; the cost does not grow with n. The report
    gives the plug-in MI of the table, its standard error and its
    Miller-Madow bias-corrected value, and for the after-key strategy the
    number of decoding errors.
    """
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"number of samples must lie in [1, {MAX_SAMPLES}]")
    if strategy.kind == "before_key":
        joint = induced_table(inst.ensemble, strategy.povm)
    else:
        joint = after_key_table(inst)
    counts = np.random.default_rng(seed).multinomial(n_samples, joint.ravel()).reshape(joint.shape)
    decoding_errors = None
    if strategy.kind == "after_key":
        # after-key records share the letters' code, so both decode through messages
        decoding_errors = int(counts[inst.messages[:, None] != inst.messages].sum())

    empirical_mi, stderr = _plugin_mi_and_stderr(counts, n_samples)
    analytic_mi = classical_mutual_information(joint)
    return EmpiricalReport(
        n_samples=n_samples,
        empirical_mi=empirical_mi,
        miller_madow_mi=_miller_madow_mi(counts, n_samples, empirical_mi),
        analytic_mi=float(analytic_mi),
        std_error_estimate=stderr,
        seed=seed,
        decoding_errors=decoding_errors,
    )


def one_time_pad_joint(m: int) -> np.ndarray:
    """Exact (A, B, K) table for B = A xor K with uniform message and key."""
    if not 1 <= m <= 3:
        raise ValueError("message size out of range (1..3)")
    size = 2**m
    a, k = np.arange(size)[:, None], np.arange(size)
    table = np.zeros((size, size, size))
    table[a, a ^ k, k] = 1.0 / size**2
    return table


def classical_key_bound_check(table) -> KeyBoundReport:
    """Key-size bound and chain-rule accounting on an (A, B, K) joint table, validated as a distribution."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 3:
        raise ValueError("expected a 3-variable joint")
    validate_probs(table.ravel())
    key_bits = float(np.log2(table.shape[2]))
    i_ak_b = conditional_mutual_information(table)
    i_ab = classical_mutual_information(table.sum(axis=2))
    # I(A; B, K) with (B, K) flattened into one variable
    i_abk = classical_mutual_information(table.reshape(table.shape[0], -1))
    return KeyBoundReport(
        i_ak_given_b=float(i_ak_b),
        key_bits=key_bits,
        slack=float(key_bits - i_ak_b),
        i_ab=float(i_ab),
        i_abk=float(i_abk),
        chain_residual=float(abs(i_abk - i_ab - i_ak_b)),
        bound_holds=bool(i_ak_b <= key_bits + PROB_TOL),
    )
