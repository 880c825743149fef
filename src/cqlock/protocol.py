"""Monte Carlo simulation of the locking protocol and the one-time-pad baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    JointDistribution,
    classical_mutual_information,
    conditional_mutual_information,
)
from .states import LockingInstance
from .measurement import Povm

__all__ = [
    "StrategySpec",
    "EmpiricalReport",
    "KeyBoundReport",
    "simulate_locking_run",
    "one_time_pad_joint",
    "classical_key_bound_check",
]


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


def _sample_outcomes(born: np.ndarray, idx: np.ndarray, rng) -> np.ndarray:
    cum = np.cumsum(born, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(idx.size)
    return np.minimum((u[:, None] > cum[idx]).sum(axis=1), born.shape[1] - 1)


def simulate_locking_run(
    inst: LockingInstance, strategy: StrategySpec, n_samples: int, seed: int
) -> EmpiricalReport:
    """Sample the protocol and compare plug-in and exact mutual information.

    Letters (a, k) are drawn uniformly; Born probabilities are precomputed
    once per letter and sampled by inverse CDF. For the after-key strategy
    Bob's record is the pair (outcome, k) and decoding errors are counted.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    d = inst.dim_b
    n_letters = 2 * d
    psis = np.stack([inst.basis_unitaries[lab % 2][:, lab // 2] for lab in range(n_letters)])

    decoding_errors = None
    if strategy.kind == "before_key":
        if strategy.povm.dim != d:
            raise ValueError("POVM dimension does not match the locking instance")
        mb = np.stack(strategy.povm.elements)
        born = np.einsum("li,bij,lj->lb", psis.conj(), mb, psis).real
    else:
        # outcome in the key basis, recorded together with the key
        born = np.zeros((n_letters, n_letters))
        for lab in range(n_letters):
            k = lab % 2
            amps = inst.basis_unitaries[k].conj().T @ psis[lab]
            born[lab, np.arange(d) * 2 + k] = np.abs(amps) ** 2
    born = np.clip(born, 0.0, None)
    born /= born.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n_letters, size=n_samples)
    outcomes = _sample_outcomes(born, idx, rng)
    if strategy.kind == "after_key":
        decoding_errors = int(((outcomes // 2) != (idx // 2)).sum())

    n_out = born.shape[1]
    counts = np.bincount(idx * n_out + outcomes, minlength=n_letters * n_out).reshape(n_letters, n_out)
    empirical_mi, stderr = _plugin_mi_and_stderr(counts.astype(float), n_samples)
    analytic_mi = classical_mutual_information(born / n_letters)
    return EmpiricalReport(
        n_samples=n_samples,
        empirical_mi=empirical_mi,
        analytic_mi=float(analytic_mi),
        std_error_estimate=stderr,
        seed=seed,
        decoding_errors=decoding_errors,
    )


def one_time_pad_joint(m: int) -> JointDistribution:
    """Exact (A, B, K) table for B = A xor K with uniform message and key."""
    if not 1 <= m <= 3:
        raise ValueError("message size out of range (1..3)")
    size = 2**m
    table = np.zeros((size, size, size))
    for a in range(size):
        for k in range(size):
            table[a, a ^ k, k] = 1.0 / size**2
    return JointDistribution(table)


def classical_key_bound_check(j) -> KeyBoundReport:
    """Key-size bound and chain-rule accounting on an (A, B, K) joint."""
    table = j.table if isinstance(j, JointDistribution) else np.asarray(j, dtype=float)
    if table.ndim != 3:
        raise ValueError("expected a 3-variable joint")
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
        bound_holds=bool(i_ak_b <= key_bits + 1e-12),
    )
