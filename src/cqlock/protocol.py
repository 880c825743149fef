"""Monte Carlo simulation of the locking protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import _mi_from_table, _validate_integer, classical_mutual_information
from .states import LockingInstance
from .measurement import Povm, after_key_table, induced_table

__all__ = [
    "EmpiricalReport",
    "simulate_locking_run",
]

# the largest sample count numpy's multinomial accepts (int64)
MAX_SAMPLES = 2**63 - 1


@dataclass(frozen=True)
class EmpiricalReport:
    n_samples: int
    empirical_mi: float
    miller_madow_mi: float
    analytic_mi: float
    std_error_estimate: float
    seed: int
    decoding_errors: int | None = None


def _plugin_mi_and_stderr(counts: np.ndarray, n: int):
    """Plug-in MI of the table of counts and its normal-approximation standard error, from one _mi_from_table call."""
    p = counts / n
    mi, log_ratio = _mi_from_table(p[None])
    var = float((p * (log_ratio[0] - mi[0]) ** 2).sum())
    return float(mi[0]), float(np.sqrt(max(var, 0.0) / n))


def _miller_madow_mi(counts: np.ndarray, n: int, plugin_mi: float) -> float:
    """Plug-in MI plus the Miller-Madow terms (m - 1)/(2n) of H(A), H(B) and H(A, B), in bits.

    m counts the nonzero cells of each marginal and of the joint table.
    """
    m_a = np.count_nonzero(counts.sum(axis=1))
    m_b = np.count_nonzero(counts.sum(axis=0))
    m_ab = np.count_nonzero(counts)
    return float(plugin_mi + ((m_a - 1) + (m_b - 1) - (m_ab - 1)) / (2 * n * np.log(2)))


def simulate_locking_run(inst: LockingInstance, povm: Povm | None, n_samples: int, seed: int) -> EmpiricalReport:
    """Sample the protocol and compare plug-in and exact mutual information.

    povm is the measurement Bob makes before the key is announced, or None
    to wait for the key and measure in its basis U_k. Each of the n
    rounds draws a letter (a, k) with its probability in the instance's
    ensemble and an outcome from that letter's Born probabilities: the joint
    table is the one the POVM induces on the ensemble, or without a POVM
    after_key_table, where Bob's record is the pair (outcome, k). The reports
    depend on the rounds only through the letter-by-outcome table of counts,
    so that table is drawn directly as one multinomial over its cells; the
    cost does not grow with n. The report gives the plug-in MI of the table,
    its standard error and its Miller-Madow bias-corrected value, and after
    the key the number of decoding errors.
    """
    _validate_integer(n_samples, "number of samples")
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"number of samples must lie in [1, {MAX_SAMPLES}]")
    _validate_integer(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    joint = after_key_table(inst) if povm is None else induced_table(inst.ensemble, povm)
    counts = np.random.default_rng(seed).multinomial(n_samples, joint.ravel()).reshape(joint.shape)
    decoding_errors = None
    if povm is None:
        # after-key records share the letters' code, so both decode through messages
        decoding_errors = int(counts[inst.messages[:, None] != inst.messages].sum())

    empirical_mi, stderr = _plugin_mi_and_stderr(counts, n_samples)
    analytic_mi = classical_mutual_information(joint)
    return EmpiricalReport(
        n_samples=int(n_samples),  # a numpy integer, accepted above, would not serialize
        empirical_mi=empirical_mi,
        miller_madow_mi=_miller_madow_mi(counts, n_samples, empirical_mi),
        analytic_mi=float(analytic_mi),
        std_error_estimate=stderr,
        seed=int(seed),
        decoding_errors=decoding_errors,
    )

