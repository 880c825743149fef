"""POVMs and one-sided measurements on the B part of classical-quantum states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    DEFAULT_TOL,
    DensityMatrix,
    DimensionError,
    JointDistribution,
    classical_conditional_entropy,
    classical_mutual_information,
)
from .states import CQEnsemble, _matrix_from_json, _matrix_to_json

__all__ = [
    "Povm",
    "OutcomeAnalysis",
    "projective_povm",
    "measure_b",
    "induced_joint",
    "measured_mutual_information",
    "measured_conditional_entropy",
    "povm_to_json_dict",
    "povm_from_json_dict",
]

PROB_CUTOFF = 1e-12


@dataclass(frozen=True)
class Povm:
    """Finite set of PSD operators summing to the identity."""

    elements: tuple

    def __post_init__(self):
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not els:
            raise ValueError("POVM needs at least one element")
        d = els[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in els:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one dimension")
            if np.max(np.abs(e - e.conj().T)) > DEFAULT_TOL.hermitian:
                raise ValueError("POVM element is not Hermitian")
            if np.linalg.eigvalsh(e)[0] < -DEFAULT_TOL.psd:
                raise ValueError("POVM element is not PSD")
            total += e
        if np.max(np.abs(total - np.eye(d))) > DEFAULT_TOL.hermitian:
            raise ValueError("POVM elements do not sum to identity")
        object.__setattr__(self, "elements", els)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class OutcomeAnalysis:
    """Outcome probabilities with the conditional states of the unmeasured side.

    Outcomes of probability <= 1e-12 are dropped and carry no conditional state.
    """

    outcome_probs: np.ndarray
    conditional_states: tuple


def projective_povm(u) -> Povm:
    """Rank-1 projective measurement onto the columns of a unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > DEFAULT_TOL.hermitian:
        raise ValueError("matrix is not unitary")
    return Povm(tuple(np.outer(u[:, j], u[:, j].conj()) for j in range(u.shape[0])))


def measure_b(rho_ab, dim_a: int, dim_b: int, povm: Povm) -> OutcomeAnalysis:
    """Apply {I_A (x) M_b} to a bipartite state; returns p_b and rho_{A|b}."""
    mat = rho_ab.mat if isinstance(rho_ab, DensityMatrix) else np.asarray(rho_ab, dtype=complex)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    if povm.dim != dim_b:
        raise DimensionError("POVM dimension does not match subsystem B")
    r = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    probs = []
    states = []
    for m_b in povm.elements:
        # Tr_B[(I (x) M_b) rho], unnormalized
        block = np.einsum("ijkl,lj->ik", r, m_b)
        p = np.trace(block).real
        if p > PROB_CUTOFF:
            probs.append(p)
            states.append(DensityMatrix(block / p))
    probs = np.asarray(probs)
    probs = probs / probs.sum()
    return OutcomeAnalysis(outcome_probs=probs, conditional_states=tuple(states))


def induced_joint(ens: CQEnsemble, povm: Povm) -> JointDistribution:
    """Classical joint p(a, b) = p_a Tr(M_b sigma^(a))."""
    return JointDistribution(_induced_table(ens, povm))


def _induced_table(ens: CQEnsemble, povm: Povm) -> np.ndarray:
    if povm.dim != ens.dim_b:
        raise DimensionError("POVM dimension does not match ensemble")
    sig = np.stack(ens.states)
    mb = np.stack(povm.elements)
    table = np.einsum("aij,bji->ab", sig, mb).real
    table = np.clip(table, 0.0, None) * ens.probs[:, None]
    return table / table.sum()


def measured_mutual_information(ens: CQEnsemble, povm: Povm) -> float:
    """Classical mutual information extracted by the given measurement."""
    return classical_mutual_information(_induced_table(ens, povm))


def measured_conditional_entropy(ens: CQEnsemble, povm: Povm) -> float:
    """sum_b p_b S(rho_{A|b}) for the given measurement, in bits.

    Every rho_{A|b} of a CQ state is diagonal with entries p(a|b), so the sum
    is H(A|B) of the induced joint table; measure_b gives the same value from
    the full bipartite state.
    """
    return classical_conditional_entropy(_induced_table(ens, povm))


def povm_to_json_dict(povm: Povm) -> dict:
    return {"dim": povm.dim, "elements": [_matrix_to_json(e) for e in povm.elements]}


def povm_from_json_dict(doc: dict) -> Povm:
    return Povm(tuple(_matrix_from_json(e) for e in doc["elements"]))
