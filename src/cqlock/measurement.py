"""POVMs and one-sided measurements on the B part of classical-quantum states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    PROB_TOL,
    DensityMatrix,
    DimensionError,
    JointDistribution,
    classical_conditional_entropy,
    classical_mutual_information,
    validate_isometry,
)
from .states import CQEnsemble, LockingInstance, _complex_from_json, _complex_to_json

__all__ = [
    "Povm",
    "OutcomeAnalysis",
    "projective_povm",
    "measure_b",
    "induced_joint",
    "after_key_table",
    "measured_mutual_information",
    "measured_conditional_entropy",
    "povm_to_json_dict",
    "povm_from_json_dict",
]


@dataclass(frozen=True, eq=False)
class Povm:
    """Rank-1 POVM given by its n x d isometry: outcome b has the element |v_b><v_b| for row v_b.

    The columns of vectors are orthonormal (V^dagger V = I_d), which is the
    statement that the n elements are PSD and sum to the identity. Rank-1
    POVMs with at most d^2 outcomes attain the accessible information
    (Davies, IEEE Trans. Inf. Theory 24, 1978).
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = validate_isometry(self.vectors).copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def __eq__(self, other):
        if not isinstance(other, Povm):
            return NotImplemented
        return np.array_equal(self.vectors, other.vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]

    @property
    def elements(self) -> np.ndarray:
        """The n elements |v_b><v_b|, stacked as an (n, d, d) array."""
        return self.vectors[:, :, None] * self.vectors[:, None, :].conj()


@dataclass(frozen=True)
class OutcomeAnalysis:
    """Outcome probabilities with the conditional states of the unmeasured side.

    Outcomes of probability at or below PROB_TOL are dropped and carry no conditional state.
    """

    outcome_probs: np.ndarray
    conditional_states: tuple


def projective_povm(u) -> Povm:
    """Rank-1 projective measurement onto the columns of a unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    return Povm(u.T)


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
        if p > PROB_TOL:
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
    # p_a^-1 T[a, b] = v_b^dagger sigma_a v_b
    v = povm.vectors
    table = np.einsum("aib,bi->ab", ens.states @ v.T, v.conj()).real
    table = np.clip(table, 0.0, None) * ens.probs[:, None]
    return table / table.sum()


def after_key_table(inst: LockingInstance) -> np.ndarray:
    """Joint table of the letter (a, k) and Bob's record (b, k) when he measures in the key's basis U_k.

    A letter of key k takes its row of the table that measuring U_k induces on
    the instance's ensemble, placed in the outcome columns b * 2 + k; every
    other entry is 0.
    """
    ens = inst.ensemble
    table = np.zeros((ens.n_letters, ens.n_letters))
    for k, u in enumerate(inst.basis_unitaries):
        mine = inst.keys == k
        table[mine, k::2] = _induced_table(ens, projective_povm(u))[mine]
    return table


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
    return {"dim": povm.dim, "vectors": _complex_to_json(povm.vectors)}


def povm_from_json_dict(doc: dict) -> Povm:
    povm = Povm(_complex_from_json(doc["vectors"]))
    if povm.dim != int(doc["dim"]):
        raise ValueError("POVM vectors disagree with dim")
    return povm
