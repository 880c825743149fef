"""POVMs and one-sided measurements on the B part of classical-quantum states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    PROB_TOL,
    DimensionError,
    classical_conditional_entropy,
    classical_mutual_information,
    validate_density,
    validate_isometry,
)
from .states import (
    CQEnsemble,
    LockingInstance,
    _complex_from_json,
    _complex_to_base64,
    _dim_from_json,
    _fields_from_json,
)

__all__ = [
    "Povm",
    "projective_povm",
    "induced_table",
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


def projective_povm(u) -> Povm:
    """Rank-1 projective measurement onto the columns of a unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    return Povm(u.T)


def measure_b(rho_ab, dim_a: int, dim_b: int, povm: Povm):
    """Apply {I_A (x) |v_b><v_b|} to a bipartite state; returns p_b and the (k, dim_a, dim_a) stack of rho_{A|b}.

    Outcomes of probability at or below PROB_TOL are dropped and carry no
    conditional state. Test oracle, outside __all__; the benchmark traces it by name.
    """
    mat = np.asarray(rho_ab, dtype=complex)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    if povm.dim != dim_b:
        raise DimensionError("POVM dimension does not match subsystem B")
    v = povm.vectors
    # Tr_B[(I (x) |v_b><v_b|) rho] = sum_jl v_b[j]^* v_b[l] rho[ij, kl], unnormalized
    blocks = np.einsum("ijkl,bl,bj->bik", mat.reshape(dim_a, dim_b, dim_a, dim_b), v, v.conj())
    p = np.trace(blocks, axis1=1, axis2=2).real
    kept = p > PROB_TOL
    states = blocks[kept] / p[kept, None, None]
    validate_density(states)
    return p[kept] / p[kept].sum(), states


def _row_table(ens: CQEnsemble, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products kv[..., b, a r + j] = K_aj . v_b of the letter rows K_aj (ens.rows, (n_letters, r, d)) with
    measurement vectors v (..., n, d), and the table T[..., b, a] = sum_j |K_aj . v_b|^2 = p_a v_b^dagger sigma_a v_b."""
    n_letters, r, d = ens.rows.shape
    kv = v @ ens.rows.reshape(n_letters * r, d).T
    table = kv.real**2 + kv.imag**2
    return kv, table if r == 1 else table.reshape(*kv.shape[:-1], n_letters, r).sum(axis=-1)


def induced_table(ens: CQEnsemble, povm: Povm) -> np.ndarray:
    """Classical joint table p(a, b) = p_a <v_b| sigma_a |v_b> that the POVM induces on the ensemble, from its letter rows."""
    if povm.dim != ens.dim_b:
        raise DimensionError("POVM dimension does not match ensemble")
    table = _row_table(ens, povm.vectors)[1].T
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
        table[mine, k::2] = induced_table(ens, projective_povm(u))[mine]
    return table


def measured_mutual_information(ens: CQEnsemble, povm: Povm) -> float:
    """Classical mutual information extracted by the given measurement."""
    return classical_mutual_information(induced_table(ens, povm))


def measured_conditional_entropy(ens: CQEnsemble, povm: Povm) -> float:
    """sum_b p_b S(rho_{A|b}) for the given measurement, in bits.

    Every rho_{A|b} of a CQ state is diagonal with entries p(a|b), so the sum
    is H(A|B) of the induced joint table; the measure_b oracle gives the same
    value from the full bipartite state.
    """
    return classical_conditional_entropy(induced_table(ens, povm))


def povm_to_json_dict(povm: Povm) -> dict:
    """{dim, vectors}, vectors being base64 text of the n x dim isometry's little-endian complex128 bytes, C order."""
    return {"dim": povm.dim, "vectors": _complex_to_base64(povm.vectors)}


def povm_from_json_dict(doc: dict) -> Povm:
    """Povm of a JSON object; vectors may be base64 text, as written, or nested [re, im] lists.

    The outcome count of base64 text is its byte count over 16 * dim, which
    must be a positive whole number.
    """
    dim, vectors = _fields_from_json(doc, ("dim", "vectors"), "a POVM")
    dim = _dim_from_json(dim, "POVM dim")
    vectors = _complex_from_json(vectors, "vectors", (-1, dim), f"a positive multiple of 16 * dim = {16 * dim}")
    povm = Povm(vectors)
    if povm.dim != dim:
        raise ValueError("POVM vectors disagree with dim")
    return povm
