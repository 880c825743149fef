"""Complex linear algebra, the entropy / information functionals and the package's one numerical policy.

All information quantities are in bits (log base 2). Density matrices are
plain complex numpy arrays; classical joint distributions are nonnegative
numpy tables summing to one. Every validator of a state, isometry or
probability table lives here, and every module reads its tolerances from
MATRIX_TOL and PROB_TOL.
"""

from __future__ import annotations

import numpy as np

# slack of every matrix identity (Hermiticity, unit trace, positivity, V^dagger V = I,
# unbiasedness) and of the checks on quantities computed from eigenvalues
MATRIX_TOL = 1e-9
# slack of a probability sum and of a negative probability entry; a probability
# or eigenvalue at or below it counts as 0 in every entropy
PROB_TOL = 1e-12

__all__ = [
    "MATRIX_TOL",
    "PROB_TOL",
    "DimensionError",
    "validate_density",
    "validate_probs",
    "validate_isometry",
    "von_neumann_entropy",
    "shannon_entropy",
    "classical_mutual_information",
    "classical_conditional_entropy",
    "conditional_mutual_information",
]


class DimensionError(ValueError):
    """Subsystem dimensions do not factorize or match the operator."""


def validate_probs(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be a nonempty 1-d array")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities are not finite")
    if np.any(p < -PROB_TOL):
        raise ValueError("negative probability entry")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ValueError("probabilities do not sum to 1")
    return p


def validate_density(mat) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a matrix, or of each matrix of a stack; returns the array."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError("density matrix must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError("density matrix entries are not finite")
    if np.max(np.abs(mat - np.swapaxes(mat.conj(), -2, -1))) > MATRIX_TOL:
        raise ValueError("matrix is not Hermitian")
    trace = np.trace(mat, axis1=-2, axis2=-1)
    if np.max(np.abs(trace.real - 1.0)) > MATRIX_TOL or np.max(np.abs(trace.imag)) > MATRIX_TOL:
        raise ValueError("trace is not 1")
    if np.min(np.linalg.eigvalsh(mat)[..., 0]) < -MATRIX_TOL:
        raise ValueError("matrix is not positive semidefinite")
    return mat


def validate_isometry(v) -> np.ndarray:
    """Check that v is a finite n x d matrix, n >= d >= 1, with orthonormal columns (V^dagger V = I); returns the array."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or not 1 <= v.shape[1] <= v.shape[0]:
        raise ValueError("isometry must be an n x d array with n >= d >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("isometry entries are not finite")
    if np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) > MATRIX_TOL:
        raise ValueError("matrix is not an isometry: V^dagger V != I")
    return v


def partial_trace(rho, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduced state of a bipartite operator on the kept subsystem, validated.

    keep is "A" or "B"; rho must live on a dim_a x dim_b tensor product.
    Test oracle, outside __all__; the benchmark traces it by name.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    r = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        out = np.einsum("ijkj->ik", r)
    elif keep == "B":
        out = np.einsum("ijil->jl", r)
    else:
        raise ValueError("keep must be 'A' or 'B'")
    return validate_density(out)


def _entropy_of_spectrum(vals: np.ndarray):
    """-sum v log2 v over the last axis; entries at or below PROB_TOL contribute 0."""
    kept = vals > PROB_TOL
    logs = np.log2(vals, out=np.zeros_like(vals), where=kept)
    return -(vals * logs).sum(axis=-1)


def von_neumann_entropy(rho):
    """S(rho) = -Tr rho log2 rho, in bits; a stack of matrices gives one entropy per matrix."""
    return _entropy_of_spectrum(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def shannon_entropy(p) -> float:
    """H(p) = -sum p log2 p, in bits; zero entries contribute 0."""
    return float(_entropy_of_spectrum(np.asarray(p, dtype=float).ravel()))


def classical_mutual_information(j) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) of a two-variable joint table."""
    t = np.asarray(j, dtype=float)
    if t.ndim != 2:
        raise ValueError("expected a 2-variable joint")
    return (
        shannon_entropy(t.sum(axis=1))
        + shannon_entropy(t.sum(axis=0))
        - shannon_entropy(t)
    )


def classical_conditional_entropy(j) -> float:
    """H(A|B) = H(A,B) - H(B) of a two-variable joint table."""
    t = np.asarray(j, dtype=float)
    if t.ndim != 2:
        raise ValueError("expected a 2-variable joint")
    return shannon_entropy(t) - shannon_entropy(t.sum(axis=0))


def conditional_mutual_information(j) -> float:
    """I(A;K|B) of a three-variable joint with axes ordered (A, B, K)."""
    t = np.asarray(j, dtype=float)
    if t.ndim != 3:
        raise ValueError("expected a 3-variable joint")
    h_ab = shannon_entropy(t.sum(axis=2))
    h_bk = shannon_entropy(t.sum(axis=0))
    h_b = shannon_entropy(t.sum(axis=(0, 2)))
    h_abk = shannon_entropy(t)
    return h_ab + h_bk - h_b - h_abk


def quantum_mutual_information(rho, dim_a: int, dim_b: int) -> float:
    """I(A;B) = S(A) + S(B) - S(A,B) in bits.

    Test oracle, outside __all__; the benchmark traces it by name.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    s_a = von_neumann_entropy(partial_trace(mat, dim_a, dim_b, "A"))
    s_b = von_neumann_entropy(partial_trace(mat, dim_a, dim_b, "B"))
    return s_a + s_b - von_neumann_entropy(mat)


def quantum_conditional_entropy(rho, dim_a: int, dim_b: int) -> float:
    """S(A|B) = S(A,B) - S(B); may be negative for entangled states.

    Test oracle, outside __all__; the benchmark traces it by name.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    s_b = von_neumann_entropy(partial_trace(mat, dim_a, dim_b, "B"))
    return von_neumann_entropy(mat) - s_b
