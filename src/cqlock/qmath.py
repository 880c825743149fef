"""Complex linear algebra, the entropy / information functionals and the package's one numerical policy.

All information quantities are in bits (log base 2). Density matrices are
plain complex numpy arrays; classical joint distributions are nonnegative
numpy tables summing to one. Every validator of a state, isometry,
probability table or integer argument lives here, and every module reads
its tolerances from MATRIX_TOL and PROB_TOL.
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
    "GuardError",
    "validate_density",
    "validate_probs",
    "validate_isometry",
    "von_neumann_entropy",
    "shannon_entropy",
    "classical_mutual_information",
    "classical_conditional_entropy",
]


class DimensionError(ValueError):
    """Subsystem dimensions do not factorize or match the operator."""


class GuardError(ValueError):
    """Instance exceeds the desk-scale dimension guard."""


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


def _validate_integer(x, name: str) -> None:
    """Raise ValueError unless x is an int or a numpy integer; a bool or a float, a whole one too, is neither."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


def validate_density(mat) -> tuple[np.ndarray, np.ndarray]:
    """Check a state, or each state of a stack; returns its eigenvalues (..., r) and unit eigenvectors (..., d, r).

    A stack within PROB_TOL of rank-1 projectors (_rank_one_vectors) is
    factored from its state vectors with no decomposition, r = 1: its other
    eigenvalues lie within PROB_TOL of 0, at or below every entropy's cutoff,
    and the checks below would pass it. Any other input must be finite,
    Hermitian and of unit trace, in that order, and is decomposed by one
    eigh, r = d, whose eigenvalues make the positivity check.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError("density matrix must be square")
    psi = _rank_one_vectors(mat)
    if psi is not None:
        norm = np.linalg.norm(psi, axis=-1, keepdims=True)
        return norm**2, (psi / norm)[..., None]
    if not np.all(np.isfinite(mat)):
        raise ValueError("density matrix entries are not finite")
    if np.max(np.abs(mat - np.swapaxes(mat.conj(), -2, -1))) > MATRIX_TOL:
        raise ValueError("matrix is not Hermitian")
    if not _unit_trace(mat):
        raise ValueError("trace is not 1")
    spectra, vecs = np.linalg.eigh(mat)
    if np.min(spectra[..., 0]) < -MATRIX_TOL:
        raise ValueError("matrix is not positive semidefinite")
    return spectra, vecs


def _unit_trace(mat: np.ndarray) -> bool:
    trace = np.trace(mat, axis1=-2, axis2=-1)
    return bool(np.max(np.abs(trace.real - 1.0)) <= MATRIX_TOL and np.max(np.abs(trace.imag)) <= MATRIX_TOL)


def _rank_one_vectors(mat: np.ndarray) -> np.ndarray | None:
    """State vectors psi, of shape (..., d), of a complex (..., d, d) matrix or stack of pure states, or None.

    psi_a is column j of matrix a over sqrt(mat[a, j, j]), j being its
    largest diagonal entry. The stack is pure when its entries are finite,
    each trace is 1 as validate_density requires, and each matrix lies within
    PROB_TOL of psi_a psi_a^dagger in Frobenius norm. None means some matrix
    is not such a projector, or not a state.
    """
    stack = mat.reshape(-1, *mat.shape[-2:])
    if not (np.all(np.isfinite(stack)) and _unit_trace(stack)):
        return None
    n = len(stack)
    letters = np.arange(n)
    diag = np.diagonal(stack, axis1=1, axis2=2).real
    # a unit trace leaves each largest diagonal entry positive
    col = np.argmax(diag, axis=1)
    psi = stack[letters, :, col] / np.sqrt(diag[letters, col])[:, None]
    resid = (stack - psi[:, :, None] * psi[:, None, :].conj()).reshape(n, -1).view(np.float64)
    if np.max(np.einsum("ak,ak->a", resid, resid)) > PROB_TOL**2:
        return None
    return psi.reshape(mat.shape[:-1])


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
    validate_density(out)
    return out


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


def _mi_from_table(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I(X;Y) of each joint table T[r, x, y] of a stack, each summing to 1, and L = log2(T / (p q)).

    p and q are the two marginals of each table. Returns values (R,) and L
    (R, X, Y). L is dI/dT up to a constant, which the search ascends, and
    the per-cell information, whose variance gives the plug-in estimate's
    standard error.
    """
    # a cell at or below PROB_TOL adds nothing, as in every entropy: its ratio
    # stays 1 and its log 0; it still counts in the marginals
    ratio = np.divide(
        table,
        np.add.reduce(table, axis=2, keepdims=True) * np.add.reduce(table, axis=1, keepdims=True),
        out=np.ones(table.shape),
        where=table > PROB_TOL,
    )
    # in place here and in the ascent's evaluators: each fresh temporary of the
    # ascent's size can cost page faults, at every one of its hundreds of evaluations
    log_ratio = np.log2(ratio, out=ratio)
    r = len(table)
    return (table.reshape(r, 1, -1) @ log_ratio.reshape(r, -1, 1)).reshape(r), log_ratio


def classical_mutual_information(j) -> float:
    """I(A;B) = sum T log2(T / (p q)) of a two-variable joint table T with marginals p and q, by _mi_from_table."""
    t = np.asarray(j, dtype=float)
    if t.ndim != 2:
        raise ValueError("expected a 2-variable joint")
    return float(_mi_from_table(t[None])[0][0])


def classical_conditional_entropy(j) -> float:
    """H(A|B) = H(A) - I(A;B) of a two-variable joint table, A on its rows, with I from classical_mutual_information."""
    t = np.asarray(j, dtype=float)
    info = classical_mutual_information(t)  # raises unless t is two-variable
    return shannon_entropy(t.sum(axis=1)) - info


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
