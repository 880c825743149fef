"""Complex linear algebra and the entropy / information functionals.

All information quantities are in bits (log base 2). Density matrices are
plain complex numpy arrays wrapped in a validating dataclass; classical
joint distributions are nonnegative numpy tables summing to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "DimensionError",
    "DensityMatrix",
    "JointDistribution",
    "validate_density",
    "validate_probs",
    "tensor",
    "partial_trace",
    "von_neumann_entropy",
    "shannon_entropy",
    "kl_divergence",
    "classical_mutual_information",
    "classical_conditional_entropy",
    "conditional_mutual_information",
    "quantum_mutual_information",
    "quantum_conditional_entropy",
]


class DimensionError(ValueError):
    """Subsystem dimensions do not factorize or match the operator."""


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerance record shared by all validators."""

    hermitian: float = 1e-9
    trace: float = 1e-9
    psd: float = 1e-9
    prob: float = 1e-12
    eig_cutoff: float = 1e-12


DEFAULT_TOL = Tolerances()


def validate_probs(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be a nonempty 1-d array")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities are not finite")
    if np.any(p < -tol.prob):
        raise ValueError("negative probability entry")
    if abs(p.sum() - 1.0) > tol.prob:
        raise ValueError("probabilities do not sum to 1")
    return p


def validate_density(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a matrix, or of each matrix of a stack; returns the array."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError("density matrix must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError("density matrix entries are not finite")
    if np.max(np.abs(mat - np.swapaxes(mat.conj(), -2, -1))) > tol.hermitian:
        raise ValueError("matrix is not Hermitian")
    trace = np.trace(mat, axis1=-2, axis2=-1)
    if np.max(np.abs(trace.real - 1.0)) > tol.trace or np.max(np.abs(trace.imag)) > tol.trace:
        raise ValueError("trace is not 1")
    if np.min(np.linalg.eigvalsh(mat)[..., 0]) < -tol.psd:
        raise ValueError("matrix is not positive semidefinite")
    return mat


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator. Immutable after construction."""

    mat: np.ndarray

    def __post_init__(self):
        if np.ndim(self.mat) != 2:
            raise ValueError("density matrix must be square")
        mat = validate_density(self.mat).copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table over 2 or 3 classical variables."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim not in (2, 3):
            raise ValueError("joint distribution must have 2 or 3 variables")
        if not np.all(np.isfinite(t)):
            raise ValueError("joint distribution entries are not finite")
        if np.any(t < -1e-15):
            raise ValueError("negative probability entry")
        if abs(t.sum() - 1.0) > 1e-12:
            raise ValueError("table does not sum to 1")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def shape(self):
        return self.table.shape

    def marginal(self, axis: int) -> np.ndarray:
        axes = tuple(i for i in range(self.table.ndim) if i != axis)
        return self.table.sum(axis=axes)


def _as_mat(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _as_table(j) -> np.ndarray:
    return j.table if isinstance(j, JointDistribution) else np.asarray(j, dtype=float)


def tensor(a, b) -> DensityMatrix:
    """Kronecker product of two states, a's index major."""
    return DensityMatrix(np.kron(_as_mat(a), _as_mat(b)))


def partial_trace(rho, dim_a: int, dim_b: int, keep: str) -> DensityMatrix:
    """Reduced state of a bipartite operator on the kept subsystem.

    keep is "A" or "B"; rho must live on a dim_a x dim_b tensor product.
    """
    mat = _as_mat(rho)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    r = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        out = np.einsum("ijkj->ik", r)
    elif keep == "B":
        out = np.einsum("ijil->jl", r)
    else:
        raise ValueError("keep must be 'A' or 'B'")
    return DensityMatrix(out)


def _entropy_of_spectrum(vals: np.ndarray, tol: Tolerances) -> float:
    vals = np.where((vals < 0) & (vals >= -tol.psd), 0.0, vals)
    vals = vals[vals > tol.eig_cutoff]
    return float(-(vals * np.log2(vals)).sum())


def von_neumann_entropy(rho, tol: Tolerances = DEFAULT_TOL) -> float:
    """S(rho) = -Tr rho log2 rho, in bits."""
    vals = np.linalg.eigvalsh(_as_mat(rho))
    return _entropy_of_spectrum(vals, tol)


def shannon_entropy(p, tol: Tolerances = DEFAULT_TOL) -> float:
    """H(p) = -sum p log2 p, in bits; zero entries contribute 0."""
    p = np.asarray(p, dtype=float).ravel()
    return _entropy_of_spectrum(p, tol)


def kl_divergence(p, q, tol: Tolerances = DEFAULT_TOL) -> float:
    """Relative entropy D(p || q) in bits.

    Raises if p puts mass where q has none.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise ValueError("distributions must have equal length")
    support = p > tol.eig_cutoff
    if np.any(q[support] <= tol.eig_cutoff):
        raise ValueError("divergence infinite")
    return float((p[support] * np.log2(p[support] / q[support])).sum())


def classical_mutual_information(j) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) of a two-variable joint table."""
    t = _as_table(j)
    if t.ndim != 2:
        raise ValueError("expected a 2-variable joint")
    return (
        shannon_entropy(t.sum(axis=1))
        + shannon_entropy(t.sum(axis=0))
        - shannon_entropy(t)
    )


def classical_conditional_entropy(j) -> float:
    """H(A|B) = H(A,B) - H(B) of a two-variable joint table."""
    t = _as_table(j)
    if t.ndim != 2:
        raise ValueError("expected a 2-variable joint")
    return shannon_entropy(t) - shannon_entropy(t.sum(axis=0))


def conditional_mutual_information(j) -> float:
    """I(A;K|B) of a three-variable joint with axes ordered (A, B, K)."""
    t = _as_table(j)
    if t.ndim != 3:
        raise ValueError("expected a 3-variable joint")
    h_ab = shannon_entropy(t.sum(axis=2))
    h_bk = shannon_entropy(t.sum(axis=0))
    h_b = shannon_entropy(t.sum(axis=(0, 2)))
    h_abk = shannon_entropy(t)
    return h_ab + h_bk - h_b - h_abk


def quantum_mutual_information(rho, dim_a: int, dim_b: int) -> float:
    """I(A;B) = S(A) + S(B) - S(A,B) in bits."""
    mat = _as_mat(rho)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    s_a = von_neumann_entropy(partial_trace(mat, dim_a, dim_b, "A"))
    s_b = von_neumann_entropy(partial_trace(mat, dim_a, dim_b, "B"))
    return s_a + s_b - von_neumann_entropy(mat)


def quantum_conditional_entropy(rho, dim_a: int, dim_b: int) -> float:
    """S(A|B) = S(A,B) - S(B); may be negative for entangled states."""
    mat = _as_mat(rho)
    if mat.shape[0] != dim_a * dim_b:
        raise DimensionError("bad factorization")
    s_b = von_neumann_entropy(partial_trace(mat, dim_a, dim_b, "B"))
    return von_neumann_entropy(mat) - s_b
