"""Maximization of measured mutual information over POVMs.

The optimizer first evaluates a set of candidate projective bases
(computational, MUB partners when supplied, eigenbasis of the B marginal).
It then runs seeded random-restart gradient ascent over rank-1 POVMs with
up to d^2 outcomes. A POVM with n outcomes is a d x n isometry W with
W W^dagger = I_d, whose column b is the measurement vector of outcome b.
The search keeps the n x d transpose of W, whose columns are orthonormal;
it is the `vectors` array of the returned Povm.

All restarts are stacked into one (restarts, n, d) array and advance
together. Each of the max_iters iterations evaluates the measured mutual
information of every restart and its gradient, projects the gradient onto
the tangent space of the isometries, and maps the trial point back onto
them with a thin QR. The products sigma_a w_b come from one matrix product
with the stacked eigen-factors of p_a sigma_a, so a pure letter costs one
row. Each restart keeps a trial point only if it raises its value, growing
its step on success and shrinking it on failure, so the reported value is
a maximum over evaluated POVMs. The returned value is a certified lower
bound on the accessible information, capped above by the Holevo quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import DEFAULT_TOL, von_neumann_entropy
from .states import CQEnsemble
from .measurement import Povm, measured_mutual_information, projective_povm

__all__ = [
    "OptimizerConfig",
    "AccessibleInfoResult",
    "GuardError",
    "holevo_chi",
    "accessible_information",
]

MAX_DIM_B = 16
# every restart starts with this step along its tangent gradient; the step
# grows on each accepted trial point and shrinks on each rejected one
STEP_INIT = 1.0
STEP_GROW = 1.5
STEP_SHRINK = 0.5


class GuardError(ValueError):
    """Instance exceeds the desk-scale dimension guard."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    max_iters: int = 200
    outcome_budget: int | None = None  # defaults to d^2
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")

    def budget_for(self, d: int) -> int:
        b = d * d if self.outcome_budget is None else self.outcome_budget
        if not d <= b <= d * d:
            raise ValueError("outcome budget must lie between d and d^2")
        return b


@dataclass(frozen=True)
class AccessibleInfoResult:
    value: float
    best_povm: Povm
    upper_bound: float
    per_restart_values: tuple


def holevo_chi(ens: CQEnsemble) -> float:
    """S(sum p_a sigma^(a)) - sum p_a S(sigma^(a)), in bits."""
    avg = von_neumann_entropy(ens.average_state())
    return avg - float(sum(p * von_neumann_entropy(s) for p, s in zip(ens.probs, ens.states)))


def _log2(x: np.ndarray) -> np.ndarray:
    return np.log2(np.maximum(x, DEFAULT_TOL.eig_cutoff))


def _letter_factors(ens: CQEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Rows K_k with sum_{k of letter a} K_k^dagger K_k = p_a sigma_a, and the 0/1 letter-by-row map.

    Only eigenvectors of nonzero weight are kept, so a pure letter gives one row.
    """
    rows, owner = [], []
    for a, (p, s) in enumerate(zip(ens.probs, ens.states)):
        vals, vecs = np.linalg.eigh(s)
        # a unit-trace state always keeps its largest eigenvector
        keep = vals > DEFAULT_TOL.eig_cutoff
        rows.append(np.sqrt(p * vals[keep])[:, None] * vecs[:, keep].conj().T)
        owner.extend([a] * int(keep.sum()))
    letter_of_row = (np.arange(ens.n_letters)[:, None] == np.asarray(owner)[None, :]).astype(float)
    return np.concatenate(rows), letter_of_row


def _mi_and_gradient(factors: np.ndarray, letter_of_row: np.ndarray, v: np.ndarray):
    """Measured MI of each stacked POVM and its gradient with respect to conj(v).

    factors and letter_of_row come from _letter_factors; v is (R, n, d) and
    row b of v[r] is the measurement vector w_b. Returns values (R,) and
    gradients (R, n, d).
    """
    kv = v @ factors.T
    # T[r, b, a] = p_a w_b^dagger sigma_a w_b, summed over the rows of letter a
    table = (kv.real**2 + kv.imag**2) @ letter_of_row.T
    table /= table.sum(axis=(1, 2), keepdims=True)
    # entries at or below the entropy cutoff count as 0, as in shannon_entropy;
    # there sigma_a w_b vanishes as well, so they drop out of the gradient
    log_ratio = np.where(
        table > DEFAULT_TOL.eig_cutoff,
        _log2(table) - _log2(table.sum(axis=2))[:, :, None] - _log2(table.sum(axis=1))[:, None, :],
        0.0,
    )
    values = (table * log_ratio).sum(axis=(1, 2))
    # dI/dT_ab = log2(T_ab / (p_a q_b)) up to a constant, and a constant has
    # no component tangent to the isometries; G_b = sum_a p_a dI/dT_ab sigma_a w_b
    grad = ((log_ratio @ letter_of_row) * kv) @ factors.conj()
    return values, grad


def _retract(y: np.ndarray) -> np.ndarray:
    """Map each n x d matrix of the stack to orthonormal columns by a thin QR."""
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=1, axis2=2)
    # fix the phase convention so the map is deterministic
    return q * np.sign(np.where(np.abs(diag) > 0, diag, 1.0))[:, None, :]


def _tangent(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space of the n x d matrices with orthonormal columns at v."""
    vg = np.swapaxes(v.conj(), 1, 2) @ g
    return g - 0.5 * v @ (vg + np.swapaxes(vg.conj(), 1, 2))


def _stiefel_ascent(factors, letter_of_row, cfg: OptimizerConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Final values (R,) and transposed isometries (R, n, d) of all restarts, advanced together."""
    d = factors.shape[1]
    starts = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        starts.append(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    v = _retract(np.stack(starts))
    val, grad = _mi_and_gradient(factors, letter_of_row, v)
    step = np.full(cfg.restarts, STEP_INIT)
    for _ in range(cfg.max_iters):
        trial = _retract(v + step[:, None, None] * _tangent(grad, v))
        trial_val, trial_grad = _mi_and_gradient(factors, letter_of_row, trial)
        up = trial_val > val
        v = np.where(up[:, None, None], trial, v)
        grad = np.where(up[:, None, None], trial_grad, grad)
        val = np.where(up, trial_val, val)
        step = np.where(up, step * STEP_GROW, step * STEP_SHRINK)
    return val, v


def accessible_information(
    ens: CQEnsemble, cfg: OptimizerConfig = OptimizerConfig(), extra_candidates=()
) -> AccessibleInfoResult:
    """Best measured mutual information over candidate bases and random restarts.

    extra_candidates holds unitaries whose column bases are tried before the
    random search (used for the MUB partner of locking instances).
    """
    d = ens.dim_b
    if d > MAX_DIM_B:
        raise GuardError("instance too large")
    n = cfg.budget_for(d)
    chi = holevo_chi(ens)

    best_val = -1.0
    best_povm = None
    _, marginal_eigenbasis = np.linalg.eigh(ens.average_state())
    for u in (np.eye(d, dtype=complex), marginal_eigenbasis, *extra_candidates):
        povm = projective_povm(u)
        val = measured_mutual_information(ens, povm)
        if val > best_val:
            best_val, best_povm = val, povm

    restart_vals, vs = _stiefel_ascent(*_letter_factors(ens), cfg, n)
    best_restart = int(np.argmax(restart_vals))
    if restart_vals[best_restart] > best_val:
        best_val = restart_vals[best_restart]
        best_povm = Povm(vs[best_restart])

    return AccessibleInfoResult(
        value=float(best_val),
        best_povm=best_povm,
        upper_bound=float(chi),
        per_restart_values=tuple(float(v) for v in restart_vals),
    )
