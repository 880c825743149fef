"""Maximization of measured mutual information over POVMs.

The optimizer first evaluates two candidate projective bases (computational
and the eigenbasis of the B marginal).
It then runs seeded random-restart gradient ascent over rank-1 POVMs with
up to d^2 outcomes. A POVM with n outcomes is a d x n isometry W with
W W^dagger = I_d, whose column b is the measurement vector of outcome b.
The search keeps the n x d transpose of W, whose columns are orthonormal;
it is the `vectors` array of the returned Povm.

All restarts are stacked into one (restarts, n, d) array and advance
together by Riemannian conjugate gradient (Polak-Ribiere+, Absil, Mahony &
Sepulchre 2008, ch. 8). Each iteration steps every start along its search
direction, maps the trial point back onto the isometries with a thin QR,
and evaluates the measured mutual information there with its gradient. The
gradient is projected onto the tangent space at the trial point, and the
previous direction is carried there by the same projection; a direction
nearly orthogonal to the gradient is replaced by the gradient. The products
sigma_a w_b come from one matrix product with the stacked eigen-factors of
p_a sigma_a, so a pure letter costs one row. Each start keeps a trial point
only if it raises its value, growing its step on success and shrinking it
on failure, so the reported value is a maximum over evaluated POVMs. A
start stops once its tangent-gradient norm falls below GRAD_TOL, once its
step has shrunk below roundoff, or after max_iters iterations. The returned
value is a certified lower bound on the accessible information, capped
above by the Holevo quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import PROB_TOL, von_neumann_entropy
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
# every restart starts with this step along its search direction; the step
# grows on each accepted trial point and shrinks on each rejected one
STEP_INIT = 1.0
STEP_GROW = 1.5
STEP_SHRINK = 0.5
# a start stops once the norm of its tangent gradient falls below this
GRAD_TOL = 1e-6
# or once its step times the norm of its direction falls below this: such a
# trial point differs from the current one only by roundoff
STEP_TOL = np.finfo(float).eps
# a conjugate-gradient direction whose cosine with the gradient is at most
# this is replaced by the gradient; a nearly orthogonal direction gains next
# to nothing, and a start keeps its direction when a step fails, so without
# this it can stall with its step shrinking to 0
ASCENT_COS_MIN = 0.1


class GuardError(ValueError):
    """Instance exceeds the desk-scale dimension guard."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 10
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
    """The search's best value and POVM, and for each restart its final value,
    the iterations it ran and its final tangent-gradient norm (below GRAD_TOL
    where it stopped on the gradient; a start that stopped before max_iters
    with a larger norm stopped on its step)."""

    value: float
    best_povm: Povm
    upper_bound: float
    per_restart_values: tuple
    per_restart_iterations: tuple
    per_restart_grad_norms: tuple


def holevo_chi(ens: CQEnsemble) -> float:
    """S(sum p_a sigma_a) - sum p_a S(sigma_a), in bits, with the letters' entropies from one batched call."""
    return float(von_neumann_entropy(ens.average_state()) - ens.probs @ von_neumann_entropy(ens.states))


def _letter_factors(ens: CQEnsemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows K_k with sum_{k of letter a} K_k^dagger K_k = p_a sigma_a, the letter of each row, and the 0/1 row-by-letter map.

    Only eigenvectors of nonzero weight are kept, so a pure letter gives one row.
    """
    vals, vecs = np.linalg.eigh(ens.states)
    # a unit-trace state always keeps its largest eigenvector
    owner, col = np.nonzero(vals > PROB_TOL)
    rows = np.sqrt(ens.probs[owner] * vals[owner, col])[:, None] * vecs[owner, :, col].conj()
    row_to_letter = (owner[:, None] == np.arange(ens.n_letters)[None, :]).astype(float)
    return rows, owner, row_to_letter


def _mi_and_gradient(factors: np.ndarray, owner: np.ndarray, row_to_letter: np.ndarray, v: np.ndarray):
    """Measured MI of each stacked POVM and its gradient with respect to conj(v).

    factors, owner and row_to_letter come from _letter_factors; v is (R, n, d)
    and row b of v[r] is the measurement vector w_b. Returns values (R,) and
    gradients (R, n, d).
    """
    kv = v @ factors.T
    # T[r, b, a] = p_a w_b^dagger sigma_a w_b, summed over the rows of letter a;
    # the columns of v are orthonormal, so sum_b T[r, b, a] = p_a and T sums to 1
    table = (kv.real**2 + kv.imag**2) @ row_to_letter
    # entries at or below PROB_TOL count as 0, as in every entropy:
    # their ratio stays 1 and their log 0; there sigma_a w_b vanishes as well,
    # so they drop out of the gradient
    ratio = np.divide(
        table,
        table.sum(axis=2, keepdims=True) * table.sum(axis=1, keepdims=True),
        out=np.ones_like(table),
        where=table > PROB_TOL,
    )
    log_ratio = np.log2(ratio)
    values = np.einsum("rba,rba->r", table, log_ratio)
    # dI/dT_ab = log2(T_ab / (p_a q_b)) up to a constant, and a constant has
    # no component tangent to the isometries; G_b = sum_a p_a dI/dT_ab sigma_a w_b
    grad = (log_ratio[:, :, owner] * kv) @ factors.conj()
    return values, grad


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a_r^dagger b_r) of each stacked pair of (R, n, d) arrays, over the float64 views."""
    return np.einsum("rj,rj->r", a.view(np.float64).reshape(len(a), -1), b.view(np.float64).reshape(len(b), -1))


def _retract(y: np.ndarray) -> np.ndarray:
    """Map each n x d matrix of the stack to orthonormal columns by a thin QR."""
    q, r = np.linalg.qr(y)
    diag = np.diagonal(r, axis1=1, axis2=2)
    # fix the phase convention so the map is deterministic; r is invertible, as
    # a Gaussian start has full rank with probability 1 and a step y = v + s * eta
    # with eta tangent at v has y^dagger y = I + s^2 eta^dagger eta
    return q * (diag / np.abs(diag))[:, None, :]


def _tangent(g: np.ndarray, v: np.ndarray, v_h: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space at v of the n x d matrices with orthonormal columns.

    v_h is v^dagger, passed in so that two projections at one point share it.
    """
    vg = v_h @ g
    return g - v @ (0.5 * (vg + np.swapaxes(vg.conj(), 1, 2)))


def _stiefel_ascent(factors, owner, row_to_letter, cfg: OptimizerConfig, n: int):
    """Polak-Ribiere+ conjugate-gradient ascent of all restarts, advanced together.

    Returns the final values (R,), transposed isometries (R, n, d), iteration
    counts (R,) and final tangent-gradient norms (R,). A start stops once its
    tangent-gradient norm falls below GRAD_TOL or its step times the norm of
    its direction falls below STEP_TOL, and the batch then shrinks to the
    starts still running.
    """
    d = factors.shape[1]
    starts = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        starts.append(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    v = _retract(np.stack(starts))
    val, egrad = _mi_and_gradient(factors, owner, row_to_letter, v)
    g = _tangent(egrad, v, np.swapaxes(v.conj(), 1, 2))
    eta, gg = g, _inner(g, g)
    ee = gg
    step = np.full(cfg.restarts, STEP_INIT)
    live = np.arange(cfg.restarts)
    out_val, out_v = np.empty_like(val), np.empty_like(v)
    out_iters, out_gg = np.empty_like(live), np.empty_like(gg)
    for it in range(cfg.max_iters + 1):
        # a start leaves the batch once its gradient or its step vanishes or its iterations run out
        done = (gg < GRAD_TOL**2) | (step**2 * ee < STEP_TOL**2) | (it == cfg.max_iters)
        if done.any():
            idx = live[done]
            out_val[idx], out_v[idx], out_gg[idx], out_iters[idx] = val[done], v[done], gg[done], it
            keep = ~done
            if not keep.any():
                break
            live, v, val, g, eta, gg, ee, step = (x[keep] for x in (live, v, val, g, eta, gg, ee, step))
        trial = _retract(v + step[:, None, None] * eta)
        trial_val, trial_egrad = _mi_and_gradient(factors, owner, row_to_letter, trial)
        trial_h = np.swapaxes(trial.conj(), 1, 2)
        trial_g = _tangent(trial_egrad, trial, trial_h)
        trial_gg = _inner(trial_g, trial_g)
        # trial_g is tangent, so its inner product with P(g) equals that with g
        beta = np.maximum(0.0, (trial_gg - _inner(trial_g, g)) / gg)
        trial_eta = trial_g + beta[:, None, None] * _tangent(eta, trial, trial_h)
        # fall back to the gradient where the direction is too close to orthogonal to it
        trial_ee = _inner(trial_eta, trial_eta)
        steep = _inner(trial_eta, trial_g) <= ASCENT_COS_MIN * np.sqrt(trial_gg * trial_ee)
        trial_eta = np.where(steep[:, None, None], trial_g, trial_eta)
        trial_ee = np.where(steep, trial_gg, trial_ee)
        up = trial_val > val
        up3 = up[:, None, None]
        v, g, eta = np.where(up3, trial, v), np.where(up3, trial_g, g), np.where(up3, trial_eta, eta)
        val, gg, ee = np.where(up, trial_val, val), np.where(up, trial_gg, gg), np.where(up, trial_ee, ee)
        step = step * np.where(up, STEP_GROW, STEP_SHRINK)
    return out_val, out_v, out_iters, np.sqrt(out_gg)


def accessible_information(ens: CQEnsemble, cfg: OptimizerConfig = OptimizerConfig()) -> AccessibleInfoResult:
    """Best measured mutual information over the candidate bases and the random restarts.

    The candidates are the computational basis and the eigenbasis of the B marginal.
    """
    d = ens.dim_b
    if d > MAX_DIM_B:
        raise GuardError("instance too large")
    n = cfg.budget_for(d)
    chi = holevo_chi(ens)

    best_val = -1.0
    best_povm = None
    _, marginal_eigenbasis = np.linalg.eigh(ens.average_state())
    for u in (np.eye(d, dtype=complex), marginal_eigenbasis):
        povm = projective_povm(u)
        val = measured_mutual_information(ens, povm)
        if val > best_val:
            best_val, best_povm = val, povm

    restart_vals, vs, iters, grad_norms = _stiefel_ascent(*_letter_factors(ens), cfg, n)
    best_restart = int(np.argmax(restart_vals))
    if restart_vals[best_restart] > best_val:
        best_val = restart_vals[best_restart]
        best_povm = Povm(vs[best_restart])

    return AccessibleInfoResult(
        value=float(best_val),
        best_povm=best_povm,
        upper_bound=float(chi),
        per_restart_values=tuple(float(v) for v in restart_vals),
        per_restart_iterations=tuple(int(i) for i in iters),
        per_restart_grad_norms=tuple(float(g) for g in grad_norms),
    )
