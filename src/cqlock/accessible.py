"""Maximization of measured mutual information over POVMs.

The search answers in stages and stops at the first whose best value lies
within MATRIX_TOL of a proven upper bound: the Holevo quantity, or for a
two-basis ensemble the smaller Maassen-Uffink bound (maassen_uffink_bound).
Stage 1 scores candidate projective bases at any dimension, in one pass
(one stacked induced table, one mutual-information call), and keeps the
first of the highest: the computational basis; the eigenbasis of the
generic combination sum_a c_a p_a sigma_a with fixed weights c_a =
cos(a (sqrt 5 - 1) pi), which commuting letters share, so that measuring in
it attains chi (Ollivier & Zurek 2001) even where the B marginal, the c_a = 1
case, is degenerate; and for a two-basis ensemble its own two letter
bases, either of which attains the bound when the two are mutually
unbiased, in any frame. Stage 2 runs only for a two-basis ensemble: seeded
random-restart gradient ascent over rank-1 POVMs with n = d outcomes.
Stage 3 runs the same ascent with n = d^2 outcomes, which suffice for the
optimum (Davies 1978), on every other ensemble and wherever stage 2 ends
short of the bound. The MAX_DIM_B guard applies only to the ascent. The
search reads an ensemble only through the probabilities, spectra and rows
that CQEnsemble computes once, at construction, and decomposes no letter;
the B marginal of the Holevo quantity and the generic combination are each
one product of the rows (_row_sum). A POVM with n outcomes is a d x n
isometry W with W W^dagger = I_d, whose column b is the measurement vector
of outcome b. The search keeps the n x d transpose of W, whose columns are
orthonormal; it is the `vectors` array of the returned Povm.

All restarts are stacked into one (restarts, n, d) array and advance
together by Riemannian conjugate gradient (Polak-Ribiere+, Absil, Mahony &
Sepulchre 2008, ch. 8). One thin QR, computed from a Cholesky factor (ch. 4),
maps every point onto the isometries: twice for the Gaussian starts, once
for each trial point. Each iteration steps every start along its search
direction, retracts the trial point, and evaluates the measured mutual
information there with its gradient. Where no start's value rises,
the iteration only shrinks the steps. Otherwise the gradient is projected
onto the tangent space at the trial point, and the previous direction is
carried there by the same projection, in one call; a direction nearly
orthogonal to the gradient is replaced by the gradient. The objective
reads the letters S_a = p_a sigma_a in one of two forms, chosen by purity
(_evaluator): a stack of pure letters as its one row per letter, any other
stack as the matrices S_a = K_a^dagger K_a formed from its rows, where the
table and the gradient are each one real matrix product with the outer
products w_b w_b^dagger. Each start keeps a trial point only if it
raises its value, growing its step on success and shrinking it on failure,
so the reported value is a maximum over evaluated POVMs. The current and
the trial points, with their gradients, directions, values and squared
norms, live in one workspace allocated once per ascent and written in
place; one masked copy merges the accepted trial points. A start stops once
its tangent-gradient norm falls below GRAD_TOL, once its step has shrunk
below roundoff, or after max_iters iterations; it stays in the batch,
which keeps its size, but accepts no more trial points. The returned value
is a lower bound on the accessible information, and the certified optimum
where it meets the upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    MATRIX_TOL,
    PROB_TOL,
    GuardError,
    _entropy_of_spectrum,
    _mi_from_table,
    _validate_integer,
    von_neumann_entropy,
)
from .states import CQEnsemble
from .measurement import Povm, _row_table

__all__ = [
    "OptimizerConfig",
    "AccessibleInfoResult",
    "holevo_chi",
    "maassen_uffink_bound",
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


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 10
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            _validate_integer(getattr(self, name), name)
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class AccessibleInfoResult:
    """The search's best value and POVM, and for each restart of the ascent stage
    whose best start is highest its final value, the iterations it ran and its
    final tangent-gradient norm (below GRAD_TOL where it stopped on the
    gradient; a start that stopped before max_iters with a larger norm stopped
    on its step). The restart tuples are empty when a candidate basis
    certified the value. chi is the Holevo quantity. upper_bound is the bound
    the search proved: min(chi, maassen_uffink_bound) for a two-basis
    ensemble, chi otherwise; certified is true iff the value lies within
    MATRIX_TOL of it."""

    value: float
    best_povm: Povm
    chi: float
    upper_bound: float
    certified: bool
    per_restart_values: tuple
    per_restart_iterations: tuple
    per_restart_grad_norms: tuple


def holevo_chi(ens: CQEnsemble) -> float:
    """S(sum p_a sigma_a) - sum p_a S(sigma_a), in bits, from the B marginal _row_sum(ens, 1) and ens.spectra."""
    return float(von_neumann_entropy(_row_sum(ens, np.ones(ens.n_letters))) - ens.probs @ _entropy_of_spectrum(ens.spectra))


def _row_sum(ens: CQEnsemble, weights: np.ndarray) -> np.ndarray:
    """sum_a c_a p_a sigma_a = sum_aj c_a K_aj^dagger K_aj for weights c (n_letters,), one product of the letter rows."""
    d = ens.dim_b
    return (ens.rows.conj() * weights[:, None, None]).reshape(-1, d).T @ ens.rows.reshape(-1, d)


def maassen_uffink_bound(ens: CQEnsemble) -> float | None:
    """Upper bound log2 d + log2 c on the accessible information of a two-basis ensemble, None for any other.

    A two-basis ensemble has 2d pure letters of probability 1/(2d) each that
    split into two orthonormal bases U_0 and U_1 of C^d (a locking ensemble
    without its key), and c = max_{a,b} |<u_0a|u_1b>| is the largest overlap
    of the two bases. The letters are uniform and each U_k is a complete
    basis, so rho = I/d. A rank-1 POVM with elements |v_b><v_b| has q_b =
    |v_b|^2 / d, and with phi_b = v_b / |v_b| the posterior of the letter
    (a, k) is |<u_ka|phi_b>|^2 / 2, whose entropy is 1 + (H_0(phi_b) +
    H_1(phi_b)) / 2, H_k(phi) being the entropy of measuring phi in U_k.
    Since H(A) = 1 + log2 d,

        I = log2 d - sum_b q_b (H_0(phi_b) + H_1(phi_b)) / 2,

    and the Maassen-Uffink relation H_0 + H_1 >= -2 log2 c (PRL 60, 1103,
    1988) gives I <= log2 d + log2 c. Every POVM refines to a rank-1 one that
    extracts at least as much, so the bound holds for all of them. For a
    mutually unbiased pair c = d^(-1/2) and the bound is m/2 with d = 2^m,
    which measuring in U_0 attains (DiVincenzo et al., PRL 92, 067902, 2004).
    """
    found = _two_basis_bound(ens)
    return None if found is None else found[0]


def _two_basis_bound(ens: CQEnsemble) -> tuple[float, tuple[np.ndarray, np.ndarray]] | None:
    """maassen_uffink_bound of ens and its two letter bases as d x d unitaries, from its letter rows.

    Each column of a unitary is the state vector of one letter of that basis,
    so projective_povm of it measures in the basis.
    """
    d, rows = ens.dim_b, ens.rows
    # one row per letter means every letter is pure
    if ens.n_letters != 2 * d or rows.shape[1] != 1 or np.any(np.abs(ens.probs - 0.5 / d) > PROB_TOL):
        return None
    unit = rows[:, 0] / np.linalg.norm(rows[:, 0], axis=1, keepdims=True)
    overlap = np.abs(unit @ unit.conj().T)
    np.fill_diagonal(overlap, 0.0)
    # letters of one basis are orthogonal, so the two bases 2-colour the graph of
    # non-orthogonal pairs; conversely each colour holds at most d mutually
    # orthogonal unit vectors in C^d, so any 2-colouring splits 2d letters into
    # two bases, and every nonzero overlap joins the two
    linked = overlap > MATRIX_TOL
    side = np.zeros(2 * d, dtype=int)
    for root in range(2 * d):
        if side[root]:
            continue
        side[root] = 1
        queue = [root]
        for a in queue:
            nbrs = np.flatnonzero(linked[a])
            if np.any(side[nbrs] == side[a]):
                return None
            fresh = nbrs[side[nbrs] == 0]
            side[fresh] = -side[a]
            queue.extend(fresh)
    # row a is the conjugated state vector of letter a, up to its phase
    bases = tuple(unit[side == colour].conj().T for colour in (1, -1))
    return float(np.log2(d) + np.log2(overlap.max())), bases


def _rows_evaluator(ens: CQEnsemble):
    """Measured MI and its gradient G_b = sum_a L_ba p_a sigma_a w_b from the rows K_a of a stack of pure letters.

    Each letter has the one row K_a = ens.rows[a, 0], with K_a^dagger K_a =
    p_a sigma_a. The returned function takes v (R, n, d), whose row b of v[r]
    is the measurement vector w_b, and returns values (R,) and gradients with
    respect to conj(v), (R, n, d).
    """
    rows_conj = ens.rows[:, 0].conj()

    # an entry of the table at or below PROB_TOL has L = 0; there sigma_a w_b
    # vanishes as well, so it drops out of the gradient
    def evaluate(v):
        kv, table = _row_table(ens, v)
        values, log_ratio = _mi_from_table(table)
        kv *= log_ratio
        return values, kv @ rows_conj

    return evaluate


def _matrix_evaluator(letters: np.ndarray):
    """_rows_evaluator's function computed from the letter matrices S_a = p_a sigma_a, an (n_letters, d, d) stack."""
    n_letters, d, _ = letters.shape
    # Re sum_ij x_ij conj(y_ij) of two complex arrays is the dot product of their float views
    flat = np.ascontiguousarray(letters).reshape(n_letters, d * d).view(np.float64)

    def evaluate(v):
        r, n, _ = v.shape
        # T_ab = w_b^dagger S_a w_b = Re sum_ij P_ij conj(S_a,ij) with P = w_b w_b^dagger, as S_a is Hermitian
        outer = (v[..., :, None] * v[..., None, :].conj()).reshape(r * n, d * d).view(np.float64)
        values, log_ratio = _mi_from_table((outer @ flat.T).reshape(r, n, n_letters))
        # sum_a L_ba S_a overwrites the outer products, which are spent
        weighted = np.matmul(log_ratio.reshape(r * n, n_letters), flat, out=outer).view(complex).reshape(r * n, d, d)
        return values, (weighted @ v.reshape(r * n, d, 1)).reshape(r, n, d)

    return evaluate


def _evaluator(ens: CQEnsemble):
    """The ascent's objective for ens: from its one row per letter for a stack of pure letters (r = 1), from its
    letter matrices S_a = K_a^dagger K_a, formed from its (r, d) blocks of rows K_a, for any other stack."""
    if ens.rows.shape[1] == 1:
        return _rows_evaluator(ens)
    return _matrix_evaluator(ens.rows.conj().swapaxes(1, 2) @ ens.rows)


def _cholesky_retract(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map each n x d matrix of the stack to orthonormal columns by Cholesky QR, into out if given.

    out must not overlap y; it holds the conjugate of y until the result
    overwrites it, so a retraction into out allocates no array of y's size.

    y^dagger y = L L^dagger with L lower triangular and a positive real
    diagonal, so Q = y (L^-1)^dagger is the thin QR y = Q R whose R has a
    positive real diagonal (Absil, Mahony & Sepulchre 2008, ch. 4). One pass
    departs from orthonormal columns by about the condition number of
    y^dagger y times roundoff. A trial point y = v + s eta, with eta tangent
    at v, has y^dagger y = I + s^2 eta^dagger eta, whose condition number is
    at most 1 + s^2 |eta|_F^2, which the ascent's steps keep below a few tens.
    A Gaussian start is worse conditioned, a square one most (up to about
    1e7 for its y^dagger y at d = 16), so the starts take two passes
    (CholeskyQR2, Yamamoto et al., ETNA 44, 306, 2015): the second factors
    a nearly orthonormal matrix, restores orthonormality to roundoff and
    keeps the same thin QR, as y = Q1 R1 = Q2 (R2 R1).
    """
    conj = np.conjugate(y, out=out)
    low = np.linalg.cholesky(conj.swapaxes(1, 2) @ y)
    return np.matmul(y, np.linalg.inv(low).conj().swapaxes(1, 2), out=conj)


def _tangent(g: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Projection of g onto the tangent space at v of the n x d matrices with orthonormal columns, into out if given.

    g is one (R, n, d) stack, or several stacked as (k, R, n, d), each
    projected at v; stacked, the result equals k separate calls bitwise. out,
    of g's shape, must not overlap g; its first stack holds the conjugate of v
    until the result overwrites it.
    """
    out = np.empty_like(g) if out is None else out
    vg = np.conjugate(v, out=out.reshape(-1, *v.shape)[0]).swapaxes(1, 2) @ g
    return np.subtract(g, np.matmul(v, 0.5 * (vg + vg.conj().swapaxes(-1, -2)), out=out), out=out)


def _stiefel_ascent(evaluate, cfg: OptimizerConfig, n: int, d: int):
    """Polak-Ribiere+ conjugate-gradient ascent of all restarts, advanced together in one reused workspace.

    evaluate maps a (R, n, d) stack of transposed isometries to their values
    and Euclidean gradients, as the functions of _evaluator do.

    Returns the final values (R,), transposed isometries (R, n, d), iteration
    counts (R,) and final tangent-gradient norms (R,). A start stops once its
    tangent-gradient norm falls below GRAD_TOL or its step times the norm of
    its direction falls below STEP_TOL; it stays in the batch, masked out of
    acceptance, so it keeps its point, value and gradient norm until the last
    start stops or max_iters is reached. The current and the trial point, each
    with its tangent gradient and search direction, and their values and
    squared norms are preallocated and written in place; one np.copyto of each
    merges the accepted trial points.
    """
    r = cfg.restarts
    rngs = [np.random.default_rng(cfg.seed + k) for k in range(r)]
    starts = np.stack([rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)) for rng in rngs])
    cur, trial = points = np.empty((2, 3, r, n, d), dtype=complex)
    (val, gg, ee), (trial_val, trial_gg, trial_ee) = scalars = np.empty((2, 3, r))
    v, g, eta = cur
    trial_v, trial_g, trial_eta = trial
    # first the step v + s eta, then the trial point's Euclidean gradient beside the carried direction
    pair = np.empty((2, r, n, d), dtype=complex)
    # Re tr(a^dagger b) of two (n, d) arrays is the dot product of their float64 views: each array of the
    # workspace as one (1, 2nd) row per start, and as columns the gradients g, g' and the trial pair g', eta'
    rows = points.view(np.float64).reshape(2, 3, r, 1, -1)
    grad_cols, trial_cols = rows[:, 1].swapaxes(-1, -2), rows[1, 1:].swapaxes(-1, -2)
    _cholesky_retract(_cholesky_retract(starts), out=v)
    val[:], egrad = evaluate(v)
    _tangent(egrad, v, out=g)
    eta[:] = g
    gg[:] = ee[:] = (rows[0, 1] @ grad_cols[0])[:, 0, 0]
    step = np.full(r, STEP_INIT)
    iters = np.zeros(r, dtype=int)
    for _ in range(cfg.max_iters):
        # a stopped start keeps its value, gradient and direction while its step only shrinks, so it stays stopped
        running = (gg >= GRAD_TOL**2) & (step**2 * ee >= STEP_TOL**2)
        if not running.any():
            break
        iters += running
        np.add(v, np.multiply(step[:, None, None], eta, out=pair[0]), out=pair[0])
        trial_val[:], trial_egrad = evaluate(_cholesky_retract(pair[0], out=trial_v))
        up = (trial_val > val) & running
        # where every start rejects its trial point, only the steps change
        if not up.any():
            step *= STEP_SHRINK
            continue
        # the gradient and the carried direction, projected at the trial point in one call
        pair[0], pair[1] = trial_egrad, eta
        _tangent(pair, trial_v, out=trial[1:])
        # <g', g> and <g', g'> in one product; g' is tangent, so its inner product with P(g) equals that with g.
        # The floor on gg moves only stopped starts, whose gradient may be exactly 0 and whose trial points are discarded
        trial_g_g, trial_gg[:] = (rows[1, 1] @ grad_cols)[..., 0, 0]
        beta = np.maximum(0.0, (trial_gg - trial_g_g) / np.maximum(gg, GRAD_TOL**2))
        np.add(trial_g, np.multiply(beta[:, None, None], trial_eta, out=trial_eta), out=trial_eta)
        # fall back to the gradient where the direction is too close to orthogonal to it
        trial_eta_g, trial_ee[:] = (rows[1, 2] @ trial_cols)[..., 0, 0]
        steep = trial_eta_g <= ASCENT_COS_MIN * np.sqrt(trial_gg * trial_ee)
        np.copyto(trial_eta, trial_g, where=steep[:, None, None])
        np.copyto(trial_ee, trial_gg, where=steep)
        np.copyto(cur, trial, where=up[:, None, None])
        np.copyto(scalars[0], scalars[1], where=up)
        step *= np.where(up, STEP_GROW, STEP_SHRINK)
    return val.copy(), v.copy(), iters, np.sqrt(gg)


def accessible_information(ens: CQEnsemble, cfg: OptimizerConfig = OptimizerConfig()) -> AccessibleInfoResult:
    """Best measured mutual information over the stages, stopping at the first that meets the proven bound.

    The bound is chi, or for a two-basis ensemble the smaller of chi and
    maassen_uffink_bound. Stage 1 scores, in one pass, the computational
    basis, the eigenbasis of the generic combination sum_a c_a p_a sigma_a
    and the two letter bases of a two-basis ensemble, and keeps the first of
    the highest. Stage 2, for a two-basis ensemble only, runs the ascent with
    d outcomes; stage 3 runs it with d^2 outcomes. Raises GuardError where an
    ascent would run at d > MAX_DIM_B.
    """
    d = ens.dim_b
    chi = holevo_chi(ens)
    two_basis = _two_basis_bound(ens)
    bound, letter_bases = (chi, ()) if two_basis is None else (min(chi, two_basis[0]), two_basis[1])

    weights = np.cos(np.arange(1, ens.n_letters + 1) * (np.sqrt(5) - 1) * np.pi)
    _, generic_basis = np.linalg.eigh(_row_sum(ens, weights))
    # each basis as its transposed unitary, whose row b is the measurement vector of outcome b
    candidates = np.stack((np.eye(d, dtype=complex), generic_basis, *letter_bases)).swapaxes(1, 2)
    values = _mi_from_table(_row_table(ens, candidates)[1])[0]
    top = int(np.argmax(values))
    best_val, best_povm = values[top], Povm(candidates[top])

    # the restart tuples are those of the ascent stage whose best start is highest
    restart_vals = iters = grad_norms = ()
    evaluate = None
    for n in (d * d,) if two_basis is None else (d, d * d):
        if best_val >= bound - MATRIX_TOL:
            break
        if d > MAX_DIM_B:
            raise GuardError("instance too large")
        evaluate = evaluate or _evaluator(ens)
        stage_vals, vs, stage_iters, stage_norms = _stiefel_ascent(evaluate, cfg, n, d)
        top = int(np.argmax(stage_vals))
        if stage_vals[top] >= max(restart_vals, default=-np.inf):
            restart_vals, iters, grad_norms = stage_vals, stage_iters, stage_norms
        if stage_vals[top] > best_val:
            best_val, best_povm = stage_vals[top], Povm(vs[top])

    return AccessibleInfoResult(
        value=float(best_val),
        best_povm=best_povm,
        chi=float(chi),
        upper_bound=float(bound),
        certified=bool(best_val >= bound - MATRIX_TOL),
        per_restart_values=tuple(float(v) for v in restart_vals),
        per_restart_iterations=tuple(int(i) for i in iters),
        per_restart_grad_norms=tuple(float(g) for g in grad_norms),
    )
