"""Classical-quantum ensembles, locking states and mutually unbiased bases."""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .qmath import (
    MATRIX_TOL,
    PROB_TOL,
    DimensionError,
    GuardError,
    _validate_integer,
    _factor_states,
    _vector_factors,
    validate_density,
    validate_isometry,
    validate_probs,
)

__all__ = [
    "CQEnsemble",
    "LockingInstance",
    "build_locking_state",
    "mub_check",
    "fourier_matrix",
    "hadamard_tensor",
    "random_cq_ensemble",
    "ensemble_to_json_dict",
    "ensemble_from_json_dict",
]

# key length of the locking protocol: one bit selects the basis U_k
KEY_BITS = 1
# the largest message size m of a built locking state, of dimension 2^m
MAX_MESSAGE_BITS = 10

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True, eq=False, init=False)
class CQEnsemble:
    """Labeled distribution {p_a} with one Bob-side state sigma_a per letter, given as states or as vectors.

    states is an (n, d, d) stack with states[a] = sigma_a, vectors an (n, d) stack of finite state vectors psi_a
    of unit norm within MATRIX_TOL, sigma_a = psi_a psi_a^dagger. A pure ensemble is held as its read-only
    vectors, also when given as states within PROB_TOL of rank-1 projectors, whose vectors validation recovers
    (qmath._rank_one_vectors); states is then formed from the vectors on each read. Any other stack is held as
    given, with vectors None. Construction factors the letters once, into read-only arrays: spectra[a] holds the
    eigenvalues of sigma_a, and rows the (n, r, d) stack of rows K_aj, r being the largest letter rank, with
    sum_j K_aj^dagger K_aj = p_a sigma_a. Pure letters give one eigenvalue |psi_a|^2 and eigenvector each with
    no decomposition, by validate_density's rank-one code; any other stack is checked and decomposed there by
    one eigh. Each eigenvector u of eigenvalue w gives the row sqrt(p_a w) u^*, or a zero row where w is at or
    below PROB_TOL. probs are stored clipped at 0, as validation lets an entry lie up to PROB_TOL below it.
    Every quantity reads probs, spectra and rows; states is read only by the cq_to_density oracle and, for a
    stack that is not pure, by ensemble_to_json_dict. Ensembles compare by identity.
    """

    labels: tuple
    probs: np.ndarray
    vectors: np.ndarray | None = field(repr=False)
    spectra: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    def __init__(self, labels, probs, states=None, *, vectors=None):
        probs = np.clip(validate_probs(probs), 0.0, None)
        if (states is None) == (vectors is None):
            raise ValueError("give the letters as one of states and vectors")
        name, letters = ("states", states) if vectors is None else ("vectors", vectors)
        if not (len(labels) == len(probs) == len(letters)):
            raise ValueError(f"labels, probs and {name} must have equal length")
        try:
            letters = np.array(letters, dtype=complex)
        except ValueError:  # letters of unequal shape do not stack
            letters = None
        if vectors is None:
            if letters is None or letters.ndim != 3 or letters.shape[1] != letters.shape[2]:
                raise ValueError("all states must share one dimension")
            vectors, spectra, vecs = _factor_states(letters)
        elif letters is None or letters.ndim != 2:
            raise ValueError("vectors must be an (n_letters, d) array")
        elif not np.all(np.isfinite(letters)):
            raise ValueError("vectors are not finite")
        else:
            vectors, (spectra, vecs) = letters, _vector_factors(letters)
            if np.max(np.abs(spectra - 1.0)) > MATRIX_TOL:
                raise ValueError("vectors must have unit norm")
        kept = spectra > PROB_TOL
        # eigh sorts each spectrum ascending, so every kept eigenvalue lies in the last r columns
        r = kept.sum(axis=1).max()
        weights = np.sqrt(probs[:, None] * np.where(kept, spectra, 0.0)[:, -r:])
        rows = np.ascontiguousarray(weights[:, :, None] * vecs[:, :, -r:].conj().swapaxes(1, 2))
        object.__setattr__(self, "labels", tuple(labels))
        held = {"vectors": vectors, "_states": letters if vectors is None else None}
        for name, arr in {"probs": probs, "spectra": spectra, "rows": rows, **held}.items():
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def states(self) -> np.ndarray:
        """The read-only (n, d, d) stack with states[a] = sigma_a, for pure letters formed from vectors on each read."""
        if self.vectors is None:
            return self._states
        states = self.vectors[:, :, None] * self.vectors[:, None, :].conj()
        states.setflags(write=False)
        return states

    @property
    def n_letters(self) -> int:
        return len(self.labels)

    @property
    def dim_b(self) -> int:
        return self.rows.shape[2]


@dataclass(frozen=True, eq=False)
class LockingInstance:
    """Message size, basis unitaries and ensemble of a locking state; the key has KEY_BITS bits.

    The ensemble is built here: letter (a, k) is encoded as the integer
    a * 2 + k, has probability 1 / (2 d) and the state U_k|a><a|U_k^dagger.
    keys and messages give k and a of each letter. Instances compare by identity.
    """

    m: int
    basis_unitaries: tuple
    ensemble: CQEnsemble = field(init=False, repr=False)

    def __post_init__(self):
        _validate_integer(self.m, "m")
        us = tuple(np.asarray(u, dtype=complex) for u in self.basis_unitaries)
        if len(us) != 2**KEY_BITS:
            raise ValueError(f"a locking instance has one basis per key value, {2**KEY_BITS} in all")
        d = 2**self.m
        for u in us:
            if u.shape != (d, d):
                raise ValueError("basis unitary has wrong dimension")
            validate_isometry(u)
        if np.max(np.abs(us[0] - np.eye(d))) > MATRIX_TOL:
            raise ValueError("first basis unitary must be the identity")
        if not mub_check(us[0], us[1]):
            raise ValueError("basis pair is not mutually unbiased")
        object.__setattr__(self, "basis_unitaries", us)
        # row l is column a of U_k for letter l = a * 2 + k
        cols = np.stack(us)[self.keys, :, self.messages]
        object.__setattr__(self, "ensemble", CQEnsemble(tuple(range(2 * d)), np.full(2 * d, 1.0 / (2 * d)), vectors=cols))

    @property
    def dim_b(self) -> int:
        return 2**self.m

    @property
    def keys(self) -> np.ndarray:
        """Key k of each letter a * 2 + k."""
        return np.arange(2 * self.dim_b) % 2

    @property
    def messages(self) -> np.ndarray:
        """Message a of each letter a * 2 + k."""
        return np.arange(2 * self.dim_b) // 2


def cq_to_density(ens: CQEnsemble) -> np.ndarray:
    """Block-diagonal embedding sum_a p_a |a><a| (x) sigma^(a), an (n d, n d) array, validated.

    Test oracle, outside __all__; the benchmark traces it by name.
    """
    n, d = ens.n_letters, ens.dim_b
    out = np.zeros((n * d, n * d), dtype=complex)
    out.reshape(n, d, n, d)[np.arange(n), :, np.arange(n), :] = ens.probs[:, None, None] * ens.states
    validate_density(out)
    return out


def hadamard_tensor(m: int) -> np.ndarray:
    """m-fold tensor power of the 2x2 Hadamard."""
    u = np.array([[1.0]], dtype=complex)
    for _ in range(m):
        u = np.kron(u, HADAMARD)
    return u


def fourier_matrix(d: int) -> np.ndarray:
    """Discrete Fourier unitary with entries w^{jk}/sqrt(d)."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def mub_check(u, v) -> bool:
    """True iff the bases given by the columns of u and v are mutually unbiased."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.shape[0] != u.shape[1]:
        raise DimensionError("unitaries must be square and of equal dimension")
    d = u.shape[0]
    overlaps = np.abs(u.conj().T @ v) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / d)) <= MATRIX_TOL)


def build_locking_state(m: int, family: str = "hadamard"):
    """Locking instance and its ensemble: uniform letters (a, k), states U_k|a><a|U_k+.

    family selects the second basis: "hadamard" for H^(x)m, "fourier" for the
    d-dimensional Fourier matrix. The ensemble returned is inst.ensemble.
    """
    _validate_integer(m, "m")
    if not 1 <= m <= MAX_MESSAGE_BITS:
        raise GuardError(f"locking states support m=1..{MAX_MESSAGE_BITS}")
    d = 2**m
    if family == "hadamard":
        u1 = hadamard_tensor(m)
    elif family == "fourier":
        u1 = fourier_matrix(d)
    else:
        raise ValueError(f"unknown basis family: {family!r}")
    inst = LockingInstance(m=m, basis_unitaries=(np.eye(d, dtype=complex), u1))
    return inst, inst.ensemble


def random_cq_ensemble(n_letters: int, dim_b: int, purity: str = "pure", seed: int = 0) -> CQEnsemble:
    """Seeded random ensemble for property sweeps.

    Probabilities come from a flat Dirichlet; pure letters are normalized
    complex Gaussian vectors, mixed letters normalized Wishart products. Each
    letter's real parts are drawn before its imaginary parts, letter by letter.
    """
    for x, name in ((n_letters, "n_letters"), (dim_b, "dim_b"), (seed, "seed")):
        _validate_integer(x, name)
    if n_letters < 1 or dim_b < 2:
        raise ValueError("need at least one letter and dimension 2")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if purity not in ("pure", "mixed"):
        raise ValueError(f"unknown purity: {purity!r}")
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_letters))
    if purity == "pure":
        draws = rng.standard_normal((n_letters, 2, dim_b))
        v = draws[:, 0] + 1j * draws[:, 1]
        # |v|^2 summed as np.linalg.norm sums it, re.re + im.im, so each letter keeps the bits of a per-letter norm
        re, im = v.real[:, None, :], v.imag[:, None, :]
        v /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
        return CQEnsemble(tuple(range(n_letters)), probs, vectors=v)
    draws = rng.standard_normal((n_letters, 2, dim_b, dim_b))
    g = draws[:, 0] + 1j * draws[:, 1]
    w = g @ g.conj().swapaxes(1, 2)
    return CQEnsemble(tuple(range(n_letters)), probs, w / np.trace(w, axis1=1, axis2=2).real[:, None, None])


def _numbers_from_json(x, message: str) -> np.ndarray:
    """Float array of a JSON number or of nested lists of numbers in one shape; anything else raises ValueError(message).

    Strings, bools, null and ragged nesting are rejected, not converted.
    """
    try:
        arr = np.array(x, dtype=object)
        if all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, arr.flat))):
            return arr.astype(float)
    except (ValueError, OverflowError):  # nesting numpy cannot place; an integer beyond float range
        pass
    raise ValueError(message)


def _fields_from_json(doc, names: tuple, what: str) -> list:
    """The values of the named fields of doc, which must be a JSON object holding each of them."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for name in names:
        if name not in doc:
            raise ValueError(f"missing field {name!r}")
    return [doc[name] for name in names]


def _dim_from_json(x, name: str) -> int:
    _validate_integer(x, name)
    if x < 1:
        raise ValueError(f"{name} must be a positive integer")
    return x


def _complex_to_base64(arr: np.ndarray) -> str:
    """Base64 text of the array's little-endian complex128 bytes in C order; every float64 comes back bit for bit."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<c16").tobytes()).decode("ascii")


def _complex_from_json(value, name: str, shape: tuple, size: str) -> np.ndarray:
    """Complex array of the JSON field name: _complex_to_base64 text, or nested [re, im] lists as older versions wrote.

    Text must hold the bytes of an array of the given shape, whose first
    entry -1 takes as many rows as the bytes fill, at least one; size names
    the byte count expected in the error on any other count. Nested lists
    come back in their own shape, for the caller to check.
    """
    if isinstance(value, list):
        message = "matrix entries must be [re, im] pairs of numbers, in matrices of one shape"
        pairs = _numbers_from_json(value, message)
        if pairs.ndim == 0 or pairs.shape[-1] != 2:
            raise ValueError(message)
        return np.ascontiguousarray(pairs).view(complex)[..., 0]
    if not isinstance(value, str):
        raise ValueError(f"{name} must be base64 text or nested lists of [re, im] pairs")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error on alphabet or padding, ValueError on non-ASCII text
        raise ValueError(f"{name} text must be ASCII base64") from None
    row = 16 * math.prod(shape[1:])  # Python integers: a huge dim_b cannot overflow
    rows = len(raw) // row if shape[0] < 0 else shape[0]
    if not raw or len(raw) != row * rows:
        raise ValueError(f"{name} holds {len(raw)} bytes, not {size}")
    return np.frombuffer(raw, dtype="<c16").reshape(rows, *shape[1:])


def ensemble_to_json_dict(ens: CQEnsemble) -> dict:
    """{labels, probs, dim_b} and the _complex_to_base64 text of vectors for pure letters, of states for any other."""
    name, letters = ("states", ens.states) if ens.vectors is None else ("vectors", ens.vectors)
    doc = {"labels": list(ens.labels), "probs": [float(p) for p in ens.probs], "dim_b": ens.dim_b}
    return {**doc, name: _complex_to_base64(letters)}


def ensemble_from_json_dict(doc: dict) -> CQEnsemble:
    """Ensemble of a JSON object with states (n, dim_b, dim_b) or vectors (n, dim_b), each base64 text or [re, im] lists."""
    labels, probs, dim_b = _fields_from_json(doc, ("labels", "probs", "dim_b"), "an ensemble")
    if "states" in doc and "vectors" in doc:
        raise ValueError("an ensemble holds one of the fields 'states' and 'vectors', not both")
    name = "vectors" if "vectors" in doc else "states"
    (entries,) = _fields_from_json(doc, (name,), "an ensemble")
    if not isinstance(labels, list):
        raise ValueError("labels must be a list")
    if entries in ([], ""):
        raise ValueError("the ensemble has no letters")
    dim_b = _dim_from_json(dim_b, "dim_b")
    n = len(labels)
    shape = (n, dim_b, dim_b) if name == "states" else (n, dim_b)
    size = f"16 * {n} letters * dim_b{'**2' if name == 'states' else ''} = {16 * math.prod(shape)}"
    letters = _complex_from_json(entries, name, shape, size)
    if letters.shape[1:] != shape[1:]:
        raise ValueError(f"the dimension of {name} disagrees with dim_b")
    probs = _numbers_from_json(probs, "probs must be a list of numbers")
    return CQEnsemble(tuple(labels), probs, **{name: letters})
