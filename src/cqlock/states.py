"""Classical-quantum ensembles, locking states and mutually unbiased bases."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmath import MATRIX_TOL, DimensionError, validate_density, validate_isometry, validate_probs

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

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """Labeled distribution {p_a} with one Bob-side state per letter, stacked so that states[a] is sigma_a.

    states is a read-only complex (n, d, d) array. Ensembles compare by identity.
    """

    labels: tuple
    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        probs = validate_probs(self.probs)
        if not (len(self.labels) == len(probs) == len(self.states)):
            raise ValueError("labels, probs and states must have equal length")
        try:
            states = np.array(self.states, dtype=complex)
        except ValueError:  # states of unequal shape do not stack
            states = None
        if states is None or states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise ValueError("all states must share one dimension")
        validate_density(states)
        probs = probs.copy()
        probs.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def n_letters(self) -> int:
        return len(self.labels)

    @property
    def dim_b(self) -> int:
        return self.states.shape[1]

    def average_state(self) -> np.ndarray:
        return (self.probs[:, None, None] * self.states).sum(axis=0)


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
        states = cols[:, :, None] * cols[:, None, :].conj()
        probs = np.full(2 * d, 1.0 / (2 * d))
        object.__setattr__(self, "ensemble", CQEnsemble(labels=tuple(range(2 * d)), probs=probs, states=states))

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
    out = np.zeros((n, d, n, d), dtype=complex)
    out[np.arange(n), :, np.arange(n), :] = ens.probs[:, None, None] * ens.states
    return validate_density(out.reshape(n * d, n * d))


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
    if not 1 <= m <= 6:
        raise ValueError("message size out of range (1..6)")
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
    complex Gaussian vectors, mixed letters normalized Wishart products.
    """
    if n_letters < 1 or dim_b < 2:
        raise ValueError("need at least one letter and dimension 2")
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_letters))
    states = []
    for _ in range(n_letters):
        if purity == "pure":
            v = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
            v /= np.linalg.norm(v)
            states.append(np.outer(v, v.conj()))
        elif purity == "mixed":
            g = rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b))
            w = g @ g.conj().T
            states.append(w / np.trace(w).real)
        else:
            raise ValueError(f"unknown purity: {purity!r}")
    return CQEnsemble(labels=tuple(range(n_letters)), probs=probs, states=tuple(states))


def _complex_to_json(arr: np.ndarray) -> list:
    """Nested lists of the array's entries, each a two-element [re, im] list."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


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


def _int_from_json(x, name: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{name} must be an integer")
    return x


def _complex_from_json(entries) -> np.ndarray:
    """Complex array from nested lists of [re, im] pairs of numbers, the inverse of _complex_to_json."""
    message = "matrix entries must be [re, im] pairs of numbers, in matrices of one shape"
    pairs = _numbers_from_json(entries, message)
    if pairs.ndim == 0 or pairs.shape[-1] != 2:
        raise ValueError(message)
    return np.ascontiguousarray(pairs).view(complex)[..., 0]


def ensemble_to_json_dict(ens: CQEnsemble) -> dict:
    return {
        "labels": list(ens.labels),
        "probs": [float(p) for p in ens.probs],
        "dim_b": ens.dim_b,
        "states": _complex_to_json(ens.states),
    }


def ensemble_from_json_dict(doc: dict) -> CQEnsemble:
    if not isinstance(doc, dict):
        raise ValueError("an ensemble must be a JSON object")
    if not isinstance(doc["labels"], list):
        raise ValueError("labels must be a list")
    if doc["states"] == []:
        raise ValueError("the ensemble has no letters")
    states = _complex_from_json(doc["states"])
    dim_b = _int_from_json(doc["dim_b"], "dim_b")
    if states.shape[1:] != (dim_b, dim_b):
        raise ValueError("state dimension disagrees with dim_b")
    probs = _numbers_from_json(doc["probs"], "probs must be a list of numbers")
    return CQEnsemble(labels=tuple(doc["labels"]), probs=probs, states=states)
