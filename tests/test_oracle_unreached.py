"""No production command reaches the bipartite test oracle.

Every quantity the CLI reports comes from per-letter spectra on B and
classical tables. The five functions that work on the full (n*d)^2 bipartite
state stay only as a test oracle, so replacing each of them, wherever a cqlock
module binds it, by a function that raises must leave every command working.
"""

import json
import sys

import pytest

import cqlock
from cqlock import measurement, qmath, states
from cqlock.cli import main
from cqlock.states import ensemble_to_json_dict, random_cq_ensemble

ORACLE = (
    states.cq_to_density,
    qmath.partial_trace,
    qmath.quantum_mutual_information,
    qmath.quantum_conditional_entropy,
    measurement.measure_b,
)
SEARCH = ["--restarts", "2", "--iters", "40"]


class OracleReached(Exception):
    """Not a ValueError, so the CLI cannot turn it into an exit code."""


@pytest.fixture
def oracle_raises(monkeypatch):
    """Bind a raising function in place of each oracle function, in every cqlock module that binds it."""
    for mod in [m for name, m in sys.modules.items() if name == "cqlock" or name.startswith("cqlock.")]:
        for attr, obj in list(vars(mod).items()):
            if any(obj is fn for fn in ORACLE):
                monkeypatch.setattr(mod, attr, _raiser(f"{mod.__name__}.{attr}"))


def _raiser(name):
    def raises(*args, **kwargs):
        raise OracleReached(f"{name} was called")

    return raises


def test_oracle_names_are_not_exported():
    for fn in ORACLE:
        assert not hasattr(cqlock, fn.__name__)
        assert fn.__name__ not in sys.modules[fn.__module__].__all__


@pytest.mark.parametrize(
    "argv",
    [
        ["discord", "--builtin", "bb84pair", *SEARCH],
        ["discord", "--builtin", "locking:m=2", *SEARCH],
        ["discord", "--builtin", "orthogonal:3", *SEARCH],
        ["discord", "--ensemble", "ENSEMBLE", *SEARCH],
        ["lock-analyze", "--m", "1"],
        ["lock-analyze", "--m", "2"],
        ["simulate", "--m", "2", "--strategy", "before-key", "--n", "1000"],
        ["simulate", "--m", "2", "--strategy", "after-key", "--n", "1000"],
    ],
)
def test_command_runs_without_the_oracle(argv, tmp_path, oracle_raises, capsys):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(ensemble_to_json_dict(random_cq_ensemble(5, 3, "mixed", seed=8))))
    argv = [str(path) if a == "ENSEMBLE" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0


def test_the_guard_catches_a_call(oracle_raises):
    with pytest.raises(OracleReached):
        states.cq_to_density(random_cq_ensemble(2, 2, seed=0))
