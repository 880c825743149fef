"""No production command reaches the bipartite test oracle, nor the dense letter stack of a pure ensemble.

Every quantity the CLI reports comes from per-letter spectra on B and
classical tables. The five functions that work on the full (n*d)^2 bipartite
state stay only as a test oracle, so replacing each of them, wherever a cqlock
module binds it, by a function that raises must leave every command working.
Likewise a pure ensemble holds its (n, d) state vectors, and the (n, d, d)
stack CQEnsemble.states forms from them is for the oracle alone: a 2^m
dimensional locking state has 2^(3m+1) entries there, 34 GB at m = 10.
"""

import json
import math
import sys

import numpy as np
import pytest

import cqlock
from cqlock import measurement, qmath, states
from cqlock.cli import main
from cqlock.states import CQEnsemble, build_locking_state, ensemble_to_json_dict, random_cq_ensemble

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


@pytest.fixture
def dense_view_raises(monkeypatch):
    """Make every read of CQEnsemble.states raise."""
    monkeypatch.setattr(CQEnsemble, "states", property(_raiser("CQEnsemble.states")))


def test_the_dense_view_guard_catches_a_read(dense_view_raises):
    with pytest.raises(OracleReached):
        build_locking_state(2)[1].states


def vectors_file(path):
    """A Haar-rotated m=4 locking ensemble, written as its vectors."""
    _, ens = build_locking_state(4)
    g = np.random.default_rng(4).standard_normal((16, 32)).view(complex)
    u, _ = np.linalg.qr(g)
    path.write_text(json.dumps(ensemble_to_json_dict(CQEnsemble(ens.labels, ens.probs, vectors=ens.vectors @ u.T))))
    return path


@pytest.mark.parametrize("argv", [
    ["lock-analyze", "--m", "8"],
    ["simulate", "--m", "8", "--strategy", "after-key", "--n", "1000000"],
    ["simulate", "--m", "8", "--strategy", "before-key", "--n", "1000000"],
    ["discord", "--ensemble", "VECTORS"],
    ["discord", "--ensemble", "RANDOM", *SEARCH],
], ids=["lock-analyze", "simulate-after-key", "simulate-before-key", "discord-rotated-m4", "discord-random"])
def test_command_runs_without_the_dense_stack(argv, tmp_path, dense_view_raises, capsys):
    # writing a pure ensemble reads its vectors, not its states
    files = {"VECTORS": vectors_file(tmp_path / "rotated.json"), "RANDOM": tmp_path / "random.json"}
    files["RANDOM"].write_text(json.dumps(ensemble_to_json_dict(random_cq_ensemble(12, 4, "pure", seed=1))))
    assert "vectors" in json.loads(files["VECTORS"].read_text()) and "vectors" in json.loads(files["RANDOM"].read_text())
    assert main([str(files.get(a, a)) for a in argv] + ["--json"]) == 0
    r = json.loads(capsys.readouterr().out)["results"]
    if argv[0] == "lock-analyze":
        assert abs(r["delta"] - 4) <= 1e-12 and abs(r["discord"] - 4) <= 1e-12
        assert r["delta_equals_discord_residual"] <= 1e-12
    elif argv[0] == "simulate":
        # the plug-in estimate within 5 standard errors plus its first-order bias, with letters (a, k)
        # and outcomes (b, k) after the key, b before it
        d, n = 256, 1_000_000
        outcomes = 2 * d if argv[4] == "after-key" else d
        bias = (2 * d - 1) * (outcomes - 1) / (2 * n * math.log(2))
        assert abs(r["analytic_mi"] - (9 if argv[4] == "after-key" else 4)) <= 1e-12
        assert abs(r["empirical_mi"] - r["analytic_mi"]) <= 5 * r["std_error_estimate"] + bias
        assert r["decoding_errors"] == (0 if argv[4] == "after-key" else None)
    elif "VECTORS" in argv:
        assert r["optimizer"]["certified"] is True and abs(r["i_acc"] - 2) <= 1e-12
    else:
        assert r["optimizer"]["per_restart_values"], "the ascent must run"
