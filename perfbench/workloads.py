"""Seeded inputs, command lists, exact answers and output checks of the benchmark workloads.

Each workload turns the benchmark seed into a list of CLI operations. Inputs
reach the program only as ensemble JSON files and command-line arguments.
Every operation carries the exact values the benchmark knows for it, which
the checks compare the program's JSON report against.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

from cqlock.states import CQEnsemble, build_locking_state, ensemble_to_json_dict, random_cq_ensemble

SIM_SAMPLES = 1_000_000
# discord-sweep ensembles: (letters, dim_b, purity), all at n_letters * dim_b = 256, where the
# (n*d)^2 density path outweighs the light search; fewer letters shift the time into the search
SWEEP = tuple((n, d, purity) for n, d in ((128, 2), (64, 4)) for purity in ("pure", "mixed", "pure", "mixed")) + (
    (32, 8, "mixed"),
)
SWEEP_SEARCH = ["--restarts", "2", "--iters", "60"]
_P = 0.5 + 0.5 * 2**-0.5
# I_acc of {|0>, |+>} with equal priors: 1 - h(1/2 + 2^(-1/2)/2)
BB84_OPTIMUM = 1.0 + _P * math.log2(_P) + (1 - _P) * math.log2(1 - _P)
TOL = 1e-9
FIXED_M4_SEED = 0


@dataclass
class Op:
    """One CLI command and the exact values its report must agree with."""

    name: str
    argv: list
    chi: float | None = None  # Holevo quantity, equal to I(A:B) of the CQ state
    optimum: float | None = None  # accessible information, where known exactly
    m: int | None = None
    strategy: str | None = None  # simulate only
    exact_mi: float | None = None  # analytic MI of a simulate run


def haar_unitary(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def holevo_chi(probs, states) -> float:
    def entropy(mat):
        w = np.linalg.eigvalsh(mat)
        w = w[w > 1e-15]
        return float(-(w * np.log2(w)).sum())

    avg = sum(p * s for p, s in zip(probs, states))
    return entropy(avg) - sum(p * entropy(s) for p, s in zip(probs, states))


def _write(path, ens: CQEnsemble):
    with open(path, "w") as fh:
        json.dump(ensemble_to_json_dict(ens), fh)


def locking_search(seed: int, inputs) -> list:
    """Headline row with the MUB hint, then Haar-rotated m=3 and m=4 locking ensembles with no usable hint.

    The m=4 (d=16) instance is the same at every seed. Whether its single
    restart beats the candidate bases decides whether its report carries 16
    or 256 POVM elements, and with them about 1.5 s of report writing, which
    would otherwise swing run time and memory from seed to seed.
    """
    rng = np.random.default_rng(seed)
    cli_seed = str(int(rng.integers(2**31)))
    ops = [Op("lock-analyze-m3", ["lock-analyze", "--m", "3", "--seed", cli_seed], optimum=1.5, m=3)]
    for m, rot_rng, search in ((3, rng, ["--seed", cli_seed]),
                               (4, np.random.default_rng(FIXED_M4_SEED), ["--restarts", "1", "--seed", "0"])):
        _, ens = build_locking_state(m)
        u = haar_unitary(ens.dim_b, rot_rng)
        path = inputs / f"locking-rotated-m{m}.json"
        _write(path, CQEnsemble(ens.labels, ens.probs, tuple(u @ s @ u.conj().T for s in ens.states)))
        ops.append(Op(f"discord-rotated-m{m}", ["discord", "--ensemble", str(path), *search], chi=float(m), optimum=m / 2))
    return ops


def discord_sweep(seed: int, inputs) -> list:
    """Letter-heavy random ensembles under a light search, plus bb84pair as a known optimum."""
    rng = np.random.default_rng(seed)
    cli_seed = str(int(rng.integers(2**31)))
    ops = []
    for i, (n, d, purity) in enumerate(SWEEP):
        ens = random_cq_ensemble(n, d, purity, seed=int(rng.integers(2**31)))
        name = f"random{i}-{purity}-n{n}-d{d}"
        path = inputs / f"{name}.json"
        _write(path, ens)
        ops.append(Op(f"discord-{name}", ["discord", "--ensemble", str(path), *SWEEP_SEARCH, "--seed", cli_seed],
                      chi=holevo_chi(ens.probs, ens.states)))
    zero, plus = np.diag([1.0, 0.0]), np.full((2, 2), 0.5)
    ops.append(Op("discord-bb84pair", ["discord", "--builtin", "bb84pair", *SWEEP_SEARCH, "--seed", cli_seed],
                  chi=holevo_chi((0.5, 0.5), (zero, plus)), optimum=BB84_OPTIMUM))
    return ops


def mc_protocol(seed: int, inputs) -> list:
    """Monte Carlo runs of both strategies for m=1..3 at two seeds; no accessible search, no density path."""
    rng = np.random.default_rng(seed)
    ops = []
    for cli_seed in rng.integers(2**31, size=2):
        for m in (1, 2, 3):
            for strategy, exact in (("before-key", m / 2), ("after-key", m + 1.0)):
                ops.append(Op(f"simulate-m{m}-{strategy}-s{cli_seed}",
                              ["simulate", "--m", str(m), "--strategy", strategy, "--n", str(SIM_SAMPLES),
                               "--seed", str(cli_seed)],
                              m=m, strategy=strategy, exact_mi=exact))
    return ops


WORKLOADS = {"locking-search": locking_search, "discord-sweep": discord_sweep, "mc-protocol": mc_protocol}
WARMUP = {
    "locking-search": ["discord", "--builtin", "bb84pair", "--restarts", "1", "--iters", "5"],
    "discord-sweep": ["discord", "--builtin", "bb84pair", "--restarts", "1", "--iters", "5"],
    "mc-protocol": ["simulate", "--m", "1", "--strategy", "before-key", "--n", "1000"],
}


def _near(value, target, tol=TOL) -> bool:
    return abs(value - target) <= tol


def check(op: Op, exit_code: int, report: dict | None) -> list:
    """Failed checks of one operation, as messages; empty when the output is correct."""
    if exit_code != 0 or report is None:
        return [f"exit code {exit_code}"]
    try:
        return _check_results(op, report["results"])
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]


def _check_results(op: Op, r: dict) -> list:
    bad = []
    if op.argv[0] == "discord":
        if not r["i_acc"] <= r["mutual_info_q"] + TOL:
            bad.append("i_acc > mutual_info_q")
        if not r["discord"] >= -TOL:
            bad.append("negative discord")
        if "identity_residual" in r and not r["identity_residual"] <= TOL:
            bad.append("identity_residual > 1e-9")
        if not _near(r["mutual_info_q"], op.chi):
            bad.append(f"mutual_info_q {r['mutual_info_q']} != chi {op.chi}")
    elif op.argv[0] == "lock-analyze":
        if not r["i_acc_without_key"] <= r["i_q_without_key"] + TOL:
            bad.append("i_acc > i_q")
        if not r["discord"] >= -TOL:
            bad.append("negative discord")
        if not r["delta_equals_discord_residual"] <= TOL:
            bad.append("delta_equals_discord_residual > 1e-9")
        if not (_near(r["i_q_without_key"], op.m) and _near(r["i_acc_with_key"], op.m + 1)):
            bad.append("exact locking values not reproduced")
    else:
        n = r["n_samples"]
        d = 2**op.m
        outcomes = d if op.strategy == "before-key" else 2 * d
        # first-order (Miller-Madow) bias of the plug-in MI estimate, in bits
        bias = (2 * d - 1) * (outcomes - 1) / (2 * n * math.log(2))
        if not _near(r["analytic_mi"], op.exact_mi):
            bad.append(f"analytic_mi {r['analytic_mi']} != {op.exact_mi}")
        if not abs(r["empirical_mi"] - r["analytic_mi"]) <= 5 * r["std_error_estimate"] + bias:
            bad.append("empirical_mi outside 5 standard errors plus bias")
        if op.strategy == "after-key" and r["decoding_errors"] != 0:
            bad.append(f"{r['decoding_errors']} decoding errors")
    if op.optimum is not None and not answer(op, r) <= op.optimum + TOL:
        bad.append("reported I_acc above the exact optimum")
    return bad


def answer(op: Op, results: dict) -> float:
    """The value of the report that the op's exact answer refers to."""
    if op.argv[0] == "discord":
        return results["i_acc"]
    if op.argv[0] == "lock-analyze":
        return results["i_acc_without_key"]
    return results["empirical_mi"]


def exact(op: Op):
    return op.optimum if op.optimum is not None else op.exact_mi


def answer_metrics(ops, results) -> dict:
    """Answer quality against the exact values the benchmark knows; None where no command measures it.

    answer_ratio is 1 - sum |answer - exact| / sum exact over commands with a
    known exact answer: the found I_acc against the optimum, and the
    empirical MI of a simulate run against its analytic value.
    """
    known = [(op, r) for op, r in zip(ops, results) if r and exact(op) is not None]
    gaps = [op.optimum - answer(op, r) for op, r in known if op.optimum is not None]
    discords = [op.chi - r["i_acc"] for op, r in zip(ops, results) if r and op.argv[0] == "discord"]
    restarts = [(r["optimizer"]["value"], r["optimizer"].get("per_restart_values") or [])
                for r in results if r and r.get("optimizer")]
    n_restarts = sum(len(vals) for _, vals in restarts)
    return {
        "answer_ratio": 1 - sum(abs(answer(op, r) - exact(op)) for op, r in known) / sum(exact(op) for op, _ in known)
        if known else 0.0,
        "iacc_gap_bits": max(gaps) if gaps else None,
        "holevo_gap_bits": statistics.mean(discords) if discords else None,
        "samples": sum(r["n_samples"] for op, r in zip(ops, results) if r and op.argv[0] == "simulate"),
        # restarts that reached the reported optimum, out of all restarts run
        "restart_hit_frac": sum(v >= best - 1e-3 for best, vals in restarts for v in vals) / n_restarts
        if n_restarts else 0.0,
    }
