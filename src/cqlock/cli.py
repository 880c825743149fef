"""Command-line interface: discord, lock-analyze, simulate and selftest."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import qmath
from .qmath import GuardError, validate_density
from .states import MAX_MESSAGE_BITS, CQEnsemble, build_locking_state, ensemble_from_json_dict, random_cq_ensemble
from .measurement import Povm, povm_to_json_dict, projective_povm
from .accessible import MAX_DIM_B, OptimizerConfig, holevo_chi
from .discord import locking_delta, quantum_discord_cq
from .protocol import simulate_locking_run

SCHEMA_VERSION = "1.9"

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _jsonable(obj):
    """A report value as json writes it: a Povm as povm_to_json_dict, any other dataclass as the dict of its fields."""
    if isinstance(obj, Povm):
        return povm_to_json_dict(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def make_run_report(args, results) -> dict:
    """The run report of a command: its parsed flags, its results and the seed."""
    # output routing flags do not affect the computation and are left out so
    # that identical runs produce identical reports regardless of destination
    echo = {k: v for k, v in vars(args).items() if k not in ("func", "out", "json")}
    return {
        "command": args.command,
        "config_echo": echo,
        "results": _jsonable(results),
        "seed": args.seed,
        "schema_version": SCHEMA_VERSION,
    }


def write_report(report: dict, out_path: str | None, as_json: bool):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    if as_json:
        sys.stdout.write(text)


def resolve_ensemble(args):
    """The ensemble named by a builtin or read from an ensemble file."""
    if args.ensemble:
        try:
            with open(args.ensemble) as fh:
                doc = json.load(fh)
            return ensemble_from_json_dict(doc)
        except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ValueError(f"cannot load ensemble file: {exc}")
    name = args.builtin
    if name.startswith("locking:m="):
        try:
            m = int(name.split("=", 1)[1])
        except ValueError:
            raise ValueError(f"bad builtin spec: {name!r}")
        return build_locking_state(m, args.family)[1]
    if name == "bb84pair":
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        return CQEnsemble((0, 1), np.array([0.5, 0.5]), (zero, plus))
    if name.startswith("orthogonal:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad builtin spec: {name!r}")
        if not 2 <= n <= MAX_DIM_B:
            raise GuardError(f"orthogonal builtin supports n=2..{MAX_DIM_B}")
        # letter a has the state |a><a|
        states = np.eye(n)[:, :, None] * np.eye(n)[:, None, :]
        return CQEnsemble(tuple(range(n)), np.full(n, 1.0 / n), states)
    raise ValueError(f"unknown builtin: {name!r}")


def cmd_discord(args) -> int:
    report = quantum_discord_cq(resolve_ensemble(args), OptimizerConfig(args.restarts, args.iters, args.seed))
    print(f"quantum mutual information  {report.mutual_info_q:.4f} bits")
    certified = report.optimizer.certified
    print(f"accessible information      {report.i_acc:.4f} bits ({'certified optimum' if certified else 'lower bound'})")
    print(f"quantum discord             {report.discord:.4f} bits ({'certified' if certified else 'upper bound'})")
    write_report(make_run_report(args, report), args.out, args.json)
    return EXIT_OK


def cmd_lock_analyze(args) -> int:
    report = locking_delta(build_locking_state(args.m, args.family)[0])
    print("m  I_q     I_acc(no key)  I_acc(key)  delta   discord")
    print(
        f"{report.m}  {report.i_q_without_key:.4f}  {report.i_acc_without_key:.4f}"
        f"         {report.i_acc_with_key:.4f}      {report.delta:.4f}  {report.discord:.4f}"
    )
    print(f"|delta - discord| = {report.delta_equals_discord_residual:.2e}")
    print(f"Maassen-Uffink bound on I_acc(no key) = {report.i_acc_upper_bound:.4f}")
    write_report(make_run_report(args, report), args.out, args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    inst = build_locking_state(args.m, args.family)[0]
    povm = projective_povm(inst.basis_unitaries[0]) if args.strategy == "before-key" else None
    report = simulate_locking_run(inst, povm, args.n, args.seed)
    print(f"empirical mutual information  {report.empirical_mi:.4f} bits")
    print(f"Miller-Madow corrected        {report.miller_madow_mi:.4f} bits")
    print(f"analytic mutual information   {report.analytic_mi:.4f} bits")
    print(f"standard error estimate       {report.std_error_estimate:.4f} bits")
    if report.decoding_errors is not None:
        print(f"decoding errors               {report.decoding_errors}")
    write_report(make_run_report(args, report), args.out, args.json)
    return EXIT_OK


def _selftest_groups():
    """Invariant suite; yields (group name, check callable)."""

    def entropy_identities():
        # a stack gives one entropy per matrix
        pure = np.zeros((8, 8), dtype=complex)
        pure[0, 0] = 1.0
        mixed_s, pure_s = qmath.von_neumann_entropy(np.stack([np.eye(8) / 8, pure]))
        assert abs(mixed_s - 3.0) <= 1e-9
        assert pure_s <= 1e-9
        assert abs(qmath.shannon_entropy([0.5, 0.25, 0.25]) - 1.5) <= 1e-12
        # n orthogonal letters are perfectly distinguishable: chi = H(A) = log2 n
        for n in (2, 3, 16):
            ens = resolve_ensemble(argparse.Namespace(ensemble=None, builtin=f"orthogonal:{n}"))
            assert abs(holevo_chi(ens) - np.log2(n)) <= 1e-9

    def state_validation():
        rng = np.random.default_rng(17)
        for m in (1, 2):
            for family in ("hadamard", "fourier"):
                _, ens = build_locking_state(m, family)
                validate_density(ens.states)
                # conjugation leaves roundoff-scale Hermiticity error, which
                # MATRIX_TOL must absorb
                d = ens.dim_b
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                u, _ = np.linalg.qr(g)
                validate_density(u @ ens.states @ u.conj().T)

    def povm_completeness():
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, _ = np.linalg.qr(g)
            v = projective_povm(u).vectors
            # V^T conj(V) = sum_b |v_b><v_b|
            assert np.max(np.abs(v.T @ v.conj() - np.eye(d))) <= 1e-9

    def discord_bounds():
        cfg = OptimizerConfig(restarts=2, max_iters=60, seed=3)
        for seed in range(5):
            ens = random_cq_ensemble(3, 2, "pure", seed=seed)
            rep = quantum_discord_cq(ens, cfg)
            assert rep.discord >= -1e-6
            assert rep.discord <= holevo_chi(ens) + 1e-6

    def delta_equals_discord():
        for m in (1, 2, 3):
            for family in ("hadamard", "fourier"):
                inst, _ = build_locking_state(m, family)
                rep = locking_delta(inst)
                assert abs(rep.delta - rep.discord) <= 1e-12
                assert abs(rep.delta - m / 2) <= 1e-12

    return [
        ("entropy_identities", entropy_identities),
        ("state_validation", state_validation),
        ("povm_completeness", povm_completeness),
        ("discord_bounds", discord_bounds),
        ("delta_equals_discord", delta_equals_discord),
    ]


def cmd_selftest(args) -> int:
    results = []
    for name, check in _selftest_groups():
        try:
            check()
            results.append({"group": name, "passed": True, "detail": ""})
        except (AssertionError, ValueError) as exc:
            results.append({"group": name, "passed": False, "detail": str(exc) or "assertion failed"})
    if args.json:
        sys.stdout.write(json.dumps(results, sort_keys=True, indent=2) + "\n")
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            suffix = f"  ({r['detail']})" if r["detail"] else ""
            print(f"{status} {r['group']}{suffix}")
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqlock", description="Correlation measures and quantum locking for CQ states")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", metavar="FILE", default=None, help="write the JSON run report here")
        p.add_argument("--json", action="store_true", help="print the JSON run report to stdout")

    def add_optimizer(p):
        defaults = OptimizerConfig()
        p.add_argument("--restarts", type=int, default=defaults.restarts)
        p.add_argument("--iters", type=int, default=defaults.max_iters)

    p = sub.add_parser("discord", help="quantum discord of a CQ ensemble")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--builtin",
        help=f"locking:m=N (N=1..{MAX_MESSAGE_BITS}) | bb84pair | orthogonal:n (n=2..{MAX_DIM_B})",
    )
    source.add_argument("--ensemble", metavar="FILE")
    p.add_argument("--family", choices=("hadamard", "fourier"), default="hadamard")
    add_optimizer(p)
    add_common(p)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("lock-analyze", help="headline locking quantities for one m, exact and with no search")
    p.add_argument("--m", type=int, required=True, help=f"message bits, 1..{MAX_MESSAGE_BITS}")
    p.add_argument("--family", choices=("hadamard", "fourier"), default="hadamard")
    add_common(p)
    p.set_defaults(func=cmd_lock_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo run of the locking protocol")
    p.add_argument("--m", type=int, required=True, help=f"message bits, 1..{MAX_MESSAGE_BITS}")
    p.add_argument("--family", choices=("hadamard", "fourier"), default="hadamard")
    p.add_argument("--strategy", choices=("before-key", "after-key"), required=True)
    p.add_argument("--n", type=int, default=100000)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
