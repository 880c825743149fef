"""Command-line interface: discord, lock-analyze and simulate. Each command returns its
results and text lines; main prints the lines, or with --json the report alone, and writes the report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .qmath import GuardError
from .states import MAX_MESSAGE_BITS, CQEnsemble, build_locking_state, ensemble_from_json_dict
from .measurement import Povm, povm_to_json_dict, projective_povm
from .accessible import MAX_DIM_B, OptimizerConfig
from .discord import locking_delta, quantum_discord_cq
from .protocol import simulate_locking_run

SCHEMA_VERSION = "1.11"

EXIT_OK = 0
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
        # letter a has the state vector |a>
        return CQEnsemble(tuple(range(n)), np.full(n, 1.0 / n), vectors=np.eye(n))
    raise ValueError(f"unknown builtin: {name!r}")


def cmd_discord(args):
    report = quantum_discord_cq(resolve_ensemble(args), OptimizerConfig(args.restarts, args.iters, args.seed))
    certified = report.optimizer.certified
    return report, [
        f"quantum mutual information  {report.mutual_info_q:.4f} bits",
        f"accessible information      {report.i_acc:.4f} bits ({'certified optimum' if certified else 'lower bound'})",
        f"quantum discord             {report.discord:.4f} bits ({'certified' if certified else 'upper bound'})",
    ]


def cmd_lock_analyze(args):
    report = locking_delta(build_locking_state(args.m, args.family)[0])
    return report, [
        "m  I_q     I_acc(no key)  I_acc(key)  delta   discord",
        f"{report.m}  {report.i_q_without_key:.4f}  {report.i_acc_without_key:.4f}"
        f"         {report.i_acc_with_key:.4f}      {report.delta:.4f}  {report.discord:.4f}",
        f"|delta - discord| = {report.delta_equals_discord_residual:.2e}",
        f"Maassen-Uffink bound on I_acc(no key) = {report.i_acc_upper_bound:.4f}",
    ]


def cmd_simulate(args):
    inst = build_locking_state(args.m, args.family)[0]
    povm = projective_povm(inst.basis_unitaries[0]) if args.strategy == "before-key" else None
    report = simulate_locking_run(inst, povm, args.n, args.seed)
    lines = [
        f"empirical mutual information  {report.empirical_mi:.4f} bits",
        f"Miller-Madow corrected        {report.miller_madow_mi:.4f} bits",
        f"analytic mutual information   {report.analytic_mi:.4f} bits",
        f"standard error estimate       {report.std_error_estimate:.4f} bits",
    ]
    if report.decoding_errors is not None:
        lines.append(f"decoding errors               {report.decoding_errors}")
    return report, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqlock", description="Correlation measures and quantum locking for CQ states")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be a non-negative integer")
        return value

    def add_common(p):
        # every command checks its seed here, also lock-analyze, which draws no random numbers and only echoes it
        p.add_argument("--seed", type=seed, default=0)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        results, lines = args.func(args)
        if not args.json:
            print("\n".join(lines))
        write_report(make_run_report(args, results), args.out, args.json)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
