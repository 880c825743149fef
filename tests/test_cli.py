import argparse
import base64
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlock.accessible import GRAD_TOL, AccessibleInfoResult, OptimizerConfig, accessible_information
from cqlock.cli import build_parser, main, make_run_report, write_report
from cqlock.measurement import povm_from_json_dict, projective_povm
from cqlock.protocol import EmpiricalReport
from cqlock.states import CQEnsemble, _complex_to_base64, build_locking_state, ensemble_to_json_dict, random_cq_ensemble

from conftest import complex_to_json, list_layout_json_dict, random_unitary

FAST = ["--restarts", "2", "--iters", "40"]
# the letters of random_cq_ensemble(2, 2, "pure", seed=3), which most files below hold, and their base64 text
STACK = random_cq_ensemble(2, 2, "pure", seed=3).states
PAYLOAD = _complex_to_base64(STACK)


def payload_with(value):
    """PAYLOAD with entry [1, 0, 0] of the stack replaced by value."""
    stack = STACK.copy()
    stack[1, 0, 0] = value
    return _complex_to_base64(stack)


def run(argv):
    return main(argv)


def rejected(tmp_path, capsys, doc):
    """stderr of discord on an ensemble file holding doc, which must exit 2 without a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["discord", "--ensemble", str(path), "--restarts", "1", "--iters", "5"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestDiscordCommand:
    def test_locking_builtin(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["discord", "--builtin", "locking:m=1", *FAST, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1.10"
        assert abs(doc["results"]["discord"] - 0.5) < 1e-3
        assert "quantum discord" in capsys.readouterr().out

    def test_report_has_no_timings(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["discord", "--builtin", "bb84pair", *FAST, "--out", str(out)]) == 0
        assert "timings_ms" not in json.loads(out.read_text())

    def test_orthogonal_builtin(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["discord", "--builtin", "orthogonal:4", *FAST, "--out", str(out), "--json"])
        assert code == 0
        # --json prints the same report that --out writes
        assert capsys.readouterr().out.endswith(out.read_text())
        doc = json.loads(out.read_text())
        assert abs(doc["results"]["discord"]) < 1e-6
        assert "identity_residual" not in doc["results"]

    def test_ensemble_file(self, tmp_path):
        ens = random_cq_ensemble(2, 2, "pure", seed=3)
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble_to_json_dict(ens)))
        assert run(["discord", "--ensemble", str(path), *FAST]) == 0

    def test_letter_probability_just_below_zero(self, tmp_path):
        # validation accepts -5e-13 as roundoff; that letter of I/2 counts with probability 0 and the answer stays finite
        states = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2]).astype(complex)
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"labels": [0, 1, 2], "probs": [0.5, 0.5, -5e-13], "dim_b": 2,
                                    "states": _complex_to_base64(states)}))
        out = tmp_path / "r.json"
        assert run(["discord", "--ensemble", str(path), "--out", str(out)]) == 0
        assert np.isfinite(json.loads(out.read_text())["results"]["i_acc"])

    def test_bad_ensemble_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["discord", "--ensemble", str(path), *FAST]) == 2

    def test_deeply_nested_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert run(["discord", "--ensemble", str(path), *FAST]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["probs", "states"])
    def test_nan_ensemble_file_exit_2(self, tmp_path, capsys, field):
        doc = list_layout_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        if field == "probs":
            doc["probs"] = [float("nan"), float("nan")]
        else:
            doc["states"][1][0][0] = [float("nan"), 0.0]
        assert "not finite" in rejected(tmp_path, capsys, doc)

    @pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 0.0], 1.0, ["1", "0"], [None, 0.0]])
    def test_entry_not_a_pair_exit_2(self, tmp_path, capsys, entry):
        doc = list_layout_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        doc["states"][0][0][1] = entry
        assert "[re, im] pairs" in rejected(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("probs", ["0.5", "0.5"], "probs must be a list of numbers"),
            ("probs", [True, False], "probs must be a list of numbers"),
            ("dim_b", 2.9, "dim_b must be an integer"),
            ("dim_b", "2", "dim_b must be an integer"),
            ("dim_b", True, "dim_b must be an integer"),
            ("labels", "ab", "labels must be a list"),
            ("labels", {"a": 1, "b": 2}, "labels must be a list"),
            ("states", [[[[True, False], [0.0, 0.0]], [[0.0, 0.0], [False, False]]]] * 2, "[re, im] pairs"),
            ("states", [], "no letters"),
            ("dim_b", 0, "dim_b must be a positive integer"),
            ("dim_b", -2, "dim_b must be a positive integer"),
            ("states", "", "no letters"),
        ],
    )
    def test_non_numeric_field_exit_2(self, tmp_path, capsys, field, value, message):
        doc = ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        doc[field] = value
        assert message in rejected(tmp_path, capsys, doc)

    @pytest.mark.parametrize("field", ["labels", "probs", "dim_b", "states"])
    def test_missing_field_exit_2(self, tmp_path, capsys, field):
        doc = ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        del doc[field]
        assert f"missing field '{field}'" in rejected(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("states", "@" + PAYLOAD[1:], "ASCII base64", id="alphabet"),
            pytest.param("states", PAYLOAD.rstrip("="), "ASCII base64", id="padding"),
            pytest.param("states", "\u00c4" + PAYLOAD[1:], "ASCII base64", id="non-ascii"),
            pytest.param("states", base64.b64encode(STACK.tobytes()[:-1]).decode(), "holds 127 bytes, not", id="short"),
            pytest.param("states", base64.b64encode(STACK.tobytes() + b"\0").decode(), "holds 129 bytes, not", id="long"),
            pytest.param("dim_b", 3, "holds 128 bytes, not 16 * 2 letters * dim_b**2 = 288", id="dim_b"),
            pytest.param("states", payload_with(np.nan), "not finite", id="nan"),
            pytest.param("states", payload_with(complex(0.5, np.inf)), "not finite", id="inf"),
            pytest.param("states", 1.0, "base64 text or nested lists", id="number"),
            pytest.param("states", True, "base64 text or nested lists", id="bool"),
            pytest.param("states", None, "base64 text or nested lists", id="null"),
            pytest.param("states", {"re": 1.0}, "base64 text or nested lists", id="object"),
        ],
    )
    def test_bad_base64_states_exit_2(self, tmp_path, capsys, field, value, message):
        doc = ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        assert doc["states"] == PAYLOAD
        doc[field] = value
        assert message in rejected(tmp_path, capsys, doc)

    @pytest.mark.parametrize("layout", ["base64", "lists"])
    @pytest.mark.parametrize("kind, message", [
        ("non-hermitian", "not Hermitian"),
        ("trace", "trace is not 1"),
        ("negative", "not positive semidefinite"),
    ])
    def test_invalid_letter_exit_2(self, tmp_path, capsys, kind, message, layout):
        # letter 1 of STACK, a pure state P, made non-Hermitian by 1e-6, of trace 1 + 1e-6,
        # or (1 + 2e-6) P - 1e-6 I, of unit trace and eigenvalues 1 + 1e-6 and -1e-6
        stack = STACK.copy()
        if kind == "non-hermitian":
            stack[1, 0, 1] += 1e-6j
        elif kind == "trace":
            stack[1] *= 1 + 1e-6
        else:
            stack[1] = (1 + 2e-6) * stack[1] - 1e-6 * np.eye(2)
        doc = ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        doc["states"] = _complex_to_base64(stack) if layout == "base64" else complex_to_json(stack)
        assert message in rejected(tmp_path, capsys, doc)

    def test_layouts_give_identical_reports(self, tmp_path):
        ens = random_cq_ensemble(5, 3, "mixed", seed=8)
        reports = []
        for layout, doc in (("base64", ensemble_to_json_dict(ens)), ("lists", list_layout_json_dict(ens))):
            path, out = tmp_path / f"{layout}.json", tmp_path / f"r-{layout}.json"
            path.write_text(json.dumps(doc))
            assert run(["discord", "--ensemble", str(path), *FAST, "--out", str(out)]) == 0
            reports.append(out.read_text().replace(json.dumps(str(path)), '"ENSEMBLE"'))
        assert '"ensemble": "ENSEMBLE"' in reports[0]
        assert reports[0] == reports[1]

    def test_d16_report_carries_povm_vectors(self, tmp_path):
        # a Haar-rotated m=4 locking ensemble, which one of its letter bases certifies
        _, ens = build_locking_state(4)
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        rotated = CQEnsemble(ens.labels, ens.probs, tuple(u @ s @ u.conj().T for s in ens.states))
        path, out = tmp_path / "m4.json", tmp_path / "r.json"
        path.write_text(json.dumps(ensemble_to_json_dict(rotated)))
        assert run(["discord", "--ensemble", str(path), "--restarts", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["results"]["optimizer"]["best_povm"]
        best = accessible_information(rotated, OptimizerConfig(restarts=1)).best_povm
        assert set(doc) == {"dim", "vectors"}
        assert doc["dim"] == 16
        # vectors is the base64 text of the n x 16 isometry's complex128 bytes
        assert len(base64.b64decode(doc["vectors"])) == 16 * 16 * best.n_outcomes
        assert povm_from_json_dict(doc) == best

    def test_report_carries_convergence_evidence(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["discord", "--builtin", "bb84pair", "--restarts", "2", "--iters", "60", "--out", str(out)]) == 0
        opt = json.loads(out.read_text())["results"]["optimizer"]
        assert len(opt["per_restart_iterations"]) == len(opt["per_restart_grad_norms"]) == 2
        assert all(isinstance(it, int) and it < 60 for it in opt["per_restart_iterations"])
        assert all(g < GRAD_TOL for g in opt["per_restart_grad_norms"])

    def test_threads_flag_removed(self, capsys):
        assert run(["discord", "--builtin", "bb84pair", *FAST, "--threads", "2"]) == 2

    def test_outcome_budget_flag_removed(self, capsys):
        # the search always uses d^2 outcomes
        assert run(["discord", "--builtin", "bb84pair", *FAST, "--outcome-budget", "4"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_input_exit_2(self, capsys):
        assert run(["discord", *FAST]) == 2
        assert "one of the arguments --builtin --ensemble is required" in capsys.readouterr().err

    def test_builtin_and_ensemble_exclusive_exit_2(self, tmp_path, capsys):
        # a report of the file would echo a builtin it never read
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))))
        assert run(["discord", "--ensemble", str(path), "--builtin", "locking:m=2", *FAST]) == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_guard_exit_3(self, capsys):
        assert run(["discord", "--builtin", "orthogonal:99", *FAST]) == 3

    def test_locking_builtin_up_to_the_dimension_cap(self, tmp_path, capsys):
        # m=6 is d=64, beyond the ascent's dimension cap 16, but the candidate basis
        # certifies it; m=7 is beyond the cap lock-analyze and simulate share
        out = tmp_path / "r.json"
        assert run(["discord", "--builtin", "locking:m=6", "--restarts", "1", "--iters", "5", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["mutual_info_q"] - 6.0) < 1e-9
        assert res["optimizer"]["certified"] is True
        assert run(["discord", "--builtin", "locking:m=7", *FAST]) == 3
        assert "m=1..6" in capsys.readouterr().err

    def test_builtin_help_states_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discord", "--help"])
        assert "locking:m=N (N=1..6)" in capsys.readouterr().out

    def test_report_names_the_certifying_bound(self, tmp_path):
        # on a rotated m=3 locking ensemble the Maassen-Uffink bound 1.5, not chi = 3, certifies the value
        _, ens = build_locking_state(3)
        u = random_unitary(8, np.random.default_rng(103))
        rotated = CQEnsemble(ens.labels, ens.probs, u @ ens.states @ u.conj().T)
        path, out = tmp_path / "m3.json", tmp_path / "r.json"
        path.write_text(json.dumps(ensemble_to_json_dict(rotated)))
        assert run(["discord", "--ensemble", str(path), "--out", str(out)]) == 0
        opt = json.loads(out.read_text())["results"]["optimizer"]
        assert opt["certified"] is True
        assert abs(opt["upper_bound"] - 1.5) <= 1e-9
        assert abs(opt["chi"] - 3.0) <= 1e-9
        assert abs(opt["value"] - 1.5) <= 1e-9

    def test_rotated_m5_certified_beyond_the_ascent_cap(self, tmp_path, capsys):
        # d = 32 exceeds MAX_DIM_B, but a letter basis certifies the value, so no ascent runs
        _, ens = build_locking_state(5)
        u = random_unitary(32, np.random.default_rng(105))
        path, out = tmp_path / "m5.json", tmp_path / "r.json"
        path.write_text(json.dumps(ensemble_to_json_dict(CQEnsemble(ens.labels, ens.probs, u @ ens.states @ u.conj().T))))
        assert run(["discord", "--ensemble", str(path), "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["optimizer"]["certified"] is True
        assert abs(res["i_acc"] - 2.5) <= 1e-9
        assert res["optimizer"]["per_restart_values"] == []
        text = capsys.readouterr().out
        assert "bits (certified optimum)" in text
        assert "bits (certified)" in text

    def test_uncertified_report_labels_discord_an_upper_bound(self, capsys):
        # bb84pair is no two-basis ensemble and its optimum lies below chi
        assert run(["discord", "--builtin", "bb84pair", *FAST]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("bits (lower bound)")
        assert lines[2].startswith("quantum discord") and lines[2].endswith("bits (upper bound)")

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_lock_analyze(self, m, family, tmp_path):
        # lock-analyze reads its without-key terms from the same search
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["discord", "--builtin", f"locking:m={m}", "--family", family, "--out", str(a)]) == 0
        assert run(["lock-analyze", "--m", str(m), "--family", family, "--out", str(b)]) == 0
        disc, lock = (json.loads(p.read_text())["results"] for p in (a, b))
        assert disc["i_acc"] == lock["i_acc_without_key"]
        assert disc["discord"] == lock["discord"]
        assert disc["optimizer"]["upper_bound"] == lock["i_acc_upper_bound"]


@pytest.mark.parametrize("argv", [["discord", "--builtin", "bb84pair"]])
def test_parser_defaults_match_optimizer_config(argv):
    args = build_parser().parse_args(argv)
    assert OptimizerConfig(args.restarts, args.iters, args.seed) == OptimizerConfig()


@pytest.mark.parametrize("argv", [
    ["discord", "--builtin", "bb84pair", *FAST],
    ["lock-analyze", "--m", "2"],
    ["simulate", "--m", "1", "--strategy", "before-key", "--n", "100"],
], ids=["discord", "lock-analyze", "simulate"])
def test_json_stdout_is_the_report_alone(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run([*argv, "--out", str(out), "--json"]) == 0
    stdout = capsys.readouterr().out
    json.loads(stdout)
    assert stdout.encode() == out.read_bytes()


def test_selftest_command_removed(capsys):
    assert run(["selftest"]) == 2
    assert run(["--help"]) == 0
    assert "{discord,lock-analyze,simulate}" in capsys.readouterr().out


@pytest.mark.parametrize("n", [2, 3, 16])
def test_orthogonal_builtin_mutual_information_is_log2_n(n, tmp_path):
    # n orthogonal letters are perfectly distinguishable: I(A:B) = H(A) = log2 n
    out = tmp_path / "r.json"
    assert run(["discord", "--builtin", f"orthogonal:{n}", *FAST, "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["results"]["mutual_info_q"] - np.log2(n)) <= 1e-9


@pytest.mark.parametrize("m", [0, 7, 9])
@pytest.mark.parametrize("argv", [
    ["lock-analyze", "--m", "{m}"],
    ["simulate", "--m", "{m}", "--strategy", "after-key"],
    ["discord", "--builtin", "locking:m={m}"],
], ids=["lock-analyze", "simulate", "discord"])
def test_locking_m_out_of_range_exit_3(argv, m, capsys):
    # build_locking_state is the one check of m for every command
    assert run([a.format(m=m) for a in argv]) == 3
    assert "locking states support m=1..6" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["discord", "--builtin", "bb84pair", *FAST],
    # stage 1 certifies this one before any random number is drawn
    ["discord", "--builtin", "locking:m=2"],
    ["simulate", "--m", "1", "--strategy", "after-key", "--n", "100"],
    # draws no random numbers, but its seed is checked as every command's is
    ["lock-analyze", "--m", "2"],
], ids=["discord-search", "discord-certified", "simulate", "lock-analyze"])
def test_negative_seed_exit_2(argv, capsys):
    assert run([*argv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer" in err
    assert "Traceback" not in err


SIMULATE_REPORT = """{
  "command": "simulate",
  "config_echo": {
    "command": "simulate",
    "family": "hadamard",
    "m": 1,
    "n": 4,
    "seed": 3,
    "strategy": "after-key"
  },
  "results": {
    "analytic_mi": 1.0,
    "decoding_errors": null,
    "empirical_mi": 0.5,
    "miller_madow_mi": 0.625,
    "n_samples": 4,
    "seed": 3,
    "std_error_estimate": 0.25
  },
  "schema_version": "1.10",
  "seed": 3
}
"""
SEARCH_REPORT = """{
  "command": "discord",
  "config_echo": {
    "builtin": "bb84pair",
    "command": "discord",
    "ensemble": null,
    "family": "hadamard",
    "iters": 5,
    "restarts": 2,
    "seed": 0
  },
  "results": {
    "best_povm": {
      "dim": 2,
      "vectors": "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAAAA=="
    },
    "certified": false,
    "chi": 1.0,
    "per_restart_grad_norms": [
      0.125,
      0.0625
    ],
    "per_restart_iterations": [
      3,
      5
    ],
    "per_restart_values": [
      0.5,
      0.25
    ],
    "upper_bound": 0.75,
    "value": 0.5
  },
  "schema_version": "1.10",
  "seed": 0
}
"""


@pytest.mark.parametrize("flags, results, text", [
    (dict(command="simulate", m=1, family="hadamard", strategy="after-key", n=4, seed=3),
     EmpiricalReport(4, 0.5, 0.625, 1.0, 0.25, 3), SIMULATE_REPORT),
    (dict(command="discord", builtin="bb84pair", ensemble=None, family="hadamard", restarts=2, iters=5, seed=0),
     AccessibleInfoResult(0.5, projective_povm(np.eye(2)), 1.0, 0.75, False, (0.5, 0.25), (3, 5), (0.125, 0.0625)),
     SEARCH_REPORT),
], ids=["empirical", "search"])
def test_report_encoding_is_exact(flags, results, text, tmp_path, capsys):
    # tuples become lists, a Povm its {dim, vectors} with base64 vectors, None null; keys sorted, indent 2,
    # one trailing newline; the routing flags func, out and json stay out of the echo
    out = tmp_path / "r.json"
    args = argparse.Namespace(**flags, func=print, out=str(out), json=True)
    write_report(make_run_report(args, results), args.out, args.json)
    assert out.read_text() == text
    assert capsys.readouterr().out == text


class TestLockAnalyzeCommand:
    def test_m1_headline_row(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["lock-analyze", "--m", "1", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["i_q_without_key"] - 1.0) < 1e-9
        assert abs(res["i_acc_without_key"] - 0.5) < 1e-9
        assert abs(res["i_acc_with_key"] - 2.0) < 1e-9
        assert abs(res["delta"] - 0.5) < 1e-9
        assert abs(res["discord"] - 0.5) < 1e-9

    def test_m_out_of_range_exit_3(self, capsys):
        for m in ("0", "7", "9"):
            assert run(["lock-analyze", "--m", m]) == 3
            assert "locking states support m=1..6" in capsys.readouterr().err

    def test_fourier_family(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["lock-analyze", "--m", "1", "--family", "fourier", "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["results"]["delta"] - 0.5) < 1e-9

    @pytest.mark.parametrize("family", ["hadamard", "fourier"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_certified_for_every_m(self, m, family, tmp_path):
        out = tmp_path / "r.json"
        assert run(["lock-analyze", "--m", str(m), "--family", family, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        res = doc["results"]
        assert doc["schema_version"] == "1.10"
        assert "optimizer" not in res
        assert abs(res["delta"] - m / 2) <= 1e-9
        assert abs(res["discord"] - m / 2) <= 1e-9
        # the witness U_0 attains the Maassen-Uffink bound, so the value is the optimum
        assert abs(res["i_acc_upper_bound"] - res["i_acc_without_key"]) <= 1e-12

    @pytest.mark.parametrize("flag", ["--restarts", "--iters", "--outcome-budget"])
    def test_search_flags_removed(self, flag, capsys):
        assert run(["lock-analyze", "--m", "1", flag, "2"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSimulateCommand:
    def test_after_key(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["simulate", "--m", "1", "--strategy", "after-key", "--n", "100000", "--seed", "1", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["empirical_mi"] - 2.0) <= 0.02
        assert res["decoding_errors"] == 0

    def test_before_key(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["simulate", "--m", "1", "--strategy", "before-key", "--n", "100000", "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1.10"
        assert abs(doc["results"]["empirical_mi"] - 0.5) <= 0.02
        assert abs(doc["results"]["miller_madow_mi"] - 0.5) <= 0.02
        assert "Miller-Madow" in capsys.readouterr().out

    def test_n_beyond_int64_exit_2(self, capsys):
        argv = ["simulate", "--m", "1", "--strategy", "after-key", "--n", "100000000000000000000"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "number of samples" in err
        assert "Traceback" not in err

    def test_m6(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["simulate", "--m", "6", "--strategy", "after-key", "--n", "1000000", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["analytic_mi"] - 7.0) < 1e-9
        assert res["decoding_errors"] == 0
        assert run(["simulate", "--m", "6", "--strategy", "before-key", "--n", "1000000", "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["results"]["analytic_mi"] - 3.0) < 1e-9

    def test_unknown_strategy_exit_2(self, capsys):
        # argparse's choices are the one check of the strategy
        assert run(["simulate", "--m", "1", "--strategy", "sideways"]) == 2
        assert "invalid choice: 'sideways'" in capsys.readouterr().err

    def test_m7_exit_3(self, capsys):
        assert run(["simulate", "--m", "7", "--strategy", "after-key"]) == 3
        assert "locking states support m=1..6" in capsys.readouterr().err

    def test_huge_n(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["simulate", "--m", "3", "--strategy", "before-key", "--n", "100000000000000", "--out", str(out)]
        assert run(argv) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["empirical_mi"] - 1.5) < 1e-4

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--m", "1", "--strategy", "before-key", "--n", "2000", "--seed", "5"]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_discord_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["discord", "--builtin", "locking:m=1", *FAST, "--seed", "3"]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        run(["simulate", "--m", "1", "--strategy", "after-key", "--n", "100", "--seed", "2", "--out", str(out)])
        text = out.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


FUZZ_ENSEMBLE = random_cq_ensemble(2, 2, "mixed", seed=3)
# one base per layout of states: base64 text, as written, and the nested [re, im] lists of older files
FUZZ_BASES = {"base64": ensemble_to_json_dict(FUZZ_ENSEMBLE), "lists": list_layout_json_dict(FUZZ_ENSEMBLE)}


def _node_paths(node, prefix=()):
    """Paths of every field and nested list entry below node, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


FUZZ_PATHS = {layout: list(_node_paths(base)) for layout, base in FUZZ_BASES.items()}
BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), "0.5", "x", True, False, None, [[0.5, 0.5]]])
WRONG_LENGTH = st.integers(0, 5).map(lambda k: [0.5] * k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_ensemble_file(data):
    """A mutated ensemble file gives exit 0, 2 or 3 and never a traceback; only a changed label can still be valid."""
    layout = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    kind = data.draw(st.sampled_from(["replace", "drop", "top-level"]))
    doc, path = copy.deepcopy(FUZZ_BASES[layout]), ()
    if kind == "top-level":
        doc = data.draw(BAD_VALUES | WRONG_LENGTH | st.integers())
    elif kind == "drop":
        path = (data.draw(st.sampled_from(sorted(doc))),)
        del doc[path[0]]
    else:
        path = data.draw(st.sampled_from(FUZZ_PATHS[layout]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        # the old value's own text, or a bool that equals it where it is 0 or 1, keeps its value but is no JSON number
        value = data.draw(BAD_VALUES | WRONG_LENGTH | st.sampled_from([json.dumps(old), bool(old)]))
        if isinstance(value, list) and isinstance(old, list) and len(value) == len(old):
            value.append(0.5)
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "ens.json"
        file.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["discord", "--ensemble", str(file), "--restarts", "1", "--iters", "5"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    # a label may be any JSON value; every other change leaves a non-numeric,
    # non-finite, misshapen or missing field
    assert code == (0 if len(path) == 2 and path[0] == "labels" else 2), (path, err.getvalue())
