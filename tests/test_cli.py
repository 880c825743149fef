import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlock.accessible import GRAD_TOL, OptimizerConfig
from cqlock.cli import build_parser, main, optimizer_config
from cqlock.states import CQEnsemble, build_locking_state, ensemble_to_json_dict, random_cq_ensemble

FAST = ["--restarts", "2", "--iters", "40"]


def run(argv):
    return main(argv)


class TestDiscordCommand:
    def test_locking_builtin(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["discord", "--builtin", "locking:m=1", *FAST, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1.5"
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
        doc = ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        if field == "probs":
            doc["probs"] = [float("nan"), float("nan")]
        else:
            doc["states"][1][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert run(["discord", "--ensemble", str(path), *FAST]) == 2
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 0.0], 1.0, ["1", "0"], [None, 0.0]])
    def test_entry_not_a_pair_exit_2(self, tmp_path, capsys, entry):
        doc = ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        doc["states"][0][0][1] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["discord", "--ensemble", str(path), *FAST]) == 2
        err = capsys.readouterr().err
        assert "[re, im] pairs" in err
        assert "Traceback" not in err

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
        ],
    )
    def test_non_numeric_field_exit_2(self, tmp_path, capsys, field, value, message):
        doc = ensemble_to_json_dict(random_cq_ensemble(2, 2, "pure", seed=3))
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["discord", "--ensemble", str(path), "--restarts", "1", "--iters", "5"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_d16_report_carries_povm_vectors(self, tmp_path):
        # a Haar-rotated m=4 locking ensemble, where the d^2-outcome restart beats every candidate basis
        _, ens = build_locking_state(4)
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        rotated = CQEnsemble(ens.labels, ens.probs, tuple(u @ s @ u.conj().T for s in ens.states))
        path, out = tmp_path / "m4.json", tmp_path / "r.json"
        path.write_text(json.dumps(ensemble_to_json_dict(rotated)))
        assert run(["discord", "--ensemble", str(path), "--restarts", "1", "--out", str(out)]) == 0
        povm = json.loads(out.read_text())["results"]["optimizer"]["best_povm"]
        assert set(povm) == {"dim", "vectors"}
        assert povm["dim"] == 16
        assert len(povm["vectors"]) == 256
        assert all(len(row) == 16 and all(len(entry) == 2 for entry in row) for row in povm["vectors"])

    def test_report_carries_convergence_evidence(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["discord", "--builtin", "bb84pair", "--restarts", "2", "--iters", "60", "--out", str(out)]) == 0
        opt = json.loads(out.read_text())["results"]["optimizer"]
        assert len(opt["per_restart_iterations"]) == len(opt["per_restart_grad_norms"]) == 2
        assert all(isinstance(it, int) and it < 60 for it in opt["per_restart_iterations"])
        assert all(g < GRAD_TOL for g in opt["per_restart_grad_norms"])

    def test_threads_flag_removed(self, capsys):
        assert run(["discord", "--builtin", "bb84pair", *FAST, "--threads", "2"]) == 2

    def test_missing_input_exit_2(self, capsys):
        assert run(["discord", *FAST]) == 2

    def test_guard_exit_3(self, capsys):
        assert run(["discord", "--builtin", "orthogonal:99", *FAST]) == 3


@pytest.mark.parametrize("argv", [["discord", "--builtin", "bb84pair"], ["lock-analyze", "--m", "1"]])
def test_parser_defaults_match_optimizer_config(argv):
    assert optimizer_config(build_parser().parse_args(argv)) == OptimizerConfig()


class TestLockAnalyzeCommand:
    def test_m1_headline_row(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["lock-analyze", "--m", "1", *FAST, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["i_q_without_key"] - 1.0) < 1e-9
        assert abs(res["i_acc_without_key"] - 0.5) < 1e-3
        assert abs(res["i_acc_with_key"] - 2.0) < 1e-9
        assert abs(res["delta"] - 0.5) < 1e-3
        assert abs(res["discord"] - 0.5) < 1e-3

    def test_m_out_of_range_exit_3(self, capsys):
        assert run(["lock-analyze", "--m", "9", *FAST]) == 3

    def test_fourier_family(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["lock-analyze", "--m", "1", "--family", "fourier", *FAST, "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["results"]["delta"] - 0.5) < 1e-3


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
        assert doc["schema_version"] == "1.5"
        assert abs(doc["results"]["empirical_mi"] - 0.5) <= 0.02
        assert abs(doc["results"]["miller_madow_mi"] - 0.5) <= 0.02
        assert "Miller-Madow" in capsys.readouterr().out

    def test_n_beyond_int64_exit_2(self, capsys):
        argv = ["simulate", "--m", "1", "--strategy", "after-key", "--n", "100000000000000000000"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "number of samples" in err
        assert "Traceback" not in err

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


class TestSelftestCommand:
    def test_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_json_mode(self, capsys):
        assert run(["selftest", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in results)
        assert {"group", "passed", "detail"} <= set(results[0])


FUZZ_BASE = ensemble_to_json_dict(random_cq_ensemble(2, 2, "mixed", seed=3))


def _node_paths(node, prefix=()):
    """Paths of every field and nested list entry below node, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


FUZZ_PATHS = list(_node_paths(FUZZ_BASE))
BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), "0.5", "x", True, False, None, [[0.5, 0.5]]])
WRONG_LENGTH = st.integers(0, 5).map(lambda k: [0.5] * k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_ensemble_file(data):
    """A mutated ensemble file gives exit 0, 2 or 3 and never a traceback; only a changed label can still be valid."""
    kind = data.draw(st.sampled_from(["replace", "drop", "top-level"]))
    doc, path = copy.deepcopy(FUZZ_BASE), ()
    if kind == "top-level":
        doc = data.draw(BAD_VALUES | WRONG_LENGTH | st.integers())
    elif kind == "drop":
        path = (data.draw(st.sampled_from(sorted(doc))),)
        del doc[path[0]]
    else:
        path = data.draw(st.sampled_from(FUZZ_PATHS))
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
