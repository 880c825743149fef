"""cqlock benchmark: runs one workload through the cqlock CLI in-process and prints its metrics.

    python3 perfbench/run.py --workload locking-search --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark imports cqlock from ``src/``,
generates the workload's inputs from ``--seed`` and sets up (fresh-interpreter
import, input generation, warm-up) several times. It then runs rounds over
the workload's command list until the next round would overrun ``--seconds``,
always at least one. Every output is checked. With ``--trace 1`` each round
runs the list once plain and once traced, and the per-layer metrics come from
the traced runs. The last line of stdout is the JSON result.
"""

import os

# pin BLAS/OpenMP threads before numpy is first imported; the workloads are single-threaded
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})",
        "blas_threads_pinned": THREADS,
    }


def source_digest() -> str:
    """Digest of the program and benchmark sources, which together fix every report at a given seed."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "cqlock").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def run_op(cli, argv, out_path):
    """Time one in-process CLI call; returns (wall seconds, exit code, report bytes or None).

    ``cli.main`` is looked up at call time so that a traced run calls the tracer's wrapper.
    """
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out_path)])
    except Exception:  # a crash is a failed operation, not a benchmark abort
        traceback.print_exc()
        code = "exception"
    dt = time.perf_counter() - t0
    return dt, code, out_path.read_bytes() if out_path.exists() else None


class Rounds:
    """Timings, check outcomes and the results of each command's first correct report."""

    def __init__(self, ops, modes):
        self.times = {mode: [[] for _ in ops] for mode in modes}
        self.reports = [None] * len(ops)
        self.attempted = self.failed = self.count = 0

    def run_s(self, mode: str) -> float:
        """Sum over commands of each command's median wall time."""
        return sum(statistics.median(t) for t in self.times[mode])


def measure(ops, seconds, cli, reports, check, digests, tracer, modules) -> Rounds:
    modes = ("plain", "traced") if tracer else ("plain",)
    r = Rounds(ops, modes)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in modes if r.count % 2 == 0 else modes[::-1]:
            if mode == "traced":
                tracer.install(modules)
            try:
                for i, op in enumerate(ops):
                    if tracer:
                        tracer.op = i
                    dt, code, raw = run_op(cli, op.argv, reports / f"{op.name}.json")
                    r.times[mode][i].append(dt)
                    r.attempted += 1
                    report = json.loads(raw) if code == 0 and raw is not None else None
                    problems = check(op, code, report)
                    if raw is not None:
                        digest = hashlib.sha256(raw).hexdigest()
                        if digests.setdefault(op.name, digest) != digest:
                            problems.append("report differs from an earlier run at this seed")
                    if problems:
                        r.failed += 1
                        print(f"FAILED {op.name}: {'; '.join(problems)}", file=sys.stderr)
                    if r.reports[i] is None and not problems:
                        # keep the scalars only; a d=16 POVM is megabytes of nested lists
                        (report["results"].get("optimizer") or {}).pop("best_povm", None)
                        r.reports[i] = report["results"]
            finally:
                if tracer:
                    tracer.uninstall()
        r.count += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return r


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cqlock" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'cqlock'} or {ROOT / 'BENCHMARK.json'} missing; run from a cqlock checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    import cqlock
    from cqlock import cli
    import_s = time.perf_counter() - t0
    if Path(cqlock.__file__).resolve().parent != SRC / "cqlock":
        print(f"error: imported cqlock from {cqlock.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = WORK / "inputs" / args.workload
    reports = WORK / "reports" / args.workload
    inputs.mkdir(parents=True, exist_ok=True)
    reports.mkdir(parents=True, exist_ok=True)

    # set-up: what a user pays before the first answer, repeated for a steady median
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cqlock"], env=env, cwd=ROOT, check=True)
        ops = wl.WORKLOADS[args.workload](args.seed, inputs)
        _, code, _ = run_op(cli, wl.WARMUP[args.workload], reports / "warmup.json")
        setup_times.append(time.perf_counter() - t0)
        if code != 0:
            print(f"error: warm-up command exited with {code}", file=sys.stderr)
            return 1

    # report digests per source tree and seed, kept across runs to check same-seed byte identity
    digest_file = WORK / "digests.json"
    all_digests = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    digests = all_digests.setdefault(f"{source_digest()}/{args.workload}/{args.seed}", {})
    tracer = spans.Tracer() if args.trace else None
    modules = [m for name, m in sorted(sys.modules.items()) if name == "cqlock" or name.startswith("cqlock.")]
    r = measure(ops, args.seconds, cli, reports, wl.check, digests, tracer, modules)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest_file.write_text(json.dumps(all_digests, indent=1, sort_keys=True))

    quality = wl.answer_metrics(ops, r.reports)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (r.run_s("plain"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "answer_ratio": (quality.pop("answer_ratio"), "ratio"),
    }
    samples = quality.pop("samples")
    detail = {
        "iacc_gap_bits": (quality.pop("iacc_gap_bits"), "bits"),
        "holevo_gap_bits": (quality.pop("holevo_gap_bits"), "bits"),
        "samples_per_s": (samples / r.run_s("plain") if samples else None, "1/s"),
        "failed_frac": (r.failed / r.attempted, "frac"),
    }

    print(f"workload {args.workload}  seed {args.seed}  rounds {r.count}  commands/round {len(ops)}  "
          f"in-process import {import_s:.3f} s")
    print("machine " + json.dumps(machine_facts(np), sort_keys=True))
    for i, op in enumerate(ops):
        ts = r.times["plain"][i]
        print(f"  {op.name:34s} median {statistics.median(ts):9.4f} s over {len(ts)}  {' '.join(op.argv)}")
    for name, (value, unit) in {**end_to_end, **detail}.items():
        shown = "n/a (no such command in this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:16s} {shown}")

    if tracer:
        table = spans.summarize(tracer.spans)
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "mb_in": 0.0}
        layer = {f"{name}.{field}": value / r.count
                 for name in tracer.spans.names for field, value in table.get(name, empty).items()}
        layer["accessible.restart_hit_frac"] = quality.pop("restart_hit_frac")
        layer["trace_overhead_frac"] = (r.run_s("traced") - r.run_s("plain")) / r.run_s("plain")
        tracer.write_jsonl(WORK / f"trace-{args.workload}.jsonl")
        print(f"  traced run_s {r.run_s('traced'):.4f} s vs plain {r.run_s('plain'):.4f} s; per round, largest "
              f"inclusive time first (self_s excludes child spans; mb_in is computed from argument sizes):")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["s"])[:30]:
            print(f"    {name:44s} calls {row['calls'] / r.count:9.0f}  s {row['s'] / r.count:9.4f}  "
                  f"self_s {row['self_s'] / r.count:9.4f}  mb_in {row['mb_in'] / r.count:9.2f}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}

    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
