"""envlab benchmark: one workload, closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload records|born|certify --seed N \\
        --seconds S --trace 0|1

The run imports ``envlab.cli`` from ``src/`` in-process and calls
``envlab.cli.main(argv)`` back to back, in whole rounds of the workload's
operation mix, until at least S seconds have passed and at least 100
operations are done.  Each call writes its report with ``--out`` into a
scratch directory under ``.perfbench-run/``.  After the loop every output
is checked against the paper's identities (``checker.py``).

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
set-up time is the median of several fresh interpreters that import
``envlab.cli`` and run the workload's warm-up operations.  ``--trace 1``
wraps envlab's public functions (``tracer.py``), reports the per-layer
metrics and writes the spans to ``.perfbench-run/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the JSON result; the line before it
holds the run's details: failed_ratio, the output digest, sample counts,
set-up samples and the numeric environment.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checker
from tracer import Tracer
from workloads import WORKLOADS, coverage, rounds, warmup

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench-run")
SETUP_RUNS = 3          # fresh interpreters timed per run; setup_s is their median
MIN_OPS = 100           # so that at least 10 samples lie beyond op_p90_ms
MAX_LOOP_S = 100.0      # hard stop for a very slow build
DIGEST_OPS = 100        # outputs covered by the determinism digest


def load_cli():
    """Import envlab.cli from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "envlab", "cli.py")):
        sys.exit(f"perfbench: envlab sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import envlab.cli
    if not os.path.abspath(envlab.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported envlab from {envlab.cli.__file__}")
    return envlab.cli


def run_op(cli, op, path: str):
    """Call cli.main once; return (exit code, seconds, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv(path))
        except SystemExit as exc:          # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return rc, seconds, err.getvalue()


def run_warmup(cli, workload: str, tmp: str) -> None:
    for i, op in enumerate(warmup(workload)):
        run_op(cli, op, os.path.join(tmp, f"warmup{i}.{op.fmt}"))


def setup_times(workload: str, tmp: str) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    envlab.cli and finished the warm-up, i.e. could start its first op."""
    probe = os.path.join(HERE, "probe.py")
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, tmp],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, "
                               f"exit {proc.returncode}")
    return times


def timed_loop(cli, workload, seed, seconds, tmp, tracer=None):
    """Closed loop over whole rounds of the workload until ``seconds`` have
    passed and MIN_OPS ops are done.  Returns (ops, loop seconds), each op
    as (Op, exit code, seconds, stderr, output path)."""
    done = []
    start = time.perf_counter()
    for ops in rounds(workload, seed):
        for op in ops:
            path = os.path.join(tmp, f"op{len(done)}.{op.fmt}")
            if tracer is not None:
                tracer.start_op(len(done))
            done.append((op, *run_op(cli, op, path), path))
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds
                                     and len(done) >= MIN_OPS):
            return done, elapsed


def check_outputs(done):
    """Classify every op; returns (statuses, digest, failure notes)."""
    status, digest, failures = [], hashlib.sha256(), []
    for i, (op, rc, _, err, path) in enumerate(done):
        text = read_output(path)
        state, why = checker.classify(op, rc, text, err)
        status.append(state)
        if state == "failed":
            failures.append(f"op {i} {op.argv(path)}: {why}")
        if i < DIGEST_OPS:
            digest.update(f"{i} {rc}\n{err}".encode())
            if text is not None:
                digest.update(checker.canonical(text, op.fmt))
    return status, digest.hexdigest(), failures


def read_output(path: str):
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def blas_info() -> dict:
    """OpenBLAS version and live thread count as numpy loaded it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        info["threads"] = get()
    return info


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "nproc": len(os.sched_getaffinity(0))}


def metric_block(wanted: list[dict], values: dict) -> dict:
    names = {m["name"] for m in wanted}
    if names != set(values):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(names ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=RUN_DIR)
    try:
        setup = [] if args.trace else setup_times(args.workload, tmp)
        run_warmup(cli, args.workload, tmp)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(sys.modules["envlab"])
            tracer.on = True
            for i, op in enumerate(coverage()):
                run_op(cli, op, os.path.join(tmp, f"coverage{i}.{op.fmt}"))
        done, loop_s = timed_loop(cli, args.workload, args.seed,
                                  args.seconds, tmp, tracer)
        if tracer is not None:
            tracer.on = False
        status, digest, failures = check_outputs(done)

        def self_test_op(op):
            path = os.path.join(tmp, f"selftest.{op.fmt}")
            rc, _, err = run_op(cli, op, path)
            return rc, read_output(path), err
        problems = checker.self_test(self_test_op)

        attempted = len(done)
        ok = status.count("ok")
        known = status.count("known_defect")
        failed = status.count("failed")
        latencies = [seconds for _, _, seconds, _, _ in done]
        if tracer is None:
            values = {
                "ops_per_s": ok / loop_s,
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup),
            }
            metrics = metric_block(spec["end_to_end"], values)
        else:
            values = tracer.metrics()
            values["trace.ops_per_s"] = ok / loop_s
            metrics = metric_block(spec["per_layer"], values)
            spans = os.path.join(
                RUN_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.write(spans)

        details = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "loop_s": loop_s, "op_samples": attempted,
            "ok": ok, "known_defect": known, "failed": failed,
            "failed_ratio": {"value": (known + failed) / attempted,
                             "unit": "ratio"},
            "digest_sha256": digest,
            "digest_ops": min(DIGEST_OPS, attempted),
            "setup_samples_s": setup,
            "checker_self_test": problems or "pass",
            "environment": environment(),
            "failures": failures[:5],
        }
        if tracer is not None:
            details["spans_file"] = os.path.relpath(spans, ROOT)
        print(json.dumps(details))
        print(json.dumps({"correct": failed == 0 and not problems,
                          "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
