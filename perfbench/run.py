"""quasiconv benchmark: seeded workloads driven through ``quasiconv.cli.main``.

    python3 perfbench/run.py --workload {screen,verify,catalog} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One caller runs one op at a time (a closed loop of concurrency 1)
in this process.  Ops come in rounds: each round is a fresh op list drawn
from the seed, and rounds repeat while another one still fits in
``--seconds``.  Every op's exit code and JSON record are checked after the
round, outside the timed region.

Times are reported at a reference CPU speed.  The CPU speed a process sees on
a shared host drifts by up to 1.8x for minutes at a time, so a fixed
reference kernel (``KERNELS``) that slows like the op is timed before and
after it, and by every set-up launch, and each measured time is scaled by
the kernel's quiet-core time over its time around the measurement.  Ops
that the drift hardly slows have no kernel and stay as measured.  The
unscaled times are printed too, and written to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each round
twice, untraced and then traced (see ``layers.py``), and reports per-layer
metrics per round plus the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details (sample
counts, machine, failures) go to the lines before it and to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_LAUNCHES = 5  # before the rounds, and again after them
# Reference kernels: (lanes, passes, seconds on a quiet core of the 2 GHz
# Xeon with AVX512_SPR that the benchmark was tuned on).  Each op names the
# one that slows like it does (workloads.Op.kernel): the drift slows
# interpreted code and small arrays by up to 1.75x, passes over arrays of
# millions of lanes by about 1.2x.
KERNELS = {"small": (64, 100, 5e-4), "large": (1 << 23, 1, 7.5e-2)}
READY = (
    "import sys, time; sys.path.insert(0, 'src'); from quasiconv import cli; cli.build_parser(); "
    "ready = time.perf_counter(); sys.path.insert(0, 'perfbench'); from run import reference_kernel; "
    "reference_kernel('small'); print(ready, reference_kernel('small'))"
)


def _load_program():
    if not (SRC / "quasiconv" / "cli.py").is_file():
        sys.exit(f"error: no quasiconv sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import quasiconv

    if Path(quasiconv.__file__).resolve().parent != SRC / "quasiconv":
        sys.exit(f"error: imported quasiconv from {quasiconv.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": enabled[-1] if enabled else "baseline",
        "machine": platform.machine(),
    }


def reference_kernel(kind: str) -> float:
    """Seconds taken by a fixed piece of work: arithmetic on numpy arrays,
    reductions to Python floats and plain Python arithmetic.  Its arrays are
    freed on return, so that they do not add to ``peak_rss_mb``."""
    import numpy as np

    lanes, passes, _ = KERNELS[kind]
    x = np.linspace(-1.0, 1.0, lanes)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(passes):
        acc += float((np.abs(x - i * 0.01) + x * x).sum())
        for j in range(10):
            acc += j * 0.5
    return time.perf_counter() - t0


def setup_seconds() -> list[tuple[float, float]]:
    """(seconds, scaled seconds) of fresh interpreters importing the CLI,
    ready to parse.  Each child then times the reference kernel, and reports
    the moment it was ready on ``perf_counter``'s clock, which on Linux is
    the system-wide monotonic clock."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", READY], cwd=ROOT, check=True,
                               capture_output=True, text=True)
        ready, kernel = map(float, child.stdout.split())
        times.append((ready - t0, (ready - t0) * KERNELS["small"][2] / kernel))
    return times


def run_op(op) -> tuple[object, str]:
    """One CLI call; returns (exit code, stdout)."""
    from quasiconv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a dead benchmark
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def run_pass(ops, tracer=None) -> list[tuple]:
    """Run a round's ops in order, each with its reference kernel timed just
    before and just after it (an op that follows one with the same kernel
    reuses that op's after-time).  Returns (op, rc, stdout, seconds, scaled
    seconds) rows: an op's seconds scaled by the kernel's quiet-core time
    over the mean of the kernel times on either side, or left as they are
    for an op without a kernel."""
    rows = []
    kind, after = None, 0.0
    for op in ops:
        if op.kernel is not None and op.kernel != kind:
            after = reference_kernel(op.kernel)
        kind, before = op.kernel, after
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        rc, stdout = run_op(op)
        seconds = time.perf_counter() - t0
        scaled = seconds
        if kind is not None:
            after = reference_kernel(kind)
            scaled = seconds * KERNELS[kind][2] / ((before + after) / 2)
        rows.append((op, rc, stdout, seconds, scaled))
    return rows


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("screen", "verify", "catalog"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    _load_program()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    import checks
    import workloads
    from layers import Tracer, layer_metrics

    info = machine_info()
    setup = [] if args.trace else setup_seconds()
    rng = random.Random(f"{args.workload}:{args.seed}")
    make_round = workloads.ROUNDS[args.workload]
    # Untimed warm-up with the last (a short) op of a round: first calls into
    # numpy and the CLI, and first large allocations, whose memory later ops
    # reuse.  Then the first run of each kernel the ops use.
    warm_up = make_round(random.Random(f"{args.workload}:warm-up"))
    run_op(warm_up[-1])
    for kind in {op.kernel for op in warm_up} - {None}:
        reference_kernel(kind)

    tracer = Tracer() if args.trace else None
    walls, traced_walls, timed_rows = [], [], []
    attempted, failures, passed, screened = 0, [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = make_round(rng)
        passes = [run_pass(ops)]
        if tracer is not None:
            with tracer:
                passes.append(run_pass(ops, tracer))
        cycle_s = time.perf_counter() - t0
        walls.append(sum(row[4] for row in passes[0]))
        timed_rows += passes[0]
        if tracer is not None:
            traced_walls.append(sum(row[4] for row in passes[1]))
        for traced, rows in enumerate(passes):
            for op, rc, stdout, seconds, _ in rows:
                attempted += 1
                found = checks.problems(op, rc, stdout)
                if found:
                    failures.append({"argv": op.argv, "rc": rc, "problems": found})
                    continue
                passed.append((op, rc, stdout))
                if op.kind == "check" and not traced:
                    screened.append((json.loads(stdout)["outcome"]["samples"], seconds))
        # Stop before a round that would not end within --seconds.
        if time.perf_counter() - start + cycle_s > args.seconds:
            break
    if not args.trace:
        setup += setup_seconds()

    rejected = checks.self_check(passed)
    self_check_ok = bool(rejected) and all(rejected.values())

    if args.trace:
        metrics = layer_metrics(tracer.totals(), len(traced_walls))
        base = statistics.median(walls)
        overhead = statistics.median(traced_walls) - base
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / base
        metrics["trace.spans"] = len(tracer.spans) / len(traced_walls)
        samples = {"rounds": len(traced_walls)}
        unscaled = {}
    else:
        latencies = [row[4] for row in timed_rows]
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": statistics.mean(walls),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": _p90(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": len(setup), "wall_s": len(walls), "op_p50_s": len(latencies),
                   "op_p90_s": len(latencies), "peak_rss_mb": 1}
        raw = [row[3] for row in timed_rows]
        unscaled = {
            "setup_s": statistics.median(seconds for seconds, _ in setup),
            "wall_s": sum(raw) / len(walls),
            "op_p50_s": statistics.median(raw),
            "op_p90_s": _p90(raw),
        }

    check_seconds = sum(sec for _, sec in screened)
    failed = len(failures)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": info, "samples": samples, "metrics": metrics,
        "candidates_per_s": sum(n for n, _ in screened) / check_seconds if screened else 0.0,
        "fail_share": failed / attempted,
        "self_check": rejected, "failures": failures,
        "unscaled": unscaled,
        "ops": [[op.label, rc, sec, scaled] for op, rc, _, sec, scaled in timed_rows],
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1))
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.json"))

    print(f"machine: {json.dumps(info)}")
    for name, value in metrics.items():
        count = samples.get(name, samples.get("rounds"))
        print(f"{name} = {value:.6g} {unit_of[name]} (n={count})")
    for name, value in unscaled.items():
        print(f"unscaled {name} = {value:.6g} {unit_of[name]}")
    if not args.trace:
        print(f"candidates_per_s = {summary['candidates_per_s']:.6g} 1/s")
    print(f"fail_share = {summary['fail_share']:.6g} ({failed}/{attempted})")
    print(f"self_check: {json.dumps(rejected)}")
    for failure in failures[:5]:
        print(f"FAILED: {json.dumps(failure)[:400]}")
    print(json.dumps({
        "correct": failed == 0 and self_check_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
