#!/usr/bin/env python3
"""In-process A/B of two revisions, op by op.

    python3 tools/ab_ops.py --parent REV --work DIR --workload W \
        [--seeds FIRST-LAST] [--repeat N]

The parent revision and the working tree (its tracked and staged files,
through ``git stash create``; HEAD when it is clean) are exported with
``git archive`` into ``DIR/parent`` and ``DIR/change``, as
``tools/pair_bench.py`` does.  Each side's ``src/quasiconv`` is imported in
this one process under its own package name, so that the two run on the same
core at the same CPU speed: separate launches of one tree can differ by 2x
on a shared host.

The ops are the first round of ``perfbench/workloads.py`` (the parent's copy,
read-only) for each seed, drawn as ``perfbench/run.py`` draws them.  Every op
runs once per side untimed, then ``--repeat`` times per side, the two sides
one after the other, alternating which runs first.  An op whose exit code
differs between the sides, or from the one its workload expects, is reported
and left out of the timings.

Prints one JSON object: per side the median and 90th-percentile op time and
the median round wall (the sum of one repetition's op times), and the
change-over-parent time ratio of each op run, paired with the other side's
run next to it, as its median and inclusive quartiles, over all ops and per
op label, so that a change shows where its saving sits.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pair_bench import _git, _seeds, export, quartiles  # noqa: E402

SIDES = ("parent", "change")


def load_package(src: Path, name: str) -> ModuleType:
    """Import the package whose ``__init__.py`` is in ``src`` as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workloads(checkout: Path) -> ModuleType:
    """``checkout``'s ``perfbench/workloads.py``, imported without running
    anything else of the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", checkout / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run_op(cli: ModuleType, argv: tuple) -> tuple[object, float]:
    """One ``cli.main`` call with its output dropped; (exit code, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is an exit code the sides compare
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return rc, seconds


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _ratio_summary(ratios: list[float]) -> dict:
    q1, median, q3 = quartiles(ratios)
    return {"median": median, "q1": q1, "q3": q3, "pairs": len(ratios)}


def summarize(times: dict[str, list[list[float]]], labels: list[str]) -> dict:
    """``times[side][r][i]`` is op i's seconds in repetition r of that side;
    repetition r of op i ran on both sides one after the other.  ``labels[i]``
    is op i's label: the per-op ratios are also summarized per label."""
    out: dict = {}
    for side in SIDES:
        runs = [s for rep in times[side] for s in rep]
        out[side] = {
            "op_p50_s": statistics.median(runs),
            "op_p90_s": _p90(runs),
            "round_wall_s": statistics.median(sum(rep) for rep in times[side]),
        }
    by_label: dict[str, list[float]] = {}
    for p_rep, c_rep in zip(times["parent"], times["change"]):
        for label, p, c in zip(labels, p_rep, c_rep):
            by_label.setdefault(label, []).append(c / p)
    out["op_ratio"] = _ratio_summary([r for ratios in by_label.values() for r in ratios])
    out["op_ratio_by_label"] = {
        label: _ratio_summary(ratios) for label, ratios in sorted(by_label.items())
    }
    return out


def expected_rc(op) -> int:
    return 0 if op.expect_pass else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--work", type=Path, required=True, help="empty directory for checkouts")
    ap.add_argument("--workload", required=True, choices=("screen", "verify", "catalog"))
    ap.add_argument("--seeds", default="1-2", metavar="FIRST-LAST")
    ap.add_argument("--repeat", type=int, default=3, help="timed runs per op and side")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error(f"--repeat must be at least 1, got {args.repeat}")
    _, seeds = _seeds(f"{args.workload}={args.seeds}")

    checkouts = {side: args.work / side for side in SIDES}
    commits = {
        "parent": export(args.parent, checkouts["parent"]),
        "change": export(_git("stash", "create") or "HEAD", checkouts["change"]),
    }
    for side in SIDES:
        load_package(checkouts[side] / "src" / "quasiconv", f"quasiconv_{side}")
    clis = {side: importlib.import_module(f"quasiconv_{side}.cli") for side in SIDES}
    workloads = load_workloads(checkouts["parent"])
    ops = [
        op
        for seed in seeds
        for op in workloads.ROUNDS[args.workload](random.Random(f"{args.workload}:{seed}"))
    ]

    kept, left_out = [], []
    for op in ops:
        rcs = {side: run_op(clis[side], op.argv)[0] for side in SIDES}
        if rcs["parent"] == rcs["change"] == expected_rc(op):
            kept.append(op)
        else:
            left_out.append({"label": op.label, "argv": list(op.argv),
                             "expected": expected_rc(op), **rcs})
    if not kept:
        sys.exit(f"error: every op was left out: {json.dumps(left_out)}")

    times: dict[str, list[list[float]]] = {side: [] for side in SIDES}
    for r in range(args.repeat):
        for side in SIDES:
            times[side].append([])
        for i, op in enumerate(kept):
            for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                times[side][r].append(run_op(clis[side], op.argv)[1])
        print(f"repetition {r + 1}/{args.repeat} done", file=sys.stderr, flush=True)

    record = {
        "workload": args.workload,
        "seeds": seeds,
        "repeat": args.repeat,
        "ops": len(kept),
        "commits": {side: commit[:7] for side, commit in commits.items()},
        **summarize(times, [op.label for op in kept]),
        "left_out": left_out,
    }
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
