#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, summarised as ``BENCH_<n>.json``.

    python3 tools/pair_bench.py --parent REV --work DIR --out BENCH_14.json \
        --pairs screen=41-50 --pairs catalog=41-45 --pairs verify=41-45 \
        [--traced screen=51] [--setup-launches 40] [--describe TEXT]

The parent revision and the working tree (its tracked and staged files,
through ``git stash create``; HEAD when it is clean) are exported with ``git
archive`` into ``DIR/parent/repo`` and ``DIR/change/repo``: both checkouts
have the same directory name, since run times follow it.

For every workload and seed, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs unchanged once in each checkout, T being
``run_seconds`` of ``BENCHMARK.json``, one run after another, the parent
first on even seeds.  Bytecode caches are removed before each run and
``PYTHONDONTWRITEBYTECODE=1`` is set, so every launch compiles the sources.
``--traced`` adds one ``--trace 1`` run per side.  ``--setup-launches N``
adds N launches per side of the set-up probe that ``perfbench/run.py``
times for ``setup_s`` (its ``READY`` program: a fresh interpreter importing
the CLI, then the small reference kernel), alternating between the sides,
the parent first in even launches; it compares their seconds and their
seconds scaled to the reference kernel's quiet time, as ``setup_s`` is.

The output holds, per workload and end-to-end metric, each side's runs,
median and inclusive quartiles, the pairs in which the change is better and
worse, the ratio of the medians, and the gap between the medians over the
parent's interquartile range (positive when the change is better).  The ops
each run attempted are summarised the same way, more counting as better,
so that each run's ``peak_rss_mb`` can be read against its op count.  It is
rewritten after every pair, so an interrupted session keeps the pairs done.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``runs``, inclusive method."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` ran on
    the same seed, one after the other."""
    if len(parent) != len(change):
        raise ValueError("runs must come in pairs")
    sign = 1.0 if better == "lower" else -1.0
    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        sides[name] = {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}
    n = len(parent)
    gain = [sign * (p - c) for p, c in zip(parent, change)]
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    gap = sign * (sides["parent"]["median"] - sides["change"]["median"])
    return {
        **sides,
        "change_better_in": f"{sum(g > 0 for g in gain)}/{n}",
        "change_worse_in": f"{sum(g < 0 for g in gain)}/{n}",
        "median_ratio": sides["change"]["median"] / sides["parent"]["median"],
        # None when the parent's runs have no spread to measure against
        "median_gap_over_parent_iqr": gap / iqr if iqr > 0 else None,
    }


def summarize(results: dict, metrics: list[dict]) -> dict:
    """The ``end_to_end`` section: ``results`` maps a workload to its seeds
    and each side's run records, the last stdout line of ``run.py``;
    ``metrics`` is ``BENCHMARK.json``'s ``end_to_end`` list."""
    out = {}
    for workload, res in results.items():
        runs = {side: res[side] for side in ("parent", "change")}
        entry: dict = {"seeds": list(res["seeds"])}
        for metric in metrics:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in records]
                for side, records in runs.items()
            }
            entry[name] = {
                "unit": metric["unit"],
                **compare(values["parent"], values["change"], metric["better"]),
            }
        ops ={side: [r["attempted"] for r in records] for side, records in runs.items()}
        entry["ops_attempted"] = {
            "unit": "count", **compare(ops["parent"], ops["change"], "higher")
        }
        entry["all_correct"] = all(r["correct"] for records in runs.values() for r in records)
        entry["failed"] = {side: sum(r["failed"] for r in records) for side, records in runs.items()}
        out[workload] = entry
    return out


def probe_seconds(started: float, stdout: str, quiet: float) -> tuple[float, float]:
    """(seconds, scaled seconds) of one launch of the set-up probe, begun at
    ``started`` on ``perf_counter``'s clock, from its output: the moment it
    was ready and its reference kernel's time, whose quiet-core time is
    ``quiet``.  This is ``perfbench/run.py``'s ``setup_seconds`` arithmetic."""
    ready, kernel = map(float, stdout.split())
    return ready - started, (ready - started) * quiet / kernel


def summarize_launches(parent: list[tuple], change: list[tuple]) -> dict:
    """The ``setup_launches`` section: launch i of each side ran one after
    the other; each launch is (seconds, scaled seconds)."""
    return {
        "launches": len(parent),
        "seconds": compare([s for s, _ in parent], [s for s, _ in change]),
        "scaled_s": compare([s for _, s in parent], [s for _, s in change]),
    }


def set_up_probe(checkout: Path) -> tuple[str, float]:
    """``checkout``'s set-up probe program and its kernel's quiet time."""
    spec = importlib.util.spec_from_file_location("bench_run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.READY, run.KERNELS["small"][2]


def launch_probe(checkout: Path, program: str, quiet: float) -> tuple[float, float]:
    """One launch of the set-up probe ``program`` in ``checkout`` from
    freshly compiled sources; returns ``probe_seconds``."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", program], cwd=checkout, env=env,
                           check=True, capture_output=True, text=True)
    return probe_seconds(started, child.stdout, quiet)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` to ``dest``, which must not exist yet;
    returns the commit exported."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(
        ["git", "archive", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout`` from freshly compiled
    sources; returns its result line."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _seeds(spec: str) -> tuple[str, list[int]]:
    workload, _, span = spec.partition("=")
    first, _, last = span.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pairs", action="append", required=True, type=_seeds,
                    metavar="WORKLOAD=FIRST-LAST", help="seeds of the paired runs")
    ap.add_argument("--traced", action="append", default=[], type=_seeds,
                    metavar="WORKLOAD=SEED", help="one --trace 1 run per side")
    ap.add_argument("--setup-launches", type=int, default=0, metavar="N",
                    help="alternating launches of the set-up probe per side")
    ap.add_argument("--work", type=Path, required=True, help="empty directory for checkouts")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--describe", default="", help="what the change does")
    args = ap.parse_args()

    checkouts = {side: args.work / side / "repo" for side in ("parent", "change")}
    parent = export(args.parent, checkouts["parent"])
    export(_git("stash", "create") or "HEAD", checkouts["change"])
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record: dict = {
        "change": args.describe,
        "parent_commit": parent[:7],
        "machine": None,
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
            "--trace 0, one parent and one change run per seed, the parent first on even "
            "seeds; "
            + "; ".join(f"{w} seeds {s[0]}-{s[-1]}" for w, s in args.pairs)
            + "; both checkouts in directories named repo, bytecode caches removed before "
            "each run (PYTHONDONTWRITEBYTECODE=1, so every launch compiles); runs one after "
            "another; medians and quartiles (inclusive) over each side's runs"
        ),
        "end_to_end": {},
    }
    results: dict = {}

    def write() -> None:
        record["end_to_end"] = summarize(results, bench["end_to_end"])
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload, seeds in args.pairs:
        results[workload] = res = {"seeds": [], "parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            pair = {side: run_once(checkouts[side], workload, seed, seconds, 0)
                    for side in order}
            if record["machine"] is None:
                out = checkouts["change"] / "perfbench" / "out"
                record["machine"] = json.loads(
                    (out / f"{workload}-seed{seed}-trace0.json").read_text()
                )["machine"]
            res["seeds"].append(seed)
            for side in ("parent", "change"):
                res[side].append(pair[side])
            write()
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.4g}"
                for side in ("parent", "change")), flush=True)
    for workload, (seed, *_) in args.traced:
        traced = record.setdefault("traced_counts_per_round", {})
        traced[workload] = {"command": f"python3 perfbench/run.py --workload {workload} "
                                       f"--seed {seed} --seconds {seconds} --trace 1"}
        for side in ("parent", "change"):
            metrics = run_once(checkouts[side], workload, seed, seconds, 1)["metrics"]
            traced[workload][side] = {name: m["value"] for name, m in metrics.items()}
        write()
    launches: dict = {"parent": [], "change": []}
    probes = {side: set_up_probe(checkouts[side]) for side in launches}
    for i in range(args.setup_launches):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            launches[side].append(launch_probe(checkouts[side], *probes[side]))
        record["setup_launches"] = {
            "command": "python3 -c READY (perfbench/run.py) in each checkout, sides "
                       "alternating, the parent first in even launches",
            **summarize_launches(launches["parent"], launches["change"]),
        }
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
