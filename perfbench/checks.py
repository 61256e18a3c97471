"""Output checks for benchmark ops, and the harness's check of itself.

Every check runs after an op has finished, outside the timed region, and
re-derives what the output must show from the op's inputs: the exit code for
the status known by construction, the candidate count implied by the budget,
and each witness re-evaluated through ``defining_inequality``.
"""

from __future__ import annotations

import copy
import json
import struct

from quasiconv.classifiers import (
    COORD_TO_1D,
    ClassId,
    defining_inequality,
    violation_tolerance,
)
from quasiconv.expressions import Axis, parse, restrict

from workloads import SEARCH_BUDGET, class_kind


def expected_samples(class_id: str, budget: tuple[int, int, int]) -> int:
    """Candidates a check examines: every ordered pair of distinct grid
    points times the parameter grid, plus the Halton batch; a co-ordinate
    class runs its 1D check on ``slices`` slices per axis."""
    n, m, slices = budget
    kind = class_kind(class_id)
    if class_id.startswith("Coord"):
        return 2 * slices * expected_samples(f"{kind}1", budget)
    arity = 1 if class_id.endswith("1") else 2
    nparams = {"C": 1, "QC": 1, "WQC": 1, "W": 2 if arity == 2 else 1}.get(kind, 0)
    points = n ** arity
    k = n ** nparams
    return points * points * k - points * k + m


def witness_problems(w: dict, expr: str, class_id: str) -> list[str]:
    """A witness must re-evaluate to its recorded sides and clear the
    violation tolerance."""
    claim = ClassId.from_name(class_id)
    wclass = ClassId.from_name(w["class_id"])
    if claim.is_coordinate:
        if wclass is not COORD_TO_1D[claim] or w["frozen_axis"] not in ("x", "y"):
            return [f"witness class {w['class_id']} does not certify {class_id}"]
        f = restrict(parse(expr, 2), Axis(w["frozen_axis"]), float(w["frozen_value"]))
    else:
        if wclass is not claim:
            return [f"witness class {w['class_id']} is not {class_id}"]
        f = parse(expr, claim.arity)
    lhs, rhs = defining_inequality(wclass, f, w["p1"], w["p2"], w["params"])
    problems = []
    if lhs != w["lhs"] or rhs != w["rhs"]:
        problems.append(
            f"witness re-evaluates to lhs={lhs!r}, rhs={rhs!r},"
            f" recorded lhs={w['lhs']!r}, rhs={w['rhs']!r}"
        )
    if not lhs - rhs > violation_tolerance(lhs, rhs):
        problems.append(f"witness margin {lhs - rhs!r} does not clear the tolerance")
    return problems


def problems(op, rc, stdout: str) -> list[str]:
    """Everything wrong with one op's exit code and run record."""
    want_rc = 0 if op.expect_pass else 1
    found = [] if rc == want_rc else [f"exit code {rc}, expected {want_rc}"]
    try:
        return found + _outcome_problems(op, json.loads(stdout)["outcome"])
    except (ValueError, KeyError, TypeError, ArithmeticError) as err:
        return found + [f"malformed JSON run record: {type(err).__name__}: {err}"]


def _outcome_problems(op, out: dict) -> list[str]:
    if op.kind == "check":
        want = "no_violation_found" if op.expect_pass else "violated"
        found = [] if out["status"] == want else [f"status {out['status']}, expected {want}"]
        samples = expected_samples(op.class_id, op.budget)
        if out["samples"] != samples:
            found.append(f"samples {out['samples']}, expected {samples}")
        if out["status"] == "violated":
            found += witness_problems(out["witness"], op.expr, op.class_id)
        return found
    if op.kind == "verify":
        consistent = all(out["holds"]) and all(s["holds"] for s in out["side_inequalities"])
        found = [] if out["all_hold"] == consistent else ["all_hold disagrees with the links"]
        if out["all_hold"] != op.expect_pass:
            found.append(f"all_hold {out['all_hold']}, expected {op.expect_pass}")
        return found
    if op.kind == "gallery":
        ok = out["all_ok"] and out["claims_ok"] == out["claims_checked"] > 0
        return [] if ok else [f"gallery not clean: {out}"]
    if op.kind == "search":
        if not out["found"]:
            return [f"search exhausted after {out['trials_run']} trials"]
        found = []
        v_in = out["verdict_in"]
        if v_in["status"] != "no_violation_found":
            found.append(f"in-class verdict {v_in['status']}")
        samples = expected_samples("QC2", SEARCH_BUDGET)
        if v_in["samples"] != samples:
            found.append(f"in-class samples {v_in['samples']}, expected {samples}")
        return found + witness_problems(out["witness_not_in"], out["expr"], op.class_id)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _flip_last_bit(v: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", v))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def self_check(results) -> dict[str, bool]:
    """Tamper with correct outputs and report whether each check rejects them.

    ``results`` holds (op, rc, stdout) triples that passed their checks.
    Returns {tampering: rejected} for each tampering these ops allow.
    """
    rejected: dict[str, bool] = {}
    for op, rc, stdout in results:
        record = json.loads(stdout)
        out = record["outcome"]
        if "wrong exit code" not in rejected:
            rejected["wrong exit code"] = bool(problems(op, 1 - rc, stdout))
        if op.kind == "check" and "wrong samples count" not in rejected:
            bad = copy.deepcopy(record)
            bad["outcome"]["samples"] += 1
            rejected["wrong samples count"] = bool(problems(op, rc, json.dumps(bad)))
        if op.kind == "check" and out["status"] == "violated" and "flipped witness bit" not in rejected:
            bad = copy.deepcopy(record)
            bad["outcome"]["witness"]["lhs"] = _flip_last_bit(out["witness"]["lhs"])
            rejected["flipped witness bit"] = bool(problems(op, rc, json.dumps(bad)))
        if op.kind == "verify" and "flipped all_hold" not in rejected:
            bad = copy.deepcopy(record)
            bad["outcome"]["all_hold"] = not out["all_hold"]
            rejected["flipped all_hold"] = bool(problems(op, rc, json.dumps(bad)))
    return rejected
