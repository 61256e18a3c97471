"""Layer trace taken from outside the program.

While installed, a :class:`Tracer` replaces the module-level bindings that
callers actually use (``from .x import f`` copies a binding, so each caller's
copy is wrapped) and ``Expr.__call__`` at class level.  Each wrapped call
records a span (name, start, end, parent, op) in memory, plus counts read off
its arguments and result.  Self time is a span's duration minus the time its
direct child spans cover, so unwrapped code counts to the innermost wrapped
call around it: the chord-correction integrand that ``inequalities`` hands to
``integrate_1d``, for one, counts to ``quadrature``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from quasiconv import classifiers, cli, expressions, inclusions, inequalities, quadrature


def _lanes(counts, args, result):
    counts["lanes"] += np.size(args[1])


def _verdict(counts, args, result):
    counts["candidates"] += result.samples
    counts["violated"] += result.violated


def _quad(counts, args, result):
    counts["subdivisions"] += result.subdivisions
    counts["unconverged"] += not result.converged


def _trials(counts, args, result):
    counts["trials"] += result.trials_run


# (module, attribute, span name, count hook)
_TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "parse", "expressions.parse", None),
    (inclusions, "parse", "expressions.parse", None),
    (classifiers, "eval_array", "expressions.eval_array", _lanes),
    (quadrature, "eval_array", "expressions.eval_array", _lanes),
    (expressions.Expr, "__call__", "expressions.scalar", None),
    (classifiers, "restrict", "expressions.restrict", None),
    (inequalities, "restrict", "expressions.restrict", None),
    (inclusions, "restrict", "expressions.restrict", None),
    (inequalities, "chord_substitution", "expressions.restrict", None),
    (cli, "check_membership", "classifiers.check", _verdict),
    (inclusions, "check_membership", "classifiers.check", _verdict),
    (classifiers, "make_witness", "classifiers.make_witness", None),
    (inclusions, "defining_inequality", "classifiers.defining_inequality", None),
    (quadrature, "integrate_1d", "quadrature.integrate_1d", _quad),
    (inequalities, "integrate_1d", "quadrature.integrate_1d", _quad),
    (inequalities, "integrate_2d", "quadrature.integrate_2d", _quad),
    (inequalities, "integrate_abs_difference", "quadrature.abs_difference", None),
    (cli, "search_separation", "inclusions.search", _trials),
    (cli, "validate_gallery", "inclusions.validate_gallery", None),
    (cli, "load_gallery", "inclusions.load_gallery", None),
)


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent, op, start, end]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name_id, stack[-1] if stack else -1, self.op, clock(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            counts["calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hook in _TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        table = dict(cli._INEQUALITIES)
        self._saved.append((cli, "_INEQUALITIES", cli._INEQUALITIES))
        cli._INEQUALITIES = {
            key: (self._wrap(fn, "inequalities.report", None), arity)
            for key, (fn, arity) in table.items()
        }
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and counts."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for sid, (name_id, _, _, start, end) in enumerate(self.spans):
            out[self.names[name_id]]["self_s"] += end - start - child[sid]
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns": ["name", "parent", "op", "start", "end"],
                       "spans": self.spans}, fh)


def layer_metrics(totals: dict[str, dict[str, float]], rounds: int) -> dict[str, float]:
    """Per-layer metrics, per traced round of the workload."""

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def layer_self(prefix: str) -> float:
        return sum(row["self_s"] for name, row in totals.items() if name.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ev = "expressions.eval_array"
    lanes, ev_s = get(ev, "lanes"), get(ev, "self_s")
    cls_self = layer_self("classifiers.")
    candidates = get("classifiers.check", "candidates")
    attempts = get("classifiers.make_witness", "calls")
    q1, q2 = "quadrature.integrate_1d", "quadrature.integrate_2d"
    per_round = {
        "expressions.eval_array.calls": get(ev, "calls"),
        "expressions.eval_array.lanes": lanes,
        "expressions.eval_array.s": ev_s,
        "expressions.scalar.calls": get("expressions.scalar", "calls"),
        "expressions.scalar.s": get("expressions.scalar", "self_s"),
        "expressions.restrict.calls": get("expressions.restrict", "calls"),
        "expressions.restrict.s": get("expressions.restrict", "self_s"),
        "expressions.parse.calls": get("expressions.parse", "calls"),
        "expressions.parse.s": get("expressions.parse", "self_s"),
        "classifiers.checks": get("classifiers.check", "calls"),
        "classifiers.candidates": candidates,
        "classifiers.self_s": cls_self,
        "classifiers.witness.attempts": attempts,
        "quadrature.self_s": layer_self("quadrature."),
        "quadrature.integrate_1d.calls": get(q1, "calls"),
        "quadrature.integrate_2d.calls": get(q2, "calls"),
        "quadrature.abs_difference.calls": get("quadrature.abs_difference", "calls"),
        "quadrature.subdivisions": get(q1, "subdivisions") + get(q2, "subdivisions"),
        "quadrature.unconverged": get(q1, "unconverged") + get(q2, "unconverged"),
        "inequalities.reports": get("inequalities.report", "calls"),
        "inequalities.self_s": layer_self("inequalities."),
        "inclusions.self_s": layer_self("inclusions."),
        "inclusions.search.trials": get("inclusions.search", "trials"),
        "cli.self_s": layer_self("cli."),
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    metrics["expressions.eval_array.ns_per_lane"] = 1e9 * ratio(ev_s, lanes)
    metrics["expressions.eval_array.lanes_per_call"] = ratio(lanes, get(ev, "calls"))
    metrics["classifiers.ns_per_candidate"] = 1e9 * ratio(cls_self, candidates)
    metrics["classifiers.witness.yield"] = ratio(get("classifiers.check", "violated"), attempts)
    return metrics
