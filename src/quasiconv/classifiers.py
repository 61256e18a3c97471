"""Falsification-based membership tests for convexity-type function classes.

Each class is defined by a single inequality template over a pair of points
and, for some classes, a mixing parameter.  ``check_membership`` enumerates a
deterministic tensor grid plus a Halton low-discrepancy batch of candidates,
screens them with vectorised evaluation, and returns either a concrete
:class:`Witness` of violation or ``NoViolationFound`` at the stated
resolution.  Sampling can refute membership but never prove it.

Witnesses are sound by construction: their sides are produced by the same
scalar evaluation path ``defining_inequality`` uses, so re-evaluation
reproduces them bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .domains import Box2, Interval
from .expressions import Axis, DomainError, Expr, eval_array, restrict

__all__ = [
    "ClassId",
    "NotApplicableError",
    "SearchBudget",
    "Verdict",
    "Witness",
    "check_membership",
    "coordinate_check",
    "defining_inequality",
    "lift_witness",
    "make_witness",
    "strengthen_witness",
    "violation_tolerance",
]


class ClassId(Enum):
    """Every testable class: 1D, 2D global, and co-ordinate-wise 2D."""

    C1 = "C1"
    J1 = "J1"
    W1 = "W1"
    QC1 = "QC1"
    JQC1 = "JQC1"
    WQC1 = "WQC1"
    C2 = "C2"
    J2 = "J2"
    W2 = "W2"
    QC2 = "QC2"
    JQC2 = "JQC2"
    WQC2 = "WQC2"
    # variant of W2 quantified over componentwise-ordered pairs only
    W2_ORDERED = "W2-ordered"
    COORD_C2 = "CoordC2"
    COORD_J2 = "CoordJ2"
    COORD_W2 = "CoordW2"
    COORD_QC2 = "CoordQC2"
    COORD_JQC2 = "CoordJQC2"
    COORD_WQC2 = "CoordWQC2"

    @classmethod
    def from_name(cls, name: str) -> "ClassId":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown class id {name!r}")

    @property
    def kind(self) -> str:
        return _META[self][0]

    @property
    def arity(self) -> int:
        return _META[self][1]

    @property
    def is_coordinate(self) -> bool:
        return _META[self][2]

    @property
    def param_names(self) -> tuple[str, ...]:
        kind, arity, coord = _META[self]
        if kind in ("C", "QC"):
            return ("lam",)
        if kind == "WQC":
            return ("t",)
        if kind == "W":
            return ("t", "s") if arity == 2 and not coord else ("t",)
        return ()


_META: dict[ClassId, tuple[str, int, bool]] = {
    ClassId.C1: ("C", 1, False),
    ClassId.J1: ("J", 1, False),
    ClassId.W1: ("W", 1, False),
    ClassId.QC1: ("QC", 1, False),
    ClassId.JQC1: ("JQC", 1, False),
    ClassId.WQC1: ("WQC", 1, False),
    ClassId.C2: ("C", 2, False),
    ClassId.J2: ("J", 2, False),
    ClassId.W2: ("W", 2, False),
    ClassId.QC2: ("QC", 2, False),
    ClassId.JQC2: ("JQC", 2, False),
    ClassId.WQC2: ("WQC", 2, False),
    ClassId.W2_ORDERED: ("W", 2, False),
    ClassId.COORD_C2: ("C", 2, True),
    ClassId.COORD_J2: ("J", 2, True),
    ClassId.COORD_W2: ("W", 2, True),
    ClassId.COORD_QC2: ("QC", 2, True),
    ClassId.COORD_JQC2: ("JQC", 2, True),
    ClassId.COORD_WQC2: ("WQC", 2, True),
}

COORD_TO_1D: dict[ClassId, ClassId] = {
    ClassId.COORD_C2: ClassId.C1,
    ClassId.COORD_J2: ClassId.J1,
    ClassId.COORD_W2: ClassId.W1,
    ClassId.COORD_QC2: ClassId.QC1,
    ClassId.COORD_JQC2: ClassId.JQC1,
    ClassId.COORD_WQC2: ClassId.WQC1,
}

GLOBAL_2D_TO_1D: dict[ClassId, ClassId] = {
    ClassId.C2: ClassId.C1,
    ClassId.J2: ClassId.J1,
    ClassId.W2: ClassId.W1,
    ClassId.QC2: ClassId.QC1,
    ClassId.JQC2: ClassId.JQC1,
    ClassId.WQC2: ClassId.WQC1,
}

LIFT_1D_TO_2D: dict[ClassId, ClassId] = {v: k for k, v in GLOBAL_2D_TO_1D.items()}


class NotApplicableError(ValueError):
    """The requested witness transformation does not exist for this class."""


def violation_tolerance(lhs: float, rhs: float) -> float:
    """Soundness boundary separating genuine violations from float noise."""
    return 1e-9 * max(1.0, abs(lhs), abs(rhs))


@dataclass(frozen=True)
class Witness:
    """A concrete violation of a class's defining inequality.

    Re-evaluating :func:`defining_inequality` at the stored points and
    parameters reproduces ``lhs`` and ``rhs`` bit-exactly.
    """

    class_id: ClassId
    p1: tuple[float, ...]
    p2: tuple[float, ...]
    params: dict[str, float]
    lhs: float
    rhs: float
    margin: float
    frozen_axis: Optional[str] = None
    frozen_value: Optional[float] = None
    aux: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "class_id": self.class_id.value,
            "p1": list(self.p1),
            "p2": list(self.p2),
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "frozen_axis": self.frozen_axis,
            "frozen_value": self.frozen_value,
        }

    def describe(self) -> str:
        where = ""
        if self.frozen_axis is not None:
            where = f" on slice {self.frozen_axis}={self.frozen_value!r}"
        return (
            f"{self.class_id.value} violated{where}: lhs={self.lhs!r} > rhs={self.rhs!r}"
            f" (margin {self.margin:.6g}) at p1={self.p1}, p2={self.p2}, params={self.params}"
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a membership check.

    ``no_violation_found`` is not a proof of membership; it only says the
    falsifier found nothing at the stated resolution.
    """

    status: str  # "no_violation_found" | "violated" | "undefined"
    witness: Optional[Witness] = None
    resolution: str = ""
    samples: int = 0
    seed: Optional[int] = None
    point: Optional[tuple] = None

    @property
    def violated(self) -> bool:
        return self.status == "violated"

    @property
    def no_violation_found(self) -> bool:
        return self.status == "no_violation_found"

    @property
    def undefined(self) -> bool:
        return self.status == "undefined"

    def describe(self) -> str:
        if self.status == "no_violation_found":
            return (
                f"no violation found at resolution {self.resolution}"
                f" ({self.samples} candidates)"
            )
        if self.status == "violated":
            assert self.witness is not None
            return self.witness.describe()
        return f"function undefined at {self.point}"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "resolution": self.resolution,
            "samples": self.samples,
            "seed": self.seed,
            "point": list(self.point) if self.point else None,
        }


@dataclass(frozen=True)
class SearchBudget:
    """Candidate enumeration sizes for one membership check."""

    grid_n: int = 17
    halton_count: int = 4096
    refine_iters: int = 50
    slices: int = 9

    def __post_init__(self) -> None:
        if self.grid_n < 2 or self.halton_count < 0 or self.slices < 1:
            raise ValueError("degenerate search budget")


# ---------------------------------------------------------------------------
# Defining-inequality templates
#
# All templates share the two mix helpers so that witnesses transported
# between classes (strengthen, lift) re-evaluate bit-exactly.  The degenerate
# short-circuit mix(t, a, a) == a is what lets a slice witness embed in the
# plane without rounding drift.


def _mix_a(t: float, a: float, b: float) -> float:
    if a == b:
        return a
    return t * a + (1.0 - t) * b


def _mix_b(t: float, a: float, b: float) -> float:
    if a == b:
        return a
    return (1.0 - t) * a + t * b


def _as_point(p: Union[float, Sequence[float]], arity: int) -> tuple[float, ...]:
    if isinstance(p, (int, float)):
        pt = (float(p),)
    else:
        pt = tuple(float(v) for v in p)
    if len(pt) != arity:
        raise ValueError(f"expected a {arity}D point, got {pt}")
    return pt


def _scalar_fn(f: Union[Expr, Callable], arity: int) -> Callable[..., float]:
    if isinstance(f, Expr):
        if f.arity != arity:
            raise ValueError(f"function arity {f.arity} does not match {arity}D class")
        return f
    return lambda *pt: float(f(*pt))


def _mix_point(
    mix: Callable[[float, float, float], float],
    tx: float,
    ty: float,
    p1: tuple[float, ...],
    p2: tuple[float, ...],
) -> tuple[float, ...]:
    if len(p1) == 1:
        return (mix(tx, p1[0], p2[0]),)
    return (mix(tx, p1[0], p2[0]), mix(ty, p1[1], p2[1]))


def _template(
    class_id: ClassId,
    f: Union[Expr, Callable],
    p1: Union[float, Sequence[float]],
    p2: Union[float, Sequence[float]],
    params: Optional[dict],
) -> tuple[float, float, dict[str, float]]:
    kind = class_id.kind
    arity = class_id.arity
    if class_id.is_coordinate:
        raise ValueError(
            "co-ordinate classes are checked slice-wise; evaluate the 1D class"
        )
    pt1 = _as_point(p1, arity)
    pt2 = _as_point(p2, arity)
    params = params or {}
    F = _scalar_fn(f, arity)
    f1 = F(*pt1)
    f2 = F(*pt2)
    aux: dict[str, float] = {}
    if kind == "C":
        lam = float(params["lam"])
        lhs = F(*_mix_point(_mix_a, lam, lam, pt1, pt2))
        rhs = lam * f1 + (1.0 - lam) * f2
    elif kind == "J":
        lhs = F(*_mix_point(_mix_a, 0.5, 0.5, pt1, pt2))
        rhs = 0.5 * f1 + 0.5 * f2
    elif kind == "QC":
        lam = float(params["lam"])
        lhs = F(*_mix_point(_mix_a, lam, lam, pt1, pt2))
        rhs = max(f1, f2)
    elif kind == "JQC":
        lhs = F(*_mix_point(_mix_a, 0.5, 0.5, pt1, pt2))
        rhs = max(f1, f2)
    elif kind == "WQC":
        t = float(params["t"])
        term_a = F(*_mix_point(_mix_a, t, t, pt1, pt2))
        term_b = F(*_mix_point(_mix_b, t, t, pt1, pt2))
        lhs = 0.5 * (term_a + term_b)
        rhs = max(f1, f2)
        aux = {"term_a": term_a, "term_b": term_b}
    elif kind == "W":
        t = float(params["t"])
        s = float(params.get("s", t)) if arity == 2 else t
        lhs = F(*_mix_point(_mix_b, t, s, pt1, pt2)) + F(
            *_mix_point(_mix_a, t, s, pt1, pt2)
        )
        rhs = f1 + f2
    else:  # pragma: no cover
        raise AssertionError(kind)
    return lhs, rhs, aux


def defining_inequality(
    class_id: ClassId,
    f: Union[Expr, Callable],
    p1: Union[float, Sequence[float]],
    p2: Union[float, Sequence[float]],
    params: Optional[dict] = None,
) -> tuple[float, float]:
    """Evaluate both sides of the class's defining inequality at one candidate.

    Membership requires ``lhs <= rhs``; a violation has ``lhs - rhs`` above
    :func:`violation_tolerance`.
    """
    lhs, rhs, _ = _template(class_id, f, p1, p2, params)
    return lhs, rhs


def make_witness(
    class_id: ClassId,
    f: Union[Expr, Callable],
    p1: Union[float, Sequence[float]],
    p2: Union[float, Sequence[float]],
    params: Optional[dict] = None,
    frozen_axis: Optional[str] = None,
    frozen_value: Optional[float] = None,
) -> Witness:
    """Build a witness whose sides come from the scalar evaluation path.

    Raises ValueError when the candidate does not actually clear the
    violation tolerance.
    """
    lhs, rhs, aux = _template(class_id, f, p1, p2, params)
    margin = lhs - rhs
    if not margin > violation_tolerance(lhs, rhs):
        raise ValueError(
            f"candidate margin {margin!r} does not clear the violation tolerance"
        )
    arity = class_id.arity
    pdict = {k: float(v) for k, v in (params or {}).items()}
    if class_id.kind == "W" and arity == 1:
        x1, x2 = _as_point(p1, 1)[0], _as_point(p2, 1)[0]
        t = pdict.get("t", 0.0)
        delta = (1.0 - t) * abs(x2 - x1)
        if delta > 0.0:
            pdict["delta"] = delta
    return Witness(
        class_id=class_id,
        p1=_as_point(p1, arity),
        p2=_as_point(p2, arity),
        params=pdict,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        frozen_axis=frozen_axis,
        frozen_value=frozen_value,
        aux=aux,
    )


# ---------------------------------------------------------------------------
# Witness transport


def lift_witness(
    w: Witness, axis: Optional[str] = None, frozen: Optional[float] = None
) -> Witness:
    """Embed a slice witness as a global 2D witness with identical sides.

    A violation of the 1D class on a partial mapping is a violation of the
    matching global class at the pair of 2D points sharing the frozen
    co-ordinate; the mix helpers keep that co-ordinate fixed exactly, so lhs,
    rhs and margin carry over unchanged.
    """
    if w.class_id not in LIFT_1D_TO_2D:
        raise NotApplicableError(f"cannot lift class {w.class_id.value}")
    axis = axis if axis is not None else w.frozen_axis
    frozen = frozen if frozen is not None else w.frozen_value
    if axis is None or frozen is None:
        raise ValueError("lift needs the frozen axis and value")
    axis = axis.value if hasattr(axis, "value") else str(axis)
    if axis not in ("x", "y"):
        raise ValueError(f"unknown axis {axis!r}")
    u1, u2 = w.p1[0], w.p2[0]
    if axis == "y":
        q1, q2 = (u1, frozen), (u2, frozen)
    else:
        q1, q2 = (frozen, u1), (frozen, u2)
    target = LIFT_1D_TO_2D[w.class_id]
    params = {k: v for k, v in w.params.items() if k != "delta"}
    if target.kind == "W":
        params["s"] = params["t"]
    return Witness(
        class_id=target,
        p1=q1,
        p2=q2,
        params=params,
        lhs=w.lhs,
        rhs=w.rhs,
        margin=w.margin,
        aux=dict(w.aux),
    )


_JQC_TO_WQC = {ClassId.JQC1: ClassId.WQC1, ClassId.JQC2: ClassId.WQC2}
_WQC_TO_QC = {ClassId.WQC1: ClassId.QC1, ClassId.WQC2: ClassId.QC2}


def strengthen_witness(w: Witness, f: Union[Expr, Callable, None] = None) -> Witness:
    """Turn a JQC witness into a WQC witness, or a WQC witness into a QC one.

    A JQC violation is a WQC violation at t = 1/2 (the two chord terms
    coincide at the midpoint, so the margin carries over exactly).  A WQC
    violation yields a QC violation at the chord term that exceeds the
    average; the margin can only grow.
    """
    cid = w.class_id
    if cid in _JQC_TO_WQC:
        target = _JQC_TO_WQC[cid]
        return Witness(
            class_id=target,
            p1=w.p1,
            p2=w.p2,
            params={"t": 0.5},
            lhs=w.lhs,
            rhs=w.rhs,
            margin=w.margin,
            frozen_axis=w.frozen_axis,
            frozen_value=w.frozen_value,
            aux={"term_a": w.lhs, "term_b": w.lhs},
        )
    if cid in _WQC_TO_QC:
        target = _WQC_TO_QC[cid]
        t = w.params["t"]
        term_a = w.aux.get("term_a")
        term_b = w.aux.get("term_b")
        if (term_a is None or term_b is None) and f is not None:
            _, _, aux = _template(cid, f, w.p1, w.p2, {"t": t})
            term_a, term_b = aux["term_a"], aux["term_b"]
        if term_a is None or term_b is None:
            raise ValueError(
                "witness carries no chord terms; pass the function to recompute them"
            )
        # pick the chord evaluation that dominates the average; evaluating the
        # QC template with the points in the matching order reproduces it
        if term_a >= term_b:
            p1, p2, lhs = w.p1, w.p2, term_a
        else:
            p1, p2, lhs = w.p2, w.p1, term_b
        return Witness(
            class_id=target,
            p1=p1,
            p2=p2,
            params={"lam": t},
            lhs=lhs,
            rhs=w.rhs,
            margin=lhs - w.rhs,
            frozen_axis=w.frozen_axis,
            frozen_value=w.frozen_value,
        )
    raise NotApplicableError(
        f"strengthen applies to JQC and WQC witnesses, not {cid.value}"
    )


# ---------------------------------------------------------------------------
# Candidate screening engine

_CHUNK = 1 << 21


@lru_cache(maxsize=64)
def _halton_cube(m: int, dims: int) -> np.ndarray:
    """First m points of the Halton sequence in [0,1)^dims (index starts at 1)."""
    primes = (2, 3, 5, 7, 11, 13)
    if dims > len(primes):
        raise ValueError("too many dimensions for the Halton bases")
    out = np.empty((m, dims))
    for j in range(dims):
        base = primes[j]
        idx = np.arange(1, m + 1, dtype=np.int64)
        acc = np.zeros(m)
        f = 1.0
        while (idx > 0).any():
            f /= base
            acc += f * (idx % base)
            idx //= base
        out[:, j] = acc
    out.setflags(write=False)
    return out


def _mix_a_vec(t, a, b):
    return np.where(a == b, a, t * a + (1.0 - t) * b)


def _mix_b_vec(t, a, b):
    return np.where(a == b, a, (1.0 - t) * a + t * b)


def _golden_ascent(fn: Callable[[float], float], iters: int) -> tuple[float, float]:
    """Golden-section ascent of fn over [0, 1]; returns (argmax, value) seen."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    if fc >= fd:
        best_t, best_v = c, fc
    else:
        best_t, best_v = d, fd
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
            if fc > best_v:
                best_t, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
            if fd > best_v:
                best_t, best_v = d, fd
    return best_t, best_v


def _refine_params(
    class_id: ClassId,
    f: Union[Expr, Callable],
    p1: tuple,
    p2: tuple,
    params: dict[str, float],
    iters: int,
) -> dict[str, float]:
    """Co-ordinate-wise golden-section ascent of the margin over the parameters."""
    names = class_id.param_names
    if not names or iters <= 0:
        return params
    current = dict(params)

    def margin_at(trial: dict[str, float]) -> float:
        try:
            lhs, rhs, _ = _template(class_id, f, p1, p2, trial)
        except DomainError:
            return -math.inf
        return lhs - rhs

    base = margin_at(current)
    for name in names:
        def slice_fn(v: float) -> float:
            trial = dict(current)
            trial[name] = v
            return margin_at(trial)

        best_v, best_m = _golden_ascent(slice_fn, iters)
        if best_m > base:
            # a larger margin can still fall short of a tolerance that grew
            # with |lhs| or |rhs|; keep only values a witness can carry
            trial = dict(current)
            trial[name] = best_v
            lhs, rhs, _ = _template(class_id, f, p1, p2, trial)
            if best_m > violation_tolerance(lhs, rhs):
                current, base = trial, best_m
    return current


class _Screen:
    """Keeps the best violating candidate id, by largest margin and then
    lowest id, and the first undefined one."""

    def __init__(self) -> None:
        self.best: Optional[tuple[float, int]] = None
        self.bad: Optional[int] = None

    def add_chunk(
        self, start: int, margin: np.ndarray, viol: np.ndarray, bad: np.ndarray
    ) -> bool:
        """Returns True when screening should stop (undefined lane found).
        Chunks arrive in id order."""
        if bad.any():
            self.bad = start + int(np.argmax(bad))
            return True
        idx = np.flatnonzero(viol)
        if idx.size:
            i = int(idx[np.argmax(margin[idx])])  # the lowest id among equals
            if self.best is None or margin[i] > self.best[0]:
                self.best = (float(margin[i]), start + i)
        return False


def _place(arr: np.ndarray, axes, ndim: int) -> np.ndarray:
    """View ``arr`` with its dimensions on ``axes`` (ascending) of ndim axes."""
    shape = [1] * ndim
    for ax, size in zip(axes, arr.shape):
        shape[ax] = size
    return arr.reshape(shape)


def _slabs(shape: tuple[int, ...]):
    """Chunks of a C-order tensor in id order, as (prefix, lo, hi).

    A chunk fixes the leading ``prefix`` indices and spans ``lo:hi`` on the
    next axis: the largest whole slab that holds at most ``_CHUNK`` lanes.
    """
    j = next(a for a in range(len(shape)) if math.prod(shape[a + 1 :]) <= _CHUNK)
    step = min(shape[j], _CHUNK // math.prod(shape[j + 1 :]))
    for prefix in np.ndindex(*shape[:j]):
        for lo in range(0, shape[j], step):
            yield prefix, lo, min(lo + step, shape[j])


def _slab(view: np.ndarray, prefix: tuple, lo: int, hi: int) -> np.ndarray:
    """The chunk ``prefix, lo:hi`` of a view that may broadcast on any axis."""
    j = len(prefix)
    head = tuple(i if view.shape[a] > 1 else 0 for a, i in enumerate(prefix))
    return view[head + (slice(lo, hi) if view.shape[j] > 1 else slice(None),)]


def _skipped(same: list, p1: list, p2: list, ordered_only: bool):
    """Lanes the template skips: coincident points and, for W2-ordered,
    pairs that are not componentwise ordered."""
    skip = same[0]
    for extra in same[1:]:
        skip = skip & extra
    if ordered_only:
        for a, b in zip(p1, p2):
            skip = skip | (a > b)
    return skip


def _eval_lanes(f: Expr, coords: list, shape: tuple):
    """f at co-ordinates broadcast onto contiguous lanes of ``shape``."""
    lanes = [np.empty(shape) for _ in coords]
    for out, c in zip(lanes, coords):
        np.copyto(out, c)
    return eval_array(f, *lanes)


def _lane_margins(
    kind: str, f: Expr, d: int, cols: list, F1, F2, shape: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised template; mirrors ``_template`` lane by lane.

    ``cols`` holds the candidates' co-ordinates and parameters, ordered
    (x1[, y1], x2[, y2], t[, s]) and broadcastable to ``shape``; F1 and F2
    are f at the two points.  Returns (margin, over, ok): ``over`` marks
    margins that clear the violation tolerance, ``ok`` lanes whose mixed
    points all evaluate to a margin that is not NaN.
    """
    p1, p2, params = cols[:d], cols[d : 2 * d], cols[2 * d :]
    # one parameter mixes every axis; W2's (t, s) mix x and y separately
    ts = [params[a % len(params)] if params else 0.5 for a in range(d)]
    lhs, ok = _eval_lanes(f, [_mix_a_vec(*m) for m in zip(ts, p1, p2)], shape)
    # sums of values near the float range overflow, and inf - inf is NaN
    with np.errstate(all="ignore"):
        if kind in ("W", "WQC"):
            vb, okb = _eval_lanes(f, [_mix_b_vec(*m) for m in zip(ts, p1, p2)], shape)
            ok = ok & okb
            lhs = vb + lhs if kind == "W" else 0.5 * (lhs + vb)
        if kind == "C":
            rhs = params[0] * F1 + (1.0 - params[0]) * F2
        elif kind == "J":
            rhs = 0.5 * F1 + 0.5 * F2
        elif kind == "W":
            rhs = F1 + F2
        else:  # QC, JQC, WQC
            rhs = np.maximum(F1, F2)
        margin = lhs - rhs
        tau = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    # a NaN margin decides nothing: the lane counts as undefined (min
    # propagates NaN, so the mask is built only when there is one)
    if np.isnan(margin.min()):
        ok = ok & ~np.isnan(margin)
    return margin, margin > tau, ok


def _candidate(
    i: int, shape: tuple, axis_vals: list, halton: list, names: tuple
) -> tuple[tuple, tuple, dict]:
    """(p1, p2, params) of candidate ``i``: grid ids first, then Halton ids."""
    grid_total = math.prod(shape)
    if i < grid_total:
        vals = [float(v[j]) for v, j in zip(axis_vals, np.unravel_index(i, shape))]
    else:
        vals = [float(c[i - grid_total]) for c in halton]
    d = (len(vals) - len(names)) // 2
    return tuple(vals[:d]), tuple(vals[d : 2 * d]), dict(zip(names, vals[2 * d :]))


def _screen(
    f: Expr,
    intervals: tuple[Interval, ...],
    class_id: ClassId,
    budget: SearchBudget,
    seed: Optional[int],
) -> Verdict:
    """Screen a 1D or 2D class: the tensor grid, then the Halton batch.

    Grid candidates form a C-order tensor with axes (x1[, y1], x2[, y2],
    t[, s]) whose flat index is the candidate id; Halton ids follow the grid.
    Equal margins rank by lower id.
    """
    n, m = budget.grid_n, budget.halton_count
    kind, names = class_id.kind, class_id.param_names
    d = len(intervals)
    ndim = 2 * d + len(names)
    ordered_only = class_id is ClassId.W2_ORDERED
    resolution = f"grid n={n}{' per axis' if d == 2 else ''}, halton m={m}"
    grids = [np.linspace(iv.lo, iv.hi, n) for iv in intervals]
    points = [_place(g, (a,), d) for a, g in enumerate(grids)]
    Fg, okg = _eval_lanes(f, points, (n,) * d)
    if not okg.all():
        at = np.unravel_index(int(np.argmax(~okg)), okg.shape)
        point = tuple(float(g[i]) for g, i in zip(grids, at))
        return Verdict(status="undefined", resolution=resolution, seed=seed, point=point)
    shape = (n,) * ndim
    grid_total = n**ndim
    axis_vals = grids + grids + [np.linspace(0.0, 1.0, n)] * len(names)
    cols = [_place(v, (a,), ndim) for a, v in enumerate(axis_vals)]
    F1 = _place(Fg, range(d), ndim)
    F2 = _place(Fg, range(d, 2 * d), ndim)
    # a grid pair is degenerate when its two point indices coincide
    same = [_place(np.eye(n, dtype=bool), (a, d + a), ndim) for a in range(d)]
    skip = _skipped(same, cols[:d], cols[d : 2 * d], ordered_only)
    screen = _Screen()
    start = 0
    for prefix, lo, hi in _slabs(shape):
        margin, over, ok = _lane_margins(
            kind,
            f,
            d,
            [_slab(c, prefix, lo, hi) for c in cols],
            _slab(F1, prefix, lo, hi),
            _slab(F2, prefix, lo, hi),
            (hi - lo,) + shape[len(prefix) + 1 :],
        )
        live = ~_slab(skip, prefix, lo, hi)
        if screen.add_chunk(
            start, margin.ravel(), (ok & live & over).ravel(), (~ok & live).ravel()
        ):
            break
        start += margin.size
    halton: list = []
    if m > 0 and screen.bad is None:
        cube = _halton_cube(m, ndim)
        halton = [
            iv.lo + (iv.hi - iv.lo) * cube[:, a] for a, iv in enumerate(intervals * 2)
        ] + [cube[:, a] for a in range(2 * d, ndim)]
        p1, p2 = halton[:d], halton[d : 2 * d]
        F1, ok1 = eval_array(f, *p1)
        F2, ok2 = eval_array(f, *p2)
        margin, over, ok = _lane_margins(kind, f, d, halton, F1, F2, (m,))
        ok = ok & ok1 & ok2
        live = ~_skipped([a == b for a, b in zip(p1, p2)], p1, p2, ordered_only)
        screen.add_chunk(grid_total, margin, ok & live & over, ~ok & live)
    samples = grid_total - n ** (ndim - d) + m  # diagonal pairs are degenerate
    found = dict(resolution=resolution, samples=samples, seed=seed)
    if screen.bad is not None:
        # the point the template failed at, or the last one it evaluated
        # when only its margin is NaN
        seen: list[tuple] = []

        def traced(*pt: float) -> float:
            seen.append(pt)
            return f(*pt)

        bad = _candidate(screen.bad, shape, axis_vals, halton, names)
        try:
            _template(class_id, traced, *bad)
        except DomainError:
            pass
        return Verdict(status="undefined", point=seen[-1], **found)
    if screen.best is None:
        return Verdict(status="no_violation_found", **found)
    # lanes and scalar calls run one tape, so the screened margin is the
    # scalar margin, and refinement keeps only values that clear the
    # tolerance: the witness holds
    p1, p2, params = _candidate(screen.best[1], shape, axis_vals, halton, names)
    refined = _refine_params(class_id, f, p1, p2, params, budget.refine_iters)
    witness = make_witness(class_id, f, p1, p2, refined)
    return Verdict(status="violated", witness=witness, **found)


def check_membership(
    f: Expr,
    domain: Union[Interval, Box2],
    class_id: ClassId,
    budget: Optional[SearchBudget] = None,
    seed: Optional[int] = None,
) -> Verdict:
    """Search for a violation of ``class_id`` by ``f`` over ``domain``.

    The candidate set is a deterministic tensor grid of side ``budget.grid_n``
    (points and, where applicable, mixing parameters) plus
    ``budget.halton_count`` Halton points.  The best-margin candidate is
    locally refined with golden-section ascent on its parameters and returned
    as a sound witness; otherwise the verdict records the resolution searched.
    A DomainError anywhere in the candidate set yields the ``undefined``
    verdict carrying the offending point.
    """
    if not isinstance(f, Expr):
        raise TypeError("membership checks need a parsed expression")
    budget = budget or SearchBudget()
    if class_id.is_coordinate:
        if not isinstance(domain, Box2):
            raise ValueError("co-ordinate classes need a Box2 domain")
        return coordinate_check(
            f, domain, COORD_TO_1D[class_id], slices=budget.slices, budget=budget,
            seed=seed,
        )
    if class_id.arity == 1:
        if not isinstance(domain, Interval) or f.arity != 1:
            raise ValueError("1D class needs an Interval domain and a 1D function")
        return _screen(f, (domain,), class_id, budget, seed)
    if not isinstance(domain, Box2) or f.arity != 2:
        raise ValueError("2D class needs a Box2 domain and a 2D function")
    return _screen(f, (domain.x, domain.y), class_id, budget, seed)


def coordinate_check(
    f: Expr,
    box: Box2,
    class_id: ClassId,
    slices: int = 9,
    budget: Optional[SearchBudget] = None,
    seed: Optional[int] = None,
) -> Verdict:
    """Check the 1D class on equally spaced frozen slices in both directions.

    Freezing ``y`` gives the partial mappings on [a, b]; freezing ``x`` the
    ones on [c, d].  The returned witness records the frozen axis and value
    and is the maximum-margin one over all slices under a deterministic
    tie-break.
    """
    if not isinstance(f, Expr) or f.arity != 2:
        raise TypeError("co-ordinate checks need a parsed 2D expression")
    if class_id.arity != 1:
        raise ValueError(f"co-ordinate checks test a 1D class, got {class_id.value}")
    budget = budget or SearchBudget()
    total_samples = 0
    best: Optional[Witness] = None
    for axis, frozen_iv, run_iv in (
        (Axis.Y, box.y, box.x),
        (Axis.X, box.x, box.y),
    ):
        for value in np.linspace(frozen_iv.lo, frozen_iv.hi, slices):
            value = float(value)
            slice_f = restrict(f, axis, value)
            verdict = _screen(slice_f, (run_iv,), class_id, budget, seed)
            total_samples += verdict.samples
            if verdict.undefined:
                u = verdict.point[0] if verdict.point else run_iv.lo
                point = (u, value) if axis is Axis.Y else (value, u)
                return Verdict(
                    status="undefined",
                    resolution=_coord_resolution(slices, budget),
                    samples=total_samples,
                    seed=seed,
                    point=point,
                )
            if verdict.violated:
                w = replace(verdict.witness, frozen_axis=axis.value, frozen_value=value)
                if best is None or w.margin > best.margin:
                    best = w
    if best is not None:
        return Verdict(
            status="violated",
            witness=best,
            resolution=_coord_resolution(slices, budget),
            samples=total_samples,
            seed=seed,
        )
    return Verdict(
        status="no_violation_found",
        resolution=_coord_resolution(slices, budget),
        samples=total_samples,
        seed=seed,
    )


def _coord_resolution(slices: int, budget: SearchBudget) -> str:
    return (
        f"{slices} slices per axis, grid n={budget.grid_n},"
        f" halton m={budget.halton_count}"
    )
