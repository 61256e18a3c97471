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

import itertools
import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .domains import Box2, Interval
from .expressions import Axis, DomainError, Expr, Registers, _mix, eval_array, restrict

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


# violation_tolerance's factor and scale floor; no tolerance is below _VIOLATION_FLOOR
_VIOLATION_REL, _VIOLATION_SCALE = 1e-9, 1.0
_VIOLATION_FLOOR = _VIOLATION_REL * _VIOLATION_SCALE


def violation_tolerance(lhs: float, rhs: float) -> float:
    """Soundness boundary separating genuine violations from float noise."""
    return _VIOLATION_REL * max(_VIOLATION_SCALE, abs(lhs), abs(rhs))


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
            # lhs - rhs overflows when the sides are near the float range;
            # JSON has no infinity, and the finite sides hold the violation
            "margin": self.margin if math.isfinite(self.margin) else None,
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
    point: Optional[tuple] = None
    # (class id, p1, p2, params, frozen axis, frozen value) of an undefined
    # verdict whose inequality is not finite at a candidate where f is
    # defined; as in a witness, a co-ordinate check gives 1D points on a slice
    candidate: Optional[tuple] = None

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
        if self.candidate is not None:
            class_id, p1, p2, params, axis, value = self.candidate
            where = "" if axis is None else f" on slice {axis}={value!r}"
            return (
                f"undefined: the {class_id.value} inequality is not finite{where} at"
                f" p1={p1}, p2={p2}, params={params}; f is defined there"
            )
        return f"function undefined at {self.point}"

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "resolution": self.resolution,
            "samples": self.samples,
            "point": list(self.point) if self.point else None,
        }
        if self.candidate is not None:
            class_id, p1, p2, params, axis, value = self.candidate
            out["candidate"] = {
                "class_id": class_id.value,
                "p1": list(p1),
                "p2": list(p2),
                "params": params,
                "frozen_axis": axis,
                "frozen_value": value,
            }
        return out


@dataclass(frozen=True)
class SearchBudget:
    """Candidate enumeration sizes for one membership check."""

    grid_n: int = 17
    halton_count: int = 4096
    slices: int = 9

    def __post_init__(self) -> None:
        if self.grid_n < 2 or self.halton_count < 0 or self.slices < 1:
            raise ValueError("degenerate search budget")

    def validate_for(self, class_id: ClassId) -> None:
        """Raise ValueError if this budget tests a one-parameter class only
        at the parameter's ends 0 and 1, where its inequality holds with
        equality for every function: a grid of side 2 and no Halton points."""
        names = class_id.param_names
        if len(names) == 1 and self.grid_n == 2 and self.halton_count == 0:
            raise ValueError(
                f"a grid of side 2 without Halton points tests the {class_id.value}"
                f" parameter {names[0]} only at 0 and 1, where the inequality holds"
                " for every function; use a larger grid or Halton points"
            )


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
    if kind in ("C", "J", "QC", "JQC"):
        # J and JQC are C and QC at lam = 1/2
        lam = 0.5 if kind in ("J", "JQC") else float(params["lam"])
        lhs = F(*_mix_point(_mix_a, lam, lam, pt1, pt2))
        rhs = lam * f1 + (1.0 - lam) * f2 if kind in ("C", "J") else max(f1, f2)
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


def lift_witness(w: Witness) -> Witness:
    """Embed a slice witness as a global 2D witness with identical sides.

    A violation of the 1D class on a partial mapping is a violation of the
    matching global class at the pair of 2D points sharing the frozen
    co-ordinate; the mix helpers keep that co-ordinate fixed exactly, so lhs,
    rhs and margin carry over unchanged.
    """
    if w.class_id not in LIFT_1D_TO_2D:
        raise NotApplicableError(f"cannot lift class {w.class_id.value}")
    axis, frozen = w.frozen_axis, w.frozen_value
    if axis is None or frozen is None:
        raise ValueError("lift needs the frozen axis and value")
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

_CHUNK = 1 << 15  # most lanes per slab and per call: its arrays stay in L2
# most points of a grid's table of f at its mixed points, in slabs: a
# default W2 on a dyadic box needs 66,049 points, about two slabs
_TABLE_SLABS = 4
_POOL_VIEWS = 1024  # views each of the pool's caches keeps, least recently used out first
_INPUTS = ("in0", "in1")  # pool names of the contiguous co-ordinate lanes


class _Pool(threading.local):
    """The slab-sized buffers screening computes its results into, one flat
    array per name, kept for the thread's life so that no slab allocates
    them: the allocator would hand large ones back to the system and fault
    them in again.  The chord mixes and the rhs of QC, W and WQC are
    computed at their operands' own shape, small on the grid and up to one
    slab on the Halton batch; only the rhs of C and J, whose weights follow
    the slab's parameter, sums into a pooled buffer.  A request views the
    named buffer at its shape, growing it first if it is too small, so a
    short last slab fits.  ``take``, ``takes`` and ``registers`` keep the
    views in least-recently-used caches, since a small check asks for the
    same few dozen thousands of times; a growth clears all three.  The
    screen asks for at most two point sets of ``_CHUNK`` lanes per buffer,
    besides f on the grid's points (slices times n^d lanes), so the pool
    stays at a few megabytes at the default budget; the grid's per-check
    pair mask, which outgrows a slab at large resolutions, is not pooled,
    nor is its table of f at the mixed points (:class:`_Table`)."""

    def __init__(self) -> None:
        self.flat: dict[str, np.ndarray] = {}
        self.take = lru_cache(maxsize=_POOL_VIEWS)(self._view)
        self.takes = lru_cache(maxsize=_POOL_VIEWS)(self._views)
        self.registers = lru_cache(maxsize=_POOL_VIEWS)(self._registers)

    def _view(self, name: str, shape: tuple, dtype: type = float) -> np.ndarray:
        size = math.prod(shape)
        buf = self.flat.get(name)
        if buf is None or buf.size < size:
            buf = self.flat[name] = np.empty(size, dtype)
            # a cached view, or a register file's, may view the old buffer
            for cache in (self.take, self.takes, self.registers):
                cache.cache_clear()
        return buf[:size].reshape(shape)

    def _views(self, names: tuple, shape: tuple, dtype: type = float) -> tuple:
        """``take`` of each of ``names``."""
        return tuple(self._view(name, shape, dtype) for name in names)

    def _registers(self, count: int, home: str, shape: tuple, i: int, step: int) -> Registers:
        """A register file of ``count`` registers on the point sets ``i:i +
        step`` of the (k, *rest) lanes ``shape``, whose values and mask land
        in those of the buffers named by ``home``."""
        lanes = (step,) + shape[1:]
        values = self.takes(tuple(f"reg{k}" for k in range(1, count)), lanes)
        return Registers(
            (self.take(home, shape)[i : i + step], *values),
            self.take(home + "_ok", shape, bool)[i : i + step],
            self.take("scratch", lanes, bool),
        )


_POOL = _Pool()


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


def _chords(kind: str) -> tuple[bool, ...]:
    """The chord points a template evaluates f at, as the ``second`` flag
    of :func:`_mix`: W and WQC also evaluate ``_mix_b``'s."""
    return (False, True) if kind in ("W", "WQC") else (False,)


_REFINE_ITERS = 50  # golden-section steps per parameter in witness refinement
_GOLDEN_STEPS = 5  # golden-section steps per call of the margin in refinement
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_children(a: float, b: float, c: float, d: float) -> tuple:
    """The two states one golden-section step can reach from [a, b] with
    interior points c < d, each as (a, b, c, d, new point): [a, d] when
    f(c) >= f(d), else [c, b].  The new point is the sequential step's,
    b - inv * (b - a) with b = d, or a + inv * (b - a) with a = c."""
    new_c = d - _INV_PHI * (d - a)
    new_d = c + _INV_PHI * (b - c)
    return (a, d, new_c, c, new_c), (c, b, d, new_d, new_d)


def _golden_tree(a: float, b: float, c: float, d: float, left: bool, steps: int) -> list:
    """Every state the next ``steps`` golden-section steps can reach, in heap
    order: node 0 takes the first step, whose side ``left`` (f(c) >= f(d)) is
    known, and the children 2i+1 and 2i+2 of node i take the next step to
    the left and to the right."""
    nodes = [_golden_children(a, b, c, d)[0 if left else 1]]
    for a, b, c, d, _ in itertools.islice(nodes, 2 ** (steps - 1) - 1):
        nodes += _golden_children(a, b, c, d)
    return nodes


def _golden_walk(tree: list, values: list, steps: int, fc, fd, best_t, best_v) -> tuple:
    """Take ``steps`` golden steps down a ``_golden_tree`` whose points
    evaluated to ``values``, from interior values fc, fd and the best
    (argmax, value) seen; returns (a, b, c, d, fc, fd, best_t, best_v)."""
    i = 0
    for step in range(steps):
        left = fc >= fd
        if step:
            i = 2 * i + (1 if left else 2)
        v = values[i]
        fc, fd = (v, fc) if left else (fd, v)
        if v > best_v:
            best_t, best_v = tree[i][4], v
    return (*tree[i][:4], fc, fd, best_t, best_v)


def _golden_lanes(
    fn: Callable[[np.ndarray], tuple], batch: int, iters: int
) -> tuple[list[float], list[float]]:
    """Golden-section ascent over [0, 1] of ``batch`` functions at once;
    returns each one's argmax and value seen.

    ``fn`` maps a (batch, k) array of points to their values and the mask of
    points where the functions are defined.  An undefined point counts as
    -inf; a NaN value stays NaN, so every comparison with it fails.

    Per lane this is the sequential ascent: after f(c) and f(d), each of
    ``iters`` steps keeps [a, d] when f(c) >= f(d) and [c, b] otherwise and
    evaluates the new interior point, and a value replaces the best seen
    only when strictly larger.  Each call of fn takes up to
    ``_GOLDEN_STEPS`` steps: it evaluates every point those steps could
    visit (2^steps - 1 per lane), computed with the same floats, and the
    steps then read off the points on their path.  The first call also
    evaluates c and d, and the first steps down both sides.
    """

    def values_at(points: list) -> list:
        values, defined = fn(np.array(points))
        return np.where(defined, values, -np.inf).tolist()

    a, b = 0.0, 1.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    steps = min(_GOLDEN_STEPS, iters)
    both = [
        _golden_tree(a, b, c, d, left, steps) if steps else [] for left in (True, False)
    ]
    first = [c, d] + [node[4] for tree in both for node in tree]
    lanes = []
    for fc, fd, *values in values_at([first] * batch):
        left = fc >= fd
        best = (c, fc) if left else (d, fd)
        lane = (a, b, c, d, fc, fd, *best)
        if steps:
            tree = both[0 if left else 1]
            values = values[0 if left else len(tree) :]
            lane = _golden_walk(tree, values, steps, fc, fd, *best)
        lanes.append(lane)
    for done in range(steps, iters, _GOLDEN_STEPS):
        steps = min(_GOLDEN_STEPS, iters - done)
        trees = [_golden_tree(*lane[:4], lane[4] >= lane[5], steps) for lane in lanes]
        values = values_at([[node[4] for node in tree] for tree in trees])
        lanes = [
            _golden_walk(tree, row, steps, *lane[4:])
            for lane, tree, row in zip(lanes, trees, values)
        ]
    return [lane[6] for lane in lanes], [lane[7] for lane in lanes]


def _refine(
    kind: str,
    names: tuple[str, ...],
    f: Expr,
    d: int,
    cands: np.ndarray,
    margins: np.ndarray,
    frozen: Optional[tuple] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Co-ordinate-wise golden-section ascent of the margin over the
    parameters, ``_REFINE_ITERS`` steps each, for every row of ``cands`` at
    once.

    Rows hold a candidate's columns (x1[, y1], x2[, y2], t[, s]) as in the
    screen, ``margins`` their margins, and ``frozen`` is passed to
    :func:`_eval_lanes`.  A refined value replaces a row's only when its
    margin is larger and clears the violation tolerance, which grows with
    |lhs| and |rhs|, so every row stays a witness.  Returns the rows and
    their margins.
    """
    if not names or _REFINE_ITERS <= 0:
        return cands, margins
    rows = len(cands)
    cols = [cands[:, i : i + 1] for i in range(cands.shape[1])]
    (F1, F2), _ = _eval_lanes(f, [cols[:d], cols[d : 2 * d]], (rows, 1), frozen)
    for j in range(2 * d, cands.shape[1]):
        cols = [cands[:, i : i + 1] for i in range(cands.shape[1])]

        def sides(ts: np.ndarray) -> tuple:
            cols[j] = ts
            chord = _chord_sides(kind, f, d, cols, ts.shape, frozen)
            return _lane_margins(kind, cols[2 * d :], chord, F1, F2, ts.shape)

        def margin_at(ts: np.ndarray) -> tuple:
            margin, _, ok = sides(ts)
            return margin, ok

        t, m = (np.array(v) for v in _golden_lanes(margin_at, rows, _REFINE_ITERS))
        better = m > margins
        if better.any():
            # m is the margin at t, and the lane's ``over`` is m > tolerance
            better &= sides(t[:, None])[1][:, 0]
            cands[better, j] = t[better]
            margins = np.where(better, m, margins)
    return cands, margins


class _Screen:
    """Per slice: the best violating candidate, by largest margin and then
    screening order, with its margin, and the first undefined candidate in
    screening order (None for none), each as the values of its ``ndim``
    columns."""

    def __init__(self, slices: int, ndim: int) -> None:
        self.ndim = ndim
        self.margin = [-math.inf] * slices
        self.best: list = [None] * slices
        self.bad: list = [None] * slices

    def scan(
        self,
        shape: tuple[int, ...],
        views: list,
        lanes: Callable,
        mirror: Optional[tuple[int, int]] = None,
        reflect: Optional[int] = None,
    ) -> bool:
        """Screen a C-order tensor of ``shape``, slices on its first axis,
        in slabs in C order; the first ``ndim`` of ``views`` are the
        candidates' columns.

        A slab fixes the leading indices, spans a range of the next axis
        and, on each axis after it, the range that axis screens: the largest
        whole slab that holds at most ``_CHUNK`` lanes.  ``lanes(parts,
        chunk, floor)`` gives (margin, violating, undefined) on the slab of
        shape ``chunk``, ``parts`` being the ``views``, arrays that
        broadcast to ``shape``, cut down to it; violating may be None when
        no margin exceeds ``floor``, max(_VIOLATION_FLOOR, the least best
        margin of the slab's slices), since no lane at or below it can
        change a slice's best.  Returns True at the first slab with an
        undefined lane, where it stops.

        Where a slab fixes the x1 axis, two skips cut the index range of an
        axis.  ``mirror`` names the axes (a, b) of x1 and x2 when a
        candidate and its twin with the two points swapped have one margin:
        axis b screens from the index on axis a on.  ``reflect`` names the
        first parameter axis when a candidate and its twin with every
        parameter index i moved to n - 1 - i have one margin: that axis
        screens indices 0 to n // 2.  Of the candidates that the two swaps
        connect, the first in C order passes both, so each skipped
        candidate has the margin of one screened before it.  A prefix
        outside the ranges is skipped whole; the slab axis and the axes
        after it are cut to theirs, with the views that span them, and a
        slab's step is reckoned on the cut shape."""
        j = next(a for a in range(len(shape)) if math.prod(shape[a + 1 :]) <= _CHUNK)
        a, b = mirror if mirror is not None and mirror[0] < j else (None, None)
        # per axis, the index range [start, stop) screened; b's start is
        # the prefix's index a
        starts, stops = [0] * len(shape), list(shape)
        if a is not None and reflect is not None:
            stops[reflect] = shape[reflect] // 2 + 1
            # the views are cut once, not per prefix; one of size 1 there
            # keeps it
            views = [v[(slice(None),) * reflect + (slice(stops[reflect]),)] for v in views]
        rest = tuple(stops[j + 1 :])
        trailing = b is not None and b > j
        # the axes each view spans rather than broadcasts on
        spans = [[size > 1 for size in v.shape] for v in views]
        for prefix in itertools.product(*map(range, stops[:j])):
            if b is not None:
                if b < j and prefix[b] < prefix[a]:
                    continue
                starts[b] = prefix[a]
            heads = [
                v[tuple(i if full else 0 for i, full in zip(prefix, span))]
                for v, span in zip(views, spans)
            ]
            chunk = rest
            if trailing:
                at_b = (slice(None),) * (b - j) + (slice(starts[b], None),)
                heads = [h[at_b] if span[b] else h for h, span in zip(heads, spans)]
                chunk = rest[: b - j - 1] + (stops[b] - starts[b],) + rest[b - j :]
            step = min(stops[j], _CHUNK // math.prod(chunk))
            for lo in range(starts[j], stops[j], step):
                hi = min(lo + step, stops[j])
                parts = [h[lo:hi] if span[j] else h for h, span in zip(heads, spans)]
                # a slab on the slice axis holds a row per slice
                s, rows = (lo, hi - lo) if j == 0 else (prefix[0], 1)
                floor = max(_VIOLATION_FLOOR, min(self.margin[s : s + rows]))
                margin, viol, bad = lanes(parts, (hi - lo,) + chunk, floor)
                if self._add(s, rows, margin, viol, bad, parts[: self.ndim]):
                    return True
        return False

    def _add(
        self, s: int, rows: int, margin: np.ndarray, viol: Optional[np.ndarray],
        bad: np.ndarray, cols: list,
    ) -> bool:
        """The slab's ``rows`` rows are slices s, s + 1, ... in C order, so
        lane order is screening order; ``cols`` are the candidates' column
        views cut to the slab.  ``viol`` is None where no lane violates."""
        shape, width = margin.shape, margin.size // rows

        def candidate(r: int, i: int) -> list[float]:
            """The column values of lane i of row r."""
            at = np.unravel_index(r * width + i, shape)
            return [
                float(v[tuple(k if size > 1 else 0 for k, size in zip(at, v.shape))])
                for v in cols
            ]

        if bad.any():
            bad = bad.reshape(rows, width)
            for r in np.flatnonzero(bad.any(axis=1)).tolist():
                self.bad[s + r] = candidate(r, int(np.argmax(bad[r])))
            return True
        if viol is None or not viol.any():
            return False
        # violating margins exceed their tolerance, so they are neither NaN
        # nor -inf, and the first largest is the first screened among equals
        margin, viol = margin.reshape(rows, width), viol.reshape(rows, width)
        best = _POOL.take("best", margin.shape)
        best.fill(-math.inf)
        np.copyto(best, margin, where=viol)
        for r, i in enumerate(best.argmax(axis=1).tolist()):
            if best[r, i] > self.margin[s + r]:
                self.margin[s + r] = float(best[r, i])
                self.best[s + r] = candidate(r, i)
        return False


def _place(arr: np.ndarray, axes, ndim: int) -> np.ndarray:
    """View ``arr`` with its dimensions on ``axes`` (ascending) of ndim axes."""
    shape = [1] * ndim
    for ax, size in zip(axes, arr.shape):
        shape[ax] = size
    return arr.reshape(shape)


def _screened_pairs(
    p1: list, p2: list, ordered_only: bool, live: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Mark in ``live`` the lanes whose pair is screened, and return it: the
    two points differ in some co-ordinate and, for W2-ordered, are
    componentwise ordered.  ``scratch`` is a bool array of live's shape.
    The grid and the Halton batch both tell pairs by value."""
    np.not_equal(p1[0], p2[0], out=live)
    for a, b in zip(p1[1:], p2[1:]):
        live |= np.not_equal(a, b, out=scratch)
    if ordered_only:
        for a, b in zip(p1, p2):
            live &= np.less_equal(a, b, out=scratch)
    return live


def _eval_lanes(
    f: Expr, points: list, shape: tuple, frozen: Optional[tuple] = None, home: str = "ends"
) -> tuple[np.ndarray, np.ndarray]:
    """f at each of the k point sets in ``points``, lists of co-ordinates
    broadcastable to ``shape``: see :func:`_eval_sets`, which this calls
    after copying them onto contiguous lanes."""
    ins = _POOL.takes(_INPUTS[: len(points[0])], (len(points),) + shape)
    for i, coords in enumerate(points):
        for lane, c in zip(ins, coords):
            np.copyto(lane[i], c)
    return _eval_sets(f, ins, frozen, home)


def _eval_sets(
    f: Expr, ins: list, frozen: Optional[tuple], home: str
) -> tuple[np.ndarray, np.ndarray]:
    """f on k point sets at once: ``ins`` holds one (k, *shape) array of
    lanes per co-ordinate.  Returns (values, defined), each (k, *shape),
    in the pool buffers named by ``home``, where they stay until the next
    request for that home.  Sets that fit in ``_CHUNK`` lanes together
    share one call, whose fixed cost outweighs their lanes; larger ones
    take a call each, so that no call holds more lanes than one set.

    With ``frozen``, a (value, on_x) pair broadcastable to ``shape``, the one
    co-ordinate is a partial mapping's free variable u, and the 2D f runs at
    (value, u) where ``on_x`` holds and at (u, value) elsewhere: bit for bit
    what ``restrict`` of f would give at u.
    """
    k, shape = ins[0].shape[0], ins[0].shape[1:]
    step = k if k * math.prod(shape) <= _CHUNK else 1
    for i in range(0, k, step):
        lanes = ins if step == k else [c[i : i + step] for c in ins]
        if frozen is not None:
            value, on_x = frozen
            (u,) = lanes
            lanes = _POOL.takes(("x", "y"), u.shape)
            # np.where(on_x, value, u) and np.where(on_x, u, value)
            for lane, at_x, elsewhere in zip(lanes, (value, u), (u, value)):
                np.copyto(lane, elsewhere)
                np.copyto(lane, at_x, where=on_x)
        eval_array(f, *lanes, regs=_POOL.registers(f.registers, home, ins[0].shape, i, step))
    return _POOL.take(home, ins[0].shape), _POOL.take(home + "_ok", ins[0].shape, bool)


def _chord_sides(
    kind: str, f: Expr, d: int, cols: list, shape: tuple, frozen=None
) -> tuple[np.ndarray, np.ndarray]:
    """f at the chord points of the candidates whose co-ordinates and
    parameters ``cols`` holds, ordered (x1[, y1], x2[, y2], t[, s]) and
    broadcastable to ``shape``, mixed onto lanes: (values, defined), each
    (chords, *shape), in the pool buffers named ``sides``.  ``frozen`` is
    passed to :func:`_eval_sets`."""
    p1, p2, params = cols[:d], cols[d : 2 * d], cols[2 * d :]
    # one parameter mixes every axis; W2's (t, s) mix x and y separately
    ts = [params[a % len(params)] if params else 0.5 for a in range(d)]
    chords = _chords(kind)
    ins = _POOL.takes(_INPUTS[:d], (len(chords),) + shape)
    for i, flip in enumerate(chords):
        for a in range(d):
            np.copyto(ins[a][i], _mix(ts[a], p1[a], p2[a], flip))
    return _eval_sets(f, ins, frozen, "sides")


def _lane_margins(
    kind: str, params: list, chord: tuple, F1, F2, shape: tuple,
    floor: Optional[float] = None,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Vectorised template; mirrors ``_template`` lane by lane.

    ``params`` holds the candidates' parameters, broadcastable to
    ``shape``; ``chord`` is f at their chord points as
    :func:`_chord_sides` gives it, and F1 and F2 are f at the two points.
    Returns (margin, over, ok), pool views of ``shape``: ``over`` marks
    margins that clear the violation tolerance, ``ok`` lanes whose mixed
    points all evaluate.

    ``floor``, when given, is a margin that a lane must exceed to matter: a
    slab whose largest margin is at most ``floor`` skips the tolerance and
    returns ``over`` as None.  No margin of such a slab is NaN, since a NaN
    maximum fails the test.
    """
    sides, oks = chord
    lhs, ok = sides[0], oks[0]
    margin = _POOL.take("margin", shape)
    # sums of values near the float range overflow, and inf - inf is NaN
    with np.errstate(all="ignore"):
        if kind == "W":
            ok &= oks[1]
            np.add(sides[1], lhs, out=lhs)
        elif kind == "WQC":
            ok &= oks[1]
            np.multiply(0.5, np.add(lhs, sides[1], out=lhs), out=lhs)
        # rhs at its operands' shape, on the grid far smaller than the slab,
        # but for C and J, whose weights follow the slab's parameter
        if kind in ("C", "J"):
            rhs = _POOL.take("rhs", shape)
            lam = params[0] if params else 0.5
            np.add(np.multiply(lam, F1), np.multiply(1.0 - lam, F2), out=rhs)
        elif kind == "W":
            rhs = np.add(F1, F2)
        else:  # QC, JQC, WQC
            rhs = np.maximum(F1, F2)
        np.subtract(lhs, rhs, out=margin)
        if floor is not None and margin.max() <= floor:
            return margin, None, ok
        # tau = violation_tolerance(lhs, rhs) per lane; rhs holds |rhs| after
        tau = _POOL.take("tau", shape)
        over = _POOL.take("over", shape, bool)
        np.maximum(np.abs(lhs, out=tau), np.abs(rhs, out=rhs), out=tau)
        np.multiply(_VIOLATION_REL, np.maximum(_VIOLATION_SCALE, tau, out=tau), out=tau)
        np.greater(margin, tau, out=over)
    return margin, over, ok


class _Table:
    """f on the product of a joint 2D grid's distinct mixed x and y
    co-ordinates, with the index views ``at`` that pick each grid
    candidate's chord points out of it: per chord point, the x index times
    the table's row length, then the y index.  A per-check temporary, like
    the pair mask.

    Each axis mixes once over its own grid axes (p1, p2 and its parameter)
    with :func:`_mix`, and keeps its values distinct by bits, so -0.0 and
    0.0 stay apart: a gathered side is f at the very co-ordinates the lane
    path would evaluate, and an elementwise tape gives the same bits
    wherever the lane sits."""

    def __init__(self, f: Expr, axes: list) -> None:
        (xs, ix), (ys, iy) = axes
        values, ok = np.empty((len(xs), len(ys))), np.empty((len(xs), len(ys)), bool)
        # blocks of whole rows, or of one row's columns, of at most one slab
        rows, width = max(1, _CHUNK // len(ys)), min(len(ys), _CHUNK)
        for r in range(0, len(xs), rows):
            for c in range(0, len(ys), width):
                block = values[r : r + rows, c : c + width]
                points = [[xs[r : r + rows, None], ys[None, c : c + width]]]
                (v,), (defined,) = _eval_lanes(f, points, block.shape, home="sides")
                block[...], ok[r : r + rows, c : c + width] = v, defined
        self.values = values.ravel()
        self.ok = None if ok.all() else ok.ravel()  # None: no mask to gather
        self.at = [v for a, b in zip(ix * len(ys), iy) for v in (a, b)]

    @classmethod
    def build(cls, f: Expr, kind: str, cols: list, lanes: int) -> Optional["_Table"]:
        """The table of f on the grid whose columns ``cols`` are placed as
        in :func:`_screen`, or None if it would hold ``lanes`` points or
        more, or more than ``_TABLE_SLABS`` slabs of them."""
        p1, p2, params = cols[:2], cols[2:4], cols[4:]
        axes = []
        for a in range(2):
            t = params[a % len(params)]
            mixed = np.stack([_mix(t, p1[a], p2[a], flip) for flip in _chords(kind)])
            bits, inverse = np.unique(mixed.view(np.uint64), return_inverse=True)
            axes.append((bits.view(float), inverse.reshape(mixed.shape)))
        size = len(axes[0][0]) * len(axes[1][0])
        if size >= lanes or size > _TABLE_SLABS * _CHUNK:
            return None
        return cls(f, axes)

    def gather(self, at: list, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
        """f at the chord points of a slab of ``shape``, ``at`` being the
        index views cut to it: (values, defined) as :func:`_chord_sides`
        gives them, in the same pool buffers."""
        k = len(at) // 2
        sides = _POOL.take("sides", (k,) + shape)
        oks = _POOL.take("sides_ok", (k,) + shape, bool)
        flat = _POOL.take("at", shape, np.intp)
        for c in range(k):
            np.add(at[2 * c], at[2 * c + 1], out=flat)
            np.take(self.values, flat, out=sides[c], mode="clip")
            if self.ok is None:
                oks[c].fill(True)
            else:
                np.take(self.ok, flat, out=oks[c], mode="clip")
        return sides, oks


@lru_cache(maxsize=None)
def _reflects(n: int) -> bool:
    """Whether the parameter grid ``linspace(0, 1, n)`` holds ``1.0 - lam``
    for each of its values lam, at the mirrored index, and ``1.0 - (1.0 -
    lam) == lam``: true for n = 2^k + 1.  Then C's and QC's templates give
    the candidate (p2, p1, 1 - lam) the margin of (p1, p2, lam), bit for
    bit, since each side only swaps the operands of one sum or max."""
    lam = np.linspace(0.0, 1.0, n)
    return np.array_equal(1.0 - lam, lam[::-1]) and np.array_equal(1.0 - (1.0 - lam), lam)


def _screen(
    f: Expr,
    ivs: Sequence[tuple[Interval, ...]],
    class_id: ClassId,
    budget: SearchBudget,
    frozen: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Verdict:
    """Screen a 1D or 2D class: the tensor grid, then the Halton batch.

    Candidates form a C-order tensor with axes (slice, x1[, y1], x2[, y2],
    t[, s]).  A plain check has one slice, on the intervals ``ivs[0]``.  A
    co-ordinate check has one per partial mapping, on ``ivs[s]``, and
    ``frozen`` holds each slice's frozen value and whether x is the frozen
    co-ordinate; f then runs on its own 2D tape (see :func:`_eval_lanes`).
    Within a slice the grid is screened in C order, then the Halton batch
    in its order, and equal margins rank by screening order.

    The grid of a plain 2D check of a class with a parameter (C2, QC2, W2,
    W2-ordered, WQC2) gathers f at its chord points from a :class:`_Table`
    when one is small enough; every other grid, and every Halton batch,
    mixes its chord points onto lanes and evaluates them there.

    Each slice gets the outcome a check of it alone would give.  The check
    is undefined at the first undefined slice; ``samples`` counts the
    candidates of the slices before it and its own, or none of its own when
    f is undefined on its grid.  Otherwise the best candidate of every
    violating slice is refined, and the largest refined margin, the earlier
    slice on a tie, gives the witness.
    """
    n, m = budget.grid_n, budget.halton_count
    kind, names = class_id.kind, class_id.param_names
    slices, d = len(ivs), len(ivs[0])
    ndim = 2 * d + len(names)
    ordered_only = class_id is ClassId.W2_ORDERED
    resolution = f"grid n={n}{' per axis' if d == 2 else ''}, halton m={m}"
    if frozen is not None:
        resolution = f"{slices // 2} slices per axis, {resolution}"

    def frozen_on(axes: int) -> Optional[tuple]:
        return frozen and tuple(_place(v, (0,), axes) for v in frozen)

    def lift(pt: tuple, s: int) -> tuple:
        if frozen is None:
            return pt
        value = float(frozen[0][s])
        return (value, *pt) if frozen[1][s] else (*pt, value)

    def frozen_at(s: int) -> tuple:
        """Slice s's frozen axis and value."""
        return (Axis.X if frozen[1][s] else Axis.Y), float(frozen[0][s])

    def screened(params, chord, F1, F2, chunk, live, floor, ok=None):
        margin, over, ok_mixed = _lane_margins(kind, params, chord, F1, F2, chunk, floor)
        if ok is not None:
            ok_mixed &= ok
        ok = ok_mixed
        viol = None  # a skipped slab: no lane is NaN, none violates
        if over is not None:
            # a NaN margin decides nothing: the lane counts as undefined
            # (min propagates NaN, so the mask is built only when there is one)
            if np.isnan(margin.min()):
                nan = np.isnan(margin, out=_POOL.take("scratch", chunk, bool))
                ok &= np.logical_not(nan, out=nan)
            viol = np.logical_and(over, live, out=over)
            viol &= ok
        bad = np.logical_not(ok, out=ok)
        bad &= live
        return margin, viol, bad

    lin = {iv: np.linspace(iv.lo, iv.hi, n) for iv in set().union(*ivs)}
    grids = [np.array([lin[row[a]] for row in ivs]) for a in range(d)]
    points = [_place(g, (0, 1 + a), 1 + d) for a, g in enumerate(grids)]
    (Fg,), (okg,) = _eval_lanes(f, [points], (slices,) + (n,) * d, frozen_on(1 + d), "grid")
    okg = okg.reshape(slices, -1)
    # screening stops before the first slice undefined on its own grid
    live_slices = int(np.argmin(okg.all(axis=1))) if not okg.all() else slices
    cols = [_place(grids[a % d], (0, 1 + a), 1 + ndim) for a in range(2 * d)] + [
        _place(np.linspace(0.0, 1.0, n), (1 + a,), 1 + ndim) for a in range(2 * d, ndim)
    ]
    F1 = _place(Fg, range(1 + d), 1 + ndim)
    F2 = _place(Fg, (0, *range(1 + d, 1 + 2 * d)), 1 + ndim)
    # one mask per check, at the pairs' own shape: a temporary, since it
    # outgrows the pool's slab-sized buffers at large resolutions
    pairs = np.broadcast_shapes(*(c.shape for c in cols[: 2 * d]))
    live = _screened_pairs(
        cols[:d], cols[d : 2 * d], ordered_only, np.empty(pairs, bool), np.empty(pairs, bool)
    )
    screen = _Screen(slices, ndim)
    # these templates are symmetric in (p1, p2), bit for bit; C's and QC's
    # in (p1, p2, lam) and (p2, p1, 1 - lam), a grid value on a dyadic grid
    mirrored = kind in ("J", "JQC", "W", "WQC") or (kind in ("C", "QC") and _reflects(n))
    mirror = (1, 1 + d) if mirrored else None
    # W's and WQC's in (t[, s]) and (1 - t[, 1 - s]), which swaps their two
    # chord points, on a dyadic grid
    reflect = 1 + 2 * d if kind in ("W", "WQC") and _reflects(n) else None
    table = None
    if live_slices and frozen is None and d == 2 and names:
        # the mixed points the lane path evaluates: the mirror screens half,
        # and the reflection n // 2 + 1 of the n values of t
        lanes = len(_chords(kind)) * n**ndim // (2 if mirrored else 1)
        if reflect is not None:
            lanes = lanes * (n // 2 + 1) // n
        table = _Table.build(f, kind, cols, lanes)

    def grid_lanes(parts, chunk, floor):
        c = len(cols)
        rest = parts[c + 3 :]
        if table is None:
            chord = _chord_sides(kind, f, d, parts[:c], chunk, rest or None)
        else:
            chord = table.gather(rest, chunk)
        return screened(
            parts[2 * d : c], chord, parts[c], parts[c + 1], chunk, parts[c + 2], floor
        )

    views = cols + [F1, F2, live, *(frozen_on(1 + ndim) or (table.at if table else ()))]
    grid = (live_slices,) + (n,) * ndim
    if live_slices and screen.scan(grid, views, grid_lanes, mirror, reflect):
        live_slices = next(s for s, c in enumerate(screen.bad) if c is not None)
    if m > 0 and live_slices:
        cube = _halton_cube(m, ndim)
        lo, width = np.array([[(iv.lo, iv.hi - iv.lo) for iv in row] for row in ivs]).T
        halton = [
            lo[a % d, :, None] + width[a % d, :, None] * cube[:, a] for a in range(2 * d)
        ] + [cube[None, :, a] for a in range(2 * d, ndim)]

        def halton_lanes(parts, chunk, floor):
            hcols, fzp = parts[:ndim], parts[ndim:] or None
            p1, p2 = hcols[:d], hcols[d : 2 * d]
            (F1, F2), (ok, ok2) = _eval_lanes(f, [p1, p2], chunk, fzp)
            ok &= ok2
            live = _screened_pairs(
                p1, p2, ordered_only, *_POOL.takes(("live", "scratch"), chunk, bool)
            )
            chord = _chord_sides(kind, f, d, hcols, chunk, fzp)
            return screened(hcols[2 * d :], chord, F1, F2, chunk, live, floor, ok)

        views = halton + list(frozen_on(2) or ())
        screen.scan((live_slices, m), views, halton_lanes)
    per_slice = n**ndim - n ** (ndim - d) + m  # by index: see the README
    undefined = [s for s, c in enumerate(screen.bad) if c is not None]
    if undefined:
        s = undefined[0]
        found = dict(status="undefined", resolution=resolution, samples=(s + 1) * per_slice)
        vals = screen.bad[s]
        p1, p2, params = vals[:d], vals[d : 2 * d], dict(zip(names, vals[2 * d :]))
        try:
            _template(class_id, lambda *pt: f(*lift(pt, s)), p1, p2, params)
        except DomainError as err:  # the point the template failed at
            return Verdict(point=err.point, **found)
        # f is defined at every point of the candidate; its inequality overflows
        axis, value = frozen_at(s) if frozen is not None else (None, None)
        return Verdict(
            candidate=(class_id, tuple(p1), tuple(p2), params, axis and axis.value, value),
            **found,
        )
    if live_slices < slices:
        s = live_slices
        at = np.unravel_index(int(np.argmin(okg[s])), (n,) * d)
        point = lift(tuple(float(g[s, i]) for g, i in zip(grids, at)), s)
        return Verdict(
            status="undefined", resolution=resolution, samples=s * per_slice, point=point
        )
    found = dict(resolution=resolution, samples=slices * per_slice)
    hits = [s for s, c in enumerate(screen.best) if c is not None]
    if not hits:
        return Verdict(status="no_violation_found", **found)
    cands, margins = _refine(
        kind,
        names,
        f,
        d,
        np.array([screen.best[s] for s in hits]),
        np.array([screen.margin[s] for s in hits]),
        frozen and tuple(v[hits, None] for v in frozen),
    )
    # lanes and scalar calls run one tape, and a 2D lane at a frozen value
    # is the restricted lane, so the refined margin is the witness's margin
    win = int(np.argmax(margins))  # the earlier slice on a tie
    row = cands[win].tolist()
    p1, p2, params = row[:d], row[d : 2 * d], dict(zip(names, row[2 * d :]))
    if frozen is None:
        witness = make_witness(class_id, f, p1, p2, params)
    else:
        axis, value = frozen_at(hits[win])
        witness = make_witness(
            class_id, restrict(f, axis, value), p1, p2, params, axis.value, value
        )
    return Verdict(status="violated", witness=witness, **found)


def check_membership(
    f: Expr,
    domain: Union[Interval, Box2],
    class_id: ClassId,
    budget: Optional[SearchBudget] = None,
) -> Verdict:
    """Search for a violation of ``class_id`` by ``f`` over ``domain``.

    The candidate set is a deterministic tensor grid of side ``budget.grid_n``
    (points and, where applicable, mixing parameters) plus
    ``budget.halton_count`` Halton points; a budget that tests the class's
    one parameter only at 0 and 1 is a ValueError
    (:meth:`SearchBudget.validate_for`).  The best-margin candidate is
    locally refined with golden-section ascent on its parameters and returned
    as a sound witness; otherwise the verdict records the resolution searched.
    A DomainError anywhere in the candidate set yields the ``undefined``
    verdict carrying the offending point; an inequality that is not finite
    at a candidate where f is defined yields it carrying that candidate.
    """
    if not isinstance(f, Expr):
        raise TypeError("membership checks need a parsed expression")
    budget = budget or SearchBudget()
    budget.validate_for(class_id)
    if class_id.is_coordinate:
        if not isinstance(domain, Box2):
            raise ValueError("co-ordinate classes need a Box2 domain")
        return coordinate_check(f, domain, COORD_TO_1D[class_id], budget=budget)
    if class_id.arity == 1:
        if not isinstance(domain, Interval) or f.arity != 1:
            raise ValueError("1D class needs an Interval domain and a 1D function")
        return _screen(f, [(domain,)], class_id, budget)
    if not isinstance(domain, Box2) or f.arity != 2:
        raise ValueError("2D class needs a Box2 domain and a 2D function")
    return _screen(f, [(domain.x, domain.y)], class_id, budget)


def coordinate_check(
    f: Expr,
    box: Box2,
    class_id: ClassId,
    budget: Optional[SearchBudget] = None,
) -> Verdict:
    """Check the 1D class on ``budget.slices`` equally spaced frozen slices
    in each direction.

    Freezing ``y`` gives the partial mappings on [a, b]; freezing ``x`` the
    ones on [c, d].  All of them are screened in one pass, ``y``-frozen
    slices first, each direction in ascending order.  The returned witness
    records the frozen axis and value and is the maximum-margin one over all
    slices, the earlier slice on a tie.
    """
    if not isinstance(f, Expr) or f.arity != 2:
        raise TypeError("co-ordinate checks need a parsed 2D expression")
    if class_id.arity != 1:
        raise ValueError(f"co-ordinate checks test a 1D class, got {class_id.value}")
    budget = budget or SearchBudget()
    budget.validate_for(class_id)
    n = budget.slices
    values = np.concatenate(
        [np.linspace(box.y.lo, box.y.hi, n), np.linspace(box.x.lo, box.x.hi, n)]
    )
    on_x = np.arange(2 * n) >= n
    ivs = [(box.x,)] * n + [(box.y,)] * n
    return _screen(f, ivs, class_id, budget, (values, on_x))
