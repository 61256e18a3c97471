"""Hadamard-type inequality reports: every term, every slack, pass/fail.

Each operation takes a parsed expression and its domain, computes the named
terms of one inequality chain with the quadrature engine, lists the
consecutive slacks, and marks a link as holding when its slack is at least
``-VERIFY_TOL``.  That tolerance is absolute: it neither scales with f nor
allows for the quadrature error estimates, which exceed it for a large f
(``HH1D`` on ``1e12*x`` over [-1, 1] has one of 5.6e-3), so integration
error can decide a link; the ROADMAP's scale-aware link band accounts for
both.  A non-converged integral is surfaced in the report, and a value
that is not finite refuses the report with DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from .domains import Box2, Interval
from .expressions import Axis, DomainError, Expr
from .quadrature import (
    QuadConfig,
    QuadResult,
    _as_vector,
    _integrate_slices,
    _switch_values,
    integrate_1d,
    integrate_2d,
    integrate_chord_gaps,
    integrate_nested,
)

# unused here: perfbench/layers.py wraps them until the ROADMAP's run statistics retire it
from .expressions import chord_substitution, restrict  # noqa: F401
from .quadrature import integrate_abs_difference  # noqa: F401

__all__ = [
    "VERIFY_TOL",
    "InequalityReport",
    "OneSided",
    "coord_convex_chain",
    "hadamard_1d",
    "jqc_bound_1d",
    "max_identity",
    "thm_jqc_coord",
    "thm_wqc_coord",
    "wqc_bound_1d",
]

VERIFY_TOL = 1e-6

# The doubly-nested chord corrections run at 1e-8, the inner pass an order
# tighter; plain single integrals keep the engine defaults.  Both are relative
# to each integral: for a large f the errors, reported in ``quad_errors``,
# can exceed the absolute ``VERIFY_TOL``; the ROADMAP's scale-aware link band counts them.
_INNER_CFG = QuadConfig(rel_tol=1e-9, abs_tol=1e-11, max_subdivisions=1024)
_OUTER_CFG = QuadConfig(rel_tol=1e-8, abs_tol=1e-9, max_subdivisions=384)


def _link_holds(slack: float) -> bool:
    """The verdict on one link, a chain's or a side inequality's."""
    return slack >= -VERIFY_TOL


@dataclass(frozen=True)
class OneSided:
    """A single lhs <= rhs statement reported alongside a chain."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return _link_holds(self.slack)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class InequalityReport:
    inequality_id: str
    terms: tuple[tuple[str, float], ...]
    slacks: tuple[float, ...]
    holds: tuple[bool, ...]
    quad_errors: tuple[float, ...]
    converged: bool
    components: dict[str, float] = field(default_factory=dict)
    side_inequalities: tuple[OneSided, ...] = ()

    @property
    def all_hold(self) -> bool:
        return all(self.holds) and all(s.holds for s in self.side_inequalities)

    def term_values(self) -> list[float]:
        return [v for _, v in self.terms]

    def describe(self) -> str:
        lines = [f"{self.inequality_id}:"]
        for i, (name, value) in enumerate(self.terms):
            lines.append(f"  {name} = {value!r}")
            if i < len(self.slacks):
                status = "holds" if self.holds[i] else "FAILS"
                lines.append(f"    <=  (slack {self.slacks[i]:+.3e}, {status})")
        for s in self.side_inequalities:
            status = "holds" if s.holds else "FAILS"
            lines.append(
                f"  {s.name}: {s.lhs!r} <= {s.rhs!r} (slack {s.slack:+.3e}, {status})"
            )
        if self.components:
            for name, value in self.components.items():
                lines.append(f"  [{name} = {value!r}]")
        lines.append(f"  quadrature errors: {[f'{e:.2e}' for e in self.quad_errors]}")
        if not self.converged:
            lines.append("  WARNING: quadrature budget exhausted; values are estimates")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "terms": [[n, v] for n, v in self.terms],
            "slacks": list(self.slacks),
            "holds": list(self.holds),
            "quad_errors": list(self.quad_errors),
            "converged": self.converged,
            "components": dict(self.components),
            "side_inequalities": [s.to_dict() for s in self.side_inequalities],
            "all_hold": self.all_hold,
        }


def _report(
    inequality_id: str,
    terms: list[tuple[str, float]],
    quad_errors: list[float],
    converged: bool,
    components: Optional[dict] = None,
    sides: tuple[OneSided, ...] = (),
) -> InequalityReport:
    values = [v for _, v in terms]
    slacks = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    # a value that is not finite would read as a verdict, and is not JSON
    named = [*terms, *(components or {}).items()]
    named += [(f"slack {terms[i][0]!r} -> {terms[i + 1][0]!r}", s) for i, s in enumerate(slacks)]
    for side in sides:
        named += [(f"{k} of {side.name!r}", getattr(side, k)) for k in ("lhs", "rhs", "slack")]
    named += [(f"quadrature error {i}", e) for i, e in enumerate(quad_errors)]
    for name, value in named:
        if not math.isfinite(value):
            raise DomainError(f"{inequality_id}: {name} is not finite ({value!r})")
    holds = tuple(_link_holds(s) for s in slacks)
    return InequalityReport(
        inequality_id=inequality_id,
        terms=tuple(terms),
        slacks=slacks,
        holds=holds,
        quad_errors=tuple(quad_errors),
        converged=converged,
        components=components or {},
        side_inequalities=sides,
    )


class _Means:
    """The integrals of one report of f over its domain, each entered once.

    ``mean`` returns an integral's value over its averaging length and
    records its error estimate over the same length and whether it
    converged.  A rectangle whose area is 0 or not finite is refused before
    any integral runs: no mean over it is a number.
    """

    def __init__(self, f: Expr, domain: Union[Interval, Box2]) -> None:
        if isinstance(domain, Box2) and not 0.0 < domain.area < math.inf:
            raise DomainError(
                f"the rectangle {list(domain.bounds)} has area {domain.area!r};"
                " its means need a positive finite area"
            )
        self.f = f
        self.domain = domain
        self.errors: dict[str, float] = {}
        self.converged = True

    def mean(self, name: str, q: QuadResult, length: float, per: float = 1.0) -> float:
        """``q`` over ``length``, then over ``per``: a power-of-two ``per``
        divides exactly, where ``per * length`` could overflow."""
        self.errors[name] = q.abs_error_estimate / length / per
        self.converged = self.converged and q.converged
        return q.value / length / per

    def quad_errors(self, *order: str) -> list[float]:
        """The recorded errors, in ``order`` when given, else as recorded."""
        return [self.errors[name] for name in order or self.errors]

    def domain_mean(self) -> float:
        """The mean of f over its interval or rectangle."""
        if isinstance(self.domain, Box2):
            q = integrate_2d(self.f, self.domain)
            return self.mean("double integral mean", q, self.domain.area)
        return self.mean("integral mean", integrate_1d(self.f, self.domain), self.domain.length)

    def line_means(self, names: tuple[str, ...]) -> dict[str, float]:
        """Means of f along the named lines of the rectangle, out of its two
        midlines and four edges.  Only those lines are integrated, so f need
        not be defined on the others.  Each line is cut where a switching
        function of f changes sign, in closed form where it is affine along
        the line, as the rows of ``integrate_2d`` are.  Each line runs f's
        own tape, one line per call, so a DomainError names f's own point,
        on the first line that fails."""
        x, y = self.domain.x, self.domain.y
        # (the co-ordinate that runs, the other one's value, the interval run)
        lines = {
            "horizontal midline": (Axis.X, y.midpoint, x),
            "vertical midline": (Axis.Y, x.midpoint, y),
            "bottom edge": (Axis.X, y.lo, x),
            "top edge": (Axis.X, y.hi, x),
            "left edge": (Axis.Y, x.lo, y),
            "right edge": (Axis.Y, x.hi, y),
        }
        fv = _as_vector(self.f)
        means = {}
        for name in names:
            along, at, iv = lines[name]
            splits = [_switch_values(s, along) for s in self.f.switches]
            (q,) = _integrate_slices(fv, splits, along, [at], iv, QuadConfig())
            means[name] = self.mean(name, q, iv.length)
        return means


# ---------------------------------------------------------------------------
# 1D bounds


def hadamard_1d(f: Expr, iv: Interval) -> InequalityReport:
    """Midpoint value <= integral mean <= endpoint average (for convex f)."""
    m = _Means(f, iv)
    mid_val = f(iv.midpoint)
    mean = m.domain_mean()
    ends = 0.5 * (f(iv.lo) + f(iv.hi))
    return _report(
        "HH1D",
        [("f(midpoint)", mid_val), ("integral mean", mean), ("endpoint average", ends)],
        m.quad_errors(),
        m.converged,
    )


def jqc_bound_1d(f: Expr, iv: Interval) -> InequalityReport:
    """Midpoint value <= integral mean + chord correction (for J-quasi-convex f).

    The correction is half the integral over t in [0,1] of the absolute
    difference of the two chord evaluations of f between the endpoints,
    integrated at ``_INNER_CFG``.
    """
    m = _Means(f, iv)
    mid_val = f(iv.midpoint)
    mean = m.domain_mean()
    qI = integrate_chord_gaps(f, Axis.X, iv, None, _INNER_CFG)[0]
    correction = m.mean("chord correction I", qI, 2.0)
    return _report(
        "JQC1D",
        [("f(midpoint)", mid_val), ("mean + chord correction", mean + correction)],
        m.quad_errors(),
        m.converged,
        components={"integral mean": mean, "chord correction I": correction},
    )


def wqc_bound_1d(f: Expr, iv: Interval) -> InequalityReport:
    """Integral mean <= max of the endpoint values (for Wright-quasi-convex f)."""
    m = _Means(f, iv)
    mean = m.domain_mean()
    fa = f(iv.lo)
    fb = f(iv.hi)
    return _report(
        "WQC1D",
        [("integral mean", mean), ("max endpoint value", max(fa, fb))],
        m.quad_errors(),
        m.converged,
        components={"f(lo)": fa, "f(hi)": fb},
    )


# ---------------------------------------------------------------------------
# Rectangle chains


_MIDLINES = ("horizontal midline", "vertical midline")
_EDGES = ("bottom edge", "top edge", "left edge", "right edge")


def coord_convex_chain(f: Expr, box: Box2) -> InequalityReport:
    """Five-term chain for co-ordinate-wise convex f: centre value, averaged
    midline means, double integral mean, averaged edge means, corner average.
    The chain is sharp for functions affine in each variable."""
    m = _Means(f, box)
    a, b, c, d = box.bounds
    t1 = f(box.x.midpoint, box.y.midpoint)
    line_means = m.line_means(_MIDLINES + _EDGES)
    t2 = 0.5 * (line_means["horizontal midline"] + line_means["vertical midline"])
    t3 = m.domain_mean()
    t4 = 0.25 * (
        line_means["bottom edge"]
        + line_means["top edge"]
        + line_means["left edge"]
        + line_means["right edge"]
    )
    t5 = 0.25 * (f(a, c) + f(b, c) + f(a, d) + f(b, d))
    return _report(
        "CHAIN1_6",
        [
            ("f(centre)", t1),
            ("average of midline means", t2),
            ("double integral mean", t3),
            ("average of edge means", t4),
            ("corner average", t5),
        ],
        m.quad_errors(*_MIDLINES, "double integral mean", *_EDGES),
        m.converged,
        components=line_means,
    )


def _chord_correction_2d(f: Expr, box: Box2, along: Axis) -> QuadResult:
    """Outer integral (over the other axis) of the inner chord-gap integral
    along ``along``.

    The inner t-integral locates its kinks per outer value, which is why the
    outer loop is the adaptive one.  Each outer integrand call hands all its
    nodes to one ``integrate_chord_gaps``, which runs f's own tape at both
    chord points, so a DomainError names f's own point.
    """
    chord_iv, outer_iv = (box.x, box.y) if along is Axis.X else (box.y, box.x)
    return integrate_nested(
        lambda vs: integrate_chord_gaps(f, along, chord_iv, vs, _INNER_CFG), outer_iv, _OUTER_CFG
    )


def thm_jqc_coord(f: Expr, box: Box2) -> InequalityReport:
    """Midline-mean average <= double integral mean + H, for f J-quasi-convex
    on the co-ordinates.  H sums the two chord-gap double integrals with
    prefactors 1/(4 (d-c)) and 1/(4 (b-a)); it depends only on the
    rectangle, both inner variables being integrated out.  Their gaps run
    f's own tape at both chord points, so f failing on a chord is reported
    at f's own point.

    The chord double integrals run at ``_INNER_CFG`` inside ``_OUTER_CFG``:
    a nested integral's error is the outer error plus the outer length
    times the worst inner error, so the inner pass must be tighter than the
    outer one, and its cost is the product of the two budgets.  One
    ``QuadConfig`` cannot say both.  Both are relative to each integral, so
    for a large f the chord errors in ``quad_errors`` exceed ``VERIFY_TOL``
    (the ROADMAP's scale-aware link band counts them).
    """
    m = _Means(f, box)
    mean_h, mean_v = m.line_means(_MIDLINES).values()
    double_mean = m.domain_mean()
    qx = _chord_correction_2d(f, box, Axis.X)
    qy = _chord_correction_2d(f, box, Axis.Y)
    hx = m.mean("x-chord", qx, box.y.length, 4.0)
    h_term = hx + m.mean("y-chord", qy, box.x.length, 4.0)
    sides = (
        OneSided(
            "vertical midline mean <= double mean + x-chord correction",
            mean_v,
            double_mean + qx.value / box.y.length / 2.0,
        ),
        OneSided(
            "horizontal midline mean <= double mean + y-chord correction",
            mean_h,
            double_mean + qy.value / box.x.length / 2.0,
        ),
    )
    return _report(
        "THM_2_1",
        [
            ("average of midline means", 0.5 * (mean_h + mean_v)),
            ("double mean + H", double_mean + h_term),
        ],
        m.quad_errors(),
        m.converged,
        components={
            "double integral mean": double_mean,
            "H": h_term,
            "x-chord double integral": qx.value,
            "y-chord double integral": qy.value,
        },
        sides=sides,
    )


def thm_wqc_coord(f: Expr, box: Box2) -> InequalityReport:
    """Double integral mean <= half-sum of the two maxima of opposite edge
    means, for f Wright-quasi-convex on the co-ordinates."""
    m = _Means(f, box)
    line_means = m.line_means(_EDGES)
    double_mean = m.domain_mean()
    max_x_edges = max(line_means["bottom edge"], line_means["top edge"])
    max_y_edges = max(line_means["left edge"], line_means["right edge"])
    rhs = 0.5 * (max_x_edges + max_y_edges)
    sides = (
        OneSided("double mean <= max of left/right edge means", double_mean, max_y_edges),
        OneSided("double mean <= max of bottom/top edge means", double_mean, max_x_edges),
    )
    return _report(
        "THM_2_4",
        [("double integral mean", double_mean), ("half-sum of edge maxima", rhs)],
        m.quad_errors("double integral mean", *_EDGES),
        m.converged,
        components=line_means,
        sides=sides,
    )


# ---------------------------------------------------------------------------
# max identity


def max_identity(u: float, v: float) -> float:
    """(u + v + |u - v|) / 2, evaluated so it equals the builtin max bit-exactly
    on finite doubles.

    The sum is rounded once (:func:`_twice_max`); its true value 2*max(u, v)
    is representable, so that rounding is exact and so is the halving.  Where
    a sum overflows, the identity is evaluated on u/8 and v/8, which keeps
    every partial sum below half the double range.  Those eighths are exact
    unless an argument is near the subnormals while its partner is 2**1021
    or more; a sum overflows then only when the partner is the maximum, and
    the rounded eighths of the small argument cancel.  Naive float
    evaluation fails both near overflow (u + v -> inf) and under absorption
    (a tiny max vanishes against a huge opposite-signed partner).
    """
    u, v = float(u), float(v)
    if u == v:
        return u  # builtin max keeps the first of two equal arguments
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"max_identity needs finite arguments, got {u!r}, {v!r}")
    try:
        twice = _twice_max(u, v)
    except OverflowError:  # from math.fsum
        twice = math.inf
    if twice == 0.0:
        # an exact zero sum carries no sign: the maximum is the zero argument
        return u if u == 0.0 else v
    if math.isfinite(twice):
        return 0.5 * twice
    return 4.0 * _twice_max(0.125 * u, 0.125 * v)


def _twice_max(u: float, v: float) -> float:
    """u + v + |u - v| rounded once by ``math.fsum``.  TwoSum splits u - v
    exactly into hi + lo with |lo| at most half an ulp of hi, so
    |u - v| = sign(hi) * (hi + lo)."""
    hi = u - v
    back = hi - u
    lo = (u - (hi - back)) - (v + back)
    sign = 1.0 if hi > 0.0 else -1.0
    return math.fsum((u, v, sign * hi, sign * lo))
