"""Adaptive 1D and 2D quadrature with embedded error estimates.

The base rule is the 15-point Kronrod extension of 7-point Gauss.  Adaptivity
bisects the segment (or rectangle) with the worst error estimate, driven by a
max-heap, until the summed estimate meets tolerance or the subdivision budget
runs out.  Integrands of the form ``|g - h|`` get their kinks located first
(sign changes of ``g - h``) and are integrated piecewise, since those are the
only non-smooth integrands the inequality reports produce.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .domains import Interval, Box2
from .expressions import ArityError, DomainError, Expr, eval_array

__all__ = [
    "QuadConfig",
    "QuadResult",
    "integrate_1d",
    "integrate_2d",
    "integrate_abs_difference",
]

_EPS = np.finfo(float).eps

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (positive abscissae; the full rule is symmetric about zero).
_XGK_POS = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WGK_POS = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ]
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_POS = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
    ]
)
_WG_CENTER = 0.417959183673469387755102040816327

# Ascending node layout; the Gauss nodes sit at the odd positions.
_NODES = np.concatenate([-_XGK_POS, [0.0], _XGK_POS[::-1]])
_WK = np.concatenate([_WGK_POS, [_WGK_CENTER], _WGK_POS[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_WG_POS, [_WG_CENTER], _WG_POS[::-1]])


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 4096
    kink_split: bool = True
    # starting panel count; several panels keep one accidental agreement of
    # the embedded rules from terminating adaptivity on a non-smooth integrand
    initial_panels: int = 8

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1 or self.initial_panels < 1:
            raise ValueError("subdivision counts must be at least 1")


@dataclass(frozen=True)
class QuadResult:
    """Integral value, a (conservative) absolute error estimate, and the number
    of panels the adaptive scheme ended with."""

    value: float
    abs_error_estimate: float
    subdivisions: int
    converged: bool

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0:
            raise ValueError("error estimate must be non-negative")
        if self.subdivisions < 1:
            raise ValueError("subdivisions must be at least 1")


VectorFn = Callable[[np.ndarray], np.ndarray]


def _as_vector_1d(f: Union[Expr, Callable[[float], float]]) -> VectorFn:
    """Adapt an expression or scalar callable to batch evaluation over nodes."""
    if isinstance(f, Expr):
        if f.arity != 1:
            raise ArityError("integrate_1d needs a 1D expression")

        def fv(pts: np.ndarray) -> np.ndarray:
            vals, ok = eval_array(f, pts)
            if not ok.all():
                p = float(pts[int(np.argmax(~ok))])
                f(p)  # raises DomainError with the precise reason
                raise DomainError("non-finite value", (p,))
            return np.array(vals, dtype=float)

        return fv

    def fv(pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape, dtype=float)
        for i, p in enumerate(pts):
            v = float(f(float(p)))
            if not math.isfinite(v):
                raise DomainError("non-finite value", (float(p),))
            out[i] = v
        return out

    return fv


def _as_vector_2d(
    f: Union[Expr, Callable[[float, float], float]]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if isinstance(f, Expr):
        if f.arity != 2:
            raise ArityError("integrate_2d needs a 2D expression")

        def fv(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
            vals, ok = eval_array(f, xs, ys)
            if not ok.all():
                i = int(np.argmax(~ok))
                px, py = float(xs[i]), float(ys[i])
                f(px, py)
                raise DomainError("non-finite value", (px, py))
            return np.array(vals, dtype=float)

        return fv

    def fv(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out = np.empty(xs.shape, dtype=float)
        for i in range(xs.size):
            v = float(f(float(xs[i]), float(ys[i])))
            if not math.isfinite(v):
                raise DomainError("non-finite value", (float(xs[i]), float(ys[i])))
            out[i] = v
        return out

    return fv


def _gk15(fv: VectorFn, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: returns (value, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ys = fv(mid + half * _NODES)
    k15 = half * float(_WK @ ys)
    g7 = half * float(_WG @ ys[_GAUSS_IDX])
    resabs = half * float(_WK @ np.abs(ys))
    err = max(abs(k15 - g7), 50.0 * _EPS * resabs)
    return k15, err


def _gk15_batch(
    fv: VectorFn, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels over a batch of segments in one integrand call."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    ys = fv(pts.ravel()).reshape(pts.shape)
    k15 = half * (ys @ _WK)
    g7 = half * (ys[:, _GAUSS_IDX] @ _WG)
    resabs = half * (np.abs(ys) @ _WK)
    err = np.maximum(np.abs(k15 - g7), 50.0 * _EPS * resabs)
    return k15, err


def integrate_1d(
    f: Union[Expr, Callable[[float], float]],
    iv: Interval,
    cfg: Optional[QuadConfig] = None,
) -> QuadResult:
    """Adaptively integrate ``f`` over ``iv``.

    On budget exhaustion the best estimate is still returned with
    ``converged`` set to False.  DomainError from the integrand propagates.
    """
    cfg = cfg or QuadConfig()
    fv = _as_vector_1d(f)
    k0 = min(cfg.initial_panels, cfg.max_subdivisions)
    bounds = np.linspace(iv.lo, iv.hi, k0 + 1)
    vals0, errs0 = _gk15_batch(fv, bounds[:-1], bounds[1:])
    # heap entries: (-err, insertion counter, a, b, value, err)
    heap = []
    for i in range(k0):
        heap.append(
            (-errs0[i], i, float(bounds[i]), float(bounds[i + 1]),
             float(vals0[i]), float(errs0[i]))
        )
    heapq.heapify(heap)
    done: list[tuple[float, float, float, float]] = []  # (a, b, value, err)
    total_val, total_err = float(np.sum(vals0)), float(np.sum(errs0))
    counter = k0
    nseg = k0
    converged = True
    # splitting the worst segments in waves keeps the integrand calls batched
    wave = 16
    while True:
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
            break
        if not heap:
            converged = False
            break
        if nseg >= cfg.max_subdivisions:
            converged = False
            break
        split: list[tuple[float, float, float, float]] = []
        budget_left = cfg.max_subdivisions - nseg
        while heap and len(split) < min(wave, budget_left):
            neg_err, _, a, b, v, e = heapq.heappop(heap)
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                # cannot split further at double precision; freeze this panel
                done.append((a, b, v, e))
                continue
            if -neg_err <= 0.02 * total_err and split:
                heapq.heappush(heap, (neg_err, counter, a, b, v, e))
                counter += 1
                break
            split.append((a, b, v, e))
        if not split:
            if not heap:
                converged = False
                break
            continue
        lows = np.empty(2 * len(split))
        highs = np.empty(2 * len(split))
        for i, (a, b, _v, _e) in enumerate(split):
            m = 0.5 * (a + b)
            lows[2 * i], highs[2 * i] = a, m
            lows[2 * i + 1], highs[2 * i + 1] = m, b
        vals, errs = _gk15_batch(fv, lows, highs)
        for i, (a, b, v, e) in enumerate(split):
            total_val += vals[2 * i] + vals[2 * i + 1] - v
            total_err += errs[2 * i] + errs[2 * i + 1] - e
            for j in (2 * i, 2 * i + 1):
                heapq.heappush(
                    heap,
                    (-errs[j], counter, lows[j], highs[j], float(vals[j]), float(errs[j])),
                )
                counter += 1
            nseg += 1
    segments = [(a, b, v, e) for _, _, a, b, v, e in heap] + done
    segments.sort(key=lambda s: s[0])  # fixed reduction order
    value = math.fsum(s[2] for s in segments)
    err_total = math.fsum(s[3] for s in segments)
    return QuadResult(value, err_total, nseg, converged)


def _gk15_2d(
    fv2: Callable[[np.ndarray, np.ndarray], np.ndarray],
    xlo: float,
    xhi: float,
    ylo: float,
    yhi: float,
) -> tuple[float, float, float]:
    """Tensor GK panel on a rectangle: (value, error_x, error_y).

    The per-axis errors compare the full Kronrod tensor against the mixed
    Gauss/Kronrod tensors, attributing error to the axis whose downgrade
    moves the value most.
    """
    xm, xh = 0.5 * (xlo + xhi), 0.5 * (xhi - xlo)
    ym, yh = 0.5 * (ylo + yhi), 0.5 * (yhi - ylo)
    xs = xm + xh * _NODES
    ys = ym + yh * _NODES
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = fv2(X.ravel(), Y.ravel()).reshape(15, 15)
    scale = xh * yh
    kk = scale * float(_WK @ Z @ _WK)
    gk = scale * float(_WG @ Z[_GAUSS_IDX, :] @ _WK)
    kg = scale * float(_WK @ Z[:, _GAUSS_IDX] @ _WG)
    resabs = scale * float(_WK @ np.abs(Z) @ _WK)
    floor = 50.0 * _EPS * resabs
    err_x = max(abs(kk - gk), floor)
    err_y = max(abs(kk - kg), floor)
    return kk, err_x, err_y


def integrate_2d(
    f: Union[Expr, Callable[[float, float], float]],
    box: Box2,
    cfg: Optional[QuadConfig] = None,
) -> QuadResult:
    """Adaptively integrate ``f`` over a rectangle, bisecting the worse axis."""
    cfg = cfg or QuadConfig()
    fv2 = _as_vector_2d(f)
    a, b, c, d = box.bounds
    per_axis = 2 if cfg.initial_panels > 1 and cfg.max_subdivisions >= 4 else 1
    xs = np.linspace(a, b, per_axis + 1)
    ys = np.linspace(c, d, per_axis + 1)
    heap = []
    total_val, total_err = 0.0, 0.0
    counter = 0
    for i in range(per_axis):
        for j in range(per_axis):
            rect = (float(xs[i]), float(xs[i + 1]), float(ys[j]), float(ys[j + 1]))
            val, ex, ey = _gk15_2d(fv2, *rect)
            heap.append((-(ex + ey), counter, rect, val, ex, ey))
            counter += 1
            total_val += val
            total_err += ex + ey
    heapq.heapify(heap)
    done: list[tuple[tuple, float, float]] = []  # (rect, value, err)
    nrect = per_axis * per_axis
    converged = True
    while True:
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
            break
        if not heap:
            converged = False
            break
        if nrect >= cfg.max_subdivisions:
            converged = False
            break
        _, _, (xlo, xhi, ylo, yhi), v, ex, ey = heapq.heappop(heap)
        if ex >= ey:
            m = 0.5 * (xlo + xhi)
            splittable = xlo < m < xhi
            children = ((xlo, m, ylo, yhi), (m, xhi, ylo, yhi))
        else:
            m = 0.5 * (ylo + yhi)
            splittable = ylo < m < yhi
            children = ((xlo, xhi, ylo, m), (xlo, xhi, m, yhi))
        if not splittable:
            done.append(((xlo, xhi, ylo, yhi), v, ex + ey))
            continue
        total_val -= v
        total_err -= ex + ey
        for rect in children:
            cv, cex, cey = _gk15_2d(fv2, *rect)
            total_val += cv
            total_err += cex + cey
            heapq.heappush(heap, (-(cex + cey), counter, rect, cv, cex, cey))
            counter += 1
        nrect += 1
    cells = [(rect, v, ex + ey) for _, _, rect, v, ex, ey in heap] + done
    cells.sort(key=lambda cell: (cell[0][0], cell[0][2]))
    value = math.fsum(cv for _, cv, _ in cells)
    err_total = math.fsum(ce for _, _, ce in cells)
    return QuadResult(value, err_total, nrect, converged)


def _bisect_root(
    d: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    dlo = d(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        dm = d(mid)
        if dm == 0.0:
            return mid
        if (dlo < 0.0) != (dm < 0.0):
            hi = mid
        else:
            lo, dlo = mid, dm
    return 0.5 * (lo + hi)


def integrate_abs_difference(
    g: Union[Expr, Callable[[float], float]],
    h: Union[Expr, Callable[[float], float]],
    iv: Interval,
    cfg: Optional[QuadConfig] = None,
) -> QuadResult:
    """Integrate ``|g - h|`` over ``iv`` with the kinks split out first.

    Sign changes of ``g - h`` are bracketed on a 257-point uniform scan and
    bisected to 1e-12, then ``|g - h|`` is integrated on each kink-free piece.
    No constant prefactor is applied; callers own those.
    """
    cfg = cfg or QuadConfig()

    if isinstance(g, Expr) and isinstance(h, Expr):
        from .expressions import absolute, difference

        diff: Union[Expr, Callable[[float], float]] = difference(g, h)
        absdiff: Union[Expr, Callable[[float], float]] = absolute(diff)
    else:

        def diff(t: float) -> float:
            return g(t) - h(t)

        def absdiff(t: float) -> float:
            return abs(g(t) - h(t))

    if not cfg.kink_split:
        return integrate_1d(absdiff, iv, cfg)

    scan = _as_vector_1d(diff)
    grid = np.linspace(iv.lo, iv.hi, 257)
    dvals = list(scan(grid))
    cuts: list[float] = []
    for i in range(1, 256):
        # an isolated zero with a sign change across it is itself the kink
        if dvals[i] == 0.0 and dvals[i - 1] * dvals[i + 1] < 0.0:
            cuts.append(float(grid[i]))
    for i in range(256):
        if dvals[i] * dvals[i + 1] < 0.0:
            cuts.append(_bisect_root(diff, float(grid[i]), float(grid[i + 1])))
    breaks = sorted({iv.lo, iv.hi, *cuts})
    pieces = [
        (breaks[i], breaks[i + 1])
        for i in range(len(breaks) - 1)
        if breaks[i + 1] > breaks[i]
    ]
    piece_cfg = QuadConfig(
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol / len(pieces),
        max_subdivisions=cfg.max_subdivisions,
        kink_split=False,
    )
    results = [integrate_1d(absdiff, Interval(lo, hi), piece_cfg) for lo, hi in pieces]
    return QuadResult(
        math.fsum(r.value for r in results),
        math.fsum(r.abs_error_estimate for r in results),
        sum(r.subdivisions for r in results),
        all(r.converged for r in results),
    )
