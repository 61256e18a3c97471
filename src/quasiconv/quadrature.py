"""Adaptive quadrature with embedded error estimates.

The base rule is the 15-point Kronrod extension of 7-point Gauss.  One
adaptive driver integrates many pieces per integrand call, bisecting the
panels with the worst error estimates until each piece's summed estimate
meets tolerance or the subdivision budget runs out.  Every integral,
``integrate_1d`` included, is a row of one row integrator, which cuts each
row first where a split function changes sign (``g - h`` for ``|g - h|``, a
switching function in 2D), so every piece is free of the kinks they mark; a
row with no split function is one piece.  A split function affine in the
row's parameter is cut in closed form, any other by a scan and a
bisection.  A chord gap f(P(t)) - f(Q(t)) runs f's own tape at both chord
points, mixed on lanes as screening mixes them, so its errors name f's own
point; being odd about t = 1/2, it is integrated over half the chord and
doubled.  ``integrate_2d`` is an iterated
integral on the same two parts: an adaptive outer pass over x whose
integrand calls hand their nodes' y-rows to the row integrator.
Integrands are parsed expressions (:class:`Expr`), so every 2D integrand
has its switching functions; anything else is a TypeError.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .domains import Interval, Box2
from .expressions import ArityError, Axis, DomainError, Expr, _mix, difference, eval_array

__all__ = [
    "QuadConfig",
    "QuadResult",
    "integrate_1d",
    "integrate_2d",
    "integrate_abs_difference",
    "integrate_chord_gaps",
    "integrate_nested",
]

_EPS = np.finfo(float).eps

# the first half of a chord's parameter range
_HALF = Interval(0.0, 0.5)

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
_WG = np.concatenate([_WG_POS, [_WG_CENTER], _WG_POS[::-1]])


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 4096

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadResult:
    """Integral value, a (conservative) absolute error estimate, and the number
    of panels the adaptive scheme ended with."""

    value: float
    abs_error_estimate: float
    subdivisions: int
    converged: bool

    def __post_init__(self) -> None:
        if not self.abs_error_estimate >= 0:  # NaN fails too
            raise ValueError("error estimate must be non-negative")
        if self.subdivisions < 1:
            raise ValueError("subdivisions must be at least 1")


Vector2Fn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _checked(f: Expr, arity: int, caller: str) -> Expr:
    """``f`` itself, once it is a parsed expression of ``arity`` co-ordinates."""
    if not isinstance(f, Expr):
        raise TypeError(f"{caller} needs a parsed expression")
    if f.arity != arity:
        raise ArityError(f"{caller} needs a {arity}D expression")
    return f


def _as_vector(f: Expr) -> Callable[..., np.ndarray]:
    """Adapt an expression to batch evaluation over nodes: one 1D array of
    lanes per co-ordinate."""

    def fv(*coords: np.ndarray) -> np.ndarray:
        vals, ok = eval_array(f, *coords)
        if not ok.all():
            # the scalar call runs the same tape: it raises DomainError
            # with the precise reason
            i = int(np.argmax(~ok))
            f(*(float(c[i]) for c in coords))
        return vals

    return fv


# A batch of 1D functions: (parameters t, the row of each t) -> f_row(t).
RowsFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# starting panel count; several panels keep one accidental agreement of
# the embedded rules from terminating adaptivity on a non-smooth integrand
_INITIAL_PANELS = 8

# worst panels of one piece split per integrand call
_WAVE = 16


def _gk15_panels(
    f: RowsFn, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod panels [lo, hi] of many pieces in one integrand call,
    f's lanes being the 15 nodes of each panel in turn and ``rows`` the row
    of each lane: (values, error estimates).

    Each panel's Kronrod, Gauss and |f| sums run in one fixed order, the
    same for every row, so a panel's value does not depend on what else
    shares the call.
    """
    lo2, hi2 = 0.5 * lo, 0.5 * hi
    mid, half = lo2 + hi2, hi2 - lo2
    pts = mid[:, None] + half[:, None] * _NODES
    # C-contiguous: einsum sums a row in an order set by the memory layout,
    # so alike in any C-ordered block (``@`` rounds by the block BLAS gets)
    ys = np.ascontiguousarray(f(pts.ravel(), rows).reshape(pts.shape))
    k15 = half * np.einsum("ij,j->i", ys, _WK)
    g7 = half * np.einsum("ij,j->i", ys[:, 1::2], _WG)
    resabs = half * np.einsum("ij,j->i", np.abs(ys), _WK)
    return k15, np.maximum(np.abs(k15 - g7), 50.0 * _EPS * resabs)


def _exact_sum(values: list[float]) -> float:
    """``math.fsum`` of ``values``: their exact sum, rounded once.  Where
    finite values overflow on the way and fsum raises OverflowError, inf
    with the sign of their float sum; where they hold inf and -inf and it
    raises ValueError, NaN: so that the result is not finite."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.copysign(math.inf, sum(values))
    except ValueError:
        return math.nan


def _summed(
    vals: list[float], errs: list[float], subdivisions: int, converged: bool
) -> QuadResult:
    """The result of panels or pieces of values ``vals`` and error estimates
    ``errs``.  It has converged only if they all have and both sums are
    finite; an error sum that is NaN, whose panels overflowed, is inf."""
    value, err = _exact_sum(vals), _exact_sum(errs)
    converged = converged and math.isfinite(value) and math.isfinite(err)
    return QuadResult(value, math.inf if math.isnan(err) else err, subdivisions, converged)


class _Piece:
    """Adaptive state of one piece: a max-heap of its panels by error
    estimate (ties by insertion order), the frozen panels and the totals."""

    __slots__ = ("index", "abs_tol", "heap", "done", "total_val", "total_err",
                 "counter", "nseg", "converged")

    def __init__(self, index: int, abs_tol: float, bounds: list[float],
                 vals: list[float], errs: list[float], total_val: float,
                 total_err: float) -> None:
        self.index = index
        self.abs_tol = abs_tol
        # entries: (-err, insertion counter, a, b, value, err)
        self.heap = [
            (-e, i, bounds[i], bounds[i + 1], v, e)
            for i, (v, e) in enumerate(zip(vals, errs))
        ]
        heapq.heapify(self.heap)
        self.done: list[tuple[float, float]] = []  # frozen (value, err)
        self.total_val = total_val
        self.total_err = total_err
        self.counter = self.nseg = len(vals)
        self.converged = True

    def select(self, cfg: QuadConfig) -> list[tuple[float, float, float, float]]:
        """The panels (a, b, value, err) to split next; none once finished."""
        if self.total_err <= max(self.abs_tol, cfg.rel_tol * abs(self.total_val)):
            return []
        if not math.isfinite(self.total_err):
            # an overflowed running total stays inf or NaN, so it can never
            # meet the tolerance: splitting on would only spend the budget
            self.converged = False
            return []
        heap = self.heap
        split: list[tuple[float, float, float, float]] = []
        limit = min(_WAVE, cfg.max_subdivisions - self.nseg)
        while heap and len(split) < limit:
            neg_err, _, a, b, v, e = heapq.heappop(heap)
            m = 0.5 * a + 0.5 * b
            if m <= a or m >= b:
                # cannot split further at double precision; freeze this panel
                self.done.append((v, e))
                continue
            if -neg_err <= 0.02 * self.total_err and split:
                heapq.heappush(heap, (neg_err, self.counter, a, b, v, e))
                self.counter += 1
                break
            split.append((a, b, v, e))
        # nothing to split: the budget is spent or every panel is frozen
        self.converged = bool(split)
        return split

    def update(self, split: list, vals: list[float], errs: list[float]) -> None:
        """Replace each split panel by its two halves, valued in ``vals``/``errs``."""
        for i, (a, b, v, e) in enumerate(split):
            m = 0.5 * a + 0.5 * b
            self.total_val += vals[2 * i] + vals[2 * i + 1] - v
            self.total_err += errs[2 * i] + errs[2 * i + 1] - e
            for lo, hi, j in ((a, m, 2 * i), (m, b, 2 * i + 1)):
                heapq.heappush(
                    self.heap, (-errs[j], self.counter, lo, hi, vals[j], errs[j])
                )
                self.counter += 1
            self.nseg += 1

    def result(self) -> QuadResult:
        # the sum is exact, so the order of the panels does not matter
        panels = [(v, e) for _, _, _, _, v, e in self.heap] + self.done
        return _summed([v for v, _ in panels], [e for _, e in panels], self.nseg, self.converged)


def _adaptive(
    f: RowsFn,
    lo: np.ndarray,
    hi: np.ndarray,
    rows: np.ndarray,
    abs_tol: list[float],
    cfg: QuadConfig,
) -> list[QuadResult]:
    """Adaptively integrate f_row over each piece [lo[i], hi[i]] of row
    ``rows[i]`` to its own ``abs_tol[i]``, all pieces sharing every
    integrand call.

    Per piece: ``_INITIAL_PANELS`` equal panels, then waves that split up to
    ``_WAVE`` of the worst panels at once, stopping a wave early at panels
    under 2% of the piece's total error estimate, until the total error
    meets tolerance, overflows, or ``max_subdivisions`` panels are reached
    (the result is then flagged not converged).
    """
    # Panels near the float range overflow to inf and NaN; they reach the
    # result, whose caller decides, so numpy is not to warn about them.
    with np.errstate(over="ignore", invalid="ignore"):
        npieces = lo.size
        k0 = min(_INITIAL_PANELS, cfg.max_subdivisions)
        # np.linspace(lo[i], hi[i], k0 + 1) for every piece at once
        delta = hi - lo
        step = delta / k0
        ramp = np.arange(k0 + 1.0)
        bounds = ramp * step[:, None]
        tiny = step == 0  # a subnormal width: scale the ramp first, as linspace does
        if tiny.any():
            bounds[tiny] = (ramp / k0) * delta[tiny, None]
        bounds += lo[:, None]
        bounds[:, -1] = hi
        vals, errs = _gk15_panels(
            f, bounds[:, :-1].ravel(), bounds[:, 1:].ravel(), rows.repeat(15 * k0)
        )
        totals = vals.reshape(npieces, k0).sum(axis=1).tolist()
        total_errs = errs.reshape(npieces, k0).sum(axis=1).tolist()
        bounds, vals, errs = bounds.tolist(), vals.tolist(), errs.tolist()
        live = [
            _Piece(i, abs_tol[i], bounds[i], vals[i * k0 : (i + 1) * k0],
                   errs[i * k0 : (i + 1) * k0], totals[i], total_errs[i])
            for i in range(npieces)
        ]
        results: list[Optional[QuadResult]] = [None] * npieces
        while live:
            waves = []
            for piece in live:
                split = piece.select(cfg)
                if split:
                    waves.append((piece, split))
                else:
                    results[piece.index] = piece.result()
            if not waves:
                break
            lows: list[float] = []
            highs: list[float] = []
            for _, split in waves:
                for a, b, _, _ in split:
                    m = 0.5 * a + 0.5 * b
                    lows += (a, m)
                    highs += (m, b)
            counts = [2 * len(split) for _, split in waves]
            lanes = rows[[piece.index for piece, _ in waves]].repeat([15 * n for n in counts])
            vals, errs = _gk15_panels(f, np.array(lows), np.array(highs), lanes)
            vals, errs = vals.tolist(), errs.tolist()
            at = 0
            for (piece, split), n in zip(waves, counts):
                piece.update(split, vals[at : at + n], errs[at : at + n])
                at += n
            live = [piece for piece, _ in waves]
        return results


def integrate_1d(f: Expr, iv: Interval, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Adaptively integrate the 1D expression ``f`` over ``iv``.

    On budget exhaustion the best estimate is still returned with
    ``converged`` set to False.  DomainError from the integrand propagates.
    """
    cfg = cfg or QuadConfig()
    fv = _as_vector(_checked(f, 1, "integrate_1d"))
    return _integrate_rows(lambda ts, rows: fv(ts), (), 1, iv, cfg)[0]


# Slices integrated together.  This bounds the lanes of one integrand call
# (a 257-point scan per slice, times every intermediate array of the
# expression walk) and with them the peak memory; 64 slices cut the calls
# further but nearly double the peak of 32.
_SLICES_PER_BATCH = 32

# bisection steps taken per call of a split function (2^5 - 1 points a bracket)
_BISECT_LEVELS = 5


def _bisect_roots(
    d: RowsFn,
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    dlo: np.ndarray,
    tol: float = 1e-12,
) -> np.ndarray:
    """Bisect every sign-change bracket [lo, hi] of d at once (``dlo`` holds
    d at ``lo``; moving ``lo`` keeps its sign).

    Per bracket, as one plain bisection: stop once hi - lo <= tol or the
    midpoint is not strictly inside, returning the midpoint, or at an exact
    zero of d, returning that point.  Each call of d takes up to
    ``_BISECT_LEVELS`` steps: it evaluates every midpoint the next steps
    could visit, computed from the same floats, and the steps then read off
    the points on their path.  A call that fails off the path is redone one
    step deep, so DomainError is raised only for a point on the path.  The
    open brackets reach d in their order, each as a run of lanes.
    """
    lo, hi = lo.copy(), hi.copy()
    neg = dlo < 0.0
    root = np.empty(lo.size)
    found = np.zeros(lo.size, dtype=bool)
    live = np.nonzero(hi - lo > tol)[0]
    while live.size:
        try:
            live = _bisect_steps(d, rows, lo, hi, neg, root, found, live, _BISECT_LEVELS, tol)
        except DomainError:
            live = _bisect_steps(d, rows, lo, hi, neg, root, found, live, 1, tol)
    rest = ~found
    root[rest] = 0.5 * lo[rest] + 0.5 * hi[rest]
    return root


def _bisect_steps(
    d: RowsFn,
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    neg: np.ndarray,
    root: np.ndarray,
    found: np.ndarray,
    live: np.ndarray,
    levels: int,
    tol: float,
) -> np.ndarray:
    """Advance the ``live`` brackets of :func:`_bisect_roots` by up to
    ``levels`` steps in one call of d; returns the brackets still open."""
    # each bracket's points in ascending order, refined ``levels`` times
    pts = np.stack([lo[live], hi[live]], axis=1)
    for _ in range(levels):
        finer = np.empty((live.size, 2 * pts.shape[1] - 1))
        finer[:, 0::2] = pts
        finer[:, 1::2] = 0.5 * pts[:, :-1] + 0.5 * pts[:, 1:]
        pts = finer
    inner = pts[:, 1:-1]
    dv = d(inner.ravel(), np.repeat(rows[live], inner.shape[1])).reshape(inner.shape)
    lane = np.arange(live.size)
    a = np.zeros(live.size, dtype=int)
    b = np.full(live.size, pts.shape[1] - 1)
    going = np.ones(live.size, dtype=bool)
    for _ in range(levels):
        m = (a + b) // 2
        pa, pb, mid = pts[lane, a], pts[lane, b], pts[lane, m]
        going &= (pb - pa > tol) & (mid > pa) & (mid < pb)
        dm = dv[lane, m - 1]
        zero = going & (dm == 0.0)
        root[live[zero]] = mid[zero]
        found[live[zero]] = True
        going &= ~zero
        flip = neg[live] != (dm < 0.0)
        to_b, to_a = going & flip, going & ~flip
        b[to_b] = m[to_b]
        a[to_a] = m[to_a]
    lo[live] = pts[lane, a]
    hi[live] = pts[lane, b]
    return live[going & (hi[live] - lo[live] > tol)]


def _on_brackets(splits: Sequence[RowsFn], counts: list[int], brow: np.ndarray) -> RowsFn:
    """The split functions of a batch as one function of bracket ids, for
    one :func:`_bisect_roots` call: the brackets of ``splits[k]`` come
    ``counts[k]`` in a row, bracket i in row ``brow[i]``.  Each split
    function is called only on its own brackets' lanes, and not at all
    when it has none.

    ``_bisect_roots`` passes its open brackets in order, so the ids arrive
    sorted and each split function's lanes are one run of them.
    """
    starts = np.cumsum([0, *counts])

    def d(ts: np.ndarray, ids: np.ndarray) -> np.ndarray:
        at = np.searchsorted(ids, starts).tolist()
        runs = [(k, a, b) for k, (a, b) in enumerate(zip(at, at[1:])) if a < b]
        if len(runs) == 1:
            return splits[runs[0][0]](ts, brow[ids])
        out = np.empty(ts.size)
        for k, a, b in runs:
            out[a:b] = splits[k](ts[a:b], brow[ids[a:b]])
        return out

    return d


class _Affine(NamedTuple):
    """A split function affine in the parameter of its rows, which
    :func:`_cuts` solves in closed form instead of scanning."""

    fn: RowsFn

    def __call__(self, ts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self.fn(ts, rows)


def _affine_roots(
    s: RowsFn, rows: np.ndarray, iv: Interval
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sign changes on ``iv`` of a split function affine in the
    parameter, on ``rows``, from one call of it at both ends of each row:
    (the rows where it changes sign, each one's root, the rows where it is
    not finite at an end, which are left to the scan).

    An affine s changes sign at most once, where s(lo) and s(hi) are of
    opposite signs, at lo + (hi - lo)*s(lo)/(s(lo) - s(hi)).  That fraction
    is taken as 1/(1 - s(hi)/s(lo)), which no overflow can take out of
    [0, 1].
    """
    ends = s(np.tile([iv.lo, iv.hi], rows.size), rows.repeat(2)).reshape(rows.size, 2)
    slo, shi = ends[:, 0], ends[:, 1]
    finite = np.isfinite(slo) & np.isfinite(shi)
    change = finite & (np.sign(slo) * np.sign(shi) < 0.0)
    with np.errstate(over="ignore"):
        frac = 1.0 / (1.0 - shi[change] / slo[change])
    roots = np.minimum(iv.lo + iv.length * frac, iv.hi)
    return rows[change], roots, rows[~finite]


def _cuts(splits: Sequence[RowsFn], nrows: int, iv: Interval) -> list[list[float]]:
    """Per row, the points of ``iv`` where a split function changes sign.

    An :class:`_Affine` split function is solved in closed form
    (:func:`_affine_roots`), and scanned only on rows where it is not
    finite at an end.  Every other one has its sign changes bracketed on a
    257-point uniform scan, one call for all its rows, and the brackets of
    every scanned split function are bisected to 1e-12 together
    (:func:`_on_brackets`).  A split function returns NaN where it has no
    value; such a point cuts nothing.
    """
    cuts: list[list[float]] = [[] for _ in range(nrows)]
    if not splits:
        return cuts
    every = np.arange(nrows)
    scans = []
    for split in splits:
        if isinstance(split, _Affine):
            rows, roots, rest = _affine_roots(split, every, iv)
            for r, t in zip(rows.tolist(), roots.tolist()):
                cuts[r].append(t)
            if rest.size:
                scans.append((split, rest))
        else:
            scans.append((split, every))
    if not scans:
        return cuts
    grid = np.linspace(iv.lo, iv.hi, 257)
    brows, bcols, dlos = [], [], []
    for split, rows in scans:
        sv = split(np.tile(grid, rows.size), rows.repeat(257)).reshape(rows.size, 257)
        with np.errstate(over="ignore"):  # only the sign of a product counts
            # an isolated zero with a sign change across it is itself the kink
            zrow, zcol = np.nonzero((sv[:, 1:-1] == 0.0) & (sv[:, :-2] * sv[:, 2:] < 0.0))
            brow, bcol = np.nonzero(sv[:, :-1] * sv[:, 1:] < 0.0)
        for r, t in zip(rows[zrow].tolist(), grid[zcol + 1].tolist()):
            cuts[r].append(t)
        brows.append(rows[brow])
        bcols.append(bcol)
        dlos.append(sv[brow, bcol])
    brow, bcol = np.concatenate(brows), np.concatenate(bcols)
    roots = _bisect_roots(
        _on_brackets([split for split, _ in scans], [b.size for b in brows], brow),
        np.arange(brow.size), grid[bcol], grid[bcol + 1], np.concatenate(dlos),
    )
    for r, t in zip(brow.tolist(), roots.tolist()):
        cuts[r].append(t)
    return cuts


def _integrate_rows(
    f: RowsFn, splits: Sequence[RowsFn], nrows: int, iv: Interval, cfg: QuadConfig
) -> list[QuadResult]:
    """Integrate f_row over ``iv`` for every row, cut first wherever a split
    function of the row changes sign (:func:`_cuts`).

    f_row is integrated on each piece to ``abs_tol`` over the row's piece
    count.  Every wave of the adaptive pieces of all rows shares one call
    of f.  A row of one piece is that piece's result.
    """
    rows: list[int] = []
    pieces: list[tuple[float, float]] = []
    per_row: list[int] = []
    for r, row_cuts in enumerate(_cuts(splits, nrows, iv)):
        breaks = sorted({iv.lo, iv.hi, *row_cuts})
        row_pieces = list(zip(breaks, breaks[1:]))
        rows += [r] * len(row_pieces)
        pieces += row_pieces
        per_row.append(len(row_pieces))
    lo, hi = np.array(pieces).T
    abs_tol = [cfg.abs_tol / per_row[r] for r in rows]
    results = _adaptive(f, lo, hi, np.array(rows), abs_tol, cfg)
    out = []
    at = 0
    for n in per_row:
        rs = results[at : at + n]
        at += n
        # _summed of one piece's result gives its own bits back
        out.append(rs[0] if n == 1 else _summed(
            [r.value for r in rs],
            [r.abs_error_estimate for r in rs],
            sum(r.subdivisions for r in rs),
            all(r.converged for r in rs),
        ))
    return out


def _on_rows(fn: Vector2Fn, along: Axis, frozen: np.ndarray) -> RowsFn:
    """``fn`` on rows: the ``along`` co-ordinate is the parameter and the
    other one is frozen at ``frozen[row]``.  An :class:`_Affine` function
    stays one."""
    if isinstance(fn, _Affine):
        return _Affine(_on_rows(fn.fn, along, frozen))
    if along is Axis.X:
        return lambda ts, rows: fn(ts, frozen[rows])
    return lambda ts, rows: fn(frozen[rows], ts)


def _integrate_slices(
    f: Vector2Fn,
    splits: Sequence[Vector2Fn],
    along: Axis,
    values: np.ndarray,
    iv: Interval,
    cfg: QuadConfig,
) -> list[QuadResult]:
    """Integrate the 1D slices of a 2D function, cut where its split
    functions change sign: for each ``v`` in ``values``, the ``along``
    co-ordinate runs over ``iv`` and the other one is frozen at ``v``.
    A split function affine in the ``along`` co-ordinate is passed as an
    :class:`_Affine` and cut in closed form, any other is scanned
    (:func:`_cuts`).

    Up to ``_SLICES_PER_BATCH`` slices share each call of ``f`` and of each
    split function; a slice's result does not depend on the others.
    """
    vs = np.asarray(values, dtype=float)
    out: list[QuadResult] = []
    for start in range(0, vs.size, _SLICES_PER_BATCH):
        batch = vs[start : start + _SLICES_PER_BATCH]
        out += _integrate_rows(
            _on_rows(f, along, batch),
            [_on_rows(s, along, batch) for s in splits],
            batch.size,
            iv,
            cfg,
        )
    return out


def integrate_abs_difference(
    g: Expr, h: Expr, iv: Interval, cfg: Optional[QuadConfig] = None
) -> QuadResult:
    """Integrate ``|g - h|`` over ``iv`` with the kinks split out first.

    Sign changes of ``g - h`` are bracketed on a 257-point uniform scan and
    bisected to 1e-12, then ``|g - h|`` is integrated on each kink-free piece.
    No constant prefactor is applied; callers own those.
    """
    cfg = cfg or QuadConfig()
    name = "integrate_abs_difference"
    dv = _as_vector(difference(_checked(g, 1, name), _checked(h, 1, name)))
    return _integrate_rows(
        lambda ts, rows: np.abs(dv(ts)), [lambda ts, rows: dv(ts)], 1, iv, cfg
    )[0]


def integrate_chord_gaps(
    f: Expr,
    along: Axis,
    chord: Interval,
    values: Optional[np.ndarray] = None,
    cfg: Optional[QuadConfig] = None,
) -> list[QuadResult]:
    """Integrate ``|f(P(t)) - f(Q(t))|`` over t in [0, 1], with
    P(t) = t*lo + (1-t)*hi and Q(t) = (1-t)*lo + t*hi on ``chord`` in the
    ``along`` co-ordinate.  A 1D f (along x, no ``values``) gives one
    result, a 2D f one per ``v`` in ``values``, its other co-ordinate
    frozen at ``v``, batched as by :func:`_integrate_slices`.

    Since Q(t) = P(1 - t), the gap is odd about t = 1/2 and its two halves
    carry the same integral: the gap is integrated over [0, 1/2], where P
    covers [mid, hi] and Q [lo, mid], at ``abs_tol / 2``, cut first where
    it changes sign, and the value and the error estimate are doubled,
    which is exact short of overflow.  The results are twice those of
    ``integrate_abs_difference`` on the two ``chord_substitution`` trees
    over [0, 1/2] at ``abs_tol / 2``.

    Each call of the gap runs f's own tape once, on both chord points'
    lanes stacked.  At the first lane that fails, f's scalar call at P, then
    at Q, raises DomainError at f's own point; where both are finite and
    only their gap overflows, it names (t[, v]).
    """
    cfg = cfg or QuadConfig()
    k = 0 if along is Axis.X else 1
    if _checked(f, 1 if values is None else 2, "integrate_chord_gaps").arity <= k:
        raise ArityError("integrate_chord_gaps runs a 1D expression along x")

    def gap(*coords: np.ndarray) -> np.ndarray:
        t, n = coords[k], coords[k].size
        lanes = [np.concatenate([c, c]) for c in coords]
        lanes[k] = np.concatenate([_mix(t, chord.lo, chord.hi), _mix(t, chord.lo, chord.hi, True)])
        vals, ok = eval_array(f, *lanes)
        with np.errstate(over="ignore", invalid="ignore"):
            d = vals[:n] - vals[n:]
        if not (ok.all() and np.isfinite(d).all()):
            i = int(np.argmax(~(ok[:n] & ok[n:] & np.isfinite(d))))
            f(*(float(c[i]) for c in lanes))
            f(*(float(c[n + i]) for c in lanes))
            raise DomainError("overflow in '-'", tuple(float(c[i]) for c in coords))
        return d

    half_cfg = QuadConfig(cfg.rel_tol, cfg.abs_tol / 2.0, cfg.max_subdivisions)
    if values is None:
        halves = _integrate_rows(
            lambda ts, rows: np.abs(gap(ts)), [lambda ts, rows: gap(ts)], 1, _HALF, half_cfg
        )
    else:
        halves = _integrate_slices(
            lambda xs, ys: np.abs(gap(xs, ys)), [gap], along, values, _HALF, half_cfg
        )
    return [_doubled(q) for q in halves]


def _doubled(q: QuadResult) -> QuadResult:
    """Twice ``q``: its value and error estimate doubled; it has converged
    only if they stay finite."""
    value, err = 2.0 * q.value, 2.0 * q.abs_error_estimate
    return QuadResult(
        value, err, q.subdivisions, q.converged and math.isfinite(value) and math.isfinite(err)
    )


def integrate_nested(
    inner: Callable[[np.ndarray], list[QuadResult]],
    iv: Interval,
    cfg: QuadConfig,
    splits: Sequence[RowsFn] = (),
) -> QuadResult:
    """Integrate over ``iv`` the inner integrals that ``inner`` computes for
    each array of outer nodes, the interval first cut where a split
    function changes sign (NaN cuts nothing).

    The error estimate is the outer one plus the length of ``iv`` times the
    worst inner estimate, and the result has converged when the outer pass
    and every inner integral have and that sum is finite.
    """
    worst = 0.0
    inner_converged = True

    def outer(xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        nonlocal worst, inner_converged
        results = inner(xs)
        for q in results:
            worst = max(worst, q.abs_error_estimate)
            inner_converged = inner_converged and q.converged
        return np.array([q.value for q in results])

    q = _integrate_rows(outer, splits, 1, iv, cfg)[0]
    err = q.abs_error_estimate + iv.length * worst
    return QuadResult(
        q.value, err, q.subdivisions, q.converged and inner_converged and math.isfinite(err)
    )


def _switch_values(switch: Expr, along: Axis) -> Vector2Fn:
    """Lanes of a 2D switching function, NaN where it has no finite value
    (a switching function may overflow where f is finite), as an
    :class:`_Affine` where it is affine in the ``along`` co-ordinate, which
    its lines run along."""

    def sv(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        vals, ok = eval_array(switch, xs, ys)
        return np.where(ok, vals, np.nan)

    return _Affine(sv) if switch.affine_in(along) else sv


def integrate_2d(f: Expr, box: Box2, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate ``f`` over a rectangle as an iterated integral: an adaptive
    outer pass over x, each of whose integrand calls integrates the y-rows
    at its nodes, ``_SLICES_PER_BATCH`` rows at a time.

    Each row is cut where a switching function of ``f``
    (:attr:`Expr.switches`) changes sign, so a kink crossing the rectangle
    is a breakpoint of every row it meets; the outer interval is cut where
    one changes sign along the bottom or the top edge, which catches kinks
    along x.  A switching function affine along the line it is cut on is
    cut in closed form, any other is scanned (:func:`_cuts`).

    ``cfg`` governs the outer pass.  The rows run an order tighter, at
    ``rel_tol / 10`` and ``abs_tol / (10 * width)`` with the same
    ``max_subdivisions``, since the error estimate is the outer one plus the
    width times the worst row's.  The result has converged when the outer
    pass and every row have; ``subdivisions`` counts the outer panels.
    DomainError comes only from ``f`` at a node the rule integrates.
    """
    cfg = cfg or QuadConfig()
    fv2 = _as_vector(_checked(f, 2, "integrate_2d"))
    row_switches = [_switch_values(s, Axis.Y) for s in f.switches]
    row_cfg = QuadConfig(
        rel_tol=cfg.rel_tol / 10.0,
        abs_tol=cfg.abs_tol / 10.0 / box.x.length,
        max_subdivisions=cfg.max_subdivisions,
    )
    edges = [
        _on_rows(_switch_values(s, Axis.X), Axis.X, np.array([y]))
        for s in f.switches
        for y in (box.y.lo, box.y.hi)
    ]
    return integrate_nested(
        lambda xs: _integrate_slices(fv2, row_switches, Axis.Y, xs, box.y, row_cfg),
        box.x,
        cfg,
        edges,
    )
