import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from quasiconv import (
    ArityError,
    Axis,
    Box2,
    DomainError,
    Interval,
    QuadConfig,
    QuadResult,
    integrate_1d,
    integrate_2d,
    integrate_abs_difference,
    parse,
)
from quasiconv.expressions import chord_substitution, restrict
from quasiconv.quadrature import _exact_sum, integrate_chord_gaps


def exact_poly_integral(coeffs, lo, hi):
    """Oracle: rational antiderivative of sum_k c_k x^k, evaluated exactly."""
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += Fraction(c) * (hi_f ** (k + 1) - lo_f ** (k + 1)) / (k + 1)
    return float(total)


def horner(coeffs):
    """sum_k c_k x^k as expression text in Horner form, which does the same
    multiplications and additions as ``np.polyval``."""
    terms = [repr(float(c)) for c in coeffs]
    return " + x*(".join(terms) + ")" * (len(terms) - 1)


class TestIntegrate1D:
    def test_x_squared(self):
        q = integrate_1d(parse("x^2", 1), Interval(0, 1))
        assert abs(q.value - 1.0 / 3.0) <= 1e-10
        assert q.converged

    def test_constant_exact(self):
        q = integrate_1d(parse("1", 1), Interval(2, 5))
        assert q.value == 3.0

    def test_kinked_absolute_value(self):
        # two triangles of area 1/4 each
        q = integrate_1d(parse("abs(1-2*x)", 1), Interval(0, 1))
        assert abs(q.value - 0.5) <= 1e-10

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            integrate_1d(parse("sqrt(x)", 1), Interval(-1, 1))

    def test_budget_exhaustion_flagged(self):
        cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=8)
        q = integrate_1d(parse("floor(100*x)", 1), Interval(0, 1), cfg)
        assert not q.converged
        assert q.subdivisions == 8
        assert abs(q.value - 49.5) < 1.0  # value still usable

    def test_subdivisions_at_least_one(self, monkeypatch):
        from quasiconv import quadrature

        monkeypatch.setattr(quadrature, "_INITIAL_PANELS", 1)
        q = integrate_1d(parse("x", 1), Interval(0, 1))
        assert q.subdivisions >= 1


class TestIntegrate2D:
    def test_separable_product(self):
        q = integrate_2d(parse("x*y", 2), Box2.from_bounds(0, 1, 0, 1))
        assert abs(q.value - 0.25) <= 1e-9

    def test_constant_exact(self):
        q = integrate_2d(parse("1", 2), Box2.from_bounds(0, 2, 0, 3))
        assert q.value == pytest.approx(6.0, abs=1e-12)

    def test_sum_of_squares(self):
        q = integrate_2d(parse("x^2+y^2", 2), Box2.from_bounds(0, 1, 0, 1))
        assert abs(q.value - 2.0 / 3.0) <= 1e-9

    def test_kink_line(self):
        # int of min(x,y) over [-1,1]^2 = -4/3 by direct case split
        q = integrate_2d(parse("min(x, y)", 2), Box2.from_bounds(-1, 1, -1, 1))
        assert abs(q.value + 4.0 / 3.0) <= 1e-7


class TestAbsDifference:
    def test_identity_chords(self):
        # f = id on [0,1]: |g - h| = |1 - 2t|
        q = integrate_abs_difference(parse("1 - x", 1), parse("x", 1), Interval(0, 1))
        assert abs(q.value - 0.5) <= 1e-10

    def test_equal_inputs(self):
        q = integrate_abs_difference(parse("sin(x)", 1), parse("sin(x)", 1), Interval(0, 1))
        assert abs(q.value) <= 1e-12

    def test_symmetric_kink_chords(self):
        # f(u) = |u - 1/2|: the two chord evaluations coincide
        q = integrate_abs_difference(
            parse("abs((1 - x) - 0.5)", 1), parse("abs(x - 0.5)", 1), Interval(0, 1)
        )
        assert abs(q.value) <= 1e-9

    def test_expression_pair(self):
        g = parse("1 - 2*x", 1)
        h = parse("0*x", 1)
        q = integrate_abs_difference(g, h, Interval(0, 1))
        assert abs(q.value - 0.5) <= 1e-10

    def test_many_sign_changes(self):
        q = integrate_abs_difference(
            parse(f"sin({8 * math.pi!r}*x)", 1), parse("0*x", 1), Interval(0, 1)
        )
        # 8 half-waves, each of area 1/(4 pi)
        assert abs(q.value - 2.0 / math.pi) <= 1e-8


class TestRuleProperties:
    def test_polynomial_exactness(self):
        # base-rule exactness on 100 random polynomial/interval cases
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 100:
            deg = int(rng.integers(0, 14))
            coeffs = rng.uniform(-1, 1, deg + 1)
            lo = float(rng.uniform(-2, 1))
            hi = lo + float(rng.uniform(0.5, 2.0))
            exact = exact_poly_integral(list(coeffs), lo, hi)
            if abs(exact) < 1e-3:
                continue
            q = integrate_1d(parse(horner(coeffs), 1), Interval(lo, hi))
            assert abs(q.value - exact) <= 1e-12 * max(1.0, abs(exact))
            checked += 1

    def test_linearity(self):
        iv = Interval(0.25, 1.75)
        f = parse("sin(x)", 1)
        g = parse("x^3", 1)
        a, b = 2.5, -0.75
        combo = parse("2.5*sin(x) + -0.75*x^3", 1)
        qf, qg, qc_ = integrate_1d(f, iv), integrate_1d(g, iv), integrate_1d(combo, iv)
        budget = a * qf.abs_error_estimate + abs(b) * qg.abs_error_estimate + qc_.abs_error_estimate
        assert abs(qc_.value - (a * qf.value + b * qg.value)) <= budget + 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(55)
        f = parse("exp(x)*sin(3*x)", 1)
        for _ in range(10):
            lo, hi = sorted(rng.uniform(-2, 2, 2))
            if hi - lo < 0.1:
                continue
            m = float(rng.uniform(lo, hi))
            if m - lo < 1e-3 or hi - m < 1e-3:
                continue
            whole = integrate_1d(f, Interval(lo, hi))
            left = integrate_1d(f, Interval(lo, m))
            right = integrate_1d(f, Interval(m, hi))
            budget = (
                whole.abs_error_estimate
                + left.abs_error_estimate
                + right.abs_error_estimate
            )
            assert abs(whole.value - (left.value + right.value)) <= budget + 1e-13

    def test_error_honesty_smooth_battery(self):
        # true error <= 10x the estimate in at least 99% of smooth cases
        rng = np.random.default_rng(2024)
        total, honest = 0, 0
        for _ in range(120):
            kind = rng.integers(0, 3)
            lo = float(rng.uniform(-2, 1))
            hi = lo + float(rng.uniform(0.5, 2.5))
            if kind == 0:
                a = float(rng.uniform(0.2, 2.0))
                f = parse(f"exp({a!r}*x)", 1)
                exact = (math.exp(a * hi) - math.exp(a * lo)) / a
            elif kind == 1:
                w = float(rng.uniform(0.5, 6.0))
                f = parse(f"sin({w!r}*x)", 1)
                exact = (math.cos(w * lo) - math.cos(w * hi)) / w
            else:
                deg = int(rng.integers(1, 10))
                coeffs = rng.uniform(-1, 1, deg + 1)
                f = parse(horner(coeffs), 1)
                exact = exact_poly_integral(list(coeffs), lo, hi)
            q = integrate_1d(f, Interval(lo, hi))
            total += 1
            if abs(q.value - exact) <= 10.0 * max(q.abs_error_estimate, 1e-16):
                honest += 1
        assert honest / total >= 0.99


def _kinked(rng):
    """A convex function with two kinks off the 257-point scan grid, as text
    and as a float function (the shape of the benchmark's kinked inputs)."""
    c1, c2, c3 = (round(float(v), 4) for v in rng.uniform(0.2, 1.0, 3))
    s1, s2 = (round(float(v), 4) for v in rng.uniform(-0.7, 0.7, 2))
    text = f"{c1!r}*abs(x - {s1!r}) + {c2!r}*max(x - {s2!r}, 0) + {c3!r}*x^2"

    def fn(x):
        return c1 * abs(x - s1) + c2 * max(x - s2, 0.0) + c3 * x * x

    return text, fn, (s1, s2)


def _roots(d, lo, hi, n=2000):
    """Sign changes of d on a fine scan, refined by Brent's method."""
    from scipy.optimize import brentq

    ts = np.linspace(lo, hi, n + 1)
    ds = [d(t) for t in ts]
    out = []
    for i in range(n):
        if ds[i] == 0.0:
            out.append(float(ts[i]))
        elif ds[i] * ds[i + 1] < 0.0:
            out.append(brentq(d, ts[i], ts[i + 1], xtol=1e-15))
    return out


class TestAbsDifferenceOracle:
    """integrate_abs_difference against scipy's QUADPACK with every kink and
    every sign change of g - h handed over as an explicit breakpoint."""

    def test_kinked_battery_matches_scipy(self):
        from scipy.integrate import quad

        rng = np.random.default_rng(606)
        for _ in range(8):
            g_text, g, g_kinks = _kinked(rng)
            h_text, h, h_kinks = _kinked(rng)
            shift = float(rng.uniform(-0.3, 0.3))
            iv = Interval(-1, 1)
            q = integrate_abs_difference(
                parse(g_text, 1), parse(f"{h_text} + {shift!r}", 1), iv
            )

            def d(t):
                return g(t) - (h(t) + shift)

            points = sorted(
                {p for p in g_kinks + h_kinks if -1 < p < 1} | set(_roots(d, -1, 1))
            )
            want, _ = quad(
                lambda t: abs(d(t)), -1, 1, points=points,
                epsabs=1e-14, epsrel=1e-13, limit=500,
            )
            assert q.converged
            assert abs(q.value - want) <= q.abs_error_estimate + 1e-9, (g_text, h_text)


class TestDomainErrorInBatches:
    def test_scan_point_undefined_raises(self):
        # the 257-point scan includes t = 0, where log is undefined
        with pytest.raises(DomainError):
            integrate_abs_difference(parse("log(x)", 1), parse("0*x", 1), Interval(0, 1))

    def test_bisection_point_undefined_raises(self):
        # 1/(x - 257/512) is defined on the whole scan grid (multiples of
        # 1/256) and changes sign across its pole, the first midpoint that
        # bisection evaluates in the bracket [128/256, 129/256]
        with pytest.raises(DomainError) as info:
            integrate_abs_difference(
                parse("1/(x - 0.501953125)", 1), parse("0*x", 1), Interval(0, 1)
            )
        assert info.value.point == (0.501953125,)


def _fields(q):
    return (q.value, q.abs_error_estimate, q.subdivisions, q.converged)


def _on_f(f, err, along, chord):
    """``err``, raised by the chord trees at the parameter t in the ``along``
    slot, restated at f's own point: f's error at the first of the chord
    points t*lo + (1-t)*hi and (1-t)*lo + t*hi where f fails, else ``err``."""
    k = 0 if along is Axis.X else 1
    t, lo, hi = err.point[k], chord.lo, chord.hi
    for u in (t * lo + (1.0 - t) * hi, (1.0 - t) * lo + t * hi):
        try:
            f(*err.point[:k], u, *err.point[k + 1 :])
        except DomainError as failure:
            return failure
    return err


class TestChordGaps:
    """integrate_chord_gaps, which runs f's own tape at both chord points,
    against integrate_abs_difference of the two ``chord_substitution``
    trees over the first half of the chord at half the absolute tolerance,
    doubled, bit for bit, and the trees' errors restated at f's own point."""

    IV = Interval(-1, 1)
    CFG = QuadConfig(rel_tol=1e-9, abs_tol=1e-11, max_subdivisions=1024)

    @classmethod
    def half_chord(cls, g, h):
        """|g - h| over t in [0, 1/2] at ``abs_tol / 2``, value and error
        estimate doubled."""
        cfg = QuadConfig(cls.CFG.rel_tol, cls.CFG.abs_tol / 2, cls.CFG.max_subdivisions)
        q = integrate_abs_difference(g, h, Interval(0, 0.5), cfg)
        return QuadResult(2 * q.value, 2 * q.abs_error_estimate, q.subdivisions, q.converged)

    @staticmethod
    def trees(f, along, chord, v=None):
        """The two chord trees of f, restricted to the other co-ordinate
        frozen at ``v`` when one is given."""
        g, h = (chord_substitution(f, along, chord.lo, chord.hi, reverse=r) for r in (False, True))
        if v is None:
            return g, h
        other = Axis.Y if along is Axis.X else Axis.X
        return restrict(g, other, v), restrict(h, other, v)

    def test_1d_matches_the_chord_trees(self):
        rng = np.random.default_rng(1729)
        cases = [(_kinked(rng)[0], self.IV) for _ in range(6)]
        cases += [
            ("floor(7*x) + x^2", self.IV),
            ("2^x + abs(x - 0.3)", self.IV),
            ("x^(x + 1) + abs(x - 0.8)", Interval(0.5, 1.5)),
            ("1/(x - 1.0001)", self.IV),  # a pole just beyond a chord end
        ]
        for text, iv in cases:
            f = parse(text, 1)
            (got,) = integrate_chord_gaps(f, Axis.X, iv, None, self.CFG)
            want = self.half_chord(*self.trees(f, Axis.X, iv))
            assert _fields(got) == _fields(want), text

    @pytest.mark.parametrize("along", [Axis.X, Axis.Y])
    def test_2d_matches_the_chord_trees_per_value(self, along):
        box = Box2.from_bounds(-1, 1, -1, 1)
        cases = [(text, box) for text in _benchmark_2d_inputs([0])]
        cases += [
            ("floor(3*x) + abs(y - 0.2)", box),
            ("x^y + abs(x - y)", Box2.from_bounds(0.5, 1.5, 0.5, 2)),
            ("2^(x*y) + max(x, y)", box),
        ]
        for text, bx in cases:
            f = parse(text, 2)
            chord, outer = (bx.x, bx.y) if along is Axis.X else (bx.y, bx.x)
            vs = np.linspace(outer.lo, outer.hi, 40)  # more than one batch of slices
            got = integrate_chord_gaps(f, along, chord, vs, self.CFG)
            want = [self.half_chord(*self.trees(f, along, chord, v)) for v in vs.tolist()]
            assert [_fields(q) for q in got] == [_fields(q) for q in want], text

    @pytest.mark.parametrize(
        "text, along, chord, values",
        [
            ("1/(x - 1)", Axis.X, IV, None),  # a pole at a chord end
            ("log(x + 1)", Axis.X, IV, None),
            ("1/(x - 0.7)", Axis.X, IV, None),  # a pole inside the chord
            ("1/(x - 1) + 1/(x + 1)", Axis.X, IV, None),  # f fails at both points
            ("1.7e308*x", Axis.X, IV, None),  # finite values, overflowing gap
            ("1.7e308*sin(3*x)", Axis.X, IV, None),  # ... first overflowing inside
            ("y/(x + 1)", Axis.X, IV, [0.5, -0.25]),
            ("log(x*y + 0.2)", Axis.Y, IV, [0.3, -0.9]),
            ("x + 1.7e308*y", Axis.Y, IV, [0.25]),
        ],
    )
    def test_errors_name_f_own_point(self, text, along, chord, values):
        f = parse(text, 1 if values is None else 2)
        v = None if values is None else values[0]
        with pytest.raises(DomainError) as tree:
            self.half_chord(*self.trees(f, along, chord, v))
        want = tree.value
        if v is not None:  # the tree's slice point, back in both co-ordinates
            k = 0 if along is Axis.X else 1
            pt = [v, v]
            pt[k] = want.point[0]
            want = DomainError(want.reason, tuple(pt))
        want = _on_f(f, want, along, chord)
        # pytest turns a numpy RuntimeWarning into an error, so none is emitted
        with pytest.raises(DomainError) as lanes:
            integrate_chord_gaps(f, along, chord, None if v is None else np.array(values), self.CFG)
        assert (lanes.value.reason, lanes.value.point) == (want.reason, want.point)


class TestVectorAdaptor:
    def test_arity_mismatch_names_the_integrator(self):
        with pytest.raises(ArityError, match="integrate_1d needs a 1D expression"):
            integrate_1d(parse("x + y", 2), Interval(0, 1))
        with pytest.raises(ArityError, match="integrate_2d needs a 2D expression"):
            integrate_2d(parse("x", 1), Box2.from_bounds(0, 1, 0, 1))
        # a 2D f needs its frozen values, and a 1D f has no y to run along
        with pytest.raises(ArityError, match="integrate_chord_gaps needs a 1D expression"):
            integrate_chord_gaps(parse("x + y", 2), Axis.X, Interval(0, 1))
        with pytest.raises(ArityError, match="integrate_chord_gaps runs a 1D expression along x"):
            integrate_chord_gaps(parse("x", 1), Axis.Y, Interval(0, 1))

    def test_callable_is_refused_by_name(self):
        iv, box = Interval(0, 1), Box2.from_bounds(0, 1, 0, 1)
        calls = [
            ("integrate_1d", lambda: integrate_1d(lambda x: x, iv)),
            ("integrate_2d", lambda: integrate_2d(lambda x, y: x, box)),
            ("integrate_abs_difference",
             lambda: integrate_abs_difference(lambda t: t, lambda t: 1.0 - t, iv)),
            ("integrate_chord_gaps",
             lambda: integrate_chord_gaps(lambda x, y: x - y, Axis.X, iv, np.array([0.5]))),
        ]
        for name, call in calls:
            with pytest.raises(TypeError, match=f"^{name} needs a parsed expression$"):
                call()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64).tolist()


class TestBatchedPanels:
    def test_panel_values_do_not_depend_on_the_batch(self):
        # a matrix-vector product rounds a row by the block BLAS is handed;
        # each panel's sums must come out alike alone, inside any batch, and
        # whatever the memory offset or stride of the integrand's values
        from quasiconv.quadrature import _gk15_panels

        def integrand(offset=0, stride=1):
            def fv(ts, rows):
                assert rows.shape == ts.shape
                vals = np.exp(3.0 * np.sin(40.0 * ts)) * (1.0 + 1e3 * ts**2)
                # a flat view that starts ``offset`` doubles into a buffer and
                # steps ``stride`` doubles a lane
                out = np.empty(vals.size * stride + offset)[offset::stride]
                out[...] = vals
                return out

            return fv

        rng = np.random.default_rng(7)
        n = 600
        lo = rng.uniform(-1, 1, n)
        hi = lo + rng.uniform(1e-3, 0.5, n)
        lanes = rng.integers(0, 10, n).repeat(15)

        def panels_of(fv, rows):
            return _gk15_panels(fv, lo[rows], hi[rows], lanes[15 * rows.start : 15 * rows.stop])

        alone = [panels_of(integrand(), slice(i, i + 1)) for i in range(n)]
        want = [_bits(np.concatenate(parts)) for parts in zip(*alone)]
        for offset, stride in ((0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (0, 3)):
            at = 0
            while at < n:
                rows = slice(at, at + int(rng.choice([1, 2, 3, 8, 15, 16, 32, 61, 128])))
                got = panels_of(integrand(offset, stride), rows)
                assert [_bits(a) for a in got] == [w[rows] for w in want], (offset, stride, rows)
                at = rows.stop


class TestOverflowSafeMidpoints:
    """Midpoints and half-widths halve each endpoint before they combine
    them, so panels and brackets near the float maximum keep finite points
    inside themselves, with the summed form's bits elsewhere."""

    def test_panel_nodes_stay_inside_past_the_float_maximum(self):
        from quasiconv.quadrature import _gk15_panels

        seen = []

        def fv(ts, rows):
            seen.append(ts.reshape(-1, 15).copy())
            return np.ones_like(ts)

        lo = np.array([1e308, -1.7e308, 0.9e308])
        hi = np.array([1.7e308, -1e308, 1.79e308])
        vals, _ = _gk15_panels(fv, lo, hi, np.arange(3).repeat(15))
        (pts,) = seen
        assert np.isfinite(pts).all()
        assert ((pts >= lo[:, None]) & (pts <= hi[:, None])).all()
        assert vals.tolist() == pytest.approx((hi - lo).tolist(), rel=1e-14)

    def test_kinked_integral_near_the_float_maximum(self, monkeypatch):
        # the kink at 1.3e308 needs splits, whose midpoints overflowed too
        from quasiconv import quadrature

        lanes = []
        real = quadrature.eval_array

        def spy(f, *coords, **kwargs):
            lanes.append(coords[0])
            return real(f, *coords, **kwargs)

        monkeypatch.setattr(quadrature, "eval_array", spy)
        lo, hi = 1e308, 1.7e308
        q = integrate_1d(parse("abs(x / 1e308 - 1.3)", 1), Interval(lo, hi))
        assert q.converged and q.subdivisions > 8
        assert all(np.isfinite(t).all() and (t >= lo).all() and (t <= hi).all() for t in lanes)
        assert q.value == pytest.approx(0.125e308, rel=1e-9)

    def test_bisection_near_the_float_maximum(self):
        from quasiconv.quadrature import _bisect_roots

        # a step is never exactly zero, so the bracket closes to adjacent
        # floats and the root is its final midpoint
        def d(ts, rows):
            return np.where(ts > 1.3e308, 1.0, -1.0)

        lo, hi = np.array([1e308]), np.array([1.7e308])
        root = _bisect_roots(d, np.array([0]), lo, hi, d(lo, None))
        assert abs(root[0] - 1.3e308) <= 1e-15 * 1.3e308

    def test_interval_midpoint_near_the_float_maximum(self):
        assert Interval(1e308, 1.7e308).midpoint == 1.35e308
        assert Interval(-1.7e308, -1e308).midpoint == -1.35e308

    def test_same_bits_as_the_summed_form_on_normal_endpoints(self):
        from quasiconv.quadrature import _NODES, _gk15_panels

        rng = np.random.default_rng(2024)
        n = 4000
        lo = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 300, n)
        hi = lo + rng.uniform(0, 1, n) * 10.0 ** rng.integers(-300, 300, n)
        # halving is exact only while the halves stay normal
        keep = (lo < hi) & (np.abs(lo) > 1e-300) & (np.abs(hi) > 1e-300)
        lo, hi = lo[keep], hi[keep]
        seen = []

        def fv(ts, rows):
            seen.append(ts.reshape(-1, 15).copy())
            return np.zeros_like(ts)

        _gk15_panels(fv, lo, hi, np.zeros(15 * lo.size, dtype=int))
        want = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = want[:, None] + half[:, None] * _NODES
        assert seen[0].view(np.int64).tolist() == nodes.view(np.int64).tolist()
        mids = np.array([Interval(a, b).midpoint for a, b in zip(lo.tolist(), hi.tolist())])
        assert mids.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestOneDriver:
    """``integrate_1d`` is a row of ``_integrate_rows`` with no split
    function: one piece of the adaptive driver, bit for bit."""

    @staticmethod
    def one_piece(f, iv, cfg):
        from quasiconv.quadrature import _adaptive, _as_vector

        fv = _as_vector(f)
        return _adaptive(
            lambda ts, rows: fv(ts), np.array([iv.lo]), np.array([iv.hi]),
            np.zeros(1, dtype=int), [cfg.abs_tol], cfg,
        )[0]

    CASES = [
        # kinked inputs, converged and starved
        *[(_kinked(np.random.default_rng(seed))[0], Interval(-1, 1), cfg)
          for seed in range(4) for cfg in (QuadConfig(), QuadConfig(max_subdivisions=8))],
        ("abs(x - 0.251)", Interval(-1, 1), QuadConfig(max_subdivisions=8)),
        # panels that overflow, to inf and to inf - inf
        ("x", Interval(0, 1e308), QuadConfig()),
        ("x*1.7e306", Interval(-100, 100), QuadConfig()),
        # subnormal widths, the second too narrow for a nonzero panel step
        ("abs(x) + 1", Interval(-1e-310, 1e-310), QuadConfig()),
        ("x + 1", Interval(0.0, 2e-323), QuadConfig()),
    ]

    @pytest.mark.parametrize("text, iv, cfg", CASES)
    def test_integrate_1d_is_one_piece(self, text, iv, cfg):
        f = parse(text, 1)
        got, want = integrate_1d(f, iv, cfg), self.one_piece(f, iv, cfg)
        assert [repr(v) for v in _as_tuple(got)] == [repr(v) for v in _as_tuple(want)]

    def test_cuts_without_split_functions_call_nothing(self, monkeypatch):
        from quasiconv import quadrature

        for name in ("np", "_bisect_roots", "_on_brackets"):
            monkeypatch.setattr(quadrature, name, None)
        assert quadrature._cuts((), 3, Interval(0, 1)) == [[], [], []]


class TestOverflowedTotals:
    """A piece whose running total overflowed can never meet its tolerance;
    it stops at once, flagged not converged, instead of spending its budget."""

    def test_1d_stops_at_the_initial_panels(self):
        q = integrate_1d(parse("x", 1), Interval(0, 1e308))
        assert (q.subdivisions, q.converged, q.value) == (8, False, math.inf)

    def test_2d_rows_and_outer_pass_stop(self):
        q = integrate_2d(parse("x*y", 2), Box2.from_bounds(0, 1, 0, 1e308))
        assert (q.subdivisions, q.converged, q.value) == (8, False, math.inf)


class TestOverflowingSums:
    """Finite panels or pieces whose exact sum lies past the float range sum
    to inf, where ``math.fsum`` raises OverflowError."""

    def test_exact_sum_keeps_the_bits_of_fsum(self):
        rng = np.random.default_rng(307)
        for _ in range(200):
            values = (rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20)).tolist()
            assert repr(_exact_sum(values)) == repr(math.fsum(values))

    def test_exact_sum_overflows_to_a_signed_inf(self):
        assert _exact_sum([1e308, 1e308]) == math.inf
        assert _exact_sum([-1e308, -1e308, 1.0]) == -math.inf

    def test_exact_sum_of_opposite_infinities_is_nan(self):
        # fsum raises ValueError on inf + -inf
        assert math.isnan(_exact_sum([math.inf, 1.0, -math.inf]))

    def test_1d_panels_past_the_float_range(self):
        # 100 panels' worth of 1e307, each finite: the integral is 1e309,
        # past the float range, so the result has not converged
        q = integrate_1d(parse("1e307", 1), Interval(0, 100))
        assert q.value == math.inf and not q.converged
        assert math.isfinite(q.abs_error_estimate)

    def test_2d_row_pieces_past_the_float_range(self):
        # each row is cut at y = 15 into two pieces of 1.5e308; their sum
        # overflows in the per-row sum.  The outer panels of inf rows
        # estimate their error as inf - inf, which the result holds as inf
        q = integrate_2d(parse("1e307 + 0*abs(y - 15)", 2), Box2.from_bounds(0, 1, 0, 30))
        assert q.value == math.inf and q.abs_error_estimate == math.inf
        assert not q.converged

    def test_1d_panels_of_both_signs_past_the_float_range(self):
        # the integral of the odd 1.7e306*x over [-100, 100] is 0, but the
        # eight panels hold about -/+1.3e310 each, +-inf: their sum is NaN
        q = integrate_1d(parse("x*1.7e306", 1), Interval(-100, 100))
        assert math.isnan(q.value) and q.abs_error_estimate == math.inf
        assert not q.converged

    def test_error_estimate_is_a_number(self):
        with pytest.raises(ValueError, match="non-negative"):
            QuadResult(1.0, math.nan, 1, True)
        with pytest.raises(ValueError, match="non-negative"):
            QuadResult(1.0, -1.0, 1, True)
        assert QuadResult(math.inf, math.inf, 1, False).abs_error_estimate == math.inf


def _plain_bisection(d, lo, hi, tol=1e-12):
    """Reference: one bracket, one midpoint per evaluation."""
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


class TestBatchedBisection:
    def test_matches_plain_bisection_bit_for_bit(self):
        from quasiconv.quadrature import _bisect_roots

        rng = np.random.default_rng(99)
        # per bracket: (root, lo, hi); dyadic roots are hit exactly by some
        # midpoint, a bracket of adjacent floats stops at once, and the loose
        # tolerances stop inside a call's batch of steps, one at a width
        # of exactly tol
        cases = []
        for _ in range(40):
            lo = float(rng.uniform(-1, 1))
            hi = lo + float(rng.uniform(1e-6, 0.1))
            cases.append((float(rng.uniform(lo, hi)), lo, hi))
        cases += [(0.375, 0.25, 0.5), (0.3125, 0.0, 1.0), (0.5, 0.0, 1.0),
                  (0.1, 0.0, 1.0), (1.0, 1.0, float(np.nextafter(1.0, 2.0)))]
        slopes = rng.uniform(-2, 2, len(cases))
        roots_at = np.array([c[0] for c in cases])

        def d(ts, rows):
            return slopes[rows] * (ts - roots_at[rows])

        rows = np.arange(len(cases))
        lo = np.array([c[1] for c in cases])
        hi = np.array([c[2] for c in cases])
        for tol in (1e-12, 1e-3, 2.0**-8, 0.0):
            got = _bisect_roots(d, rows, lo, hi, d(lo, rows), tol)
            for r, (_, a, b) in enumerate(cases):
                want = _plain_bisection(lambda t: float(d(np.array([t]), np.array([r]))[0]), a, b, tol)
                assert got[r] == want, (r, tol)

    def test_split_functions_bisect_together_as_one_at_a_time(self, monkeypatch):
        from quasiconv import quadrature

        # rows r = 0..5 on [0, 1], whose 257-point grid steps by 1/256
        rows = np.arange(6)
        nan_root = 0.3 + 0.07 * rows + 1e-3 / 3  # off every dyadic point
        grid_zero = (100 + 9 * rows) / 256.0  # on the grid
        mid_zero = (40 + 11 * rows + np.where(rows % 2, 0.5, 0.25)) / 256.0
        seen: dict[str, list] = {"nan": [], "grid": [], "mid": []}

        def nan_part(ts, rs):
            # no value past 0.6: the sign change there cuts nothing
            seen["nan"].append((ts.copy(), rs.copy()))
            return np.where(ts < 0.6, ts - nan_root[rs], np.nan)

        def on_grid(ts, rs):
            seen["grid"].append(ts.size)
            return grid_zero[rs] - ts

        def at_a_midpoint(ts, rs):
            seen["mid"].append(ts.size)
            return ts - mid_zero[rs]

        splits = [nan_part, on_grid, at_a_midpoint]
        iv = Interval(0.0, 1.0)
        got = quadrature._cuts(splits, rows.size, iv)
        want = _per_split_cuts(splits, rows.size, iv)
        assert [sorted(c) for c in got] == [sorted(c) for c in want]
        # each kind of cut is there: the bisected root below the NaN part,
        # the grid zero and the midpoint hit exactly
        for r in rows:
            assert grid_zero[r] in got[r] and mid_zero[r] in got[r]
            assert len(got[r]) == 2 + (nan_root[r] < 0.6)
        # bisection called each function only on its own brackets: on_grid
        # has none, and nan_part's lanes lie in its rows' root brackets
        seen = {k: [] for k in seen}
        quadrature._cuts(splits, rows.size, iv)
        assert len(seen["grid"]) == 1 and len(seen["mid"]) > 1 and len(seen["nan"]) > 1
        for ts, rs in seen["nan"][1:]:
            assert np.all(np.abs(ts - nan_root[rs]) < 1.0 / 256.0)

        def f(ts, rs):
            return np.abs(ts - nan_root[rs]) + np.abs(ts - grid_zero[rs]) + np.sqrt(ts)

        merged = quadrature._integrate_rows(f, splits, rows.size, iv, QuadConfig())
        monkeypatch.setattr(quadrature, "_cuts", _per_split_cuts)
        one_at_a_time = quadrature._integrate_rows(f, splits, rows.size, iv, QuadConfig())
        assert [_as_tuple(q) for q in merged] == [_as_tuple(q) for q in one_at_a_time]


def _per_split_cuts(splits, nrows, iv):
    """Reference: each split function scanned and then bisected on its own,
    one ``_bisect_roots`` call per split function."""
    from quasiconv.quadrature import _bisect_roots

    cuts = [[] for _ in range(nrows)]
    grid = np.linspace(iv.lo, iv.hi, 257)
    for split in splits:
        sv = split(np.tile(grid, nrows), np.repeat(np.arange(nrows), 257)).reshape(nrows, 257)
        with np.errstate(over="ignore"):
            zrow, zcol = np.nonzero((sv[:, 1:-1] == 0.0) & (sv[:, :-2] * sv[:, 2:] < 0.0))
            brow, bcol = np.nonzero(sv[:, :-1] * sv[:, 1:] < 0.0)
        roots = _bisect_roots(split, brow, grid[bcol], grid[bcol + 1], sv[brow, bcol])
        for r, t in zip(zrow.tolist(), grid[zcol + 1].tolist()):
            cuts[r].append(t)
        for r, t in zip(brow.tolist(), roots.tolist()):
            cuts[r].append(t)
    return cuts


def panels(fv, a, b):
    """Reference GK15 panels [a, b] of the 1D function ``fv``: (values, error
    estimates).  Each row's Kronrod, Gauss and |f| sums are contracted by
    ``einsum`` on a C-ordered block, in one order whatever the batch."""
    from quasiconv.quadrature import _EPS, _NODES, _WG, _WK

    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    ys = np.ascontiguousarray(fv((mid[:, None] + half[:, None] * _NODES).ravel()).reshape(-1, 15))
    k15 = half * np.einsum("ij,j->i", ys, _WK)
    g7 = half * np.einsum("ij,j->i", ys[:, 1::2], _WG)
    resabs = half * np.einsum("ij,j->i", np.abs(ys), _WK)
    return k15, np.maximum(np.abs(k15 - g7), 50.0 * _EPS * resabs)


def _reference_integrate_1d(fv, lo, hi, cfg):
    """Reference: the adaptive policy as one sequential loop over one piece
    (``_INITIAL_PANELS`` initial panels, waves of up to 16 worst splits with
    the 2% cut-off, frozen unsplittable panels, the subdivision budget)."""
    import heapq

    from quasiconv import quadrature

    k0 = min(quadrature._INITIAL_PANELS, cfg.max_subdivisions)
    bounds = np.linspace(lo, hi, k0 + 1)
    vals, errs = panels(fv, bounds[:-1], bounds[1:])
    heap = [(-errs[i], i, bounds[i], bounds[i + 1], vals[i], errs[i]) for i in range(k0)]
    heapq.heapify(heap)
    done = []
    total_val, total_err = float(np.sum(vals)), float(np.sum(errs))
    counter = nseg = k0
    converged = True
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        if nseg >= cfg.max_subdivisions:
            converged = False
            break
        split = []
        while heap and len(split) < min(16, cfg.max_subdivisions - nseg):
            neg_err, _, a, b, v, e = heapq.heappop(heap)
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                done.append((v, e))
                continue
            if -neg_err <= 0.02 * total_err and split:
                heapq.heappush(heap, (neg_err, counter, a, b, v, e))
                counter += 1
                break
            split.append((a, b, v, e))
        if not split:
            converged = False
            break
        lows = np.array([x for a, b, _, _ in split for x in (a, 0.5 * (a + b))])
        highs = np.array([x for a, b, _, _ in split for x in (0.5 * (a + b), b)])
        vals, errs = panels(fv, lows, highs)
        for i, (a, b, v, e) in enumerate(split):
            total_val += vals[2 * i] + vals[2 * i + 1] - v
            total_err += errs[2 * i] + errs[2 * i + 1] - e
            for j in (2 * i, 2 * i + 1):
                heapq.heappush(heap, (-errs[j], counter, lows[j], highs[j], vals[j], errs[j]))
                counter += 1
            nseg += 1
    cells = [(v, e) for _, _, _, _, v, e in heap] + done
    return (math.fsum(v for v, _ in cells), math.fsum(e for _, e in cells), nseg, converged)


class TestAdaptivePolicy:
    """The batched driver against the sequential reference loop, bit for bit."""

    # (initial panels, config)
    CFGS = [
        (8, QuadConfig()),
        (8, QuadConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=40)),
        (1, QuadConfig()),
        (8, QuadConfig(max_subdivisions=5)),
    ]

    def test_integrate_1d_matches_reference(self, monkeypatch):
        from quasiconv import quadrature
        from quasiconv.expressions import eval_array

        rng = np.random.default_rng(314)
        texts = [_kinked(rng)[0] for _ in range(6)] + ["floor(7*x) + sin(9*x)", "sqrt(abs(x))"]
        for text in texts:
            f = parse(text, 1)
            for k0, cfg in self.CFGS:
                monkeypatch.setattr(quadrature, "_INITIAL_PANELS", k0)
                q = integrate_1d(f, Interval(-1, 1), cfg)
                want = _reference_integrate_1d(lambda t: eval_array(f, t)[0], -1.0, 1.0, cfg)
                assert (q.value, q.abs_error_estimate, q.subdivisions, q.converged) == want

    def test_abs_difference_matches_reference(self):
        from quasiconv.expressions import difference, eval_array

        rng = np.random.default_rng(271)
        for _ in range(6):
            g, h = parse(_kinked(rng)[0], 1), parse(_kinked(rng)[0], 1)
            d = difference(g, h)

            def dv(t, d=d):
                return eval_array(d, np.atleast_1d(t))[0]

            grid = np.linspace(0.0, 1.0, 257)
            ds = dv(grid)
            cuts = [float(grid[i]) for i in range(1, 256)
                    if ds[i] == 0.0 and ds[i - 1] * ds[i + 1] < 0.0]
            cuts += [_plain_bisection(lambda t: float(dv(t)[0]), float(grid[i]), float(grid[i + 1]))
                     for i in range(256) if ds[i] * ds[i + 1] < 0.0]
            breaks = sorted({0.0, 1.0, *cuts})
            cfg = QuadConfig()
            piece_cfg = QuadConfig(abs_tol=cfg.abs_tol / (len(breaks) - 1))
            parts = [_reference_integrate_1d(lambda t: np.abs(dv(t)), a, b, piece_cfg)
                     for a, b in zip(breaks, breaks[1:])]
            q = integrate_abs_difference(g, h, Interval(0, 1), cfg)
            assert q.value == math.fsum(p[0] for p in parts)
            assert q.abs_error_estimate == math.fsum(p[1] for p in parts)
            assert q.subdivisions == sum(p[2] for p in parts)
            assert q.converged == all(p[3] for p in parts)


def _benchmark_verify_round(seed):
    """The ops of the first ``verify`` round of ``seed``, as the benchmark
    generates them."""
    import random
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.verify_round(random.Random(f"verify:{seed}"))


def _benchmark_2d_inputs(seeds):
    """The 2D functions of the first ``verify`` round of each seed, as the
    benchmark generates them."""
    return [op.expr for seed in seeds for op in _benchmark_verify_round(seed)[:2]]


def _nested_scipy(fn, box, y_kinks):
    """Reference: nested QUADPACK, each y-row handed its kinks as explicit
    breakpoints."""
    from scipy.integrate import quad

    a, b, c, d = box.bounds

    def row(x):
        points = sorted(p for p in y_kinks(x) if c < p < d)
        return quad(lambda y: fn(x, y), c, d, points=points or None,
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    return quad(row, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]


class TestIterated2D:
    """integrate_2d as an outer adaptive pass over x of kink-split y-rows."""

    BOX = Box2.from_bounds(-1, 1, -1, 1)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("abs(x - y)", 8.0 / 3.0),
            ("max(x, y)", 4.0 / 3.0),
            ("min(x, y)", -4.0 / 3.0),
            ("floor(3*x) + floor(5*y)", -4.0),
            # oblique jumps; floor(u) + floor(-u) = -1 off the jumps
            ("floor(3*x + 0.5*y)", -2.0),
            # a kink along x just past the panel edge at 0.25, inside the
            # sliver that no node of the panel [0.25, 0.5] reaches
            ("abs(x - 0.251) + y", 2.126002),
        ],
    )
    def test_closed_forms(self, text, want):
        q = integrate_2d(parse(text, 2), self.BOX)
        assert q.converged
        assert abs(q.value - want) <= 1e-12, q

    def test_benchmark_inputs_match_nested_scipy(self):
        texts = _benchmark_2d_inputs(range(5))
        assert len(texts) == 10
        for text in texts:
            f = parse(text, 2)
            # the diagonal kinks of abs(x - y) and max(x, y), and the
            # axis-aligned kink of abs(y - s) where present
            shifts = re.findall(r"abs\(y ([-+]) (\d\.\d+)\)", text)
            ys = [float(v) if sign == "-" else -float(v) for sign, v in shifts]
            want = _nested_scipy(lambda x, y: f(x, y), self.BOX, lambda x: [x, *ys])
            q = integrate_2d(f, self.BOX)
            assert q.converged
            assert abs(q.value - want) <= 1e-12 * abs(want), (text, q.value, want)

    def test_domain_error_comes_from_a_point_where_f_is_undefined(self):
        # undefined only on a small diamond around (0.35, 0.45)
        f = parse("abs(x - y) + sqrt(abs(x - 0.35) + abs(y - 0.45) - 0.01)", 2)
        with pytest.raises(DomainError) as info:
            integrate_2d(f, self.BOX)
        x, y = info.value.point
        assert abs(x - 0.35) + abs(y - 0.45) < 0.01

    def test_smooth_product_integrand(self):
        q = integrate_2d(parse("exp(x)*cos(y)", 2), Box2.from_bounds(0, 1, 0, 2))
        assert q.converged
        assert abs(q.value - (math.e - 1.0) * math.sin(2.0)) <= 1e-12

    def test_starved_budget_is_flagged(self):
        cfg = QuadConfig(max_subdivisions=2)
        q = integrate_2d(parse("sin(30*x*y) + abs(x - y)", 2), self.BOX, cfg)
        assert not q.converged
        assert q.subdivisions <= 2

    def test_rows_run_an_order_tighter(self, monkeypatch):
        from quasiconv import quadrature

        seen = []
        integrate_slices = quadrature._integrate_slices

        def spy(f, splits, along, values, iv, cfg):
            seen.append(cfg)
            return integrate_slices(f, splits, along, values, iv, cfg)

        monkeypatch.setattr(quadrature, "_integrate_slices", spy)
        monkeypatch.setattr(quadrature, "_INITIAL_PANELS", 5)
        cfg = QuadConfig(rel_tol=1e-7, abs_tol=1e-10, max_subdivisions=300)
        integrate_2d(parse("exp(x)*abs(x - y)", 2), Box2.from_bounds(0, 4, -1, 1), cfg)
        want = QuadConfig(rel_tol=1e-7 / 10, abs_tol=1e-10 / 10 / 4, max_subdivisions=300)
        assert seen and all(c == want for c in seen)

    def test_rows_do_not_depend_on_the_batch(self, monkeypatch):
        from quasiconv import quadrature
        from quasiconv.expressions import eval_array

        text = _benchmark_2d_inputs([1])[1] + " + floor(4*y) + 0.1*exp(x*y)"
        f = parse(text, 2)

        def fv2(xs, ys):
            return eval_array(f, xs, ys)[0]

        switches = [quadrature._switch_values(s, Axis.Y) for s in f.switches]
        xs = np.linspace(-1, 1, 37)
        runs = {}
        # one row a batch, 16 and 32 rows a batch, every row in one batch
        for size in (1, 16, 32, xs.size):
            monkeypatch.setattr(quadrature, "_SLICES_PER_BATCH", size)
            rows = quadrature._integrate_slices(
                fv2, switches, Axis.Y, xs, Interval(-1, 1), QuadConfig()
            )
            runs[size] = ([_as_tuple(q) for q in rows], _as_tuple(integrate_2d(f, self.BOX)))
        assert runs[1] == runs[16] == runs[32] == runs[xs.size]

    def test_benchmark_records_do_not_depend_on_the_batch(self, monkeypatch, capsys):
        import json

        from quasiconv import cli, quadrature

        ops = _benchmark_verify_round(3)[1:3]
        assert [op.argv[2] for op in ops] == ["THM_2_4", "CHAIN1_6"]
        records = {}
        for size in (16, 32):
            monkeypatch.setattr(quadrature, "_SLICES_PER_BATCH", size)
            records[size] = []
            for op in ops:
                assert cli.main(list(op.argv)) == 0
                record = json.loads(capsys.readouterr().out)
                del record["wall_time"]
                records[size].append(record)
        assert records[16] == records[32]


def _as_tuple(q):
    return (q.value, q.abs_error_estimate, q.subdivisions, q.converged)


class TestClosedFormCuts:
    """Switching functions affine along a row are cut in closed form, any
    other one, and any row where one is not finite at an end, by the scan
    and the bisection."""

    @pytest.mark.parametrize(
        "text, in_x, in_y",
        [
            ("x - 0.3", True, True),
            ("-(2*x + y)/3 - y", True, True),
            ("x*y", True, True),  # the frozen co-ordinate counts as a constant
            ("x/y", True, False),
            ("sqrt(y)*x - exp(y)", True, False),  # a subtree free of x is constant
            ("x*x", False, True),
            ("1/x", False, True),
            ("x/x", False, True),
            ("abs(x)", False, True),
            ("floor(x)", False, True),
            ("x^1", False, True),
            ("2^x + y", False, True),
            ("sin(3.141592653589793*x)", False, True),
            ("x*y*y", True, False),
            ("min(x, y)", False, False),
            ("0.25", True, True),
        ],
    )
    def test_affine_table(self, text, in_x, in_y):
        f = parse(text, 2)
        assert (f.affine_in(Axis.X), f.affine_in(Axis.Y)) == (in_x, in_y)

    @staticmethod
    def rows_of(switch, along, frozen):
        from quasiconv import quadrature

        return quadrature._on_rows(quadrature._switch_values(switch, along), along, frozen)

    def test_roots_match_the_bisection_on_the_benchmark_rows(self):
        from quasiconv import quadrature

        rng = np.random.default_rng(5)
        frozen = np.concatenate([np.linspace(-1, 1, 65), rng.uniform(-1, 1, 64)])
        iv = Interval(-1, 1)
        cut = 0
        for text in _benchmark_2d_inputs(range(10)):
            f = parse(text, 2)
            for switch in f.switches:
                for along in (Axis.X, Axis.Y):
                    rows = self.rows_of(switch, along, frozen)
                    assert isinstance(rows, quadrature._Affine), (text, switch.text)
                    closed = quadrature._cuts([rows], frozen.size, iv)
                    scanned = quadrature._cuts([rows.fn], frozen.size, iv)
                    for a, b in zip(closed, scanned):
                        assert len(a) == len(b) <= 1, (text, switch.text)
                        assert all(abs(s - t) <= 1e-12 for s, t in zip(a, b)), (a, b)
                        cut += len(a)
        assert cut > 1000

    def test_a_switch_not_finite_at_an_end_is_scanned(self):
        from quasiconv import quadrature

        # the switch 1e308*(y - 0.3) - -1e308*(y - 0.3) overflows at y = -1
        # on every row, where f is finite; the kink is at y = 0.3
        f = parse("1e-300*max(1e308*(y - 0.3), -1e308*(y - 0.3)) + x", 2)
        (switch,) = f.switches
        assert switch.affine_in(Axis.Y)
        lanes = []
        fn = self.rows_of(switch, Axis.Y, np.array([-0.5, 0.25])).fn
        rows = quadrature._Affine(lambda ts, rs: lanes.append(ts.size) or fn(ts, rs))
        cuts = quadrature._cuts([rows], 2, Interval(-1, 1))
        # both ends, then the scan of both rows, then the bisection
        assert lanes[:2] == [4, 2 * 257] and len(lanes) > 2
        assert [len(c) for c in cuts] == [1, 1]
        assert all(abs(c[0] - 0.3) <= 1e-12 for c in cuts)
        q = integrate_2d(f, Box2.from_bounds(-1, 1, -1, 1))
        assert q.converged
        assert q.value == pytest.approx(2e8 * (1.3**2 + 0.7**2) / 2, rel=1e-12)

    def test_closed_form_roots_and_the_rows_left_to_the_scan(self):
        from quasiconv.quadrature import _affine_roots

        # rows: a root inside, none, a zero at an end, not finite at an end,
        # and ends so large that s(lo) - s(hi) overflows
        def s(ts, rows):
            slope = np.array([2.0, 1.0, 1.0, 1.0, 1.5e308])[rows]
            shift = np.array([0.25, -3.0, 1.0, 0.0, 0.0])[rows]
            with np.errstate(over="ignore"):
                return np.where(rows == 3, np.log(ts + 1.0), slope * (ts - shift))

        with np.errstate(divide="ignore"):
            rows, roots, rest = _affine_roots(s, np.arange(5), Interval(-1, 1))
        assert rows.tolist() == [0, 4] and rest.tolist() == [3]
        assert roots.tolist() == [0.25, 0.0]

    def test_a_kink_in_the_panel_sliver_is_cut_on_the_edge_line(self, capsys):
        from quasiconv import cli

        argv = ["verify", "--inequality", "THM_2_4", "--f", "abs(x - 0.251) + y",
                "--domain", "-1,1,-1,1", "--json"]
        assert cli.main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        bottom = record["outcome"]["components"]["bottom edge"]
        assert abs(bottom - -0.4684995) <= 1e-15


class TestHalfChord:
    """The chord gaps over [0, 1/2], doubled, against the whole chord [0, 1]
    integrated by ``_integrate_rows``, cut where the gap changes sign:
    within 1e-12 relative, every row converged."""

    @staticmethod
    def whole_chord(f, along, chord, values=None):
        from quasiconv.expressions import _mix, eval_array
        from quasiconv.inequalities import _INNER_CFG
        from quasiconv.quadrature import _integrate_rows

        k = 0 if along is Axis.X else 1
        frozen = np.zeros(1) if values is None else np.asarray(values, dtype=float)

        def gap(ts, rows):
            sides = []
            for second in (False, True):
                coords = [frozen[rows]] * f.arity
                coords[k] = _mix(ts, chord.lo, chord.hi, second)
                sides.append(eval_array(f, *coords)[0])
            return sides[0] - sides[1]

        return _integrate_rows(
            lambda ts, rows: np.abs(gap(ts, rows)), [gap], frozen.size, Interval(0, 1), _INNER_CFG
        )

    @staticmethod
    def check(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.converged and w.converged
            assert abs(g.value - w.value) <= 1e-12 * abs(w.value), (g, w)

    def test_1d_chord_gaps_of_the_benchmark(self):
        from quasiconv.inequalities import _INNER_CFG

        iv = Interval(-1, 1)
        texts = [op.expr for seed in range(10) for op in _benchmark_verify_round(seed)
                 if op.argv[2] == "JQC1D"]
        assert len(texts) == 300
        for text in texts:
            f = parse(text, 1)
            self.check(integrate_chord_gaps(f, Axis.X, iv, None, _INNER_CFG),
                       self.whole_chord(f, Axis.X, iv))

    @pytest.mark.parametrize("along", [Axis.X, Axis.Y])
    def test_2d_rows_of_the_benchmark(self, along):
        from quasiconv.inequalities import _INNER_CFG

        box = Box2.from_bounds(-1, 1, -1, 1)
        vs = np.linspace(-1, 1, 41)
        for text in _benchmark_2d_inputs(range(3)):
            f = parse(text, 2)
            self.check(integrate_chord_gaps(f, along, box.x, vs, _INNER_CFG),
                       self.whole_chord(f, along, box.x, vs))
