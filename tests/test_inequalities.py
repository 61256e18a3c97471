import struct
from fractions import Fraction

import numpy as np
import pytest

from quasiconv import (
    Box2,
    DomainError,
    Interval,
    QuadConfig,
    QuadResult,
    coord_convex_chain,
    hadamard_1d,
    jqc_bound_1d,
    max_identity,
    parse,
    thm_jqc_coord,
    thm_wqc_coord,
    wqc_bound_1d,
)
from quasiconv.expressions import Axis, chord_substitution, difference
from quasiconv.inequalities import _chord_correction_2d
from quasiconv.quadrature import (
    integrate_1d,
    integrate_2d,
    integrate_abs_difference,
    integrate_nested,
)

UNIT_IV = Interval(0, 1)
UNIT_BOX = Box2.from_bounds(0, 1, 0, 1)
# the chord parameters a chord correction integrates over
HALF_IV = Interval(0, 0.5)


def half_tol(cfg: QuadConfig) -> QuadConfig:
    return QuadConfig(cfg.rel_tol, cfg.abs_tol / 2, cfg.max_subdivisions)


def doubled(q: QuadResult) -> QuadResult:
    return QuadResult(2 * q.value, 2 * q.abs_error_estimate, q.subdivisions, q.converged)


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestHadamard1D:
    def test_x_squared_closed_forms(self):
        rep = hadamard_1d(parse("x^2", 1), UNIT_IV)
        expect = [0.25, float(Fraction(1, 3)), 0.5]
        for (name, got), want in zip(rep.terms, expect):
            assert got == pytest.approx(want, abs=1e-10)
        assert all(rep.holds)

    def test_constant_all_equal(self):
        rep = hadamard_1d(parse("0*x + 3", 1), Interval(-2, 5))
        vals = rep.term_values()
        assert all(v == pytest.approx(3.0, abs=1e-12) for v in vals)

    def test_affine_sharpness(self):
        rep = hadamard_1d(parse("x", 1), UNIT_IV)
        for v in rep.term_values():
            assert v == pytest.approx(0.5, abs=1e-12)


class TestJqcBound1D:
    def test_identity_function(self):
        rep = jqc_bound_1d(parse("x", 1), UNIT_IV)
        assert rep.components["chord correction I"] == pytest.approx(0.25, abs=1e-10)
        assert rep.term_values()[0] == pytest.approx(0.5, abs=1e-12)
        assert rep.term_values()[1] == pytest.approx(0.75, abs=1e-10)
        assert all(rep.holds)

    def test_symmetric_kink_zero_correction(self):
        rep = jqc_bound_1d(parse("abs(x - 0.5)", 1), UNIT_IV)
        assert rep.components["chord correction I"] == pytest.approx(0.0, abs=1e-9)
        assert rep.term_values()[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.term_values()[1] == pytest.approx(0.25, abs=1e-9)
        assert all(rep.holds)

    def test_x_squared(self):
        # |(1-t)^2 - t^2| = |1-2t| so the correction is again 1/4
        rep = jqc_bound_1d(parse("x^2", 1), UNIT_IV)
        assert rep.components["chord correction I"] == pytest.approx(0.25, abs=1e-10)
        assert rep.term_values()[0] == pytest.approx(0.25, abs=1e-12)
        assert rep.term_values()[1] == pytest.approx(1 / 3 + 0.25, abs=1e-9)


class TestWqcBound1D:
    def test_x_squared(self):
        rep = wqc_bound_1d(parse("x^2", 1), UNIT_IV)
        assert rep.term_values() == pytest.approx([1 / 3, 1.0], abs=1e-9)
        assert all(rep.holds)

    def test_constant_equality(self):
        rep = wqc_bound_1d(parse("0*x + 2.5", 1), Interval(1, 4))
        assert rep.slacks[0] == pytest.approx(0.0, abs=1e-12)
        assert all(rep.holds)

    def test_identity(self):
        rep = wqc_bound_1d(parse("x", 1), UNIT_IV)
        assert rep.term_values() == pytest.approx([0.5, 1.0], abs=1e-10)


class TestChain:
    def test_affine_sharpness_witness(self):
        rep = coord_convex_chain(parse("x+y", 2), UNIT_BOX)
        for v in rep.term_values():
            assert v == pytest.approx(1.0, abs=1e-10)

    def test_sum_of_squares_closed_forms(self):
        rep = coord_convex_chain(parse("x^2+y^2", 2), UNIT_BOX)
        expect = [
            0.5,
            float(Fraction(7, 12)),
            float(Fraction(2, 3)),
            float(Fraction(5, 6)),
            1.0,
        ]
        assert rep.term_values() == pytest.approx(expect, abs=1e-9)
        assert all(rep.holds)

    def test_constant(self):
        rep = coord_convex_chain(parse("0*x + 0*y - 1.5", 2), UNIT_BOX)
        for v in rep.term_values():
            assert v == pytest.approx(-1.5, abs=1e-12)

    def test_random_affine_sharpness(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            a, b, c = (float(t) for t in rng.uniform(-2, 2, 3))
            f = parse(f"{a!r}*x + {b!r}*y + {c!r}", 2)
            rep = coord_convex_chain(f, UNIT_BOX)
            vals = rep.term_values()
            spread = max(vals) - min(vals)
            assert spread <= 1e-9


class TestThmJqcCoord:
    def test_affine(self):
        rep = thm_jqc_coord(parse("x+y", 2), UNIT_BOX)
        assert rep.term_values()[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.components["double integral mean"] == pytest.approx(1.0, abs=1e-9)
        assert rep.components["H"] == pytest.approx(0.25, abs=1e-8)
        assert rep.term_values()[1] == pytest.approx(1.25, abs=1e-8)
        assert all(rep.holds)
        assert all(s.holds for s in rep.side_inequalities)

    def test_constant_equality(self):
        rep = thm_jqc_coord(parse("0*x*y + 2", 2), UNIT_BOX)
        assert rep.components["H"] == pytest.approx(0.0, abs=1e-9)
        assert rep.slacks[0] == pytest.approx(0.0, abs=1e-8)

    def test_sum_of_squares(self):
        rep = thm_jqc_coord(parse("x^2+y^2", 2), UNIT_BOX)
        assert rep.term_values()[0] == pytest.approx(float(Fraction(7, 12)), abs=1e-9)
        assert rep.components["double integral mean"] == pytest.approx(
            float(Fraction(2, 3)), abs=1e-9
        )
        assert rep.components["H"] == pytest.approx(0.25, abs=1e-8)
        assert rep.term_values()[1] == pytest.approx(float(Fraction(11, 12)), abs=1e-8)

    def test_h_nonnegative_on_random_pwl(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            a, b, c = (float(v) for v in rng.uniform(-1, 1, 3))
            f = parse(f"{a!r}*abs(x - {b!r}) + {c!r}*y", 2)
            rep = thm_jqc_coord(f, UNIT_BOX)
            assert rep.components["H"] >= 0.0

    def test_reduction_to_1d(self):
        # y-independent f: the rectangle bound collapses to the interval bound
        g_text = "abs(x - 0.3) + 0.5*x^2"
        f2 = parse(f"{g_text} + 0*y", 2)
        g1 = parse(g_text, 1)
        box = Box2.from_bounds(0, 1, 0, 1)
        rep2 = thm_jqc_coord(f2, box)
        rep1 = jqc_bound_1d(g1, Interval(0, 1))
        mean = rep2.components["double integral mean"]
        # lhs2 = (mean_x g + g(midpoint))/2, so g(midpoint) = 2*lhs2 - mean
        g_mid_from_2d = 2.0 * rep2.term_values()[0] - mean
        assert g_mid_from_2d == pytest.approx(rep1.term_values()[0], abs=1e-8)
        # H = I/2 for a y-independent function, so rhs terms match too
        i_from_2d = 2.0 * (rep2.term_values()[1] - mean)
        assert i_from_2d == pytest.approx(
            rep1.components["chord correction I"], abs=1e-8
        )


class TestThmWqcCoord:
    def test_affine(self):
        rep = thm_wqc_coord(parse("x+y", 2), UNIT_BOX)
        assert rep.term_values()[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.term_values()[1] == pytest.approx(1.5, abs=1e-9)
        assert all(rep.holds)
        assert all(s.holds for s in rep.side_inequalities)

    def test_constant_equality(self):
        rep = thm_wqc_coord(parse("0*x*y - 4", 2), UNIT_BOX)
        assert rep.slacks[0] == pytest.approx(0.0, abs=1e-9)

    def test_sum_of_squares(self):
        rep = thm_wqc_coord(parse("x^2+y^2", 2), UNIT_BOX)
        assert rep.term_values()[0] == pytest.approx(float(Fraction(2, 3)), abs=1e-9)
        assert rep.term_values()[1] == pytest.approx(float(Fraction(4, 3)), abs=1e-9)


class TestLineIntegrals:
    """Each rectangle report integrates only the midlines and edges it
    reports, so f need not be defined on the others."""

    # x and y intervals differ, and f = x + 100*y tells the lines apart:
    # a line at y = c restricts to t + 100*c, a line at x = a to a + 100*t
    BOX = Box2.from_bounds(-1, 3, 10, 14)
    H_MID, V_MID = (1200.0, BOX.x), (1.0, BOX.y)
    BOTTOM, TOP = (1000.0, BOX.x), (1400.0, BOX.x)
    LEFT, RIGHT = (-1.0, BOX.y), (3.0, BOX.y)

    def integrated_lines(self, monkeypatch, report):
        from quasiconv import inequalities

        seen = []
        real = inequalities._integrate_slices

        def spy(fv, splits, along, values, iv, cfg):
            # one line per call: the line's integrand at 0, and its interval
            (at,) = values
            t, v = np.zeros(1), np.full(1, at)
            seen.append((float(fv(*((t, v) if along is Axis.X else (v, t)))[0]), iv))
            return real(fv, splits, along, values, iv, cfg)

        monkeypatch.setattr(inequalities, "_integrate_slices", spy)
        report(parse("x + 100*y", 2), self.BOX)
        return seen

    def test_thm_jqc_integrates_the_midlines(self, monkeypatch):
        got = self.integrated_lines(monkeypatch, thm_jqc_coord)
        assert got == [self.H_MID, self.V_MID]

    def test_thm_wqc_integrates_the_edges(self, monkeypatch):
        got = self.integrated_lines(monkeypatch, thm_wqc_coord)
        assert got == [self.BOTTOM, self.TOP, self.LEFT, self.RIGHT]

    def test_chain_integrates_all_six(self, monkeypatch):
        got = self.integrated_lines(monkeypatch, coord_convex_chain)
        assert got == [self.H_MID, self.V_MID, self.BOTTOM, self.TOP, self.LEFT, self.RIGHT]

    def test_undefined_midline_is_not_integrated(self):
        # log(abs(x)) is undefined on the vertical midline x = 0 alone
        f = parse("log(abs(x)) + y", 2)
        box = Box2.from_bounds(-1, 1, -1, 1)
        rep = thm_wqc_coord(f, box)
        assert rep.term_values() == pytest.approx([-1.0, 0.0], abs=1e-8)
        assert rep.components["bottom edge"] == pytest.approx(-2.0, abs=1e-8)
        assert all(rep.holds)
        with pytest.raises(DomainError):
            coord_convex_chain(f, box)

    @pytest.mark.parametrize(
        "report, text, axis, at",
        [
            (thm_jqc_coord, "1/(x - 0.3) + log(0.5 - y)", 1, 0.0),  # horizontal midline
            (thm_jqc_coord, "log(0.5 - y) + x", 0, 0.0),  # vertical midline
            (thm_wqc_coord, "log(0.5 - y) + x", 1, 1.0),  # top edge
            (thm_wqc_coord, "log(abs(y) + x + 0.9)", 0, -1.0),  # left edge
        ],
    )
    def test_undefined_line_names_fs_own_point(self, report, text, axis, at):
        # the line runs f's own tape, so the error names the 2D point,
        # frozen co-ordinate ``axis`` at ``at``, which f itself fails at
        # with the same words
        f = parse(text, 2)
        with pytest.raises(DomainError) as err:
            report(f, Box2.from_bounds(-1, 1, -1, 1))
        point = err.value.point
        assert len(point) == 2 and point[axis] == at
        with pytest.raises(DomainError) as own:
            f(*point)
        assert str(own.value) == str(err.value)


class TestMaxIdentity:
    def test_simple(self):
        assert max_identity(3, 5) == 5.0
        assert max_identity(-2, -2) == -2.0

    def test_overflow_pair(self):
        assert max_identity(1e308, -1e308) == 1e308
        assert max_identity(-1e308, 1e308) == 1e308
        assert max_identity(1e308, 1e308) == 1e308

    @pytest.mark.parametrize(
        "u, v",
        [
            (-0.0, -1.0),  # the maximum is a negative zero
            (-1e300, -0.0),
            (1.7976931348623157e308, -8.98846567431158e307),  # a partial sum overflows
            (-1.7976931348623157e308, 5e-324),  # the maximum is absorbed in u - v
            (1.7976931348623157e308, -5e-324),
            (1.7976931348623157e308, 1.7976931348623155e308),
        ],
    )
    def test_extreme_pairs_bit_exact(self, u, v):
        assert struct.pack("<d", max_identity(u, v)) == struct.pack("<d", max(u, v))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(31337)
        raw = rng.integers(0, 2 ** 64, size=40000, dtype=np.uint64)
        vals = raw.view(np.float64)
        vals = vals[np.isfinite(vals)]
        pairs = vals[: (len(vals) // 2) * 2].reshape(-1, 2)
        for u, v in pairs:
            u, v = float(u), float(v)
            got = max_identity(u, v)
            want = max(u, v)
            assert bits(got) == bits(want), (u, v)


class TestChordCorrections:
    """The batched chord double integrals of THM_2_1."""

    # kinks on the diagonal and off the scan grid, as in the benchmark inputs
    TEXT = "0.61*abs(x - y) + 0.83*max(x, y) + 0.47*(y - 0.213)^2 + 0.39*(x + 0.117)^2"
    BOX = Box2.from_bounds(-1, 1, -1, 1)

    @staticmethod
    def fn(x, y):
        return (0.61 * abs(x - y) + 0.83 * max(x, y)
                + 0.47 * (y - 0.213) ** 2 + 0.39 * (x + 0.117) ** 2)

    @staticmethod
    def reference(f, box, along):
        """The chord correction as one kink-split integral per outer node,
        over the first half of the chord at half the absolute tolerance,
        doubled."""
        from quasiconv.expressions import chord_substitution, restrict
        from quasiconv.inequalities import _INNER_CFG, _OUTER_CFG
        from quasiconv.quadrature import _adaptive, integrate_abs_difference

        chord_iv, outer_iv = (box.x, box.y) if along is Axis.X else (box.y, box.x)
        other = Axis.Y if along is Axis.X else Axis.X
        fwd = chord_substitution(f, along, chord_iv.lo, chord_iv.hi)
        rev = chord_substitution(f, along, chord_iv.lo, chord_iv.hi, reverse=True)
        inner = []

        def node(v):
            q = doubled(integrate_abs_difference(
                restrict(fwd, other, v), restrict(rev, other, v), HALF_IV, half_tol(_INNER_CFG)
            ))
            inner.append(q)
            return q.value

        q = _adaptive(
            lambda ts, rows: np.array([node(v) for v in ts]),
            np.array([outer_iv.lo]), np.array([outer_iv.hi]), np.zeros(1, dtype=int),
            [_OUTER_CFG.abs_tol], _OUTER_CFG,
        )[0]
        err = q.abs_error_estimate + outer_iv.length * max(
            r.abs_error_estimate for r in inner
        )
        return q.value, err, q.converged and all(r.converged for r in inner)

    # a varying exponent needs a positive base
    BOXES = {"x^y + abs(x - y)": Box2.from_bounds(0.5, 1.5, 0.5, 2)}

    @pytest.mark.parametrize(
        "along, text",
        [
            (Axis.X, TEXT),
            (Axis.Y, "exp(0.3*x*y) + abs(sin(2*x) - y + 0.1)"),
            # drawn like the benchmark's kinked inputs, with an axis kink
            (Axis.Y, "0.7149*abs(x - y) + 0.4473*max(x, y) + 0.3187*abs(y - 0.2431)"
             " + 0.5528*(x + 0.1102)^2"),
            (Axis.X, "floor(3*x) + abs(y - 0.2)"),
            (Axis.Y, "x^y + abs(x - y)"),
        ],
    )
    def test_matches_per_node_loop_bit_for_bit(self, along, text):
        f = parse(text, 2)
        box = self.BOXES.get(text, self.BOX)
        got = _chord_correction_2d(f, box, along)
        want = self.reference(f, box, along)
        assert bits(got.value) == bits(want[0])
        assert bits(got.abs_error_estimate) == bits(want[1])
        assert got.converged == want[2]

    @pytest.mark.parametrize("along", [Axis.X, Axis.Y])
    def test_matches_nested_scipy_with_breakpoints(self, along):
        from scipy.integrate import quad
        from scipy.optimize import brentq

        f = self.fn
        a, b = -1.0, 1.0  # both axes

        def chords(t, v):
            u, w = t * a + (1.0 - t) * b, (1.0 - t) * a + t * b
            if along is Axis.X:
                return f(u, v) - f(w, v)
            return f(v, u) - f(v, w)

        def inner(v):
            # the chord points cross the diagonal kink x = y at these t
            points = {(b - v) / (b - a), (v - a) / (b - a)}
            ts = np.linspace(0.0, 1.0, 401)
            ds = [chords(t, v) for t in ts]
            for i in range(400):
                if ds[i] * ds[i + 1] < 0.0:
                    points.add(brentq(lambda t: chords(t, v), ts[i], ts[i + 1], xtol=1e-15))
            points = sorted(p for p in points if 0.0 < p < 1.0)
            val, _ = quad(lambda t: abs(chords(t, v)), 0.0, 1.0, points=points,
                          epsabs=1e-14, epsrel=1e-12, limit=200)
            return val

        # the inner kinks cross the chord midpoint t = 1/2 at v = 0
        want, _ = quad(inner, -1.0, 1.0, points=[0.0], epsabs=1e-12, epsrel=1e-11,
                       limit=200)
        got = _chord_correction_2d(parse(self.TEXT, 2), self.BOX, along)
        assert got.converged
        assert abs(got.value - want) <= got.abs_error_estimate + 1e-9

    def test_undefined_chord_point_raises(self):
        # the chord reaches x = -1, where log(x + 1) is undefined
        with pytest.raises(DomainError):
            _chord_correction_2d(
                parse("log(x+1) + y", 2), Box2.from_bounds(-1, 1, -1, 1), Axis.X
            )


def test_thm_jqc_report_peaks_under_a_bound():
    """One THM_2_1 report on a benchmark-shaped input, with an axis kink,
    allocates at most 1.2 MB at once, as ``tracemalloc`` counts numpy's
    arrays and Python's objects (1.73 MB when the chord gaps ran over the
    whole chord)."""
    import tracemalloc

    f = parse("0.3748*abs(x - y) + 0.6520*max(x, y) + 0.2369*abs(y - 0.2674)"
              " + 0.9052*(x - 0.4342)^2", 2)
    tracemalloc.start()
    try:
        thm_jqc_coord(f, Box2.from_bounds(-1, 1, -1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6, peak


class TestQuadErrors:
    """``quad_errors`` holds each integral's error estimate over the length it
    averages over, in report order, and ``converged`` is the conjunction of
    the integrals' flags; both recomputed here from the integrals alone."""

    IV = Interval(-1, 2)
    # unequal sides tell the averaging lengths apart
    BOX = Box2.from_bounds(-1, 1, -0.5, 2.5)
    # smooth, kinked, and one whose integrals exhaust their budgets
    INPUTS_1D = [
        "x^2 + exp(x)",
        "0.7*abs(x - 0.31) + 0.4*max(x + 0.23, 0) + 0.3*x^2",
        "sin(1/(x - 0.3 + 1e-9))",
    ]
    INPUTS_2D = ["x^2 + 0.5*y^2 + 0.3*x*y", "0.6*abs(x - y) + 0.8*max(x, y) + 0.4*x^2"]

    @staticmethod
    def lines(f, box, names):
        """Each line on f's own tape, cut at f's switching functions."""
        from quasiconv.quadrature import _as_vector, _integrate_slices, _switch_values

        x, y = box.x, box.y
        # (the co-ordinate that runs, the other one's value, the interval run)
        at = {
            "h": (Axis.X, y.midpoint, x), "v": (Axis.Y, x.midpoint, y),
            "b": (Axis.X, y.lo, x), "t": (Axis.X, y.hi, x),
            "l": (Axis.Y, x.lo, y), "r": (Axis.Y, x.hi, y),
        }
        out = []
        for n in names:
            along, v, iv = at[n]
            splits = [_switch_values(s, along) for s in f.switches]
            (q,) = _integrate_slices(_as_vector(f), splits, along, [v], iv, QuadConfig())
            out.append((q, iv.length))
        return out

    @staticmethod
    def chord_2d(f, box, along):
        """The chord double integral on the tree of f's chord difference,
        each row over the first half of the chord, doubled."""
        from quasiconv.inequalities import _INNER_CFG, _OUTER_CFG
        from quasiconv.quadrature import _as_vector, _integrate_slices

        chord_iv, outer_iv = (box.x, box.y) if along is Axis.X else (box.y, box.x)
        dv = _as_vector(difference(
            chord_substitution(f, along, chord_iv.lo, chord_iv.hi),
            chord_substitution(f, along, chord_iv.lo, chord_iv.hi, reverse=True),
        ))
        return integrate_nested(
            lambda vs: [doubled(q) for q in _integrate_slices(
                lambda xs, ys: np.abs(dv(xs, ys)), [dv], along, vs, HALF_IV, half_tol(_INNER_CFG)
            )],
            outer_iv,
            _OUTER_CFG,
        )

    def integrals_1d(self, ineq, f, iv):
        from quasiconv.inequalities import _INNER_CFG

        got = [(integrate_1d(f, iv), iv.length)]
        if ineq == "JQC1D":
            g = chord_substitution(f, Axis.X, iv.lo, iv.hi)
            h = chord_substitution(f, Axis.X, iv.lo, iv.hi, reverse=True)
            got.append((doubled(integrate_abs_difference(g, h, HALF_IV, half_tol(_INNER_CFG))), 2.0))
        return got

    def integrals_2d(self, ineq, f, box):
        double = (integrate_2d(f, box), box.area)
        if ineq == "CHAIN1_6":
            return [*self.lines(f, box, "hv"), double, *self.lines(f, box, "btlr")]
        if ineq == "THM_2_4":
            return [double, *self.lines(f, box, "btlr")]
        return [
            *self.lines(f, box, "hv"),
            double,
            (self.chord_2d(f, box, Axis.X), 4.0 * box.y.length),
            (self.chord_2d(f, box, Axis.Y), 4.0 * box.x.length),
        ]

    def check(self, rep, integrals):
        assert rep.quad_errors == tuple(q.abs_error_estimate / n for q, n in integrals)
        assert rep.converged == all(q.converged for q, _ in integrals)

    @pytest.mark.parametrize("text", INPUTS_1D)
    @pytest.mark.parametrize(
        "ineq, report", [("HH1D", hadamard_1d), ("JQC1D", jqc_bound_1d), ("WQC1D", wqc_bound_1d)]
    )
    def test_1d(self, ineq, report, text):
        f = parse(text, 1)
        self.check(report(f, self.IV), self.integrals_1d(ineq, f, self.IV))

    @pytest.mark.parametrize("text", INPUTS_2D)
    @pytest.mark.parametrize(
        "ineq, report",
        [("CHAIN1_6", coord_convex_chain), ("THM_2_1", thm_jqc_coord), ("THM_2_4", thm_wqc_coord)],
    )
    def test_2d(self, ineq, report, text):
        f = parse(text, 2)
        self.check(report(f, self.BOX), self.integrals_2d(ineq, f, self.BOX))
