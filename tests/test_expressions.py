import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasiconv import (
    ArityError,
    Axis,
    DomainError,
    ExprSyntaxError,
    parse,
    restrict,
)
from quasiconv import classifiers
from quasiconv.expressions import (
    Expr,
    Registers,
    _Binary,
    _Const,
    _Unary,
    _Var,
    eval_array,
    unparse,
)


class TestParse:
    def test_polynomial_identity(self):
        e = parse("x^2+y^2", 2)
        assert e(1, 2) == 5.0

    def test_max_call(self):
        e = parse("max(x, y)", 2)
        assert e(0.3, 0.7) == 0.7

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x +* y", 2)
        assert exc.value.position == 3

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", 1)

    def test_reserved_t(self):
        with pytest.raises(ExprSyntaxError, match="reserved"):
            parse("t + 1", 1)

    def test_y_in_1d_is_arity_error(self):
        with pytest.raises(ArityError):
            parse("x + y", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + z", 1)

    def test_function_needs_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("abs x", 1)

    def test_min_needs_two_args(self):
        with pytest.raises(ExprSyntaxError):
            parse("min(x)", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + 1 )", 1)

    def test_deep_nesting_raises_syntax_error(self):
        text = "(" * 600 + "x" + ")" * 600
        try:
            e = parse(text, 1)
            assert e(2.0) == 2.0
        except ExprSyntaxError:
            pass  # converting exhaustion into the documented error is fine

    def test_power_precedence(self):
        # ^ binds tighter than unary minus
        assert parse("-x^2", 1)(3.0) == -9.0
        assert parse("x^-2", 1)(2.0) == 0.25
        # right-associative
        assert parse("2^3^2", 1)(0.0) == 512.0

    def test_unary_vs_product(self):
        assert parse("-x*3", 1)(2.0) == -6.0

    def test_scientific_numbers(self):
        assert parse("1.5e-3 + x", 1)(0.0) == 1.5e-3
        assert parse(".5*x", 1)(4.0) == 2.0


class TestEvaluate:
    def test_product(self):
        assert parse("x*y", 2)(0.5, 0.5) == 0.25

    def test_sqrt_negative_domain_error(self):
        e = parse("sqrt(x)", 1)
        with pytest.raises(DomainError) as exc:
            e(-1.0)
        assert exc.value.point == (-1.0,)

    def test_abs_symmetry_point(self):
        assert parse("abs(1-2*x)", 1)(0.5) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            parse("1/x", 1)(0.0)

    def test_log_nonpositive(self):
        with pytest.raises(DomainError):
            parse("log(x)", 1)(0.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(DomainError):
            parse("x^0.5", 1)(-2.0)

    def test_negative_base_integer_power(self):
        assert parse("x^3", 1)(-2.0) == -8.0

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            parse("exp(x)", 1)(1000.0)

    def test_floor(self):
        e = parse("floor(2*x)", 1)
        assert e(0.75) == 1.0
        assert e(-0.25) == -1.0

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse("x", 2)(1.0)
        with pytest.raises(ArityError):
            parse("x", 1)(1.0, 2.0)

    def test_determinism_bit_identical(self):
        e = parse("sin(x)*exp(y) + x^3/(y+2)", 2)
        pts = [(0.1, 0.2), ((-0.7), 1.3), (2.5, -1.9)]
        for x, y in pts:
            assert e(x, y) == e(x, y)


class TestRestrict:
    def test_fix_x(self):
        e = restrict(parse("x^2+y^2", 2), Axis.X, 0.5)
        assert e(1.0) == 1.25

    def test_zero_slice(self):
        e = restrict(parse("x*y", 2), Axis.Y, 0.0)
        for v in (-1.0, 0.3, 2.0):
            assert e(v) == 0.0

    def test_sum_slice(self):
        e = restrict(parse("x+y", 2), Axis.X, 0.25)
        assert e(0.75) == 1.0

    def test_needs_2d(self):
        with pytest.raises(ArityError):
            restrict(parse("x", 1), Axis.X, 0.0)

    def test_round_trip_bit_equal(self):
        # slicing replaces a variable by a constant and renames the other;
        # every arithmetic op is untouched, so values match bit for bit
        rng = np.random.default_rng(7)
        f = parse("sin(x)*y + exp(y/4)*abs(x - 0.3) + x^3", 2)
        for _ in range(1000):
            x0, y0 = rng.uniform(-2, 2, 2)
            assert restrict(f, Axis.X, x0)(y0) == f(x0, y0)
            assert restrict(f, Axis.Y, y0)(x0) == f(x0, y0)


class TestSwitches:
    def test_each_non_smooth_node_has_one(self):
        f = parse("abs(x - y) + max(x, y) + min(2*y, 1) + floor(3*x) + exp(y)", 2)
        texts = [s.text for s in f.switches]
        # max(x, y) repeats the switch of abs(x - y); the text keeps one
        assert texts == ["x - y", "2.0*y - 1.0", f"sin({math.pi!r}*(3.0*x))"]
        assert all(s.arity == 2 for s in f.switches)
        assert parse("exp(x)*sin(y) + x^2", 2).switches == ()

    def test_floor_switch_changes_sign_at_each_jump(self):
        (switch,) = parse("floor(3*x)", 1).switches
        for jump in (-2 / 3, -1 / 3, 1 / 3, 2 / 3):
            assert switch(jump - 1e-9) * switch(jump + 1e-9) < 0.0

    def test_deep_chain_builds_switches(self):
        f = parse("+".join(["abs(x - 0.5)"] * 3000), 1)
        assert [s.text for s in f.switches] == ["x - 0.5"]


class TestDeepTrees:
    def test_repr_eq_hash_do_not_recurse(self):
        text = "+".join(["x"] * 3000)
        f, g = parse(text, 1), parse(text, 1)
        assert f == g and hash(f) == hash(g)
        assert repr(f).count("_Var(name='x')") == 3000
        assert f != parse(text + "+1", 1)
        assert f.root != parse(text.replace("x", "y", 1), 2).root

    def test_constants_compare_by_value(self):
        assert _Binary("^", _Var("x"), _Const(2.0)).right == _Const(2.0)
        assert _Unary("neg", _Const(0.0)) == _Unary("neg", _Const(-0.0))
        assert hash(_Unary("neg", _Const(0.0))) == hash(_Unary("neg", _Const(-0.0)))
        assert repr(_Unary("abs", _Var("x"))) == "_Unary(op='abs', arg=_Var(name='x'))"


class TestVectorisedEvaluation:
    def test_matches_scalar_on_arithmetic(self):
        f = parse("x^2*y - abs(x - y)/ (2 + x)", 2)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, 257)
        ys = rng.uniform(-1, 1, 257)
        vals, ok = eval_array(f, xs, ys)
        assert ok.all()
        for i in range(0, 257, 16):
            assert vals[i] == f(float(xs[i]), float(ys[i]))

    def test_mask_flags_partial_lanes(self):
        f = parse("sqrt(x)", 1)
        vals, ok = eval_array(f, np.array([1.0, -1.0, 4.0]))
        assert list(ok) == [True, False, True]
        assert vals[0] == 1.0 and vals[2] == 2.0

    def test_mask_catches_transient_overflow(self):
        # min(exp(x), 5) hides the overflow in the final value; the lane
        # must still be invalid, matching the scalar walk which raises
        f = parse("min(exp(x), 5)", 1)
        with pytest.raises(DomainError):
            f(1000.0)
        _, ok = eval_array(f, np.array([0.0, 1000.0]))
        assert list(ok) == [True, False]


class TestUnparse:
    @pytest.mark.parametrize(
        "text",
        [
            "x^2+y^2",
            "-x^2 - (y - 1)*(y + 1)",
            "max(x, min(y, 0.5)) + abs(x)/3",
            "x - (y - 1)",
            "2^3^x",
            "-(x*y)",
            "floor(2*x) + sin(y)*cos(x)",
        ],
    )
    def test_reparse_evaluates_identically(self, text):
        f = parse(text, 2)
        g = parse(unparse(f.root), 2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.uniform(-2, 2, 2)
            assert f(x, y) == g(x, y)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=1024))
def test_parser_totality_on_fuzz(text):
    # every input either parses or raises the structured errors; no crashes
    try:
        parse(text, 2)
    except (ExprSyntaxError, ArityError):
        pass


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_eval_pure(x, y):
    f = parse("x*y + abs(x) - y^2", 2)
    assert f(x, y) == f(x, y)


class TestLiterals:
    @pytest.mark.parametrize("text, offset", [("sin(1e999)+x", 4), ("x + 2E+400", 4)])
    def test_overflowing_literal_is_syntax_error(self, text, offset):
        with pytest.raises(ExprSyntaxError, match="overflows to infinity") as exc:
            parse(text, 1)
        assert exc.value.position == offset

    def test_largest_finite_literal_parses(self):
        assert parse("1.7976931348623157e308", 1)(0.0) == 1.7976931348623157e308


# ---------------------------------------------------------------------------
# One tape, two walkers: random trees over all 15 operators


_UNARY_OPS = ("neg", "abs", "sqrt", "exp", "log", "sin", "cos", "floor")
_BINARY_OPS = ("+", "-", "*", "/", "^", "min", "max")
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
            0.5, 2.0, -1.0, 1.0, -2.0, 3.0, 709.782712893384, 709.7827128933841)
_constants = (
    st.sampled_from(_SPECIAL)
    | st.floats(min_value=-4, max_value=4)
    | st.floats(allow_nan=False, allow_infinity=False)
)
_coords = (
    st.sampled_from(_SPECIAL)
    | st.floats(min_value=-20, max_value=20)
    | st.floats(allow_nan=False, allow_infinity=False)
)
_trees = st.recursive(
    st.builds(_Const, _constants) | st.sampled_from([_Var("x"), _Var("y")]),
    lambda kids: st.builds(_Unary, st.sampled_from(_UNARY_OPS), kids)
    | st.builds(_Binary, st.sampled_from(_BINARY_OPS), kids, kids),
    max_leaves=10,
)
_points = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=6)

_UFUNCS = {
    "neg": np.negative, "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "floor": np.floor, "+": np.add, "-": np.subtract,
    "*": np.multiply, "/": np.divide, "^": np.power, "min": np.minimum, "max": np.maximum,
}


def _every_node_mask(node, xs, ys):
    """Reference: the value of ``node`` on the lanes and the mask that tests
    every node's value for finiteness."""
    if isinstance(node, _Const):
        return node.value, np.ones(xs.shape, dtype=bool)
    if isinstance(node, _Var):
        return (xs if node.name == "x" else ys), np.ones(xs.shape, dtype=bool)
    if isinstance(node, _Unary):
        v, ok = _every_node_mask(node.arg, xs, ys)
        r = _UFUNCS[node.op](v)
    else:
        a, ok_a = _every_node_mask(node.left, xs, ys)
        b, ok_b = _every_node_mask(node.right, xs, ys)
        r, ok = _UFUNCS[node.op](a, b), ok_a & ok_b
    return r, ok & np.isfinite(r)


def _lanes(pts):
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


@settings(max_examples=400, deadline=None)
@given(_trees, _points)
# exp's overflow edge: the largest argument with a finite value, and the next
@example(parse("exp(x) + y", 2).root, [(709.782712893384, -1e308), (709.7827128933841, 0.0)])
def test_scalar_call_matches_lanes(root, pts):
    # a scalar call fails exactly where the lane mask is False, and
    # otherwise returns the lane's value bit for bit
    f = Expr(root, 2, unparse(root))
    vals, ok = eval_array(f, *_lanes(pts))
    for (x, y), value, defined in zip(pts, vals, ok):
        if defined:
            got = f(x, y)
            assert type(got) is float
            assert repr(got) == repr(float(value)), (f.text, x, y)
        else:
            with pytest.raises(DomainError):
                f(x, y)


@pytest.mark.parametrize(
    "text", ["exp(x)", "log(x)", "x^y", "sin(x)*cos(y)", "sqrt(x)", "floor(x*y)"]
)
def test_transcendental_lanes_match_scalar_calls(text):
    # numpy's SIMD loops and libm's math differ in the last bit on a few
    # percent of arguments; both walkers must use the same one
    rng = np.random.default_rng(20011)
    xs, ys = rng.uniform(0.01, 20.0, 5000), rng.uniform(-4.0, 4.0, 5000)
    f = parse(text, 2)
    vals, ok = eval_array(f, xs, ys)
    assert ok.all()
    got = np.array([f(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
    assert np.array_equal(got.view(np.uint64), vals.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(_trees, _points)
# an overflow that each guard opcode maps back to a finite value
@example(parse("x/(y*1e300)", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("exp(y*(-1e300))", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("1^(y*1e300)", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("min(y*1e300, x)", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("max(-(y*1e300), x)", 2).root, [(1.0, 1e300), (1.0, 1.0)])
def test_reduced_checks_give_the_every_node_mask(root, pts):
    f = Expr(root, 2, unparse(root))
    xs, ys = _lanes(pts)
    with np.errstate(all="ignore"):
        _, want = _every_node_mask(root, xs, ys)
    _, ok = eval_array(f, xs, ys)
    assert np.array_equal(ok, want), f.text


def _register_file(f, n):
    """Registers for f on n lanes, each a view shorter than its buffer and
    holding stale values, as the screening pool hands them out."""
    rng = np.random.default_rng(n)

    def values():
        buf = rng.uniform(-1e300, 1e300, n + 7)
        buf[::3] = np.nan
        return buf[:n]

    def mask():
        return rng.integers(0, 2, n + 7).astype(bool)[:n]

    return Registers([values() for _ in range(f.registers)], mask(), mask())


def _same_bits(a, b):
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=400, deadline=None)
@given(_trees, _points)
@example(parse("x", 2).root, [(1.0, 2.0), (-0.0, 1e300)])
@example(parse("sqrt(2)*x", 2).root, [(1.0, 2.0), (-3.0, 0.0)])
# the exponents numpy takes shortcuts at, varying across lanes
@example(parse("x^y", 2).root, [(3.7, 2.0), (3.7, 0.5), (3.7, -1.0), (-2.0, 0.5), (0.0, -1.0)])
@example(parse("(x + 1)^y - x", 2).root, [(3.7, 2.0), (3.7, 0.5), (3.7, -1.0), (1.5, 3.0)])
# guard opcodes whose computed operands are not finite on some lanes
@example(parse("x/(y*1e300)", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("exp(y*(-1e300))", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("1^(y*1e300)", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("min(y*1e300, x)", 2).root, [(1.0, 1e300), (1.0, 1.0)])
@example(parse("max(-(y*1e300), x) + exp(x)", 2).root, [(1.0, 1e300), (800.0, 1.0)])
# two NaN operands of an add, which numpy computes in place into the left one
@example(parse("-sqrt(x) + sqrt(-5e-324)", 2).root, [(-1.0, 0.0)])
def test_registers_give_the_same_bits(root, pts):
    # computing into a register file changes no value bit and no mask bit,
    # and writes into no input lane
    f = Expr(root, 2, unparse(root))
    xs, ys = _lanes(pts)
    want, want_ok = eval_array(f, xs, ys)
    regs = _register_file(f, xs.size)
    vals, ok = eval_array(f, xs, ys, regs=regs)
    assert vals is regs.values[0] and ok is regs.ok
    assert _same_bits(vals, want), f.text
    assert np.array_equal(ok, want_ok), f.text
    assert all(map(_same_bits, (xs, ys), _lanes(pts)))


def test_constant_operators_stay_scalars():
    f = parse("sqrt(2)*x - exp(-1)", 1)
    # one register for the lanes; sqrt(2) and exp(-1) are never lanes
    assert f.registers == 1
    xs = np.linspace(-1.0, 1.0, 5)
    vals, _ = eval_array(f, xs, regs=_register_file(f, xs.size))
    assert _same_bits(vals, eval_array(f, xs)[0])


@settings(max_examples=200, deadline=None)
@given(_trees, _points, st.sampled_from((-1.0, -0.0, 0.5, 2.0)) | st.floats(-20, 20))
# a NaN the restricted tree computes from a constant, the 2D one on lanes
@example(parse("sqrt(x)", 2).root, [(0.0, 0.0)], -1.0)
def test_frozen_lanes_give_the_restricted_bits(root, pts, value):
    # a co-ordinate screen runs the 2D tape on register files at (value, u)
    # or (u, value): the bits of the restricted expression at u
    f = Expr(root, 2, unparse(root))
    us = np.array([p[0] for p in pts])
    for axis, on_x in ((Axis.Y, False), (Axis.X, True)):
        want, want_ok = eval_array(restrict(f, axis, value), us)
        frozen = (np.array(value), np.array(on_x))
        (vals,), (ok,) = classifiers._eval_lanes(f, [[us]], us.shape, frozen)
        assert _same_bits(vals, want), (f.text, axis)
        assert np.array_equal(ok, want_ok), (f.text, axis)


_FLOAT = r"-?(?:inf|nan|\d+\.\d+(?:e[+-]\d+)?|\d+e[+-]\d+)"
_REASON = re.compile(
    rf"(?:sqrt of negative value {_FLOAT}|exp overflow on {_FLOAT}"
    rf"|log of non-positive value {_FLOAT}|division by zero|overflow in '[-+*/^]'"
    rf"|{_FLOAT} \^ {_FLOAT} is not a finite real)"
)


@settings(max_examples=300, deadline=None)
@given(_trees, _points)
def test_domain_error_reasons_keep_their_text(root, pts):
    f = Expr(root, 2, unparse(root))
    for x, y in pts:
        try:
            f(x, y)
        except DomainError as err:
            assert _REASON.fullmatch(err.reason), err.reason
            assert err.point == (x, y)


@pytest.mark.parametrize(
    "text, point, reason",
    [
        ("sqrt(x)", -1.0, "sqrt of negative value -1.0"),
        ("log(sin(x))", -1.0, "log of non-positive value -0.8414709848078965"),
        ("exp(x)", 1000.0, "exp overflow on 1000.0"),
        ("1/x", 0.0, "division by zero"),
        ("x/1e-300", 1e10, "overflow in '/'"),
        ("x*1e300", 1e10, "overflow in '*'"),
        ("x+1.7e308", 1e308, "overflow in '+'"),
        ("x-1.7e308", -1e308, "overflow in '-'"),
        ("x^0.5", -2.0, "-2.0 ^ 0.5 is not a finite real"),
        ("exp(x)^3", 300.0, "1.9424263952412558e+130 ^ 3.0 is not a finite real"),
        ("min(exp(x), 5)", 1000.0, "exp overflow on 1000.0"),
    ],
)
def test_domain_error_reason_text(text, point, reason):
    with pytest.raises(DomainError) as exc:
        parse(text, 1)(point)
    assert exc.value.reason == reason
    assert exc.value.point == (point,)


@pytest.mark.parametrize("a, b", [(0.0, -0.0), (-0.0, 0.0)])
def test_min_max_ties_keep_the_second_operand(a, b):
    for text in ("min(x, y)", "max(x, y)"):
        f = parse(text, 2)
        vals, _ = eval_array(f, np.array([a]), np.array([b]))
        assert repr(f(a, b)) == repr(float(vals[0])) == repr(b)


@pytest.mark.parametrize("exponent", [2.0, 0.5, -1.0, 3.0])
def test_power_is_the_same_for_a_frozen_exponent(exponent):
    # numpy shortcuts x^2, x^0.5 and x^-1 only for an exponent that is one
    # number; an exponent that varies across lanes must agree with it
    bases = np.linspace(0.01, 5.0, 4001)
    f = parse("x^y", 2)
    frozen = restrict(f, Axis.Y, exponent)
    vals, ok = eval_array(f, bases, np.full(bases.shape, exponent))
    fvals, fok = eval_array(frozen, bases)
    assert ok.all() and fok.all()
    assert np.array_equal(vals.view(np.uint64), fvals.view(np.uint64))
    for i in range(0, bases.size, 7):
        b = float(bases[i])
        assert repr(f(b, exponent)) == repr(frozen(b)) == repr(float(vals[i]))
