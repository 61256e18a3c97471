import functools
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from quasiconv import (
    Box2,
    ClassId,
    Interval,
    NotApplicableError,
    SearchBudget,
    check_membership,
    coordinate_check,
    defining_inequality,
    lift_witness,
    make_witness,
    parse,
    strengthen_witness,
    violation_tolerance,
)
from quasiconv.classifiers import _halton_cube
from quasiconv import Axis, DomainError, restrict
from quasiconv import classifiers
from quasiconv.expressions import _Binary, _Const, _Unary, _Var, Expr, unparse

BOX = Box2.from_bounds(-1, 1, -1, 1)
FAST = SearchBudget(grid_n=9, halton_count=256, slices=5)


def brute_force_qc2_violation(fn, lo, hi, n=9, nlam=9):
    """Independent oracle: exhaustive scan of the joint quasi-convexity
    inequality over a tensor grid, written with plain loops."""
    pts = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    lams = [k / (nlam - 1) for k in range(nlam)]
    worst = None
    for x1, y1, x2, y2 in itertools.product(pts, repeat=4):
        if (x1, y1) == (x2, y2):
            continue
        fmax = max(fn(x1, y1), fn(x2, y2))
        for lam in lams:
            mx = lam * x1 + (1 - lam) * x2
            my = lam * y1 + (1 - lam) * y2
            gap = fn(mx, my) - fmax
            if worst is None or gap > worst[0]:
                worst = (gap, (x1, y1), (x2, y2), lam)
    return worst


def random_pwl_2d(rng, ridges=3):
    """Signed absolute-ridge sums: piecewise-linear and rich in violations."""
    root = _Const(float(rng.uniform(-1, 1)))
    root = _Binary(
        "+", root, _Binary("*", _Const(float(rng.uniform(-1, 1))), _Var("x"))
    )
    root = _Binary(
        "+", root, _Binary("*", _Const(float(rng.uniform(-1, 1))), _Var("y"))
    )
    for _ in range(ridges):
        a, b, d = (float(v) for v in rng.uniform(-1, 1, 3))
        c = float(rng.uniform(-2, 2))
        ridge = _Unary(
            "abs",
            _Binary(
                "+",
                _Binary(
                    "+",
                    _Binary("*", _Const(a), _Var("x")),
                    _Binary("*", _Const(b), _Var("y")),
                ),
                _Const(d),
            ),
        )
        root = _Binary("+", root, _Binary("*", _Const(c), ridge))
    return Expr(root, 2, unparse(root))


class TestDefiningInequality:
    def test_qc2_hand_evaluation(self):
        f = parse("x^2+y^2", 2)
        lhs, rhs = defining_inequality(
            ClassId.QC2, f, (0, 0), (1, 1), {"lam": 0.5}
        )
        assert lhs == 0.5
        assert rhs == 2.0

    def test_jqc2_sign_flip(self):
        f = parse("-(x^2)", 2)
        lhs, rhs = defining_inequality(ClassId.JQC2, f, (-1, 0), (1, 0))
        assert lhs == 0.0
        assert rhs == -1.0

    def test_w2_affine_equality(self):
        f = parse("x+y", 2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p1 = tuple(rng.uniform(-1, 1, 2))
            p2 = tuple(rng.uniform(-1, 1, 2))
            t, s = rng.uniform(0, 1, 2)
            lhs, rhs = defining_inequality(
                ClassId.W2, f, p1, p2, {"t": float(t), "s": float(s)}
            )
            assert abs(lhs - rhs) <= 1e-12

    def test_coordinate_ids_rejected(self):
        with pytest.raises(ValueError):
            defining_inequality(ClassId.COORD_QC2, parse("x", 2), (0, 0), (1, 1))

    def test_c1_template(self):
        f = parse("x^2", 1)
        lhs, rhs = defining_inequality(ClassId.C1, f, 0.0, 1.0, {"lam": 0.25})
        assert lhs == 0.75 ** 2
        assert rhs == 0.75

    def test_affine_fixed_point(self):
        # C/J/W templates are equalities for affine functions
        rng = np.random.default_rng(42)
        f2 = parse("0.7*x - 1.3*y + 0.2", 2)
        f1 = parse("1.1*x - 0.4", 1)
        for _ in range(1000):
            p1 = tuple(rng.uniform(-2, 2, 2))
            p2 = tuple(rng.uniform(-2, 2, 2))
            lam, s = (float(v) for v in rng.uniform(0, 1, 2))
            for cid, params in (
                (ClassId.C2, {"lam": lam}),
                (ClassId.J2, {}),
                (ClassId.W2, {"t": lam, "s": s}),
            ):
                lhs, rhs = defining_inequality(cid, f2, p1, p2, params)
                assert abs(lhs - rhs) <= 1e-12
            x1, x2 = float(p1[0]), float(p2[0])
            for cid, params in (
                (ClassId.C1, {"lam": lam}),
                (ClassId.J1, {}),
                (ClassId.W1, {"t": lam}),
            ):
                lhs, rhs = defining_inequality(cid, f1, x1, x2, params)
                assert abs(lhs - rhs) <= 1e-12


class TestCheckMembership:
    def test_paraboloid_qc2_matches_brute_force(self):
        f = parse("x^2+y^2", 2)
        worst = brute_force_qc2_violation(lambda x, y: x * x + y * y, -1.0, 1.0)
        assert worst[0] <= 0.0  # the oracle confirms no grid pair violates
        verdict = check_membership(f, BOX, ClassId.QC2, budget=FAST)
        assert verdict.no_violation_found
        assert "no violation found at resolution" in verdict.describe()

    def test_negative_paraboloid_jqc2(self):
        verdict = check_membership(parse("-(x^2)", 2), BOX, ClassId.JQC2)
        assert verdict.violated
        assert verdict.witness.margin == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_ridge_convexity_fails(self):
        # hand evaluation: f(.5, 0) = sqrt(.5) > .5 = average of 0 and 1
        verdict = check_membership(
            parse("sqrt(abs(x))", 2), BOX, ClassId.C2, budget=FAST
        )
        assert verdict.violated
        assert verdict.witness.margin >= math.sqrt(0.5) - 0.5 - 1e-9

    def test_saddle_matches_brute_force(self):
        worst = brute_force_qc2_violation(lambda x, y: x * y, -1.0, 1.0)
        assert worst[0] > 0  # oracle finds the joint violation
        verdict = check_membership(parse("x*y", 2), BOX, ClassId.QC2, budget=FAST)
        assert verdict.violated
        assert verdict.witness.margin >= worst[0] - 1e-12

    def test_undefined_third_verdict(self):
        verdict = check_membership(parse("log(x)", 2), BOX, ClassId.QC2, budget=FAST)
        assert verdict.undefined
        assert verdict.point is not None
        assert not verdict.violated and not verdict.no_violation_found

    def test_1d_class_domain_mismatch(self):
        with pytest.raises(ValueError):
            check_membership(parse("x^2", 1), BOX, ClassId.QC1)

    def test_determinism(self):
        f = parse("x*y", 2)
        v1 = check_membership(f, BOX, ClassId.JQC2, budget=FAST)
        v2 = check_membership(f, BOX, ClassId.JQC2, budget=FAST)
        assert v1.witness == v2.witness

    def test_witness_params_in_range(self):
        verdict = check_membership(parse("sin(x)", 2), Box2.from_bounds(-1.5, 1.5, -1, 1), ClassId.W2, budget=FAST)
        assert verdict.violated
        w = verdict.witness
        assert 0.0 <= w.params["t"] <= 1.0
        assert 0.0 <= w.params["s"] <= 1.0


class TestWitnessSoundness:
    def test_random_pwl_witnesses_reproduce_bit_exactly(self):
        rng = np.random.default_rng(2718)
        found = 0
        for _ in range(200):
            f = random_pwl_2d(rng)
            verdict = check_membership(f, BOX, ClassId.JQC2, budget=FAST)
            if not verdict.violated:
                continue
            found += 1
            w = verdict.witness
            lhs, rhs = defining_inequality(w.class_id, f, w.p1, w.p2, w.params)
            assert lhs == w.lhs and rhs == w.rhs
            assert w.margin > violation_tolerance(w.lhs, w.rhs)
        assert found > 50  # the family must actually generate violations

    def test_scale_covariance_power_of_two(self):
        # scaling by powers of two is exact in floats, so quasi-class margins
        # scale exactly and the winning grid candidate is unchanged
        base = "abs(x - 0.3) - 2*abs(y + 0.4) + 0.5*x"
        f1 = parse(base, 2)
        for c in (2.0, 4.0, 0.5):
            fc = parse(f"{c}*({base})", 2)
            v1 = check_membership(f1, BOX, ClassId.JQC2, budget=FAST)
            vc = check_membership(fc, BOX, ClassId.JQC2, budget=FAST)
            assert v1.violated and vc.violated
            assert vc.witness.p1 == v1.witness.p1
            assert vc.witness.p2 == v1.witness.p2
            assert vc.witness.margin == c * v1.witness.margin


class TestStrengthen:
    def test_jqc_to_wqc_identical_margin(self):
        f = parse("-(x^2)", 2)
        w = check_membership(f, BOX, ClassId.JQC2, budget=FAST).witness
        w2 = strengthen_witness(w)
        assert w2.class_id is ClassId.WQC2
        assert w2.params == {"t": 0.5}
        assert w2.margin == w.margin
        lhs, rhs = defining_inequality(ClassId.WQC2, f, w2.p1, w2.p2, w2.params)
        assert lhs == w2.lhs and rhs == w2.rhs

    def test_wqc_to_qc_pigeonhole(self):
        # terms 3 and 1 against rhs 1.5: the larger chord term wins
        w = make_witness(
            ClassId.WQC2,
            lambda x, y: 3.0 if (x, y) == (0.25, 0.25) else (1.0 if (x, y) == (0.75, 0.75) else 1.5),
            (1.0, 1.0),
            (0.0, 0.0),
            {"t": 0.25},
        )
        assert w.lhs == 2.0 and w.rhs == 1.5
        wq = strengthen_witness(w)
        assert wq.class_id is ClassId.QC2
        assert wq.lhs == 3.0
        assert wq.margin == 1.5
        assert wq.margin >= w.margin

    def test_qc_not_applicable(self):
        f = parse("-(x^2)", 2)
        w = check_membership(f, BOX, ClassId.QC2, budget=FAST).witness
        with pytest.raises(NotApplicableError):
            strengthen_witness(w)

    def test_chain_on_random_pwl(self):
        # violating the largest class propagates down the whole chain
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(200):
            f = random_pwl_2d(rng)
            verdict = check_membership(f, BOX, ClassId.JQC2, budget=FAST)
            if not verdict.violated:
                continue
            checked += 1
            w = verdict.witness
            w_wqc = strengthen_witness(w)
            lhs, rhs = defining_inequality(ClassId.WQC2, f, w_wqc.p1, w_wqc.p2, w_wqc.params)
            assert lhs == w_wqc.lhs and rhs == w_wqc.rhs
            assert w_wqc.margin >= w.margin
            w_qc = strengthen_witness(w_wqc, f)
            lhs, rhs = defining_inequality(ClassId.QC2, f, w_qc.p1, w_qc.p2, w_qc.params)
            assert lhs == w_qc.lhs and rhs == w_qc.rhs
            assert w_qc.margin >= w_wqc.margin
        assert checked > 50


class TestCoordinate:
    def test_paraboloid_qc1_slices(self):
        f = parse("x^2+y^2", 2)
        verdict = coordinate_check(f, BOX, ClassId.QC1, budget=SearchBudget(slices=9))
        assert verdict.no_violation_found

    def test_saddle_slices_convex_but_global_fails(self):
        f = parse("x*y", 2)
        coord = coordinate_check(f, BOX, ClassId.C1, budget=SearchBudget(slices=9))
        assert coord.no_violation_found
        glob = check_membership(f, BOX, ClassId.C2, budget=FAST)
        assert glob.violated

    def test_negative_parabola_every_slice(self):
        f = parse("-(x^2)", 2)
        verdict = coordinate_check(f, BOX, ClassId.JQC1, budget=SearchBudget(slices=5))
        assert verdict.violated
        assert verdict.witness.frozen_axis in ("x", "y")

    def test_lift_jqc_witness(self):
        f = parse("-(x^2)", 2)
        w = coordinate_check(f, BOX, ClassId.JQC1, budget=SearchBudget(slices=5)).witness
        lifted = lift_witness(w)
        assert lifted.class_id is ClassId.JQC2
        lhs, rhs = defining_inequality(ClassId.JQC2, f, lifted.p1, lifted.p2, lifted.params)
        assert lhs == lifted.lhs == w.lhs
        assert rhs == lifted.rhs == w.rhs
        assert lifted.margin == w.margin

    def test_lift_qc_preserves_lambda(self):
        f = parse("-abs(x - 0.2)", 2)
        w = coordinate_check(f, BOX, ClassId.QC1, budget=SearchBudget(slices=5)).witness
        lifted = lift_witness(w)
        assert lifted.class_id is ClassId.QC2
        assert lifted.params["lam"] == w.params["lam"]
        lhs, rhs = defining_inequality(ClassId.QC2, f, lifted.p1, lifted.p2, lifted.params)
        assert lhs == lifted.lhs and rhs == lifted.rhs

    def test_lift_w1_delta_parameterisation(self):
        # concave slices break the Wright increments in both directions
        f = parse("-(y^2) - x^2", 2)
        w = coordinate_check(f, BOX, ClassId.W1, budget=SearchBudget(slices=5)).witness
        assert "delta" in w.params or w.params["t"] in (0.0, 1.0)
        lifted = lift_witness(w)
        assert lifted.class_id is ClassId.W2
        assert lifted.params["s"] == lifted.params["t"]
        lhs, rhs = defining_inequality(ClassId.W2, f, lifted.p1, lifted.p2, lifted.params)
        assert lhs == lifted.lhs and rhs == lifted.rhs
        assert lifted.margin == w.margin

    def test_lift_needs_a_known_frozen_axis(self):
        w = coordinate_check(parse("-(x^2)", 2), BOX, ClassId.JQC1, budget=FAST).witness
        with pytest.raises(ValueError, match="frozen axis and value"):
            lift_witness(replace(w, frozen_value=None))
        with pytest.raises(ValueError, match="unknown axis 'z'"):
            lift_witness(replace(w, frozen_axis="z"))

    def test_coord_dispatch_through_check_membership(self):
        f = parse("x*y", 2)
        v = check_membership(f, BOX, ClassId.COORD_C2, budget=FAST)
        assert v.no_violation_found

    def test_undefined_slice_point_is_2d(self):
        v = coordinate_check(parse("sqrt(x)", 2), BOX, ClassId.QC1, budget=SearchBudget(slices=3))
        assert v.undefined
        assert len(v.point) == 2

    def test_slices_come_from_the_budget(self):
        f = parse("x^2+y^2", 2)
        budget = SearchBudget(grid_n=5, halton_count=8, slices=2)
        v = coordinate_check(f, BOX, ClassId.QC1, budget=budget)
        assert v.resolution.startswith("2 slices per axis")
        assert v.samples == 2 * 2 * (5**3 - 5**2 + 8)
        assert v == check_membership(f, BOX, ClassId.COORD_QC2, budget=budget)


class TestSearchPhases:
    def test_halton_phase_catches_off_grid_spike(self):
        # the spike clears every tensor-grid midpoint but not the
        # low-discrepancy batch
        f = parse("max(0, 1 - 125*abs(x - 0.39))", 2)
        box = Box2.from_bounds(0, 1, 0, 1)
        grid_only = SearchBudget(grid_n=17, halton_count=0)
        assert check_membership(f, box, ClassId.JQC2, budget=grid_only).no_violation_found
        both = check_membership(f, box, ClassId.JQC2, budget=SearchBudget())
        assert both.violated
        assert both.witness.margin > 0.5

    def test_endpoint_only_parameter_grid_is_refused(self):
        # with t or lam in {0, 1} alone the inequality holds for every f
        f1, f2 = parse("-(x^2)", 1), parse("-(x^2)", 2)
        ends = SearchBudget(grid_n=2, halton_count=0, slices=1)
        for cid in ClassId:
            f, domain = (f1, Interval(-1, 1)) if cid.arity == 1 else (f2, BOX)
            if len(cid.param_names) == 1:
                with pytest.raises(ValueError, match=f"tests the {cid.value} parameter"):
                    check_membership(f, domain, cid, budget=ends)
            else:
                assert not check_membership(f, domain, cid, budget=ends).undefined
        with pytest.raises(ValueError, match="tests the W1 parameter t only at 0 and 1"):
            coordinate_check(f2, BOX, ClassId.W1, budget=ends)
        # one Halton point or a third grid value is enough to run
        for budget in (replace(ends, halton_count=1), replace(ends, grid_n=3)):
            assert check_membership(f1, Interval(-1, 1), ClassId.C1, budget=budget).violated

    def test_every_class_returns_sound_witnesses(self):
        # one concave bump violates every ClassId (the 1D classes on its 1D
        # slice, the joint and co-ordinate 2D classes on the box); each
        # witness must reproduce through its own template
        f = parse("-(x^2) - y^2", 2)
        f1 = parse("-(x^2)", 1)
        for cid in ClassId:
            if cid.is_coordinate:
                g, dom = f, BOX
            elif cid.arity == 2:
                g, dom = f, BOX
            else:
                g, dom = f1, Interval(-1.0, 1.0)
            verdict = check_membership(g, dom, cid, budget=FAST)
            assert verdict.violated, cid.value
            w = verdict.witness
            if w.frozen_axis is not None:
                from quasiconv import Axis, restrict

                sliced = restrict(g, Axis(w.frozen_axis), w.frozen_value)
                lhs, rhs = defining_inequality(w.class_id, sliced, w.p1, w.p2, w.params)
            else:
                lhs, rhs = defining_inequality(w.class_id, g, w.p1, w.p2, w.params)
            assert lhs == w.lhs and rhs == w.rhs, cid.value
            assert w.margin > violation_tolerance(w.lhs, w.rhs)


class TestW2Readings:
    def test_ordered_variant_smaller_candidate_set(self):
        f = parse("max(x, y)", 2)
        both = check_membership(f, BOX, ClassId.W2, budget=FAST)
        ordered = check_membership(f, BOX, ClassId.W2_ORDERED, budget=FAST)
        # max(x,y) violates the independent-parameter condition even on
        # componentwise-ordered pairs (opposite corners of a square)
        assert both.violated and ordered.violated
        w = ordered.witness
        assert w.p1[0] <= w.p2[0] and w.p1[1] <= w.p2[1]

    def test_separable_function_in_both(self):
        f = parse("x^2+y^2", 2)
        small = SearchBudget(grid_n=7, halton_count=128)
        assert check_membership(f, BOX, ClassId.W2, budget=small).no_violation_found
        assert check_membership(
            f, BOX, ClassId.W2_ORDERED, budget=small
        ).no_violation_found


REF_BUDGET = SearchBudget(grid_n=4, halton_count=16, refine_iters=0)
REF_INTERVAL = Interval(-1.0, 0.8)
REF_BOX = Box2.from_bounds(-1.0, 0.8, -0.6, 1.0)
# + - * abs min max only: the scalar and vector evaluators agree bit for bit
REF_FUNCTIONS_1D = ("abs(x - 0.25) - 0.5*x*x", "x*x", "min(x, 0.3) - abs(x)*x")
REF_FUNCTIONS_2D = (
    "max(x*y, x - y) - abs(x + 0.5*y)",
    "x*x + y*y",
    "min(x, y)*abs(y) - 0.25*x",
)
# defined on REF_INTERVAL's and REF_BOX's grid points, undefined at some of
# the points a pair mixes to: around x = -0.1, between the grid values -0.4
# and 0.2, and in 2D also around y = 0.2
REF_MIXED_HOLE_1D = "sqrt(abs(x + 0.1) - 0.15)"
REF_MIXED_HOLE_2D = "sqrt(abs(x + 0.1) + abs(y - 0.2) - 0.25)"
# a grid of 5 = 2^2 + 1 values per axis, whose parameter grid maps onto
# itself under lam -> 1 - lam, bit for bit
DYADIC_BUDGET = replace(REF_BUDGET, grid_n=5)
# as above on DYADIC_BUDGET's grid points (x = -0.1 and y = 0.2 are among
# them): around x = -0.325, the midpoint of the grid values -0.55 and -0.1,
# and in 2D also around y = 0, the midpoint of -0.2 and 0.2
DYADIC_MIXED_HOLE_1D = "sqrt(abs(x + 0.325) - 0.1)"
DYADIC_MIXED_HOLE_2D = "sqrt(abs(x + 0.325) + abs(y) - 0.1)"
# each budget with its (1D, 2D) mixed-hole inputs
HOLE_BUDGETS = (
    (REF_BUDGET, (REF_MIXED_HOLE_1D, REF_MIXED_HOLE_2D)),
    (DYADIC_BUDGET, (DYADIC_MIXED_HOLE_1D, DYADIC_MIXED_HOLE_2D)),
)
# the joint classes whose template is symmetric in (p1, p2)
MIRRORED = [c for c in ClassId if c.kind in ("J", "JQC", "W", "WQC") and not c.is_coordinate]
# the joint classes whose template is symmetric in (p1, p2, lam) and
# (p2, p1, 1 - lam), mirrored on a dyadic parameter grid only
REFLECTED = [c for c in ClassId if c.kind in ("C", "QC") and not c.is_coordinate]


@functools.cache
def reference_screen_of(text, dom, cid, budget):
    """``reference_screen`` of ``parse(text)``, run once per input: it does
    not depend on the engine's slab size."""
    return reference_screen(parse(text, cid.arity), dom, cid, budget)


def counting_lanes(monkeypatch):
    """Record the lane shape of every ``eval_array`` call the screen makes."""
    lanes = []
    eval_array = classifiers.eval_array

    def counted(f, *coords, **kwargs):
        lanes.append(np.broadcast_shapes(*(np.shape(c) for c in coords)))
        return eval_array(f, *coords, **kwargs)

    monkeypatch.setattr(classifiers, "eval_array", counted)
    return lanes


def counting_gathers(monkeypatch):
    """Record the slab size of every gather from a grid's table of f at its
    mixed points."""
    gathers = []
    gather = classifiers._Table.gather

    def counted(self, at, shape):
        gathers.append(math.prod(shape))
        return gather(self, at, shape)

    monkeypatch.setattr(classifiers._Table, "gather", counted)
    return gathers


def table_sides(box, cid, n):
    """The sides of a grid's table of f at its mixed points, counted with
    the scalar mixes: the distinct mixed x values and the y ones, by bits."""
    mixes = (classifiers._mix_a, classifiers._mix_b) if cid.kind in ("W", "WQC") else (
        classifiers._mix_a,)
    ts = np.linspace(0.0, 1.0, n).tolist()
    sizes = []
    for iv in (box.x, box.y):
        g = np.linspace(iv.lo, iv.hi, n).tolist()
        sizes.append(len({mix(t, a, b).hex() for a in g for b in g for t in ts for mix in mixes}))
    return sizes


def reference_screen(f, domain, cid, budget):
    """Plain-loop oracle of ``check_membership`` with no refinement: every
    candidate in id order (the tensor grid, then the Halton batch) through
    the scalar template.  Returns (status, samples, witness), or
    ("undefined", samples, point) at the first candidate where the
    template raises DomainError."""
    ivs = [domain] if isinstance(domain, Interval) else [domain.x, domain.y]
    d, names = len(ivs), cid.param_names
    n, m = budget.grid_n, budget.halton_count
    grids = [[float(v) for v in np.linspace(iv.lo, iv.hi, n)] for iv in ivs]
    lams = [float(v) for v in np.linspace(0.0, 1.0, n)]
    candidates = []
    for i1 in itertools.product(range(n), repeat=d):
        for i2 in itertools.product(range(n), repeat=d):
            if i1 == i2:
                continue  # coincident grid points are not candidates
            p1 = tuple(g[i] for g, i in zip(grids, i1))
            p2 = tuple(g[i] for g, i in zip(grids, i2))
            for ps in itertools.product(lams, repeat=len(names)):
                candidates.append((p1, p2, dict(zip(names, ps))))
    samples = len(candidates) + m
    for row in _halton_cube(m, 2 * d + len(names)):
        row = [float(v) for v in row]
        vals = [iv.lo + (iv.hi - iv.lo) * u for iv, u in zip(ivs * 2, row)]
        p1, p2 = tuple(vals[:d]), tuple(vals[d:])
        if p1 != p2:
            candidates.append((p1, p2, dict(zip(names, row[2 * d :]))))
    best = None
    for p1, p2, params in candidates:
        if cid is ClassId.W2_ORDERED and any(a > b for a, b in zip(p1, p2)):
            continue
        try:
            lhs, rhs = defining_inequality(cid, f, p1, p2, params)
        except DomainError as err:
            return "undefined", samples, err.point
        margin = lhs - rhs
        if margin > violation_tolerance(lhs, rhs) and (best is None or margin > best[0]):
            best = (margin, p1, p2, params)
    if best is None:
        return "no_violation_found", samples, None
    return "violated", samples, make_witness(cid, f, *best[1:])


class TestReferenceScreen:
    @pytest.mark.parametrize(
        "cid", [c for c in ClassId if not c.is_coordinate], ids=lambda c: c.value
    )
    def test_engine_matches_plain_loop(self, cid):
        if cid.arity == 1:
            texts, dom = REF_FUNCTIONS_1D, REF_INTERVAL
        else:
            texts, dom = REF_FUNCTIONS_2D, REF_BOX
        for text in texts:
            f = parse(text, cid.arity)
            status, samples, witness = reference_screen(f, dom, cid, REF_BUDGET)
            got = check_membership(f, dom, cid, budget=REF_BUDGET)
            assert (got.status, got.samples) == (status, samples), text
            # repr compares every witness field bit for bit
            assert repr(got.witness) == repr(witness), text

    @pytest.mark.parametrize("chunk", [1, 4, 16, 64, 100, 125, 255, 700])
    @pytest.mark.parametrize("cid", MIRRORED + REFLECTED, ids=lambda c: c.value)
    def test_mirrored_skip_matches_plain_loop(self, monkeypatch, cid, chunk):
        # the grid scan skips a mirrored pair whose x2 index is below its x1
        # index wherever the slab's prefix fixes x1.  The chunks put x2 in
        # the prefix, on the slab axis, and among the slab's trailing axes
        # (W2: 700 at n = 4 and 5; C2, QC2, WQC2: 64, 100, 255 at n = 4,
        # 125, 255 at n = 5; J2, JQC2: 16 at n = 4, 64, 100 at n = 5).  C and
        # QC skip only at n = 5: at n = 4, 1 - lam is off the grid
        monkeypatch.setattr(classifiers, "_CHUNK", chunk)
        for budget, holes in HOLE_BUDGETS:
            if cid.arity == 1:
                cases = [(t, REF_INTERVAL) for t in (*REF_FUNCTIONS_1D, holes[0])]
            else:
                cases = [(t, REF_BOX) for t in (*REF_FUNCTIONS_2D, holes[1])]
                # on a symmetric box a concave bump ties many distinct pairs
                cases.append(("-(x*x) - y*y", BOX))
            for text, dom in cases:
                status, samples, found = reference_screen_of(text, dom, cid, budget)
                got = check_membership(parse(text, cid.arity), dom, cid, budget=budget)
                assert (got.status, got.samples) == (status, samples), (text, budget)
                assert repr(got.point if got.undefined else got.witness) == repr(found), (
                    text, budget)

    def test_mixed_hole_is_undefined_on_the_grid(self):
        # the skip is seen to keep the first undefined candidate of a grid
        # only if the grid reaches one
        for budget, holes in HOLE_BUDGETS:
            for cid in MIRRORED + REFLECTED:
                text, dom = (holes[0], REF_INTERVAL) if cid.arity == 1 else (holes[1], REF_BOX)
                f = parse(text, cid.arity)
                ivs = [dom] if cid.arity == 1 else [dom.x, dom.y]
                # f is defined at every grid point (this raises where not),
                # so the candidate found undefined fails at a mixed point
                for p in itertools.product(*(np.linspace(iv.lo, iv.hi, budget.grid_n)
                                             for iv in ivs)):
                    f(*map(float, p))
                status, _, _ = reference_screen(f, dom, cid, replace(budget, halton_count=0))
                assert status == "undefined", (cid.value, budget.grid_n)

    def test_w2_grid_evaluates_each_mirrored_pair_once(self, monkeypatch):
        # with slabs of 64 lanes x2 is W2's slab axis: each x1 index i
        # screens x2 from i on, 4 * (4 + 3 + 2 + 1) * 64 = 2,560 lanes per
        # chord point instead of 4^6 = 4,096; on the lane path
        lanes = counting_lanes(monkeypatch)
        monkeypatch.setattr(classifiers, "_CHUNK", 64)
        monkeypatch.setattr(classifiers, "_TABLE_SLABS", 0)
        f = parse("x*x + y*y", 2)
        got = check_membership(f, REF_BOX, ClassId.W2, budget=REF_BUDGET)
        assert got.no_violation_found and got.samples == 4**6 - 4**4 + 16
        sizes = [math.prod(shape) for shape in lanes]
        # f on the 16 grid points, then one call per slab and chord point,
        # then f at both ends and both chord points of the 16 Halton pairs
        assert sizes == [16] + [64] * (2 * 2560 // 64) + [32, 32]

    @pytest.mark.parametrize(
        "cid, n, lanes_per_point",
        [
            # x1 index i keeps x2 from i on: n * (n + ... + 1) * n^2 lanes of
            # the n^5 (y1, x2, y2, lam) lanes
            (ClassId.C2, 5, 5 * 15 * 25),
            (ClassId.QC2, 5, 5 * 15 * 25),
            (ClassId.WQC2, 5, 5 * 15 * 25),
            (ClassId.WQC2, 6, 6 * 21 * 36),
            # 1 - lam is off the grid of 6: C and QC skip nothing
            (ClassId.C2, 6, 6**5),
            (ClassId.QC2, 6, 6**5),
        ],
        ids=lambda v: getattr(v, "value", None),
    )
    def test_trailing_x2_grid_evaluates_each_mirrored_pair_once(
        self, monkeypatch, cid, n, lanes_per_point
    ):
        # with slabs of 255 lanes the slab axis is y1 and x2 trails it; a
        # slab spans two y1 rows (n = 5) or one (n = 6); on the lane path
        lanes = counting_lanes(monkeypatch)
        monkeypatch.setattr(classifiers, "_CHUNK", 255)
        monkeypatch.setattr(classifiers, "_TABLE_SLABS", 0)
        budget = SearchBudget(grid_n=n, halton_count=0)
        got = check_membership(parse("x*x + y*y", 2), REF_BOX, cid, budget=budget)
        assert got.no_violation_found and got.samples == n**5 - n**3
        sizes = [math.prod(shape) for shape in lanes]
        # f on the n^2 grid points, then the mixed points: WQC mixes two
        assert sizes[0] == n * n
        assert sum(sizes[1:]) == lanes_per_point * (2 if cid.kind == "WQC" else 1)

    @pytest.mark.parametrize(
        "cid, n, chunk, lanes_per_point",
        [
            # the two tests above on the table path, without Halton points
            (ClassId.W2, 4, 64, 4 * (4 + 3 + 2 + 1) * 64),
            # a slab shorter than the table's rows of 25 points: x2 is in
            # the slab's prefix, and rows are evaluated in pieces
            (ClassId.W2, 4, 16, 4 * (4 + 3 + 2 + 1) * 64),
            (ClassId.C2, 5, 255, 5 * 15 * 25),
            (ClassId.QC2, 5, 255, 5 * 15 * 25),
            (ClassId.WQC2, 5, 255, 5 * 15 * 25),
            (ClassId.WQC2, 6, 255, 6 * 21 * 36),
            (ClassId.C2, 6, 255, 6**5),
            (ClassId.QC2, 6, 255, 6**5),
        ],
        ids=lambda v: getattr(v, "value", None),
    )
    def test_table_gathers_each_mirrored_pair_once(
        self, monkeypatch, cid, n, chunk, lanes_per_point
    ):
        # f on the n^2 grid points, then on the table's points in calls of
        # whole rows of at most one slab; then each slab gathers all its
        # chord points in one call, and the slabs together hold each
        # mirrored pair once
        lanes = counting_lanes(monkeypatch)
        gathers = counting_gathers(monkeypatch)
        monkeypatch.setattr(classifiers, "_CHUNK", chunk)
        nx, ny = table_sides(REF_BOX, cid, n)
        # REF_BOX is not dyadic: its tables outgrow the default bound in
        # these small slabs
        monkeypatch.setattr(classifiers, "_TABLE_SLABS", -(-nx * ny // chunk))
        budget = SearchBudget(grid_n=n, halton_count=0)
        got = check_membership(parse("x*x + y*y", 2), REF_BOX, cid, budget=budget)
        ndim = 4 + len(cid.param_names)
        assert got.no_violation_found and got.samples == n**ndim - n ** (ndim - 2)
        rows, width = max(1, chunk // ny), min(ny, chunk)
        calls = [
            min(rows, nx - r) * min(width, ny - c)
            for r in range(0, nx, rows) for c in range(0, ny, width)
        ]
        assert [math.prod(shape) for shape in lanes] == [n * n] + calls
        assert sum(gathers) == lanes_per_point and max(gathers) <= chunk

    @pytest.mark.parametrize("cid", MIRRORED + REFLECTED, ids=lambda c: c.value)
    def test_templates_are_symmetric_in_the_pair(self, cid):
        # the fact the skip rests on: swapping p1 and p2 changes neither
        # side, and for C and QC with lam -> 1 - lam, where 1 - (1 - lam)
        # == lam, as on a dyadic grid.  == rather than bits: a QC max of 0.0
        # and -0.0 returns the first, and such a zero margin never clears
        # the tolerance
        rng = np.random.default_rng(1914)
        texts = (
            "-(x^2) - y^2", "abs(x - 0.3)*y", "sqrt(x*x + y*y + 0.1)", "exp(x)*sin(3*y)",
            "max(x*y, x - y) - abs(x + 0.5*y)", "log(1 + x*x) - floor(2*y)", "x*x + y*y",
        )
        for text in texts:
            f = parse(text if cid.arity == 2 else text.replace("y", "x"), cid.arity)
            for _ in range(300):
                p1, p2 = (rng.uniform(-2, 2, cid.arity).tolist() for _ in range(2))
                if rng.random() < 0.2:
                    p2[0] = p1[0]  # pairs that share a co-ordinate
                if cid in REFLECTED:
                    # a value of a dyadic grid linspace(0, 1, 2^k + 1)
                    k = int(rng.integers(1, 7))
                    lam = float(np.linspace(0.0, 1.0, 2**k + 1)[rng.integers(0, 2**k + 1)])
                    params, twin = {"lam": lam}, {"lam": 1.0 - lam}
                else:
                    params = {name: float(rng.random()) for name in cid.param_names}
                    twin = params
                want = defining_inequality(cid, f, p1, p2, params)
                assert defining_inequality(cid, f, p2, p1, twin) == want, (text, p1, p2)

    def test_reflection_needs_a_dyadic_parameter_grid(self):
        # 1 - lam is a grid value and 1 - (1 - lam) == lam exactly when the
        # grid's step is a power of two
        assert [n for n in range(2, 70) if classifiers._reflects(n)] == [2, 3, 5, 9, 17, 33, 65]

    def test_chunk_size_does_not_change_verdicts(self, monkeypatch):
        cases = [
            (parse("max(x*y, x - y) - abs(x + 0.5*y)", 2), BOX, ClassId.W2),
            (parse("x*x - y*y", 2), BOX, ClassId.QC2),
            (parse("x*x - y*y", 2), BOX, ClassId.COORD_JQC2),
            (parse("min(x, 0.3) - abs(x)*x", 1), Interval(-1.0, 0.8), ClassId.WQC1),
        ]
        # at the default chunk the W2 and QC2 tensors span several slabs
        assert 9**5 > classifiers._CHUNK
        before = [repr(check_membership(*c, budget=FAST)) for c in cases]
        # 1000 divides none of the tensors, so the last slab is short
        for chunk in (64, 1000):
            monkeypatch.setattr(classifiers, "_CHUNK", chunk)
            after = [repr(check_membership(*c, budget=FAST)) for c in cases]
            assert after == before, chunk

    def test_default_w2_screens_in_bounded_memory(self, monkeypatch):
        # the screen computes into a pool of lane buffers, so its memory
        # does not grow with the 24.1M candidates, and a second check
        # reuses the pool as it is
        monkeypatch.setattr(classifiers, "_POOL", classifiers._Pool())
        f = parse("0.7*(x - 0.2)^2 + 1.1*(y + 0.1)^2", 2)
        tracemalloc.start()
        try:
            verdict = check_membership(f, BOX, ClassId.W2)
            _, peak = tracemalloc.get_traced_memory()
            pool = {name: buf.nbytes for name, buf in classifiers._POOL.flat.items()}
            again = check_membership(f, BOX, ClassId.W2)
        finally:
            tracemalloc.stop()
        assert verdict.no_violation_found and verdict.samples > 24_000_000
        assert peak < 16 * 2**20
        assert {name: buf.nbytes for name, buf in classifiers._POOL.flat.items()} == pool
        assert repr(again) == repr(verdict)

    def test_pool_holds_only_slab_sized_results(self, monkeypatch):
        # the chord mixes and the C/J rhs terms are computed at their
        # operands' own shape, so no pool buffer is named for them, and no
        # buffer outgrows two point sets of one slab
        monkeypatch.setattr(classifiers, "_POOL", classifiers._Pool())
        f = parse("0.7*(x - 0.2)^2 + 1.1*(y + 0.1)^2", 2)
        for cid in (ClassId.W2, ClassId.C2, ClassId.QC2, ClassId.WQC2):
            assert check_membership(f, BOX, cid).no_violation_found
        flat = classifiers._POOL.flat
        assert not {"ua", "vb", "mixed", "same", "term_a", "term_b"} & set(flat)
        assert max(buf.size for buf in flat.values()) <= 2 * classifiers._CHUNK


# the joint classes whose grid the screen gathers from a table of f
TABLE_CLASSES = [ClassId.C2, ClassId.QC2, ClassId.W2, ClassId.W2_ORDERED, ClassId.WQC2]
TABLE_FUNCTIONS = (
    "max(x*y, x - y) - abs(x + 0.5*y)",  # violated
    "x*x + y*y",
    REF_MIXED_HOLE_2D,
    DYADIC_MIXED_HOLE_2D,
    "-(1.7e308*x*x) + y",  # sums overflow: NaN margins
    "exp(x)*sin(3*y) - floor(2*x)",
    # undefined around (-0.325, 0), a mixed point of both boxes' grids of 5
    # (see DYADIC_MIXED_HOLE_2D), where f overflows to inf, not to NaN
    "exp(710 - 10000*(abs(x + 0.325) + abs(y)))",
)


class TestMixedPointTable:
    @pytest.mark.parametrize("cid", TABLE_CLASSES, ids=lambda c: c.value)
    def test_table_matches_lane_path(self, monkeypatch, cid):
        # the lane path, forced by a size bound of 0, gives every verdict
        # bit for bit: repr tells -0.0 from 0.0 and a float's last bit
        gathers = counting_gathers(monkeypatch)
        seen = set()
        for n, m, dom, text in itertools.product(
            (5, 6, 9), (0, 64), (BOX, REF_BOX), TABLE_FUNCTIONS
        ):
            f = parse(text, 2)
            budget = SearchBudget(grid_n=n, halton_count=m)
            before = len(gathers)
            got = check_membership(f, dom, cid, budget=budget).to_dict()
            with monkeypatch.context() as lane_path:
                lane_path.setattr(classifiers, "_TABLE_SLABS", 0)
                want = check_membership(f, dom, cid, budget=budget).to_dict()
            assert repr(got) == repr(want), (n, m, dom, text)
            if len(gathers) > before:
                seen.add((got["status"], "candidate" in got))
        # the table path met every outcome; W's, whose sums of f overflow to
        # inf - inf, also the inequality that is not finite where f is defined
        want = {("no_violation_found", False), ("violated", False), ("undefined", False)}
        assert seen == want | ({("undefined", True)} if cid.kind == "W" else set())


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


class TestMixVec:
    """``_mix`` against the scalar mixes ``_mix_a`` and ``_mix_b``, bit
    for bit, lane by lane."""

    def expected(self, t, a, b, shape, second):
        mix = classifiers._mix_b if second else classifiers._mix_a
        lanes = zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in (t, a, b)))
        return np.array([mix(*lane) for lane in lanes]).reshape(shape)

    def check(self, t, a, b, shape):
        for second in (False, True):
            out = np.full(shape, np.nan)
            with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
                np.copyto(out, classifiers._mix(t, a, b, second))
            want = self.expected(t, a, b, shape, second)
            assert np.array_equal(_bits(out), _bits(want)), (second, t, a, b)

    # values with ties: equal points, zeros of both signs, equal infinities
    VALUES = [-1.0, -0.25, 0.0, -0.0, 0.3, 1.0, 1e308, -1e308, math.inf, -math.inf]

    @pytest.mark.parametrize("t", [0.0, 1.0, 0.5, 0.1234567, "drawn"])
    def test_grid_operands_smaller_than_out(self, t):
        # as on the grid: x1 and x2 on their own axes, t on a third
        rng = np.random.default_rng(5)
        values = np.array(self.VALUES)
        n = len(values)
        a = values.reshape(1, n, 1, 1)
        b = values.reshape(1, 1, n, 1)
        ts = rng.random(3).reshape(1, 1, 1, 3) if t == "drawn" else np.full((1, 1, 1, 1), t)
        self.check(ts, a, b, (1, n, n, 3))
        if t == 0.5:  # J's float parameter
            self.check(0.5, a, b, (1, n, n, 1))

    @pytest.mark.parametrize("t", [0.0, 1.0, 0.5, "drawn"])
    def test_halton_operands_the_shape_of_out(self, t):
        # as on the Halton batch and in refinement: every operand is a lane
        rng = np.random.default_rng(11)
        pairs = list(itertools.product(self.VALUES, repeat=2))
        a = np.array([p for p, _ in pairs] + rng.uniform(-2, 2, 50).tolist())[None, :]
        b = np.array([q for _, q in pairs] + rng.uniform(-2, 2, 50).tolist())[None, :]
        ts = rng.random(a.shape) if t == "drawn" else np.full(a.shape, t)
        self.check(ts, a, b, a.shape)
        # zeros of both signs and equal infinities take a's value exactly
        same = np.array([[0.0, -0.0, math.inf, -math.inf, 0.7]])
        other = np.array([[-0.0, 0.0, math.inf, -math.inf, 0.7]])
        self.check(np.full(same.shape, 0.25), same, other, same.shape)


def test_threads_screen_on_their_own_pools():
    # each thread computes into its own lane buffers
    cases = [
        (parse("max(x*y, x - y) - abs(x + 0.5*y)", 2), BOX, ClassId.W2),
        (parse("x*x - y*y", 2), BOX, ClassId.COORD_WQC2),
        (parse("min(x, 0.3) - abs(x)*x", 1), Interval(-1.0, 0.8), ClassId.WQC1),
        (parse("x*x + y*y", 2), BOX, ClassId.C2),
    ]
    budget = SearchBudget(grid_n=7, halton_count=128, slices=5)

    def screen(case):
        return repr(check_membership(*case, budget=budget))

    want = [screen(c) for c in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(screen, cases * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3


def golden_reference(fn, iters):
    """The sequential golden-section ascent over [0, 1]: (argmax, value)
    seen, a value replacing the best only when strictly larger."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    best = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
            if fc > best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
            if fd > best[1]:
                best = (d, fd)
    return best


def refine_reference(cid, f, p1, p2, params, iters):
    """Scalar co-ordinate-wise golden-section refinement of a witness's
    parameters: a value is kept when its margin is larger and clears the
    violation tolerance; an undefined trial counts as -inf."""
    if not cid.param_names or iters <= 0:
        return params
    current = dict(params)

    def margin_at(trial):
        try:
            lhs, rhs = defining_inequality(cid, f, p1, p2, trial)
        except DomainError:
            return -math.inf
        return lhs - rhs

    base = margin_at(current)
    for name in cid.param_names:
        t, m = golden_reference(lambda v: margin_at({**current, name: v}), iters)
        if m > base:
            trial = {**current, name: t}
            lhs, rhs = defining_inequality(cid, f, p1, p2, trial)
            if m > violation_tolerance(lhs, rhs):
                current, base = trial, m
    return current


def reference_coordinate_check(f, box, cid, slices, budget):
    """Per-slice oracle of ``coordinate_check``: ``restrict``, a 1D screen
    without refinement, then the scalar reference refinement.  The first
    undefined slice ends the check; otherwise the largest refined margin
    wins, the earlier slice on a tie.  Returns (status, samples, point,
    candidate, witness), points in f's co-ordinates."""
    plain = replace(budget, refine_iters=0)
    samples, best = 0, None
    for axis, frozen_iv, run_iv in ((Axis.Y, box.y, box.x), (Axis.X, box.x, box.y)):
        for value in np.linspace(frozen_iv.lo, frozen_iv.hi, slices):
            value = float(value)
            g = restrict(f, axis, value)
            v = check_membership(g, run_iv, cid, budget=plain)
            samples += v.samples
            if v.undefined:
                if v.candidate is not None:
                    candidate = (*v.candidate[:4], axis.value, value)
                    return "undefined", samples, None, candidate, None
                lift = (v.point[0], value) if axis is Axis.Y else (value, v.point[0])
                return "undefined", samples, lift, None, None
            if v.violated:
                w = v.witness
                params = {k: w.params[k] for k in cid.param_names}
                params = refine_reference(cid, g, w.p1, w.p2, params, budget.refine_iters)
                w = make_witness(cid, g, w.p1, w.p2, params, axis.value, value)
                if best is None or w.margin > best.margin:
                    best = w
    status = "no_violation_found" if best is None else "violated"
    return status, samples, None, None, best


COORD_FUNCTIONS = (
    "x*x + y*y",  # separable and convex: nothing to find
    "x*x - y*y",  # concave in y only
    "-(x^2) - y^2",  # symmetric on the box: slices of both axes tie
    "-(x^2)",  # every y-frozen slice is the same partial mapping
    "max(x*y, x - y) - abs(x + 0.5*y)",
    "exp(x*y) - 2*sin(3*x)*y",
    "sqrt(0.3 - y) + x^2",  # undefined on the whole grid of the slice y = 0.5
    "sqrt(abs(x - 0.25) - 0.05*y)",  # undefined only between grid points
    "-(1.7e308*x*x) + y",  # NaN margins
)
COORD_BOX = Box2.from_bounds(-1.0, 1.0, -1.0, 1.0)
COORD_BUDGETS = (
    SearchBudget(grid_n=5, halton_count=32, refine_iters=12, slices=5),
    SearchBudget(grid_n=4, halton_count=16, refine_iters=50, slices=3),
)


class TestCoordinateBatch:
    # at n = 5 the slab spans x1 at the default chunk, 64 and 1000; x2 is
    # the slab axis at 16 and a prefix axis at 4, so that mirrored pairs skip
    @pytest.mark.parametrize("chunk", [None, 4, 16, 64, 1000])
    @pytest.mark.parametrize("budget", COORD_BUDGETS, ids=["n5", "n4"])
    @pytest.mark.parametrize(
        "cid", [c for c in ClassId if c.is_coordinate], ids=lambda c: c.value
    )
    def test_matches_per_slice_loop(self, monkeypatch, cid, budget, chunk):
        if chunk is not None:
            monkeypatch.setattr(classifiers, "_CHUNK", chunk)
        one_d = classifiers.COORD_TO_1D[cid]
        for text in COORD_FUNCTIONS:
            f = parse(text, 2)
            status, samples, point, candidate, witness = reference_coordinate_check(
                f, COORD_BOX, one_d, budget.slices, budget
            )
            got = check_membership(f, COORD_BOX, cid, budget=budget)
            assert (got.status, got.samples, got.point, got.candidate) == (
                status, samples, point, candidate
            ), text
            # repr compares every witness field bit for bit
            assert repr(got.witness) == repr(witness), text

    def test_inputs_reach_every_outcome(self):
        # the differential inputs cover a grid-undefined slice after defined
        # ones, an undefined mixed point, an inequality that overflows where
        # f is defined, ties across slices and violations
        budget = COORD_BUDGETS[0]
        # candidates per slice: grid pairs off the diagonal, then Halton
        per_c = 5**3 - 5**2 + 32
        per_j = 5**2 - 5 + 32

        def check(text, cid=ClassId.COORD_C2):
            return check_membership(parse(text, 2), COORD_BOX, cid, budget=budget)

        assert check("sqrt(0.3 - y) + x^2").samples == 3 * per_c
        v = check("sqrt(abs(x - 0.25) - 0.05*y)", ClassId.COORD_J2)
        assert v.undefined and v.samples == 4 * per_j and v.point == (0.25, 0.5)
        f = parse("-(1.7e308*x*x) + y", 2)
        v = check_membership(f, COORD_BOX, ClassId.COORD_W2, budget=budget)
        assert v.undefined and v.point is None
        assert v.candidate == (ClassId.W1, (-1.0,), (-0.5,), {"t": 0.0}, "y", -1.0)
        # like a witness, the candidate re-evaluates through its slice
        c, p1, p2, params, axis, value = v.candidate
        lhs, rhs = defining_inequality(c, restrict(f, Axis(axis), value), p1, p2, params)
        assert not math.isfinite(lhs - rhs)
        w = check("-(x^2) - y^2").witness
        assert (w.frozen_axis, w.frozen_value) == ("y", -1.0)
        assert check("x*x + y*y").no_violation_found


def lane_fn(scalars):
    """Lanes of scalar functions, one per row: (values, defined), where a
    point the function raises DomainError at is undefined."""

    def value(g, t):
        try:
            return g(t), True
        except DomainError:
            return 0.0, False

    def fn(ts):
        pairs = np.array(
            [[value(g, t) for t in row] for g, row in zip(scalars, ts.tolist())]
        )
        return pairs[..., 0], pairs[..., 1].astype(bool)

    return fn


def _off_path(t):
    # the ascent of this increasing function keeps to [0.38, 1]; points
    # below 0.3 are evaluated only ahead, off its path
    if t < 0.3:
        raise DomainError("off the path")
    return t


GOLDEN_CASES = (
    lambda t: -((t - 0.3) ** 2),
    lambda t: -math.inf if t < 0.5 else t,  # undefined lanes
    lambda t: math.nan if 0.2 < t < 0.45 else -abs(t - 0.7),  # NaN margins
    lambda t: math.nan,
    lambda t: 1.0,  # every comparison a tie
    lambda t: float(t > 0.5),  # ties on either side
    lambda t: math.floor(8 * t) / 8,
    _off_path,
    lambda t: math.sin(40 * t),
)


class TestGoldenLanes:
    @pytest.mark.parametrize("iters", [0, 1, 4, 5, 6, 13, 50])
    def test_matches_sequential_reference(self, iters):
        got = classifiers._golden_lanes(lane_fn(GOLDEN_CASES), len(GOLDEN_CASES), iters)
        for k, g in enumerate(GOLDEN_CASES):

            def scalar(t, g=g):
                try:
                    return g(t)
                except DomainError:
                    return -math.inf

            want = golden_reference(scalar, iters)
            # repr tells NaN, -inf and the argmax's last bit apart
            assert repr((got[0][k], got[1][k])) == repr(want), k

    def test_off_path_point_is_evaluated_ahead(self):
        seen = []

        def fn(ts):
            seen.extend(ts.ravel().tolist())
            return lane_fn([_off_path])(ts)

        classifiers._golden_lanes(fn, 1, 50)
        assert min(seen) < 0.3
