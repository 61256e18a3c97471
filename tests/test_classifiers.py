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
        verdict = coordinate_check(parse("x^2+y^2", 2), BOX, ClassId.QC1, slices=9)
        assert verdict.no_violation_found

    def test_saddle_slices_convex_but_global_fails(self):
        f = parse("x*y", 2)
        coord = coordinate_check(f, BOX, ClassId.C1, slices=9)
        assert coord.no_violation_found
        glob = check_membership(f, BOX, ClassId.C2, budget=FAST)
        assert glob.violated

    def test_negative_parabola_every_slice(self):
        f = parse("-(x^2)", 2)
        verdict = coordinate_check(f, BOX, ClassId.JQC1, slices=5)
        assert verdict.violated
        assert verdict.witness.frozen_axis in ("x", "y")

    def test_lift_jqc_witness(self):
        f = parse("-(x^2)", 2)
        w = coordinate_check(f, BOX, ClassId.JQC1, slices=5).witness
        lifted = lift_witness(w)
        assert lifted.class_id is ClassId.JQC2
        lhs, rhs = defining_inequality(ClassId.JQC2, f, lifted.p1, lifted.p2, lifted.params)
        assert lhs == lifted.lhs == w.lhs
        assert rhs == lifted.rhs == w.rhs
        assert lifted.margin == w.margin

    def test_lift_qc_preserves_lambda(self):
        f = parse("-abs(x - 0.2)", 2)
        w = coordinate_check(f, BOX, ClassId.QC1, slices=5).witness
        lifted = lift_witness(w)
        assert lifted.class_id is ClassId.QC2
        assert lifted.params["lam"] == w.params["lam"]
        lhs, rhs = defining_inequality(ClassId.QC2, f, lifted.p1, lifted.p2, lifted.params)
        assert lhs == lifted.lhs and rhs == lifted.rhs

    def test_lift_w1_delta_parameterisation(self):
        # concave slices break the Wright increments in both directions
        f = parse("-(y^2) - x^2", 2)
        w = coordinate_check(f, BOX, ClassId.W1, slices=5).witness
        assert "delta" in w.params or w.params["t"] in (0.0, 1.0)
        lifted = lift_witness(w)
        assert lifted.class_id is ClassId.W2
        assert lifted.params["s"] == lifted.params["t"]
        lhs, rhs = defining_inequality(ClassId.W2, f, lifted.p1, lifted.p2, lifted.params)
        assert lhs == lifted.lhs and rhs == lifted.rhs
        assert lifted.margin == w.margin

    def test_coord_dispatch_through_check_membership(self):
        f = parse("x*y", 2)
        v = check_membership(f, BOX, ClassId.COORD_C2, budget=FAST)
        assert v.no_violation_found

    def test_undefined_slice_point_is_2d(self):
        v = coordinate_check(parse("sqrt(x)", 2), BOX, ClassId.QC1, slices=3)
        assert v.undefined
        assert len(v.point) == 2


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
# + - * abs min max only: the scalar and vector evaluators agree bit for bit
REF_FUNCTIONS_1D = ("abs(x - 0.25) - 0.5*x*x", "x*x", "min(x, 0.3) - abs(x)*x")
REF_FUNCTIONS_2D = (
    "max(x*y, x - y) - abs(x + 0.5*y)",
    "x*x + y*y",
    "min(x, y)*abs(y) - 0.25*x",
)


def reference_screen(f, domain, cid, budget):
    """Plain-loop oracle of ``check_membership`` with no refinement: every
    candidate in id order (the tensor grid, then the Halton batch) through
    the scalar template.  Returns (status, samples, witness)."""
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
        lhs, rhs = defining_inequality(cid, f, p1, p2, params)
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
            texts, dom = REF_FUNCTIONS_1D, Interval(-1.0, 0.8)
        else:
            texts, dom = REF_FUNCTIONS_2D, Box2.from_bounds(-1.0, 0.8, -0.6, 1.0)
        for text in texts:
            f = parse(text, cid.arity)
            status, samples, witness = reference_screen(f, dom, cid, REF_BUDGET)
            got = check_membership(f, dom, cid, budget=REF_BUDGET)
            assert (got.status, got.samples) == (status, samples), text
            # repr compares every witness field bit for bit
            assert repr(got.witness) == repr(witness), text

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
    witness)."""
    plain = replace(budget, refine_iters=0)
    samples, best = 0, None
    for axis, frozen_iv, run_iv in ((Axis.Y, box.y, box.x), (Axis.X, box.x, box.y)):
        for value in np.linspace(frozen_iv.lo, frozen_iv.hi, slices):
            value = float(value)
            g = restrict(f, axis, value)
            v = check_membership(g, run_iv, cid, budget=plain)
            samples += v.samples
            if v.undefined:
                u = v.point[0]
                point = (u, value) if axis is Axis.Y else (value, u)
                return "undefined", samples, point, None
            if v.violated:
                w = v.witness
                params = {k: w.params[k] for k in cid.param_names}
                params = refine_reference(cid, g, w.p1, w.p2, params, budget.refine_iters)
                w = make_witness(cid, g, w.p1, w.p2, params, axis.value, value)
                if best is None or w.margin > best.margin:
                    best = w
    status = "no_violation_found" if best is None else "violated"
    return status, samples, None, best


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
    @pytest.mark.parametrize("chunk", [None, 64, 1000])
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
            status, samples, point, witness = reference_coordinate_check(
                f, COORD_BOX, one_d, budget.slices, budget
            )
            got = check_membership(f, COORD_BOX, cid, budget=budget)
            assert (got.status, got.samples, got.point) == (status, samples, point), text
            # repr compares every witness field bit for bit
            assert repr(got.witness) == repr(witness), text

    def test_inputs_reach_every_outcome(self):
        # the differential inputs cover a grid-undefined slice after defined
        # ones, an undefined mixed point, ties across slices and violations
        budget = COORD_BUDGETS[0]
        # candidates per slice: grid pairs off the diagonal, then Halton
        per_c = 5**3 - 5**2 + 32
        per_j = 5**2 - 5 + 32

        def check(text, cid=ClassId.COORD_C2):
            return check_membership(parse(text, 2), COORD_BOX, cid, budget=budget)

        assert check("sqrt(0.3 - y) + x^2").samples == 3 * per_c
        v = check("sqrt(abs(x - 0.25) - 0.05*y)", ClassId.COORD_J2)
        assert v.undefined and v.samples == 4 * per_j and v.point == (0.25, 0.5)
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
