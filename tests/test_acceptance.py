"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

from quasiconv import (
    Box2,
    ClassId,
    Interval,
    check_membership,
    coord_convex_chain,
    coordinate_check,
    defining_inequality,
    hadamard_1d,
    jqc_bound_1d,
    lift_witness,
    load_gallery,
    max_identity,
    parse,
    strengthen_witness,
    thm_jqc_coord,
    thm_wqc_coord,
    violation_tolerance,
)
from quasiconv.classifiers import COORD_TO_1D, GLOBAL_2D_TO_1D
from quasiconv.expressions import _Binary, _Const, _Unary, _Var, Expr, unparse

BOX = Box2.from_bounds(-1, 1, -1, 1)


def _line(n, name, ok=True):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")


def random_pwl_2d(rng, ridges=3):
    root = _Const(float(rng.uniform(-1, 1)))
    root = _Binary("+", root, _Binary("*", _Const(float(rng.uniform(-1, 1))), _Var("x")))
    root = _Binary("+", root, _Binary("*", _Const(float(rng.uniform(-1, 1))), _Var("y")))
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


def horner(coeffs):
    """sum_k c_k x^k as expression text in Horner form, which does the same
    multiplications and additions as ``np.polyval``."""
    terms = [repr(float(c)) for c in coeffs]
    return " + x*(".join(terms) + ")" * (len(terms) - 1)


def test_criterion_1_closed_form_terms():
    t0 = time.perf_counter()
    tol = 1e-8

    rep = hadamard_1d(parse("x^2", 1), Interval(0, 1))
    assert rep.term_values() == pytest.approx([0.25, float(Fraction(1, 3)), 0.5], abs=tol)

    rep = jqc_bound_1d(parse("x", 1), Interval(0, 1))
    assert rep.components["chord correction I"] == pytest.approx(0.25, abs=tol)

    rep = coord_convex_chain(parse("x^2+y^2", 2), Box2.from_bounds(0, 1, 0, 1))
    expect = [0.5, float(Fraction(7, 12)), float(Fraction(2, 3)), float(Fraction(5, 6)), 1.0]
    assert rep.term_values() == pytest.approx(expect, abs=tol)
    assert all(rep.holds)

    rep = thm_jqc_coord(parse("x+y", 2), Box2.from_bounds(0, 1, 0, 1))
    assert rep.term_values()[0] == pytest.approx(1.0, abs=tol)
    assert rep.components["H"] == pytest.approx(0.25, abs=tol)
    assert rep.term_values()[1] == pytest.approx(1.25, abs=tol)

    rep = thm_wqc_coord(parse("x^2+y^2", 2), Box2.from_bounds(0, 1, 0, 1))
    assert rep.term_values()[0] == pytest.approx(float(Fraction(2, 3)), abs=tol)
    assert rep.term_values()[1] == pytest.approx(float(Fraction(4, 3)), abs=tol)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"closed-form battery took {elapsed:.2f}s"
    _line(1, "closed-form term reproduction")


def test_criterion_2_chain_sharpness_for_affine():
    rng = np.random.default_rng(20260809)
    for _ in range(20):
        a, b, c = (float(v) for v in rng.uniform(-2, 2, 3))
        f = parse(f"{a!r}*x + {b!r}*y + {c!r}", 2)
        rep = coord_convex_chain(f, Box2.from_bounds(0, 1, 0, 1))
        vals = rep.term_values()
        assert max(vals) - min(vals) <= 1e-9, (a, b, c, vals)
    _line(2, "chain sharpness on random affine functions")


# witnesses from criterion 3 feed criterion 4; computed once per session
_JQC2_WITNESSES = []


def _collect_pwl_witnesses():
    if _JQC2_WITNESSES:
        return time.perf_counter(), time.perf_counter()
    rng = np.random.default_rng(1729)
    t0 = time.perf_counter()
    for _ in range(1000):
        f = random_pwl_2d(rng)
        verdict = check_membership(f, BOX, ClassId.JQC2)
        if verdict.violated:
            _JQC2_WITNESSES.append((f, verdict.witness))
    return t0, time.perf_counter()


def test_criterion_3_witness_soundness_1000_pwl():
    t0, t1 = _collect_pwl_witnesses()
    elapsed = t1 - t0
    found = len(_JQC2_WITNESSES)
    for f, w in _JQC2_WITNESSES:
        lhs, rhs = defining_inequality(w.class_id, f, w.p1, w.p2, w.params)
        assert lhs == w.lhs and rhs == w.rhs, "witness must re-evaluate bit-exactly"
        assert w.margin > violation_tolerance(w.lhs, w.rhs)
    assert elapsed < 60.0, f"1000 checks took {elapsed:.1f}s"
    assert found > 300, "the piecewise-linear family must produce violations"
    _line(3, f"witness soundness on 1000 random pwl functions ({found} witnesses, {elapsed:.1f}s)")


def test_criterion_4_inclusion_coherence():
    _collect_pwl_witnesses()
    for f, w in _JQC2_WITNESSES:
        w_wqc = strengthen_witness(w)
        lhs, rhs = defining_inequality(ClassId.WQC2, f, w_wqc.p1, w_wqc.p2, w_wqc.params)
        assert lhs == w_wqc.lhs and rhs == w_wqc.rhs
        assert w_wqc.margin >= w.margin
        assert w_wqc.margin > violation_tolerance(w_wqc.lhs, w_wqc.rhs)
        w_qc = strengthen_witness(w_wqc, f)
        lhs, rhs = defining_inequality(ClassId.QC2, f, w_qc.p1, w_qc.p2, w_qc.params)
        assert lhs == w_qc.lhs and rhs == w_qc.rhs
        assert w_qc.margin >= w.margin
        assert w_qc.margin > violation_tolerance(w_qc.lhs, w_qc.rhs)
    _line(4, f"inclusion coherence through WQC2 and QC2 on {len(_JQC2_WITNESSES)} witnesses")


def test_criterion_5_lemma_suite_on_gallery():
    checked_members = 0
    checked_lifts = 0
    for entry in load_gallery():
        if not isinstance(entry.domain, Box2):
            continue
        f = entry.function()
        for claim in entry.claimed_in:
            if claim not in GLOBAL_2D_TO_1D:
                continue
            verdict = coordinate_check(
                f, entry.domain, GLOBAL_2D_TO_1D[claim],
                budget=entry.budget,
            )
            assert verdict.no_violation_found, (entry.name, claim.value, verdict.describe())
            checked_members += 1
        for claim in entry.claimed_not_in:
            if claim not in COORD_TO_1D:
                continue
            verdict = coordinate_check(
                f, entry.domain, COORD_TO_1D[claim],
                budget=entry.budget,
            )
            assert verdict.violated, (entry.name, claim.value)
            lifted = lift_witness(verdict.witness)
            lhs, rhs = defining_inequality(lifted.class_id, f, lifted.p1, lifted.p2, lifted.params)
            assert lhs == lifted.lhs and rhs == lifted.rhs
            assert lifted.margin == verdict.witness.margin
            assert lifted.margin > violation_tolerance(lhs, rhs)
            checked_lifts += 1
    assert checked_members > 20 and checked_lifts > 10
    _line(5, f"lemma suite: {checked_members} slice confirmations, {checked_lifts} sound lifts")


def test_criterion_6_hypothesis_to_theorem_soundness():
    checked = 0
    for entry in load_gallery():
        if not isinstance(entry.domain, Box2):
            continue
        f = entry.function()
        if ClassId.COORD_JQC2 in entry.claimed_in:
            rep = thm_jqc_coord(f, entry.domain)
            assert min(rep.slacks) >= -1e-6, (entry.name, rep.slacks)
            checked += 1
        if ClassId.COORD_WQC2 in entry.claimed_in:
            rep = thm_wqc_coord(f, entry.domain)
            assert min(rep.slacks) >= -1e-6, (entry.name, rep.slacks)
            checked += 1
        if ClassId.C2 in entry.claimed_in:
            rep = coord_convex_chain(f, entry.domain)
            assert min(rep.slacks) >= -1e-6, (entry.name, rep.slacks)
            checked += 1
    assert checked > 20
    _line(6, f"hypothesis-to-theorem soundness on {checked} gallery reports")


def test_criterion_7_quadrature_battery():
    from quasiconv import integrate_1d, integrate_abs_difference

    # polynomial exactness to 1e-12 relative on 100 cases
    rng = np.random.default_rng(4242)
    checked = 0
    while checked < 100:
        deg = int(rng.integers(0, 14))
        coeffs = rng.uniform(-1, 1, deg + 1)
        lo = float(rng.uniform(-2, 1))
        hi = lo + float(rng.uniform(0.5, 2.0))
        exact = Fraction(0)
        for k, c in enumerate(coeffs):
            exact += Fraction(float(c)) * (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1)) / (k + 1)
        exact = float(exact)
        if abs(exact) < 1e-3:
            continue
        q = integrate_1d(parse(horner(coeffs), 1), Interval(lo, hi))
        assert abs(q.value - exact) <= 1e-12 * abs(exact)
        checked += 1

    # |1 - 2t| through the kink-splitting route
    q = integrate_abs_difference(parse("1 - 2*x", 1), parse("0*x", 1), Interval(0, 1))
    assert abs(q.value - 0.5) <= 1e-10

    # error-estimate honesty on a smooth battery
    total, honest = 0, 0
    rng = np.random.default_rng(9999)
    for _ in range(200):
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
            exact = Fraction(0)
            for k, c in enumerate(coeffs):
                exact += Fraction(float(c)) * (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1)) / (k + 1)
            exact = float(exact)
        q = integrate_1d(f, Interval(lo, hi))
        total += 1
        if abs(q.value - exact) <= 10.0 * max(q.abs_error_estimate, 1e-16):
            honest += 1
    assert honest / total >= 0.99
    _line(7, f"quadrature battery (exactness, kink split, honesty {honest}/{total})")


def test_criterion_8_max_identity_bit_exact():
    rng = np.random.default_rng(271828)
    raw = rng.integers(0, 2 ** 64, size=2_200_000, dtype=np.uint64)
    vals = raw.view(np.float64)
    vals = vals[np.isfinite(vals)]
    pairs = vals[: 2 * 1_000_000].reshape(-1, 2)
    assert len(pairs) == 1_000_000
    pack = struct.pack
    for u, v in pairs:
        u, v = float(u), float(v)
        got = max_identity(u, v)
        want = max(u, v)
        assert pack("<d", got) == pack("<d", want), (u, v)
    for pair in ((1e308, -1e308), (-1e308, 1e308), (1e308, 1e308)):
        got = max_identity(*pair)
        want = max(*pair)
        assert pack("<d", got) == pack("<d", want)
    _line(8, "max identity bit-exact on 1e6 random pairs plus overflow pairs")


def test_criterion_9_negative_control_under_one_second():
    f = parse("-(x^2)", 2)
    t0 = time.perf_counter()
    verdict = check_membership(f, BOX, ClassId.JQC2)
    elapsed = time.perf_counter() - t0
    assert verdict.violated
    assert verdict.witness.margin >= 1.0 - 1e-12
    assert elapsed < 1.0, f"negative control took {elapsed:.2f}s"
    _line(9, f"negative control witness margin {verdict.witness.margin:g} in {elapsed*1000:.0f}ms")
