"""Falsifying class membership and transporting witnesses.

A check enumerates a deterministic grid plus a Halton batch of candidate
point pairs and parameters.  Finding a violation settles non-membership with
a concrete, re-checkable witness; finding nothing is only "no violation found
at this resolution", never a proof.
"""

from dataclasses import replace

from quasiconv import (
    Box2,
    ClassId,
    SearchBudget,
    check_membership,
    coordinate_check,
    defining_inequality,
    lift_witness,
    parse,
    strengthen_witness,
)

box = Box2.from_bounds(-1, 1, -1, 1)
budget = SearchBudget(grid_n=9, halton_count=256, slices=5)

# The paraboloid sits in every class: nothing to find.
verdict = check_membership(parse("x^2 + y^2", 2), box, ClassId.QC2, budget=budget)
print("paraboloid QC2:", verdict.describe())

# A concave bump violates midpoint quasi-convexity with margin 1.
verdict = check_membership(parse("-(x^2)", 2), box, ClassId.JQC2, budget=budget)
w = verdict.witness
print("dome JQC2:", verdict.describe())

# Witnesses re-evaluate bit-exactly through the defining inequality.
lhs, rhs = defining_inequality(w.class_id, parse("-(x^2)", 2), w.p1, w.p2, w.params)
print("re-evaluation reproduces sides:", lhs == w.lhs and rhs == w.rhs)

# A JQC violation strengthens to a WQC violation (the midpoint is the
# symmetric chord pair at t = 1/2) and then to a plain QC violation.
w_wqc = strengthen_witness(w)
w_qc = strengthen_witness(w_wqc)
print("strengthened:", w_wqc.class_id.value, "margin", w_wqc.margin,
      "->", w_qc.class_id.value, "margin", w_qc.margin)

# The saddle x*y has affine partial mappings, so every co-ordinate-wise
# check is clean, yet the joint classes all fail: the co-ordinate classes
# are strictly larger.
saddle = parse("x*y", 2)
coord = coordinate_check(saddle, box, ClassId.C1, budget=replace(budget, slices=9))
joint = check_membership(saddle, box, ClassId.C2, budget=budget)
print("saddle slices:", coord.describe())
print("saddle joint:", joint.describe())

# A slice violation embeds into the plane with identical sides.
dome = parse("-(x^2) - y^2", 2)
slice_w = coordinate_check(dome, box, ClassId.JQC1, budget=budget).witness
lifted = lift_witness(slice_w)
print("lifted witness:", lifted.describe())

# Partiality is a third verdict, not an error or a silent skip.
verdict = check_membership(parse("log(x)", 2), box, ClassId.QC2, budget=budget)
print("log(x) on a box crossing zero:", verdict.describe())
