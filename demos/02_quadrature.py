"""Adaptive quadrature with embedded error estimates.

The engine is a 15-point Kronrod rule with the 7-point Gauss rule embedded
for the error estimate; adaptivity bisects whichever panels currently carry
the largest estimates.
"""

from quasiconv import (
    Box2,
    Interval,
    QuadConfig,
    integrate_1d,
    integrate_2d,
    integrate_abs_difference,
    parse,
)

# Smooth 1D integrals converge on the initial panels.
q = integrate_1d(parse("x^2", 1), Interval(0, 1))
print(f"int x^2 dx on [0,1]  = {q.value:.15f}  (err <= {q.abs_error_estimate:.1e}, "
      f"{q.subdivisions} panels)")

# A kink is no problem for the adaptive splitter.
q = integrate_1d(parse("abs(1 - 2*x)", 1), Interval(0, 1))
print(f"int |1-2x| dx        = {q.value:.15f}  ({q.subdivisions} panels)")

# 2D integration is iterated: an adaptive outer pass over x whose nodes'
# y-rows are each cut where a kink of f crosses them, here the diagonal.
q = integrate_2d(parse("abs(x - y)", 2), Box2.from_bounds(-1, 1, -1, 1))
print(f"int |x-y| over box   = {q.value:.15f}  (err <= {q.abs_error_estimate:.1e}, "
      f"{q.subdivisions} outer panels)")

# Integrands of the form |g - h| get their sign changes located first on a
# uniform scan, each root bisected to 1e-12, and the pieces integrated
# separately.  The chord correction terms cut their gaps |f(P(t)) - f(Q(t))|
# the same way, running f's own tape at both chord points.
g = parse("1 - 2*x", 1)
h = parse("0*x", 1)
q = integrate_abs_difference(g, h, Interval(0, 1))
print(f"kink-split |g - h|   = {q.value:.15f}")

# A starved budget still returns the estimate, flagged as not converged.
tight = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=8)
q = integrate_1d(parse("floor(100*x)", 1), Interval(0, 1), tight)
print(f"starved budget: value ~ {q.value:.3f}, converged = {q.converged}")
