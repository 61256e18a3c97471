"""Seeded inputs and op lists for the three benchmark workloads.

Every function is drawn from one of three families whose class membership is
known by construction:

* ``convex``: separable convex ``g(x) + h(y)``.  A member of every class,
  including ``W2``, which draws independent ``t`` and ``s`` per axis and so
  rejects many non-separable convex functions.
* ``quasi``: an increasing transform of ``|affine| + k`` or of a convex
  quadratic.  Quasi-convex (so in QC/JQC/WQC, jointly and on every slice) but
  concave along lines on one side, so outside C/J/W.
* ``peak``: concave with an interior maximum, outside every class.

The additive constants keep every ``sqrt`` and ``log`` argument at least
``k > 0`` on the whole domain, so no input is undefined.  The program sees
only the generated expression text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DOMAIN_1D = "-1,1"
DOMAIN_2D = "-1,1,-1,1"

# (resolution, halton, slices): the CLI default and the gallery-sized budget
DEFAULT_BUDGET = (17, 4096, 9)
SMALL_BUDGET = (9, 512, 7)
SEARCH_BUDGET = (9, 512, 5)  # fixed by SearchConfig

CLASSES_1D = ("C1", "J1", "W1", "QC1", "JQC1", "WQC1")
CLASSES_JOINT = ("C2", "J2", "W2", "W2-ordered", "QC2", "JQC2", "WQC2")
CLASSES_COORD = ("CoordC2", "CoordJ2", "CoordW2", "CoordQC2", "CoordJQC2", "CoordWQC2")
QUASI_KINDS = ("QC", "JQC", "WQC")


def class_kind(class_id: str) -> str:
    """The defining-inequality kind of a class id: C, J, W, QC, JQC or WQC."""
    name = class_id.removeprefix("Coord").removesuffix("-ordered")
    return name[:-1]


def member(family: str, class_id: str) -> bool:
    """Membership of a family in a class, known by construction."""
    if family == "convex":
        return True
    if family == "quasi":
        return class_kind(class_id) in QUASI_KINDS
    return False


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its output must show."""

    argv: tuple[str, ...]
    kind: str  # "check" | "verify" | "gallery" | "search"
    expect_pass: bool
    label: str
    expr: Optional[str] = None
    class_id: Optional[str] = None  # the inequality id for a verify op
    budget: Optional[tuple[int, int, int]] = None
    # The reference kernel (run.KERNELS) that scales this op's time: "small"
    # for 1D and co-ordinate checks and verify reports, whose arrays hold a
    # few hundred lanes at most; "large" for joint 2D checks at the default
    # budget, with millions of candidates.  None leaves the time unscaled:
    # joint 2D checks at the small budget, the gallery and the search slowed
    # least under the drift, and no kernel tried moved like them.
    kernel: Optional[str] = "small"


def _c(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _shift(var: str, rng: random.Random, lo: float, hi: float) -> str:
    """``(var - c)`` with c drawn from [lo, hi], written without ``- -``."""
    c = rng.uniform(lo, hi)
    return f"({var} - {c:.4f})" if c >= 0 else f"({var} + {-c:.4f})"


def _convex_1d(rng: random.Random, var: str) -> str:
    return (
        f"{_c(rng, 0.3, 1.5)}*{_shift(var, rng, -0.6, 0.6)}^2"
        f" + {_c(rng, 0.1, 0.8)}*abs{_shift(var, rng, -0.7, 0.7)}"
    )


def function(rng: random.Random, family: str, arity: int, variant: int = 0) -> str:
    """Expression text of one function of ``family``; ``variant`` picks the
    transform of the ``quasi`` family (0: sqrt of |affine|, 1: log of a
    convex quadratic)."""
    if family == "convex":
        if arity == 1:
            return _convex_1d(rng, "x")
        return f"{_convex_1d(rng, 'x')} + {_convex_1d(rng, 'y')}"
    if family == "quasi":
        if variant % 2 == 0:
            affine = f"{_c(rng, 0.5, 1.5)}*x"
            if arity == 2:
                affine += f" {rng.choice('+-')} {_c(rng, 0.5, 1.5)}*y"
            return f"sqrt(abs({affine} + {_c(rng, 0.05, 0.4)}) + {_c(rng, 0.3, 1.0)})"
        quad = f"{_c(rng, 0.5, 2.0)}*{_shift('x', rng, -0.4, 0.4)}^2"
        if arity == 2:
            quad += f" + {_c(rng, 0.5, 2.0)}*{_shift('y', rng, -0.4, 0.4)}^2"
        return f"log({_c(rng, 0.05, 0.2)} + {quad})"
    if family == "peak":
        text = f"{_c(rng, 0.5, 2.0)} - {_c(rng, 0.5, 2.0)}*{_shift('x', rng, -0.5, 0.5)}^2"
        if arity == 2:
            text += f" - {_c(rng, 0.5, 2.0)}*{_shift('y', rng, -0.5, 0.5)}^2"
        return text
    raise ValueError(f"unknown family {family!r}")


def kinked_convex(rng: random.Random, arity: int, axis_kink: bool = False) -> str:
    """Convex function with kinks.

    In 1D: two kinks at random positions.  In 2D: two oblique kinks along
    the diagonal, where the tensor-product 2D rule cannot isolate them and
    ``integrate_2d`` exhausts its budget (reported as ``converged: false``),
    plus, with ``axis_kink``, one axis-aligned kink at a random position.
    """
    if arity == 1:
        return (
            f"{_c(rng, 0.2, 1.0)}*abs{_shift('x', rng, -0.7, 0.7)}"
            f" + {_c(rng, 0.2, 1.0)}*max({_shift('x', rng, -0.5, 0.5)}, 0)"
            f" + {_c(rng, 0.2, 1.0)}*x^2"
        )
    text = f"{_c(rng, 0.3, 1.0)}*abs(x - y) + {_c(rng, 0.3, 1.0)}*max(x, y)"
    if axis_kink:
        text += f" + {_c(rng, 0.1, 0.5)}*abs{_shift('y', rng, -0.6, 0.6)}"
    else:
        text += f" + {_c(rng, 0.2, 1.0)}*{_shift('y', rng, -0.5, 0.5)}^2"
    return text + f" + {_c(rng, 0.2, 1.0)}*{_shift('x', rng, -0.5, 0.5)}^2"


def check_op(expr: str, domain: str, class_id: str, family: str,
             budget: tuple[int, int, int]) -> Op:
    n, m, slices = budget
    argv = (
        "check", "--f", expr, "--domain", domain, "--class", class_id,
        "--resolution", str(n), "--halton", str(m), "--slices", str(slices),
        "--json",
    )
    if class_id not in CLASSES_JOINT:
        kernel = "small"
    else:
        kernel = "large" if budget == DEFAULT_BUDGET else None
    return Op(argv, "check", member(family, class_id), f"check {class_id} {family}",
              expr, class_id, budget, kernel)


def verify_op(expr: str, domain: str, inequality: str) -> Op:
    argv = ("verify", "--inequality", inequality, "--f", expr, "--domain", domain, "--json")
    # every input is convex, which every theorem's hypothesis covers
    return Op(argv, "verify", True, f"verify {inequality}", expr, inequality)


def screen_round(rng: random.Random) -> list[Op]:
    """Few huge screens at the default budget: W2 on a member and on a
    non-member, then C2, QC2 and WQC2 on one function of each family."""
    funcs = {
        "convex": function(rng, "convex", 2),
        "quasi": function(rng, "quasi", 2, variant=0),
        "peak": function(rng, "peak", 2),
    }
    ops = [
        check_op(funcs["convex"], DOMAIN_2D, "W2", "convex", DEFAULT_BUDGET),
        check_op(funcs["quasi"], DOMAIN_2D, "W2", "quasi", DEFAULT_BUDGET),
    ]
    for family, expr in funcs.items():
        for class_id in ("C2", "QC2", "WQC2"):
            ops.append(check_op(expr, DOMAIN_2D, class_id, family, DEFAULT_BUDGET))
    return ops


def verify_round(rng: random.Random) -> list[Op]:
    """Nested quadrature only: THM_2_1 on a 2D function with oblique kinks,
    THM_2_4 and CHAIN1_6 on one that also has an axis-aligned kink, and the
    three 1D bounds on thirty kinked 1D functions.

    THM_2_1 skips the axis-aligned kink because it multiplies the chord
    corrections' cost.  The 2D reports carry the round's wall time; with 90
    1D reports to their 3, both the median and the 90th-percentile op fall
    inside the 1D reports, whose latency is steadier from run to run than
    that of the three long 2D ops.  The median is an HH1D or WQC1D report;
    the 90th percentile sits near the 80th percentile of the JQC1D reports,
    the slowest 1D bound, not in their tail.
    """
    ops = [verify_op(kinked_convex(rng, 2), DOMAIN_2D, "THM_2_1")]
    f2 = kinked_convex(rng, 2, axis_kink=True)
    ops += [verify_op(f2, DOMAIN_2D, ineq) for ineq in ("THM_2_4", "CHAIN1_6")]
    for _ in range(30):
        f1 = kinked_convex(rng, 1)
        ops += [verify_op(f1, DOMAIN_1D, ineq) for ineq in ("JQC1D", "HH1D", "WQC1D")]
    return ops


def catalog_round(rng: random.Random) -> list[Op]:
    """Many small checks over all 19 class ids on functions of each family,
    plus one gallery validation and one seeded separation search.

    Each family gets two 2D functions and six 1D ones.  With that many 1D
    checks the median op is a 1D check, and the 90th percentile a
    co-ordinate check; small joint 2D checks, whose latency swings most
    with the cache pressure of other processes, sit between the two.
    """
    ops = [
        Op(("gallery", "--validate", "--json"), "gallery", True, "gallery", kernel=None),
        Op(
            ("search", "--in", "QC2", "--not-in", "C2", "--family", "pwl4",
             "--trials", "100", "--seed", str(rng.randrange(1 << 20)), "--json"),
            "search", True, "search", class_id="C2", budget=SEARCH_BUDGET, kernel=None,
        ),
    ]
    for variant in range(2):
        for family in ("convex", "quasi", "peak"):
            for _ in range(3):
                f1 = function(rng, family, 1, variant)
                ops += [check_op(f1, DOMAIN_1D, c, family, SMALL_BUDGET) for c in CLASSES_1D]
            f2 = function(rng, family, 2, variant)
            ops += [
                check_op(f2, DOMAIN_2D, c, family, SMALL_BUDGET)
                for c in CLASSES_JOINT + CLASSES_COORD
            ]
    return ops


ROUNDS = {"screen": screen_round, "verify": verify_round, "catalog": catalog_round}
