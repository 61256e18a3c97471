#!/usr/bin/env python3
"""Regenerate the packaged gallery catalog.

Runs the membership checker at each entry's pinned budget to produce the
stored witnesses for every claimed_not_in class, writes
src/quasiconv/data/gallery.txt, and re-validates the result.  Run after any
change to the search engine or to the entry definitions below; the test
suite fails while the shipped catalog differs from ``catalog_text()``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quasiconv import (  # noqa: E402
    Box2,
    ClassId,
    Interval,
    SearchBudget,
    check_membership,
    parse,
    validate_gallery,
)
from quasiconv.inclusions import parse_catalog  # noqa: E402

ALL_GLOBAL_2D = ["C2", "J2", "W2", "QC2", "JQC2", "WQC2"]
ALL_COORD_2D = ["CoordC2", "CoordJ2", "CoordW2", "CoordQC2", "CoordJQC2", "CoordWQC2"]
ALL_2D = ALL_GLOBAL_2D + ALL_COORD_2D
QUASI_2D = ["QC2", "JQC2", "WQC2", "CoordQC2", "CoordJQC2", "CoordWQC2"]
NONQUASI_2D = ["C2", "J2", "W2", "CoordC2", "CoordJ2", "CoordW2"]
ALL_1D = ["C1", "J1", "W1", "QC1", "JQC1", "WQC1"]

# name, expr, domain (a,b[,c,d]), in, not_in, notes
ENTRIES = [
    (
        "paraboloid",
        "x^2 + y^2",
        (-1, 1, -1, 1),
        ALL_2D,
        [],
        "smooth separable bowl; member of every class",
    ),
    (
        "tilted-plane",
        "0.5*x - 0.25*y + 1",
        (-1, 1, -1, 1),
        ALL_2D,
        [],
        "affine; every defining inequality holds with equality",
    ),
    (
        "corner-max",
        "max(x, y)",
        (-1, 1, -1, 1),
        ["C2", "J2", "QC2", "JQC2", "WQC2"] + ALL_COORD_2D,
        ["W2"],
        "convex but not separable: the independent-parameter Wright "
        "condition fails at opposite corners",
    ),
    (
        "exp-bowl",
        "exp(x) + exp(y)",
        (-1, 1, -1, 1),
        ALL_2D,
        [],
        "smooth separable convex; exercises exp",
    ),
    (
        "log-trough",
        "-(log(x)) - log(y)",
        (0.5, 2, 0.5, 2),
        ALL_2D,
        [],
        "separable convex on a positive box; exercises log",
    ),
    (
        "cos-bowl",
        "-(cos(x)) - cos(y)",
        (-1, 1, -1, 1),
        ALL_2D,
        [],
        "separable convex on [-1,1]^2; exercises cos",
    ),
    (
        "sqrt-ridge",
        "sqrt(abs(x))",
        (-1, 1, -1, 1),
        QUASI_2D,
        NONQUASI_2D,
        "quasi-convex cusp, far from convex; exercises sqrt and abs",
    ),
    (
        "sine-ramp",
        "sin(x)",
        (-1.5, 1.5, -1, 1),
        QUASI_2D,
        NONQUASI_2D,
        "monotone on the box hence quasi-convex; concave half breaks "
        "convexity and the Wright increments",
    ),
    (
        "staircase",
        "floor(2*x)",
        (-1, 1, -1, 1),
        QUASI_2D,
        NONQUASI_2D,
        "monotone step function; discontinuities are fine for the "
        "falsifier and the adaptive quadrature",
    ),
    (
        "saddle",
        "x*y",
        (-1, 1, -1, 1),
        ALL_COORD_2D,
        ALL_GLOBAL_2D,
        "every partial mapping is affine, yet no global class holds: "
        "the co-ordinate classes are strictly larger",
    ),
    (
        "min-gutter",
        "min(x, y)",
        (-1, 1, -1, 1),
        ["CoordQC2", "CoordJQC2", "CoordWQC2"],
        ["C2", "J2", "W2", "QC2", "JQC2", "WQC2", "CoordC2", "CoordJ2", "CoordW2"],
        "quasi-concave globally; slices are monotone so only the "
        "co-ordinate quasi classes survive",
    ),
    (
        "dome",
        "-(x^2) - y^2",
        (-1, 1, -1, 1),
        [],
        ALL_2D,
        "concave bowl; violates every class, the stock negative control",
    ),
    (
        "cusp-1d",
        "sqrt(abs(x))",
        (-1, 1),
        ["QC1", "JQC1", "WQC1"],
        ["C1", "J1", "W1"],
        "1D cusp: quasi-convex but neither convex, J-convex nor Wright-convex",
    ),
    (
        "parabola-1d",
        "x^2",
        (0, 1),
        ALL_1D,
        [],
        "1D convex reference; member of every 1D class",
    ),
]

GRID_N = 9
HALTON = 512
SLICES = 7


def catalog_text(report: Callable[[str], None] = lambda line: None) -> str:
    """The catalog: every entry with the witnesses its ``not_in`` claims get
    at the pinned budget.  ``report`` receives a line per entry and claim.
    Raises ValueError when a claim does not hold at that budget."""
    lines = [
        "# quasiconv gallery catalog",
        "# format version 1",
        "# regenerate with tools/regenerate_gallery.py",
        "",
    ]
    budget = SearchBudget(grid_n=GRID_N, halton_count=HALTON, slices=SLICES)
    for name, expr_text, bounds, claimed_in, claimed_not_in, notes in ENTRIES:
        if len(bounds) == 4:
            domain = Box2.from_bounds(*bounds)
            arity = 2
        else:
            domain = Interval(*bounds)
            arity = 1
        f = parse(expr_text, arity)
        report(f"[{name}] {expr_text}")
        lines.append(f"[{name}]")
        lines.append(f"expr: {expr_text}")
        lines.append(f"domain: {', '.join(repr(float(v)) for v in bounds)}")
        lines.append(f"in: {', '.join(claimed_in)}")
        lines.append(f"not_in: {', '.join(claimed_not_in)}")
        lines.append(f"grid: {GRID_N}")
        lines.append(f"halton: {HALTON}")
        lines.append(f"slices: {SLICES}")
        lines.append(f"notes: {notes}")
        for cname in claimed_in:
            verdict = check_membership(f, domain, ClassId.from_name(cname), budget=budget)
            if not verdict.no_violation_found:
                raise ValueError(f"[{name}] claimed_in {cname} -> {verdict.describe()}")
            report(f"  in {cname}: clean")
        for cname in claimed_not_in:
            verdict = check_membership(f, domain, ClassId.from_name(cname), budget=budget)
            if not verdict.violated:
                raise ValueError(f"[{name}] claimed_not_in {cname} -> {verdict.describe()}")
            w = verdict.witness
            report(f"  not in {cname}: margin {w.margin:.6g}")
            lines.append(f"witness {cname}: {json.dumps(w.to_dict())}")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    try:
        text = catalog_text(print)
    except ValueError as err:
        print(f"  FATAL: {err}")
        return 1
    out = Path(__file__).resolve().parents[1] / "src" / "quasiconv" / "data" / "gallery.txt"
    out.write_text(text)
    print(f"wrote {out}")
    results = validate_gallery(parse_catalog(text))
    print(f"re-validated {len(results)} claims, all clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
