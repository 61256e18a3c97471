"""Golden ``check --json`` records of the joint 2D classes and of
co-ordinate checks.

``data/check_records.json`` holds, for each of ``CASES``, the exit code and
the record ``check --json`` printed, its ``wall_time`` line removed.  The
joint records were written by a run of this module as a script before the
grid's mixed points were gathered from a table of f, so they pin the output
of the screen's lane path; the co-ordinate records were written before the
screen kept its best candidates by value, so they pin where a candidate of
a slab that spans several slices is read.  Each must stay byte-identical.
Run this module as a script again only to add cases, at a commit whose
outputs are trusted.
"""

import contextlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # as a script, import the tree this file is in
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quasiconv import cli  # noqa: E402

DATA = Path(__file__).resolve().parent / "data" / "check_records.json"

FUNCTIONS = (
    "max(x*y, x - y) - abs(x + 0.5*y)",
    "x*x + y*y",
    "sqrt(abs(x + 0.1) + abs(y - 0.2) - 0.25)",  # undefined between grid points
    "-(1.7e308*x*x) + y",  # sums overflow: NaN margins
    "exp(x)*sin(3*y) - floor(2*x)",
    "-(x^2) - y^2",
)
DYADIC, NOT_DYADIC = "-1,1,-1,1", "-1,0.8,-0.6,1"
SQRT_GAP = "sqrt(abs(y - 0.23) - 0.01) + x"  # undefined between grid points

# on the unequal box, checks whose outcome sits on an x-frozen slice inside
# a slab that spans several slices, then two with 40,000 Halton points,
# whose Halton slabs run inside one slice: (f, class, n, m)
SLICED = (
    ("-(y - 0.1)^2 + x", "CoordC2", 17, 4096),
    ("-(y - 0.1)^2 + x", "CoordW2", 17, 4096),
    (SQRT_GAP, "CoordQC2", 17, 4096),
    (SQRT_GAP, "CoordJQC2", 17, 4096),
    ("log(abs(y - 0.2345) + 1e-300) + x", "CoordC2", 17, 4096),
    ("-(x^2) - y^2 + 0.3*x*y", "W2", 2, 40000),
    (SQRT_GAP, "CoordC2", 3, 40000),
)


def _cases() -> list[tuple[str, ...]]:
    """Each table class and J2 on both boxes at three resolutions of 5-9,
    the functions and Halton sizes taken in turn, then two at 17, then
    ``SLICED``."""
    classes = ("C2", "QC2", "W2", "W2-ordered", "WQC2", "J2")
    combos = itertools.product(classes, (DYADIC, NOT_DYADIC), range(3))
    cases = []
    for i, (cid, box, k) in enumerate(combos):
        n = 5 + (i + 2 * k) % 5
        cases.append((FUNCTIONS[i % len(FUNCTIONS)], box, cid, n, 64 * (i % 2)))
    cases += [(FUNCTIONS[0], DYADIC, "W2", 17, 64), (FUNCTIONS[5], NOT_DYADIC, "QC2", 17, 64)]
    cases += [(f, NOT_DYADIC, cid, n, m) for f, cid, n, m in SLICED]
    return [
        ("check", "--f", f, "--domain", box, "--class", cid, "--resolution", str(n),
         "--halton", str(m), "--json")
        for f, box, cid, n, m in cases
    ]


CASES = _cases()


def record(argv: tuple[str, ...]) -> dict:
    """Exit code and stdout of one ``cli.main`` call, ``wall_time`` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    text = re.sub(r',\n  "wall_time": [^\n]*', "", out.getvalue())
    return {"argv": list(argv), "exit": code, "stdout": text}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(DATA.read_text())}


def test_records_cover_the_cases(golden):
    assert sorted(golden) == sorted(CASES)
    assert len({r["exit"] for r in golden.values()}) == 3


@pytest.mark.parametrize("argv", CASES, ids=lambda a: f"{a[6]}-{a[4]}-n{a[8]}-m{a[10]}")
def test_record_is_byte_identical(golden, argv):
    assert record(argv) == golden[argv]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([record(argv) for argv in CASES], indent=1) + "\n")
    sys.exit(0)
