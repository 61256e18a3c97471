"""Golden ``check --json`` records of the joint 2D classes.

``data/check_records.json`` holds, for each of ``CASES``, the exit code and
the record ``check --json`` printed, its ``wall_time`` line removed.  The
records were written by a run of this module as a script before the grid's
mixed points were gathered from a table of f, so they pin the output of the
screen's lane path: each must stay byte-identical.  Run it as a script again
only to add cases, at a commit whose outputs are trusted.
"""

import contextlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

from quasiconv import cli

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


def _cases() -> list[tuple[str, ...]]:
    """Each table class and J2 on both boxes at three resolutions of 5-9,
    the functions and Halton sizes taken in turn, then two at 17."""
    classes = ("C2", "QC2", "W2", "W2-ordered", "WQC2", "J2")
    combos = itertools.product(classes, (DYADIC, NOT_DYADIC), range(3))
    cases = []
    for i, (cid, box, k) in enumerate(combos):
        n = 5 + (i + 2 * k) % 5
        cases.append((FUNCTIONS[i % len(FUNCTIONS)], box, cid, n, 64 * (i % 2)))
    cases += [(FUNCTIONS[0], DYADIC, "W2", 17, 64), (FUNCTIONS[5], NOT_DYADIC, "QC2", 17, 64)]
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
