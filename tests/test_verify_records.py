"""Golden ``verify`` records of the six inequality reports.

``data/verify_records.json`` holds, for each of ``CASES``, the exit code,
the stdout and the stderr of one ``verify`` run, the ``wall_time`` line of
its ``--json`` record removed.  The cases are the six reports on kinked
convex functions drawn like those of the ``verify`` benchmark, plus edge
boxes: tiny, huge, unequal sides, refused, an undefined chord, a failing
link and an integral that exhausts its budget (once more as text, so that
its warning line is pinned too).

Each record must stay byte-identical.  A change that is meant to move
quadrature bits rewrites the file by running this module as a script,
which prints every record that moved: the largest relative move of any
number in it, of its terms and components, of its slacks and of its
quadrature error estimates, and any change to the exit code, a ``holds``,
``all_hold`` or ``converged`` flag, or the words of a text record.  A
slack is a difference of terms, often zero, so its move is taken relative
to the largest term of its record.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from quasiconv import cli

DATA = Path(__file__).resolve().parent / "data" / "verify_records.json"

# kinked convex functions, drawn as the benchmark's ``kinked_convex`` draws
# them: oblique kinks along the diagonal, then one axis-aligned kink as well
KINKED_2D = (
    "0.5407*abs(x - y) + 0.7644*max(x, y) + 0.2151*(y + 0.2194)^2 + 0.5933*(x - 0.3969)^2",
    "0.3748*abs(x - y) + 0.6520*max(x, y) + 0.2369*abs(y - 0.2674) + 0.9052*(x - 0.4342)^2",
)
KINKED_1D = (
    "0.8059*abs(x - 0.1660) + 0.4542*max((x + 0.4101), 0) + 0.6444*x^2",
    "0.9495*abs(x + 0.0986) + 0.5260*max((x + 0.4282), 0) + 0.3518*x^2",
    "0.8506*abs(x - 0.1632) + 0.5589*max((x - 0.2241), 0) + 0.9655*x^2",
    "0.9530*abs(x + 0.5659) + 0.4053*max((x - 0.3333), 0) + 0.7169*x^2",
    "0.9151*abs(x - 0.3292) + 0.9124*max((x + 0.2074), 0) + 0.6440*x^2",
    "0.3789*abs(x - 0.2850) + 0.8506*max((x - 0.0027), 0) + 0.8477*x^2",
)
REPORTS_2D = ("THM_2_1", "THM_2_4", "CHAIN1_6")
REPORTS_1D = ("JQC1D", "HH1D", "WQC1D")
NOT_CONVERGING = ("HH1D", "sin(1/(x+1e-9))", "-1,1")

EDGES = (
    ("CHAIN1_6", "x+y", "0,1e-160,0,1e-160"),  # tiny box: the double mean underflows
    ("THM_2_4", "x", "0,1e-300,0,1e300"),  # unequal sides
    ("THM_2_1", "x+y", "0,1e200,0,1e200"),  # area overflows: refused
    ("JQC1D", "1/x", "-1,1"),  # a chord undefined at 0
    ("HH1D", "-x^2", "-1,1"),  # concave: both links fail
    ("WQC1D", "abs(x)", "-1e307,1e307"),  # huge interval
    ("HH1D", "x", "0,1e-320"),  # subnormal interval
    NOT_CONVERGING,
)


def _cases() -> list[tuple[str, ...]]:
    """Every 2D report on each 2D function over [-1, 1]^2 and the second
    one on an off-centre box, every 1D report on each 1D function over
    [-1, 1] and two on an off-centre interval, then the edge boxes, all as
    ``--json``, and the non-converging one as text as well."""
    runs = [(r, f, "-1,1,-1,1") for f in KINKED_2D for r in REPORTS_2D]
    runs += [(r, KINKED_2D[1], "-1,0.8,-0.6,1") for r in REPORTS_2D]
    runs += [(r, f, "-1,1") for f in KINKED_1D for r in REPORTS_1D]
    runs += [(r, f, "-0.6,0.9") for f in KINKED_1D[:2] for r in REPORTS_1D]
    runs += EDGES
    cases = [("verify", "--inequality", r, "--f", f, "--domain", d, "--json") for r, f, d in runs]
    r, f, d = NOT_CONVERGING
    return cases + [("verify", "--inequality", r, "--f", f, "--domain", d)]


CASES = _cases()


def record(argv: tuple[str, ...]) -> dict:
    """Exit code, stdout and stderr of one ``cli.main`` call, ``wall_time``
    removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = re.sub(r',\n  "wall_time": [^\n]*', "", out.getvalue())
    return {"argv": list(argv), "exit": code, "stdout": text, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(DATA.read_text())}


def test_records_cover_the_cases(golden):
    assert sorted(golden) == sorted(CASES)
    assert {r["exit"] for r in golden.values()} == {0, 1, 2}


def test_the_budget_warning_is_pinned(golden):
    r, f, d = NOT_CONVERGING
    text = golden[("verify", "--inequality", r, "--f", f, "--domain", d)]
    assert text["exit"] == 1
    assert "WARNING: quadrature budget exhausted" in text["stdout"]
    assert '"converged": false' in golden[(*text["argv"], "--json")]["stdout"]


@pytest.mark.parametrize("argv", CASES, ids=lambda a: f"{a[2]}-{a[4]}-{a[6]}-{a[-1]}")
def test_record_is_byte_identical(golden, argv):
    assert record(argv) == golden[argv]


# --- the rewrite script -----------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _leaves(node, path: str = "") -> dict:
    """Every number and flag of a JSON record by its path."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {k: v for key, child in items for k, v in _leaves(child, f"{path}/{key}").items()}
    if isinstance(node, (bool, int, float)):
        return {path: node}
    return {}


def _parsed(r: dict) -> tuple[dict, str]:
    """(numbers and flags by path, the text with every number masked)."""
    try:
        return _leaves(json.loads(r["stdout"])), ""
    except json.JSONDecodeError:
        numbers = _NUMBER.findall(r["stdout"])
        return {f"#{i}": float(t) for i, t in enumerate(numbers)}, _NUMBER.sub("#", r["stdout"])


def _relative(a: float, b: float, scale: float = 0.0) -> float:
    a, b = float(a), float(b)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), scale)


def moves(old: dict, new: dict) -> dict:
    """How ``new`` moved from ``old``: the largest relative move of a term or
    component, of a slack (against the largest term) and of an error
    estimate, and the flags, exit code and words that changed."""
    (was, old_words), (now, new_words) = _parsed(old), _parsed(new)
    top = {"value": 0.0, "slack": 0.0, "error": 0.0}
    scale = max([abs(v) for p, v in was.items() if p.startswith("/outcome/terms/")] or [0.0])
    changed = [] if old["exit"] == new["exit"] else [f"exit {old['exit']} -> {new['exit']}"]
    for path in sorted(was.keys() | now.keys()):
        a, b = was.get(path), now.get(path)
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            if a != b:
                changed.append(f"{path} {a} -> {b}")
            continue
        if "quad_errors" in path:
            kind, move = "error", _relative(a, b)
        elif "slack" in path:
            kind, move = "slack", _relative(a, b, scale)
        else:
            kind, move = "value", _relative(a, b)
        top[kind] = max(top[kind], move)
    if old_words != new_words or old["stderr"] != new["stderr"]:
        changed.append("words")
    return {**top, "changed": changed}


def _summary(m: dict) -> str:
    return (f"largest relative move {max(m['value'], m['slack'], m['error']):.2g} "
            f"(terms and components {m['value']:.2g}, slacks {m['slack']:.2g}, "
            f"error estimates {m['error']:.2g})")


def rewrite() -> None:
    """Record every case anew, print each record that moved, and write the
    file."""
    old = {tuple(r["argv"]): r for r in json.loads(DATA.read_text())} if DATA.exists() else {}
    new = [record(argv) for argv in CASES]
    moved, top = 0, {"value": 0.0, "slack": 0.0, "error": 0.0}
    for r in new:
        argv = tuple(r["argv"])
        if argv not in old:
            print(f"new: {' '.join(argv)}")
            continue
        if r == old[argv]:
            continue
        m = moves(old[argv], r)
        moved += 1
        top = {k: max(v, m[k]) for k, v in top.items()}
        print(f"moved: {' '.join(argv[2:])}: {_summary(m)}"
              + "".join(f"; CHANGED {c}" for c in m["changed"]))
    print(f"{moved} of {len(new)} records moved; {_summary(top)}")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    rewrite()
    sys.exit(0)
