"""Command-line front end.

Exit codes are the machine contract: 0 for a pass (no violation found, all
links hold, separation found, gallery clean), 1 for a violated/failed
outcome, 2 for usage or input errors, 3 for an internal error (a crash).
``--json`` emits a versioned run record that round-trips: re-running the
recorded inputs reproduces the outcome exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from typing import Optional

from . import __version__
from .classifiers import ClassId, SearchBudget, check_membership
from .domains import Box2, parse_domain
from .expressions import ArityError, DomainError, ExprSyntaxError, parse
from .inclusions import (
    GalleryDrift,
    InvalidSearchPair,
    SearchConfig,
    family_from_name,
    load_gallery,
    search_separation,
    validate_gallery,
)
from .inequalities import (
    coord_convex_chain,
    hadamard_1d,
    jqc_bound_1d,
    thm_jqc_coord,
    thm_wqc_coord,
    wqc_bound_1d,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_INEQUALITIES = {
    "HH1D": (hadamard_1d, 1),
    "JQC1D": (jqc_bound_1d, 1),
    "WQC1D": (wqc_bound_1d, 1),
    "CHAIN1_6": (coord_convex_chain, 2),
    "THM_2_1": (thm_jqc_coord, 2),
    "THM_2_4": (thm_wqc_coord, 2),
}


def _emit(args, record: dict, human: str) -> None:
    if getattr(args, "json", False):
        text = json.dumps(record, indent=2, allow_nan=False)
    else:
        text = human
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone (say, `| head`); the verdict's exit code still
        # holds, and stdout now drains into devnull so the flush at exit
        # cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run_record(command: str, inputs: dict, config: dict, outcome: dict, t0: float) -> dict:
    return {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "config": config,
        "outcome": outcome,
        "tool_version": __version__,
        "wall_time": time.perf_counter() - t0,
    }


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    try:
        domain = parse_domain(args.domain)
        class_id = ClassId.from_name(getattr(args, "class_id"))
        arity = 2 if isinstance(domain, Box2) else 1
        if class_id.arity != arity:
            raise ValueError(
                f"class {class_id.value} does not match a {arity}D domain"
            )
        f = parse(args.f, arity)
        budget = SearchBudget(
            grid_n=args.resolution,
            halton_count=args.halton,
            slices=args.slices,
        )
        budget.validate_for(class_id)
    except (ExprSyntaxError, ArityError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    verdict = check_membership(f, domain, class_id, budget=budget)
    record = _run_record(
        "check",
        {"expression": args.f, "domain": args.domain, "class_id": class_id.value},
        {"resolution": args.resolution, "halton": args.halton, "slices": args.slices},
        verdict.to_dict(),
        t0,
    )
    _emit(args, record, verdict.describe())
    if verdict.no_violation_found:
        return EXIT_PASS
    if verdict.violated:
        return EXIT_FAIL
    return EXIT_USAGE  # undefined: the function is partial on the domain


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    try:
        op, arity = _INEQUALITIES[args.inequality]
    except KeyError:
        print(
            f"error: unknown inequality {args.inequality!r};"
            f" choose from {', '.join(sorted(_INEQUALITIES))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        domain = parse_domain(args.domain)
        if (2 if isinstance(domain, Box2) else 1) != arity:
            raise ValueError(
                f"{args.inequality} needs a {'2D' if arity == 2 else '1D'} domain"
            )
        f = parse(args.f, arity)
    except (ExprSyntaxError, ArityError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = op(f, domain)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    record = _run_record(
        "verify",
        {"expression": args.f, "domain": args.domain, "inequality": args.inequality},
        {},
        report.to_dict(),
        t0,
    )
    _emit(args, record, report.describe())
    return EXIT_PASS if report.all_hold else EXIT_FAIL


def cmd_search(args) -> int:
    t0 = time.perf_counter()
    try:
        cfg = SearchConfig(
            target_in=ClassId.from_name(args.target_in),
            target_not_in=ClassId.from_name(args.target_not_in),
            family=family_from_name(args.family),
            trials=args.trials,
            seed=args.seed,
            domain=parse_domain(args.domain),
        )
    except (InvalidSearchPair, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    result = search_separation(cfg)
    record = _run_record(
        "search",
        {
            "target_in": cfg.target_in.value,
            "target_not_in": cfg.target_not_in.value,
            "family": args.family,
            "domain": args.domain,
        },
        {"trials": cfg.trials, "seed": cfg.seed},
        result.to_dict(),
        t0,
    )
    _emit(args, record, result.describe())
    return EXIT_PASS if result.found else EXIT_FAIL


def cmd_gallery(args) -> int:
    t0 = time.perf_counter()
    entries = load_gallery()
    if not args.validate:
        lines = []
        for entry in entries:
            lines.append(
                f"{entry.name}: {entry.expr_text}"
                f"  in: {', '.join(c.value for c in entry.claimed_in) or '-'}"
                f"  not in: {', '.join(c.value for c in entry.claimed_not_in) or '-'}"
            )
        record = _run_record(
            "gallery",
            {"validate": False},
            {},
            {"entries": [e.name for e in entries]},
            t0,
        )
        _emit(args, record, "\n".join(lines))
        return EXIT_PASS
    try:
        results = validate_gallery(entries)
    except GalleryDrift as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    ok = sum(1 for r in results if r.ok)
    record = _run_record(
        "gallery",
        {"validate": True},
        {},
        {
            "claims_checked": len(results),
            "claims_ok": ok,
            "all_ok": ok == len(results),
        },
        t0,
    )
    _emit(args, record, f"gallery clean: {ok}/{len(results)} claims re-validated")
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones,
    so callers must not modify it.

    Parsing leaves no state in it: each call starts a fresh namespace,
    argparse looks up ``sys.stdout``/``sys.stderr`` when it writes, and each
    ``cmd_*`` reads this module's names when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="quasiconv",
        description=(
            "Numerical membership checks for quasi-convexity classes and"
            " Hadamard-type inequality reports on intervals and rectangles."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="falsify class membership")
    p_check.add_argument("--f", required=True, help="expression text")
    p_check.add_argument(
        "--domain", required=True, help='"a,b" for an interval, "a,b,c,d" for a box'
    )
    p_check.add_argument(
        "--class", dest="class_id", required=True,
        help="class id, e.g. QC2, JQC1, CoordWQC2",
    )
    p_check.add_argument("--resolution", type=int, default=SearchBudget.grid_n, help="grid side")
    p_check.add_argument("--halton", type=int, default=SearchBudget.halton_count)
    p_check.add_argument("--slices", type=int, default=SearchBudget.slices)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="evaluate an inequality report")
    p_verify.add_argument("--inequality", required=True,
                          help=", ".join(sorted(_INEQUALITIES)))
    p_verify.add_argument("--f", required=True)
    p_verify.add_argument("--domain", required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="hunt for a separating example")
    p_search.add_argument("--in", dest="target_in", required=True)
    p_search.add_argument("--not-in", dest="target_not_in", required=True)
    p_search.add_argument("--family", default="pwl4", help="pwlK or polyD")
    p_search.add_argument("--trials", type=int, default=100)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--domain", default="-1,1,-1,1")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_gallery = sub.add_parser("gallery", help="list or validate the gallery")
    p_gallery.add_argument("--validate", action="store_true")
    p_gallery.add_argument("--json", action="store_true")
    p_gallery.set_defaults(func=cmd_gallery)

    return parser


# flags whose values routinely start with '-' (expressions, domains);
# joined with '=' so argparse does not mistake the value for an option
_LITERAL_FLAGS = {"--f", "--domain", "--class", "--in", "--not-in", "--inequality"}


def _join_literal_flags(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _LITERAL_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_join_literal_flags(argv))
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except Exception as err:  # a crash must never read as a verdict
        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
