#!/usr/bin/env python3
"""Regenerate the packaged gallery catalog.

src/quasiconv/data/gallery.txt holds the entries.  This tool reads them,
recomputes the witness of every ``not_in`` claim at the entry's own budget,
re-validates every claim of the result and writes the catalog back; it
writes nothing while a claim fails.  To add an entry, write its lines in
the catalog (witness lines may be left out) and run the tool.  Run it after
any change to the search engine too: the test suite fails while the shipped
catalog differs from ``catalog_text()``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quasiconv import Box2, GalleryDrift, check_membership, validate_gallery  # noqa: E402
from quasiconv.inclusions import parse_catalog  # noqa: E402

CATALOG = Path(__file__).resolve().parents[1] / "src" / "quasiconv" / "data" / "gallery.txt"
HEADER = [
    "# quasiconv gallery catalog",
    "# format version 1",
    "# regenerate with tools/regenerate_gallery.py",
    "",
]


def catalog_text(
    source: Optional[str] = None, report: Callable[[str], None] = lambda line: None
) -> str:
    """The catalog ``source`` (the shipped one by default) with the witnesses
    its ``not_in`` claims get at each entry's budget.  ``report`` receives a
    line per entry and witness.  Raises ValueError when a claim does not
    hold at that budget."""
    lines = list(HEADER)
    for entry in parse_catalog(CATALOG.read_text() if source is None else source):
        domain = entry.domain
        bounds = domain.bounds if isinstance(domain, Box2) else (domain.lo, domain.hi)
        report(f"[{entry.name}] {entry.expr_text}")
        lines += [
            f"[{entry.name}]",
            f"expr: {entry.expr_text}",
            f"domain: {', '.join(map(repr, bounds))}",
            f"in: {', '.join(c.value for c in entry.claimed_in)}",
            f"not_in: {', '.join(c.value for c in entry.claimed_not_in)}",
            f"grid: {entry.grid_n}",
            f"halton: {entry.halton}",
            f"slices: {entry.slices}",
            f"notes: {entry.notes}",
        ]
        f = entry.function()
        for claim in entry.claimed_not_in:
            verdict = check_membership(f, domain, claim, budget=entry.budget)
            if not verdict.violated:
                detail = verdict.describe()
                raise ValueError(f"[{entry.name}] claimed_not_in {claim.value} -> {detail}")
            report(f"  not in {claim.value}: margin {verdict.witness.margin:.6g}")
            lines.append(f"witness {claim.value}: {json.dumps(verdict.witness.to_dict())}")
        lines.append("")
    text = "\n".join(lines)
    try:
        results = validate_gallery(parse_catalog(text))
    except GalleryDrift as err:
        raise ValueError(str(err)) from None
    report(f"re-validated {len(results)} claims, all clean")
    return text


def main() -> int:
    try:
        text = catalog_text(report=print)
    except ValueError as err:
        print(f"  FATAL: {err}")
        return 1
    CATALOG.write_text(text)
    print(f"wrote {CATALOG}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
