"""Curated function gallery with pinned class verdicts, and a randomized
search for examples separating the class inclusion chains.

The gallery is a plain-text catalog shipped with the package.  Every
``claimed_in`` entry re-validates as ``no violation found`` at its pinned
resolution, and every ``claimed_not_in`` entry carries a stored witness that
re-validates through the defining inequality.  ``validate_gallery`` is the
drift alarm for both.

The separation search samples seeded random functions from a family and keeps
the first one that is clean for the larger class while violating the smaller
one.  Exhaustion is a valid outcome: several of the proper inclusions have no
known computable separating example.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Union

import numpy as np

from .classifiers import (
    COORD_TO_1D,
    ClassId,
    SearchBudget,
    Verdict,
    Witness,
    check_membership,
    defining_inequality,
    violation_tolerance,
)
from .domains import Box2, Interval, parse_domain
from .expressions import (
    Axis,
    Expr,
    _Binary,
    _Const,
    _Var,
    parse,
    restrict,
)

__all__ = [
    "GalleryDrift",
    "GalleryEntry",
    "InvalidSearchPair",
    "PiecewiseLinear",
    "PolynomialBasis",
    "SearchConfig",
    "SearchResult",
    "inclusion_superclasses",
    "is_valid_separation_pair",
    "load_gallery",
    "search_separation",
    "validate_gallery",
]


# ---------------------------------------------------------------------------
# Inclusion graph: an edge A -> B means membership in A implies membership
# in B (B is the larger class).

_EDGES: dict[ClassId, tuple[ClassId, ...]] = {
    ClassId.C1: (ClassId.J1, ClassId.QC1),
    ClassId.J1: (ClassId.JQC1,),
    ClassId.QC1: (ClassId.WQC1,),
    ClassId.WQC1: (ClassId.JQC1,),
    ClassId.W1: (ClassId.WQC1,),
    ClassId.C2: (ClassId.J2, ClassId.QC2, ClassId.COORD_C2),
    ClassId.J2: (ClassId.JQC2, ClassId.COORD_J2),
    ClassId.QC2: (ClassId.WQC2, ClassId.COORD_QC2),
    ClassId.WQC2: (ClassId.JQC2, ClassId.COORD_WQC2),
    ClassId.W2: (ClassId.WQC2, ClassId.COORD_W2, ClassId.W2_ORDERED),
    ClassId.JQC2: (ClassId.COORD_JQC2,),
}


def inclusion_superclasses(class_id: ClassId) -> frozenset[ClassId]:
    """All classes reachable from ``class_id`` along the inclusion edges."""
    seen: set[ClassId] = set()
    stack = [class_id]
    while stack:
        current = stack.pop()
        for nxt in _EDGES.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def is_valid_separation_pair(target_in: ClassId, target_not_in: ClassId) -> bool:
    """A separation needs the violated class to sit strictly inside the clean
    one along the chain; finding f in the larger class but outside the smaller
    demonstrates the inclusion is proper."""
    return target_in in inclusion_superclasses(target_not_in)


class InvalidSearchPair(ValueError):
    pass


class GalleryDrift(Exception):
    def __init__(self, entry: str, claim: str, detail: str):
        super().__init__(f"gallery drift in entry {entry!r}, claim {claim}: {detail}")
        self.entry = entry
        self.claim = claim
        self.detail = detail


# ---------------------------------------------------------------------------
# Gallery


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    expr_text: str
    domain: Union[Interval, Box2]
    claimed_in: tuple[ClassId, ...]
    claimed_not_in: tuple[ClassId, ...]
    witnesses: dict[ClassId, dict] = field(default_factory=dict)
    grid_n: int = 9
    halton: int = 512
    slices: int = 7
    notes: str = ""

    @property
    def budget(self) -> SearchBudget:
        return SearchBudget(
            grid_n=self.grid_n, halton_count=self.halton, slices=self.slices
        )

    def function(self) -> Expr:
        arity = 2 if isinstance(self.domain, Box2) else 1
        return parse(self.expr_text, arity)


def _parse_classes(text: str) -> tuple[ClassId, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(ClassId.from_name(p.strip()) for p in text.split(","))


def parse_catalog(text: str) -> list[GalleryEntry]:
    entries: list[GalleryEntry] = []
    current: Optional[dict] = None

    def flush() -> None:
        if current is None:
            return
        entries.append(
            GalleryEntry(
                name=current["name"],
                expr_text=current["expr"],
                domain=parse_domain(current["domain"]),
                claimed_in=_parse_classes(current.get("in", "")),
                claimed_not_in=_parse_classes(current.get("not_in", "")),
                witnesses=current["witnesses"],
                grid_n=int(current.get("grid", GalleryEntry.grid_n)),
                halton=int(current.get("halton", GalleryEntry.halton)),
                slices=int(current.get("slices", GalleryEntry.slices)),
                notes=current.get("notes", ""),
            )
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            current = {"name": line[1:-1].strip(), "witnesses": {}}
            continue
        if current is None:
            raise ValueError(f"catalog line outside any entry: {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key.startswith("witness "):
            claim = ClassId.from_name(key[len("witness "):].strip())
            current["witnesses"][claim] = json.loads(value)
        else:
            current[key] = value
    flush()
    return entries


def load_gallery() -> list[GalleryEntry]:
    text = resources.files(__package__).joinpath("data/gallery.txt").read_text()
    return parse_catalog(text)


@dataclass(frozen=True)
class ClaimResult:
    entry: str
    claim: str
    kind: str  # "in" | "not_in" | "chain"
    ok: bool
    detail: str = ""


def _revalidate_witness(
    entry: GalleryEntry, claim: ClassId, stored: dict, f: Expr
) -> tuple[bool, str]:
    wclass = ClassId.from_name(stored["class_id"])
    p1 = tuple(stored["p1"])
    p2 = tuple(stored["p2"])
    params = stored.get("params") or {}
    frozen_axis = stored.get("frozen_axis")
    if claim.is_coordinate:
        if wclass is not COORD_TO_1D[claim] or frozen_axis not in ("x", "y"):
            return False, "stored witness does not certify the co-ordinate claim"
        frozen_value = float(stored["frozen_value"])
        slice_f = restrict(f, Axis(frozen_axis), frozen_value)
        lhs, rhs = defining_inequality(wclass, slice_f, p1, p2, params)
    else:
        if wclass is not claim:
            return False, "stored witness class does not match the claim"
        lhs, rhs = defining_inequality(wclass, f, p1, p2, params)
    margin = lhs - rhs
    if margin > violation_tolerance(lhs, rhs):
        return True, f"margin {margin:.6g}"
    return False, f"stored witness no longer violates (margin {margin:.3e})"


def validate_gallery(entries: Optional[list[GalleryEntry]] = None) -> list[ClaimResult]:
    """Re-run every claim of every entry; fails loudly on drift."""
    entries = load_gallery() if entries is None else entries
    results: list[ClaimResult] = []

    def record(result: ClaimResult) -> None:
        results.append(result)
        if not result.ok:
            raise GalleryDrift(result.entry, result.claim, result.detail)

    for entry in entries:
        f = entry.function()
        supersets_of_in: set[ClassId] = set()
        for cin in entry.claimed_in:
            supersets_of_in |= inclusion_superclasses(cin)
        for cnot in entry.claimed_not_in:
            if cnot in supersets_of_in:
                record(
                    ClaimResult(
                        entry.name,
                        cnot.value,
                        "chain",
                        False,
                        "claimed outside a superclass of a claimed member class",
                    )
                )
            else:
                record(ClaimResult(entry.name, cnot.value, "chain", True))
        for cin in entry.claimed_in:
            verdict = check_membership(f, entry.domain, cin, budget=entry.budget)
            if verdict.no_violation_found:
                record(ClaimResult(entry.name, cin.value, "in", True))
            else:
                record(
                    ClaimResult(
                        entry.name, cin.value, "in", False, verdict.describe()
                    )
                )
        for cnot in entry.claimed_not_in:
            stored = entry.witnesses.get(cnot)
            if stored is None:
                record(
                    ClaimResult(
                        entry.name, cnot.value, "not_in", False, "no stored witness"
                    )
                )
                continue
            ok, detail = _revalidate_witness(entry, cnot, stored, f)
            record(ClaimResult(entry.name, cnot.value, "not_in", ok, detail))
    return results


# ---------------------------------------------------------------------------
# Random function families


def _const(v: float) -> _Const:
    return _Const(float(v))


def _add(a, b) -> _Binary:
    return _Binary("+", a, b)


def _mul(a, b) -> _Binary:
    return _Binary("*", a, b)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Monotone piecewise-linear ridge functions g(a x + b y) with random
    kinks; quasi-convex by construction, convex only when every slope change
    is upward.  The natural hunting ground for quasi-but-not-convex examples.
    """

    knots: int = 4

    def sample(self, rng: np.random.Generator, domain: Union[Interval, Box2]) -> Expr:
        if isinstance(domain, Box2):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            ax, ay = math.cos(theta), math.sin(theta)
            corners = [
                ax * cx + ay * cy
                for cx in (domain.x.lo, domain.x.hi)
                for cy in (domain.y.lo, domain.y.hi)
            ]
            u: object = _add(_mul(_const(ax), _Var("x")), _mul(_const(ay), _Var("y")))
            arity = 2
        else:
            corners = [domain.lo, domain.hi]
            u = _Var("x")
            arity = 1
        umin, umax = min(corners), max(corners)
        span = umax - umin
        positions = np.sort(rng.uniform(0.15, 0.85, size=self.knots))
        knots = [umin + span * float(p) for p in positions]
        slopes = rng.uniform(0.0, 2.0, size=self.knots + 1)
        root: object = _add(
            _const(rng.uniform(-1.0, 1.0)),
            _mul(_const(float(slopes[0])), _Binary("-", u, _const(umin))),
        )
        for i, k in enumerate(knots):
            change = float(slopes[i + 1] - slopes[i])
            ramp = _Binary("max", _Binary("-", u, _const(k)), _const(0.0))
            root = _add(root, _mul(_const(change), ramp))
        return Expr(root, arity)


@dataclass(frozen=True)
class PolynomialBasis:
    """Random polynomials with coefficients in [-1, 1] up to a total degree."""

    degree: int = 3

    def sample(self, rng: np.random.Generator, domain: Union[Interval, Box2]) -> Expr:
        arity = 2 if isinstance(domain, Box2) else 1
        root: object = _const(rng.uniform(-1.0, 1.0))
        for i in range(self.degree + 1):
            for j in range(self.degree + 1 - i):
                if i == 0 and j == 0:
                    continue
                if arity == 1 and j > 0:
                    continue
                coeff = float(rng.uniform(-1.0, 1.0))
                term: object = _const(coeff)
                if i == 1:
                    term = _mul(term, _Var("x"))
                elif i > 1:
                    term = _mul(term, _Binary("^", _Var("x"), _const(float(i))))
                if j == 1:
                    term = _mul(term, _Var("y"))
                elif j > 1:
                    term = _mul(term, _Binary("^", _Var("y"), _const(float(j))))
                root = _add(root, term)
        return Expr(root, arity)


Family = Union[PiecewiseLinear, PolynomialBasis]


_MAX_KNOTS = 64  # most kinks of a pwlK function
_MAX_DEGREE = 16  # highest total degree of a polyD function


def family_from_name(name: str) -> Family:
    """Parse compact family names like ``pwl4`` or ``poly3``; the size must
    lie in 1..64 knots or 2..16 degrees.  Smaller sizes draw only affine
    functions, which lie in every class, so no trial could separate."""
    if name.startswith("pwl"):
        family, size, low, cap = PiecewiseLinear, int(name[3:] or 4), 1, _MAX_KNOTS
    elif name.startswith("poly"):
        family, size, low, cap = PolynomialBasis, int(name[4:] or 3), 2, _MAX_DEGREE
    else:
        raise ValueError(f"unknown family {name!r}; use pwlK or polyD")
    if not low <= size <= cap:
        raise ValueError(f"family {name!r}: size {size} is outside {low}..{cap}")
    return family(size)


# ---------------------------------------------------------------------------
# Separation search

_SEARCH_BUDGET = SearchBudget(grid_n=9, halton_count=512, slices=5)  # of each check


@dataclass(frozen=True)
class SearchConfig:
    target_in: ClassId
    target_not_in: ClassId
    family: Family = PiecewiseLinear(4)
    trials: int = 100
    seed: int = 0
    domain: Union[Interval, Box2] = Box2.from_bounds(-1.0, 1.0, -1.0, 1.0)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not is_valid_separation_pair(self.target_in, self.target_not_in):
            raise InvalidSearchPair(
                f"{self.target_not_in.value} is not a chain subclass of"
                f" {self.target_in.value}; nothing to separate"
            )
        if self.target_in.arity != (2 if isinstance(self.domain, Box2) else 1):
            raise InvalidSearchPair("class arity does not match the domain")


@dataclass(frozen=True)
class SearchResult:
    found: bool
    trials_run: int
    seed: int
    trial: Optional[int] = None
    expr_text: Optional[str] = None
    verdict_in: Optional[Verdict] = None
    witness_not_in: Optional[Witness] = None

    def describe(self) -> str:
        if not self.found:
            return f"exhausted after {self.trials_run} trials (seed {self.seed})"
        return (
            f"found at trial {self.trial} (seed {self.seed}): {self.expr_text}\n"
            f"  in-class check: {self.verdict_in.describe()}\n"
            f"  violation: {self.witness_not_in.describe()}"
        )

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "trials_run": self.trials_run,
            "seed": self.seed,
            "trial": self.trial,
            "expr": self.expr_text,
            "verdict_in": self.verdict_in.to_dict() if self.verdict_in else None,
            "witness_not_in": (
                self.witness_not_in.to_dict() if self.witness_not_in else None
            ),
        }


def sample_trial(cfg: SearchConfig, trial: int) -> Expr:
    """The function examined at a given trial index; fully determined by the
    config seed, so any Found result re-validates from its record."""
    rng = np.random.default_rng([cfg.seed, trial])
    return cfg.family.sample(rng, cfg.domain)


def search_separation(cfg: SearchConfig) -> SearchResult:
    """Hunt for f clean in ``target_in`` but witnessed outside ``target_not_in``.

    Returns the lowest trial index that succeeds; exhaustion after the
    configured number of trials is an honest, reportable outcome.
    """
    for trial in range(cfg.trials):
        f = sample_trial(cfg, trial)
        v_not = check_membership(f, cfg.domain, cfg.target_not_in, budget=_SEARCH_BUDGET)
        if not v_not.violated:
            continue
        v_in = check_membership(f, cfg.domain, cfg.target_in, budget=_SEARCH_BUDGET)
        if v_in.no_violation_found:
            return SearchResult(
                found=True,
                trials_run=trial + 1,
                seed=cfg.seed,
                trial=trial,
                expr_text=f.text,
                verdict_in=v_in,
                witness_not_in=v_not.witness,
            )
    return SearchResult(found=False, trials_run=cfg.trials, seed=cfg.seed)
