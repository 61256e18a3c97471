"""Interval and rectangle domains shared by every checker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with finite lo strictly below hi and a finite
    length."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval needs finite bounds, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"interval needs lo < hi, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValueError(f"interval length overflows, got [{lo}, {hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * self.lo + 0.5 * self.hi


@dataclass(frozen=True)
class Box2:
    """Axis-aligned rectangle [a, b] x [c, d]."""

    x: Interval
    y: Interval

    @classmethod
    def from_bounds(cls, a: float, b: float, c: float, d: float) -> "Box2":
        return cls(Interval(a, b), Interval(c, d))

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.x.lo, self.x.hi, self.y.lo, self.y.hi)

    @property
    def area(self) -> float:
        return self.x.length * self.y.length


def parse_domain(text: str) -> Union[Interval, Box2]:
    """Parse ``"a,b"`` as an Interval and ``"a,b,c,d"`` as a Box2."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(
            f"domain must be numbers separated by commas, got {text!r}"
        ) from None
    if len(parts) == 2:
        return Interval(*parts)
    if len(parts) == 4:
        return Box2.from_bounds(*parts)
    raise ValueError("domain needs 2 numbers (1D) or 4 numbers (2D)")
