"""Integer rectangles, and the rounding rules and number checks shared by
the whole engine."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


def round_half_up(value: float) -> int:
    """Round to the nearest integer, ties away from minus infinity.

    This is the single rounding rule for all pixel math; Python's built-in
    banker's rounding is never used on channel or size values.
    """
    return math.floor(value + 0.5)


def is_int(value) -> bool:
    """An int that is not a bool, as in a JSON integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """An int or float that converts to a finite float; a bool is not a
    number, and an int beyond the float range is not finite."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned integer rectangle: origin (x, y), size (w, h)."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"negative rectangle size: {self.w}x{self.h}")

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    def is_empty(self) -> bool:
        return self.w == 0 or self.h == 0

    def intersect(self, other: "Rect") -> "Rect":
        """Intersection rectangle; empty (w or h == 0) when disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        return Rect(x1, y1, max(0, x2 - x1), max(0, y2 - y1))


def rotated_extents(width: float, height: float, angle_deg: float) -> tuple[float, float]:
    """Width and height of the axis-aligned box around a rotated rectangle."""
    theta = math.radians(angle_deg)
    c, s = abs(math.cos(theta)), abs(math.sin(theta))
    return width * c + height * s, width * s + height * c


def outward_bbox(cx: float, cy: float, width: float, height: float,
                 angle_deg: float) -> Rect:
    """Integer bounding box of a rotated rectangle centred at (cx, cy).

    The box is rounded outward (floor on the low edge, ceil on the high
    edge), so it always covers the real-valued footprint.
    """
    ew, eh = rotated_extents(width, height, angle_deg)
    x1 = math.floor(cx - ew / 2.0)
    y1 = math.floor(cy - eh / 2.0)
    x2 = math.ceil(cx + ew / 2.0)
    y2 = math.ceil(cy + eh / 2.0)
    return Rect(x1, y1, x2 - x1, y2 - y1)
