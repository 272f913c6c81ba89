"""Normalization between standard 1024x768 coordinates and real screens.

All geometry is stored against the standard viewport; a ScreenSpec maps it
onto an actual screen with a uniform scale and a centred letterbox.  The
scale and offsets are exact rationals so that mapping a point to screen
coordinates and back is the identity, not merely close to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# The coordinate space every scene document is stored in.
STANDARD_VIEWPORT = (1024, 768)


@dataclass(frozen=True)
class ScreenSpec:
    """Screen size plus the standard-to-screen mapping parameters."""

    width: int
    height: int
    scale: Fraction
    offset_x: Fraction
    offset_y: Fraction

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"screen must be positive, got {self.width}x{self.height}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @classmethod
    def fit(cls, width: int, height: int) -> "ScreenSpec":
        """Uniform min-ratio scale with the 1024x768 region centred."""
        sw, sh = STANDARD_VIEWPORT
        scale = min(Fraction(width, sw), Fraction(height, sh))
        return cls(width, height,
                   scale=scale,
                   offset_x=Fraction(width - sw * scale, 2),
                   offset_y=Fraction(height - sh * scale, 2))

    @classmethod
    def identity(cls, width: int, height: int) -> "ScreenSpec":
        """No scaling or offset: standard coordinates are screen pixels.

        Used by the benchmark harness so costs come out in native pixels.
        """
        return cls(width, height, Fraction(1), Fraction(0), Fraction(0))


def to_screen(spec: ScreenSpec, point) -> tuple[Fraction, Fraction]:
    x, y = point
    return (Fraction(x) * spec.scale + spec.offset_x,
            Fraction(y) * spec.scale + spec.offset_y)


def to_standard(spec: ScreenSpec, point) -> tuple[Fraction, Fraction]:
    x, y = point
    return ((Fraction(x) - spec.offset_x) / spec.scale,
            (Fraction(y) - spec.offset_y) / spec.scale)
