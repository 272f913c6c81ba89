"""The abstract photo object and its canonical transform pipeline.

A photo renders through a fixed pipeline: crop -> effects -> scale ->
rotate -> translate.  Crop coordinates live in source pixels; the centre
lives in standard-viewport coordinates and stays real-valued until
rasterization.  Transform operations are pure: each returns a new object
with exactly one field changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .effects import EffectSpec, chain_output_size, chain_pixels
from .geometry import Rect, outward_bbox, round_half_up


class PhotoError(ValueError):
    pass


class EmptyCropError(PhotoError):
    """Crop rectangle does not intersect the source image."""


class UnresolvedSourceError(PhotoError):
    """Operation needs source dimensions that have not been resolved."""


@dataclass(frozen=True)
class PhotoObject:
    """Render-technology-independent photo state.

    `source_size` is a resolved-dimensions cache, not part of the
    document: it is excluded from equality and never serialized.
    """

    id: str
    source: str
    source_size: tuple[int, int] | None = field(default=None, compare=False)
    crop: Rect | None = None
    scale: float = 1.0
    angle: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    effects: tuple[EffectSpec, ...] = ()

    def __post_init__(self):
        if self.scale <= 0:
            raise PhotoError(f"scale must be positive, got {self.scale}")
        if not isinstance(self.effects, tuple):
            object.__setattr__(self, "effects", tuple(self.effects))

    @property
    def display_angle(self) -> float:
        """Accumulated angle normalized to [0, 360) for reporting."""
        return self.angle % 360.0


def source_rect(photo: PhotoObject) -> Rect:
    """Region of the source the photo shows: crop, or the full source."""
    if photo.crop is not None:
        return photo.crop
    if photo.source_size is None:
        raise UnresolvedSourceError(f"photo {photo.id!r}: source size unknown and no crop set")
    return Rect(0, 0, photo.source_size[0], photo.source_size[1])


def content_size(photo: PhotoObject) -> tuple[int, int]:
    """Pixel dimensions the effect chain emits (crop plus border growth)."""
    rect = source_rect(photo)
    return chain_output_size(rect.w, rect.h, photo.effects)


def display_size(photo: PhotoObject) -> tuple[int, int]:
    """On-viewport size in standard pixels: content scaled, never below 1x1."""
    w, h = content_size(photo)
    return (max(1, round_half_up(w * photo.scale)),
            max(1, round_half_up(h * photo.scale)))


def effect_pixels(photo: PhotoObject) -> int:
    """Pixels written when the photo's chain is applied once."""
    rect = source_rect(photo)
    return chain_pixels(rect.w, rect.h, photo.effects)


def crop_photo(photo: PhotoObject, rect: Rect) -> PhotoObject:
    """Set the crop to `rect` clamped into the source bounds.

    Clamping by intersection (rather than erroring) keeps scripted crop
    sequences from aborting on near-edge rectangles.
    """
    if rect.w <= 0 or rect.h <= 0:
        raise PhotoError(f"crop must have positive size, got {rect.w}x{rect.h}")
    if photo.source_size is None:
        raise UnresolvedSourceError(f"photo {photo.id!r}: cannot crop with unknown source size")
    bounds = Rect(0, 0, photo.source_size[0], photo.source_size[1])
    clamped = rect.intersect(bounds)
    if clamped.is_empty():
        raise EmptyCropError(f"crop {rect} lies outside source {bounds.w}x{bounds.h}")
    return replace(photo, crop=clamped)


def move_to(photo: PhotoObject, x: float, y: float) -> PhotoObject:
    return replace(photo, center=(float(x), float(y)))


def rotate_by(photo: PhotoObject, degrees: float) -> PhotoObject:
    return replace(photo, angle=photo.angle + degrees)


def scale_to(photo: PhotoObject, factor: float) -> PhotoObject:
    if factor <= 0:
        raise PhotoError(f"scale factor must be positive, got {factor}")
    return replace(photo, scale=float(factor))


def photo_bbox(photo: PhotoObject) -> Rect:
    """Outward-rounded axis-aligned box of the rotated display rectangle."""
    w, h = display_size(photo)
    return outward_bbox(photo.center[0], photo.center[1], w, h, photo.angle)
