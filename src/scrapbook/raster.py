"""Shared low-level rasterizer used by every render strategy.

One drawing routine serves all backends, which makes cross-backend pixel
equality a structural property: strategies differ only in scheduling and
cost accounting, never in pixel math.

Sampling is nearest-neighbor with inverse mapping: for every screen pixel
inside the photo's rotated footprint the source texel is looked up through
the inverse transform.  Compositing is source-over against the opaque
frame with round-half-up channel math.

The kernel's cost follows the pixels it writes.  An axis-aligned draw
separates into one row lookup and one column lookup.  A rotated draw walks
the clipped bounding box row by row: the rectangle's four edge functions
(Pineda, SIGGRAPH 1988) give each row a conservative span of columns,
widened past float64 rounding, and only span pixels are evaluated.  On
those pixels the kernel computes the same float64 expressions on the same
operands in the same order as a full per-pixel grid would:

    px = x + 0.5 - cx,  py = y + 0.5 - cy
    lx = px*cos + py*sin + sw/2,  ly = -px*sin + py*cos + sh/2
    inside = 0 <= lx < sw and 0 <= ly < sh
    texel = clip(floor(l / s * size))

and the exact `inside` test, not the span, decides which pixels are
written.  A span that is too wide costs a few evaluations and can never
change a pixel, so frames are bit-identical to the full-grid form.  A
draw may be clipped to a rectangle: inside it every pixel gets the same
expressions, outside it nothing is written.

The paint pass hides photos behind opaque ones by tiles, and that too is
exact.  `covered_tiles` counts a tile as covered only when its four
corner pixel centres satisfy `margin <= l <= size - margin` for both local
coordinates, with the same margin as the spans.  l is affine in the pixel
centre and the rotated rectangle is convex, so every pixel centre of the
tile, a convex combination of the corners, lies at least `margin` inside
the footprint in exact arithmetic; float64 rounding of either evaluation
is far below the margin, so draw_photo's `inside` test passes on every
pixel of a covered tile.  An opaque draw therefore overwrites each such
pixel with a texel of alpha 255, and nothing drawn before it there shows.

The frame is an opaque RasterImage, so texels and frame pixels share one
layout: both are read and written through packed uint32 views, one 4-byte
element per pixel.  Nothing is cached between calls: the rasterizer is
reentrant.
"""

from __future__ import annotations

import math

import numpy as np

from .effects import apply_chain, chain_output_size, lowers_alpha
from .geometry import Rect, outward_bbox
from .image import RasterImage
from .photo import EmptyCropError, PhotoObject, display_size, source_rect
from .viewport import ScreenSpec, to_screen

# Packed texels whose alpha byte is 255; the mask is built from bytes so it
# holds on either byte order.
_OPAQUE = np.frombuffer(bytes((0, 0, 0, 255)), dtype=np.uint32)[0]


def _all_opaque(texels: np.ndarray) -> bool:
    """Whether every packed RGBA texel has alpha 255."""
    return np.bitwise_and.reduce(texels, axis=None) & _OPAQUE == _OPAQUE


class Frame(RasterImage):
    """Opaque RGBA8 surface at screen resolution; the background is white.

    Alpha is 255 everywhere and stays so: an opaque draw copies texels
    whose alpha is 255, and a blend writes colour only.
    `rgb` is a writable (height, width, 3) view of the colour channels.
    """

    __slots__ = ()

    def __init__(self, width: int, height: int):
        super().__init__(width, height)
        self.array.fill(255)

    @property
    def rgb(self) -> np.ndarray:
        return self.array[..., :3]


def crop_rect(photo: PhotoObject, source: RasterImage) -> Rect:
    """The part of the source the photo shows.  Raises what prepare_content
    would, without running the chain: EmptyCropError when the crop lies
    outside the source, EffectParamError when the chain would grow the
    crop past MAX_IMAGE_PIXELS."""
    rect = source_rect(photo).intersect(Rect(0, 0, source.width, source.height))
    if rect.is_empty():
        raise EmptyCropError(f"photo {photo.id!r}: crop {photo.crop} outside source")
    chain_output_size(rect.w, rect.h, photo.effects)
    return rect


def prepare_content(photo: PhotoObject, source: RasterImage) -> RasterImage:
    """Crop the source and run the effect chain: the photo's texture."""
    rect = crop_rect(photo, source)
    cropped = RasterImage.from_array(source.array[rect.y:rect.y2, rect.x:rect.x2])
    return apply_chain(cropped, photo.effects)


def is_opaque(photo: PhotoObject, source: RasterImage) -> bool:
    """Whether the photo's prepared content has alpha 255 everywhere: its
    crop of the source does and no step of its chain can lower alpha."""
    if lowers_alpha(photo.effects):
        return False
    rect = crop_rect(photo, source)
    return _all_opaque(source.packed[rect.y:rect.y2, rect.x:rect.x2])


def _composite(pixels: np.ndarray, at, texels: np.ndarray) -> None:
    """Source-over packed RGBA texels onto the packed frame pixels `pixels[at]`."""
    if _all_opaque(texels):
        # Opaque content: source-over degenerates to an exact texel copy.
        pixels[at] = texels
        return
    shape = texels.shape
    rgba = texels.view(np.uint8).reshape(shape + (4,))
    out = np.ascontiguousarray(pixels[at])
    dst = out.view(np.uint8).reshape(shape + (4,))
    alpha = rgba[..., 3:].astype(np.float64) / 255.0
    # The destination's alpha is already 255; only colour is blended.
    dst[..., :3] = np.floor(rgba[..., :3] * alpha
                            + dst[..., :3].astype(np.float64) * (1.0 - alpha) + 0.5)
    pixels[at] = out


def _edge_span(a: float, b: np.ndarray, size: float, eps: float):
    """Per-row interval of t where -eps <= a*t + b <= size + eps.

    `b` holds one offset per row.  A zero slope makes the constraint all or
    nothing for the row.
    """
    if a == 0.0:
        ok = (b >= -eps) & (b <= size + eps)
        return np.where(ok, -np.inf, np.inf), np.where(ok, np.inf, -np.inf)
    lo = (-eps - b) / a
    hi = (size + eps - b) / a
    return (lo, hi) if a > 0 else (hi, lo)


def _slack(cx: float, cy: float, sw: float, sh: float, width: int, height: int) -> float:
    """A margin in local units far above the float64 rounding of the local
    coordinates of any pixel of a width x height surface."""
    return 1e-9 * (abs(cx) + abs(cy) + width + height + sw + sh + 1.0)


def _rotation(photo: PhotoObject) -> tuple[float, float]:
    theta = math.radians(photo.angle)
    return math.cos(theta), math.sin(theta)


def footprint(photo: PhotoObject, screen: ScreenSpec, center=None):
    """Where a draw lands: screen centre (cx, cy), scaled size (sw, sh) and
    the outward-rounded box of the rotated rectangle, optionally at an
    overridden centre.  The box bounds every pixel draw_photo writes and is
    what the cost model charges for one draw."""
    dw, dh = display_size(photo)
    scale = float(screen.scale)
    cx, cy = to_screen(screen, photo.center if center is None else center)
    cx, cy, sw, sh = float(cx), float(cy), dw * scale, dh * scale
    return cx, cy, sw, sh, outward_bbox(cx, cy, sw, sh, photo.angle)


def covered_tiles(photo: PhotoObject, screen: ScreenSpec, xs: np.ndarray,
                  ys: np.ndarray) -> np.ndarray:
    """Which tiles draw_photo writes in full: tile (i, j) holds the columns
    xs[j] to xs[j+1] and the rows ys[i] to ys[i+1], every tile non-empty.

    A tile is covered when its four corner pixel centres pass the inside
    test with a margin far above float64 rounding (see the module
    docstring); the answer errs only towards not covered.
    """
    cx, cy, sw, sh, _ = footprint(photo, screen)
    cos_t, sin_t = _rotation(photo)
    margin = _slack(cx, cy, sw, sh, screen.width, screen.height)
    # Centres of each tile's first and last column and row.
    px = np.stack([xs[:-1], xs[1:] - 1], axis=1).reshape(-1) + 0.5 - cx
    py = np.stack([ys[:-1], ys[1:] - 1], axis=1).reshape(-1)[:, None] + 0.5 - cy
    lx = px * cos_t + py * sin_t + sw / 2.0
    ly = -px * sin_t + py * cos_t + sh / 2.0
    ok = (lx >= margin) & (lx <= sw - margin) & (ly >= margin) & (ly <= sh - margin)
    return ok.reshape(len(ys) - 1, 2, len(xs) - 1, 2).all(axis=(1, 3))


def draw_photo(frame: Frame, photo: PhotoObject, content: RasterImage,
               screen: ScreenSpec, clip: Rect | None = None) -> None:
    """Composite prepared content onto the frame at the photo's transform.

    Pixels outside the rotated footprint, and outside `clip` when one is
    given, are untouched; a pixel inside both is written exactly as by an
    unclipped draw.
    """
    cx, cy, sw, sh, bbox = footprint(photo, screen)
    frame_rect = Rect(0, 0, frame.width, frame.height)
    clip = bbox.intersect(frame_rect if clip is None else clip.intersect(frame_rect))
    if clip.is_empty():
        return

    cos_t, sin_t = _rotation(photo)
    cw, ch = content.width, content.height
    texels = content.packed
    pixels = frame.packed

    if cos_t == 1.0 and sin_t == 0.0:
        # Axis-aligned: row and column lookups separate, no rotation grid.
        lx = (np.arange(clip.x, clip.x2, dtype=np.float64) + 0.5 - cx) + sw / 2.0
        ly = (np.arange(clip.y, clip.y2, dtype=np.float64) + 0.5 - cy) + sh / 2.0
        col_in = (lx >= 0) & (lx < sw)
        row_in = (ly >= 0) & (ly < sh)
        if not col_in.any() or not row_in.any():
            return
        c0 = int(col_in.argmax())
        c1 = len(col_in) - int(col_in[::-1].argmax())
        r0 = int(row_in.argmax())
        r1 = len(row_in) - int(row_in[::-1].argmax())
        sx = np.clip(np.floor(lx[c0:c1] / sw * cw), 0, cw - 1).astype(np.intp)
        sy = np.clip(np.floor(ly[r0:r1] / sh * ch), 0, ch - 1).astype(np.intp)
        block = (slice(clip.y + r0, clip.y + r1), slice(clip.x + c0, clip.x + c1))
        _composite(pixels, block, texels.take(sy, axis=0).take(sx, axis=1))
        return

    # Conservative per-row spans from the four edges.  For the row's pixel
    # centres t = x + 0.5 - cx, lx and ly are linear in t; solve each edge
    # inequality for t with a slack far above float64 rounding, then widen
    # by a pixel on each side.  The inside test below decides every pixel.
    py = np.arange(clip.y, clip.y2, dtype=np.float64) + 0.5 - cy
    py_sin, py_cos = py * sin_t, py * cos_t
    eps = _slack(cx, cy, sw, sh, frame.width, frame.height)
    u_lo, u_hi = _edge_span(cos_t, py_sin + sw / 2.0, sw, eps)
    v_lo, v_hi = _edge_span(-sin_t, py_cos + sh / 2.0, sh, eps)
    t0 = clip.x + 0.5 - cx
    x0 = np.clip(np.floor(np.maximum(u_lo, v_lo) - t0) - 1.0, 0, clip.w).astype(np.intp)
    x1 = np.clip(np.ceil(np.minimum(u_hi, v_hi) - t0) + 2.0, 0, clip.w).astype(np.intp)
    counts = np.maximum(x1 - x0, 0)
    n = int(counts.sum())
    if n == 0:
        return

    # Flatten the spans into the frame column and flat frame index of every
    # candidate pixel, then evaluate the full-grid expressions on just those
    # pixels; a row's products repeat along its span unchanged.
    xs = np.arange(n) + np.repeat(clip.x + x0 - (np.cumsum(counts) - counts), counts)
    flat = xs + np.repeat(np.arange(clip.y, clip.y2) * frame.width, counts)
    px = xs + 0.5 - cx
    lx = px * cos_t + np.repeat(py_sin, counts) + sw / 2.0
    ly = -px * sin_t + np.repeat(py_cos, counts) + sh / 2.0
    inside = (lx >= 0) & (lx < sw) & (ly >= 0) & (ly < sh)

    # Texel index floor(l / s * size), clipped, formed in place.  Both
    # coordinates are whole numbers far inside float64's exact range, so
    # row * width + column is exact before the integer cast.
    for v, s, size in ((lx, sw, cw), (ly, sh, ch)):
        v /= s
        v *= size
        np.floor(v, out=v)
        np.clip(v, 0, size - 1, out=v)
    ly *= cw
    ly += lx
    texel = ly.astype(np.intp)
    if not inside.all():
        texel, flat = texel[inside], flat[inside]
    _composite(pixels.reshape(-1), flat, texels.reshape(-1).take(texel))
