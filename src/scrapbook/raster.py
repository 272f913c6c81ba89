"""Shared low-level rasterizer used by every render strategy.

One drawing routine serves all backends, which makes cross-backend pixel
equality a structural property: strategies differ only in scheduling and
cost accounting, never in pixel math.

Sampling is nearest-neighbor with inverse mapping: for every screen pixel
inside the photo's rotated footprint the source texel is looked up through
the inverse transform.  Compositing is source-over against the opaque
frame with round-half-up channel math.

The kernel's cost follows the pixels it writes.  A draw may be planned on
a region, a list of disjoint rects, and then runs on each rect of it only.
Everything a draw needs besides the pixels is made once, by `plan`: the
box, the region's rects cut to it, and the lookups or cut spans below,
from which it reads each rect's texel bounds.  The paint pass makes one
plan per drawn photo and draws it in a few runs of its rects; a run's
plan (`Plan.sub`) slices the same lookups, so nothing is planned twice.
An axis-aligned draw separates into one row lookup and one column lookup
over its box, which each rect slices.  A rotated draw walks each rect in
bands of rows, each of about image.STRIP_PX pixels
(`image._strip_rows`).  The rectangle's four edge functions (Pineda,
SIGGRAPH 1988) give each row of the box a conservative span of columns,
widened past float64 rounding; a rect cuts each of its rows' spans to its
columns, and a band evaluates every pixel of the union of its rows' cut
spans densely, so its temporaries stay in cache.  On those pixels the
kernel computes the same float64 expressions on the same operands in the
same order as a full per-pixel grid would:

    px = x + 0.5 - cx,  py = y + 0.5 - cy
    lx = px*cos + py*sin + sw/2,  ly = -px*sin + py*cos + sh/2
    inside = 0 <= lx < sw and 0 <= ly < sh
    texel = floor(l / s * size)

with px*cos and -px*sin formed once per column and py*sin and py*cos
once per row, then added in the grid's order.  The exact `inside` test,
not the span, decides which pixels are written, so a span or a band that
is too wide costs a few evaluations and can never change a pixel, and
frames are bit-identical to the full-grid form.  An inside pixel's texel
index needs no clamp.  l is not negative, so truncating l / s * size is
its floor and is not negative.  And l < s: for doubles 0 <= l < s,
fl(l / s) <= 1 - 2**-53, the double below 1, and fl((1 - 2**-53) * size)
< size for every whole size >= 1, so, rounding being monotone, the index
is at most size - 1.  A pixel outside is never written, and its texel
index need only be in bounds, which take(mode="clip") makes it.  A band
copies its texels when all it gathered have alpha 255 and blends them
otherwise.  Texels gathered for outside pixels may tip that choice, but
blending at alpha 255 gives floor(t * 1.0 + d * 0.0 + 0.5) = t, the
texel, so the choice never changes a pixel.  Each pixel's expressions
depend only on its own row and column, not on the rect or band it falls
in, so inside a region every pixel gets the same expressions as without
one, and outside it nothing is written.  The rects are disjoint, so no
pixel is blended twice.

The paint pass hides photos behind opaque ones by tiles, and that too is
exact.  `covered_tiles` counts a tile as covered only when its four
corner pixel centres lie `margin` inside the footprint for both local
coordinates, with twice the spans' slack as the margin.  It works per
tile row, as scan conversion does: along a pixel row, both l are affine
in the column, so the columns whose centres lie `margin` inside form one
interval, the row's inset span, solved from the edge functions as the
spans are.  A tile's corners are inside when its first and last column
lie in the inset spans of its first and last pixel row, so each tile
row's covered tiles are one run, read off two spans, whatever the number
of tiles.  Solving for the span's ends rounds, but only by far less than
the slack, so a corner found inside lies at least the slack inside in
exact arithmetic: the answer differs from evaluating l at the corners
with the slack as margin only towards "not covered".  l is affine in the
pixel centre and the rotated rectangle is convex, so every pixel centre
of a covered tile, a convex combination of the corners, lies at least the
slack inside the footprint in exact arithmetic; float64 rounding of the
draw's evaluation is far below it, so draw_photo's `inside` test passes
on every pixel of a covered tile.  An opaque draw therefore overwrites each such
pixel with a texel of alpha 255, and nothing drawn before it there shows.
The argument holds tile by tile, so a draw beneath may leave out any
covered tile: its region is made of the tiles not yet covered, and each
of its rects is a union of whole tiles.

A draw need not have its whole content.  The plan bounds, per rect, the
texels that rect's pixels may sample (`Plan.bounds`); a run of rects
samples only texels in the union of its rects' bounds, its window.  A
run is a plan with that window (`Plan.window`; `plan` gives the whole
content).  The paint pass gives each run's window to the photo's prepare
step, which makes exactly those texels (see `prepare_content`) and reads
only the source rect they map back to.  The draw samples the content at
the plan window's offset: the texel formula keeps the whole content's
size, and the window's origin is subtracted from each index.  The bound
is exact in the sense that it never misses a texel.  texel = floor(l / s
* size), computed as the draw computes it, is monotone in l, and l is
affine in the pixel centre:
- An axis-aligned draw slices the plan's column and row lookups per
  rect; they are monotone, so a rect samples exactly the texels between
  the lookups of its first and last columns and rows.
- A rotated draw writes only pixels of a rect's rows inside each row's
  cut span, and along a row l lies between its values at the span's two
  ends.  Those ends are evaluated with the draw's own
  expressions; any other pixel's l may differ from that range only by
  float64 rounding, far below the spans' slack eps.  So a rect's bound
  takes the texels of its ends' least and greatest l widened by eps, then
  one more texel on each side, and clamps them into the content.
A window may hold texels no pixel samples, never too few, so every pixel
reads the texel it would read from the whole content.  The rects are
disjoint, so drawing a photo run by run, each run from its own window,
writes every pixel exactly as one draw from the whole content would.

The frame is an opaque RasterImage, so texels and frame pixels share one
layout: both are read and written through packed uint32 views, one 4-byte
element per pixel.

A rotated draw whose bands evaluate at least SHARED_PX pixels shares
them between the calling thread and the strip pool thread
(`image._shared`); every other draw runs its bands, or its axis-aligned
rects, in one pass on the calling thread.  The bands are built the same
way either way and write disjoint pixels, each with its own copy or
blend, so a frame does not depend on which thread drew which band, and
the draw returns only when every band is done.  Nothing is cached
between calls, a plan is only read, and nothing is written but the
frame, so draws into different frames may run at once from any threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .effects import chain_output_size, chain_window, lowers_alpha, run_window
from .geometry import Rect, outward_bbox
from .image import STRIP_PX, RasterImage, _shared, _strip_rows
from .photo import EmptyCropError, PhotoObject, display_size, source_rect
from .viewport import ScreenSpec, to_screen

# Packed texels whose alpha byte is 255; the mask is built from bytes so it
# holds on either byte order.
_OPAQUE = np.frombuffer(bytes((0, 0, 0, 255)), dtype=np.uint32)[0]

# Evaluated pixels from which a rotated draw's bands are shared between the
# caller and the strip pool (image._shared); a smaller draw runs inline,
# where a thread handoff would cost more than the second core gains.
SHARED_PX = 4 * STRIP_PX


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


def prepare_content(photo: PhotoObject, source: RasterImage, window: Rect | None = None,
                    apply=None) -> RasterImage:
    """Crop the source and run the effect chain, each step through
    apply(image, spec) (apply_effect by default): the photo's texture.

    Given a `window` of the content, the whole content by default, exactly
    its texels are made, as an image of the window's size: the chain runs
    on the window mapped back through it (effects.chain_window), whose
    input rect alone is read from the source (RasterImage.read), and each
    texel equals the same texel of the whole content.  A window that is
    empty or not inside the content raises ValueError before any read.
    """
    rect = crop_rect(photo, source)
    whole = Rect(0, 0, *chain_output_size(rect.w, rect.h, photo.effects))
    if window is None:
        window = whole
    elif window.is_empty() or window.intersect(whole) != window:
        raise ValueError(f"photo {photo.id!r}: window {window} is not inside its "
                         f"{whole.w}x{whole.h} content")
    src, steps = chain_window(rect.w, rect.h, photo.effects, window)
    # The read is already a copy, so an empty chain needs no second one.
    crop = None if src.is_empty() else source.read(rect.x + src.x, rect.y + src.y, src.w, src.h)
    return run_window(crop, steps, apply)


def is_opaque(photo: PhotoObject, source: RasterImage) -> bool:
    """Whether the photo's prepared content has alpha 255 everywhere: its
    crop of the source does and no step of its chain can lower alpha.  A
    source that is opaque by its format is trusted without a scan."""
    if lowers_alpha(photo.effects):
        return False
    rect = crop_rect(photo, source)
    return source.opaque_by_format or _all_opaque(source.packed[rect.y:rect.y2, rect.x:rect.x2])


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
    # A slope tiny enough to overflow a bound is an edge all but parallel to
    # the rows: +-inf bounds it correctly, and the caller clips it as any far bound.
    with np.errstate(over="ignore"):
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


class Footprint(NamedTuple):
    """Where a draw lands: screen centre (cx, cy), scaled size (sw, sh) and
    the outward-rounded box of the rotated rectangle."""

    cx: float
    cy: float
    sw: float
    sh: float
    box: Rect


def footprint(photo: PhotoObject, screen: ScreenSpec, center=None) -> Footprint:
    """The photo's Footprint, optionally at an overridden centre.  The box
    bounds every pixel draw_photo writes and is what the cost model charges
    for one draw."""
    dw, dh = display_size(photo)
    scale = float(screen.scale)
    cx, cy = to_screen(screen, photo.center if center is None else center)
    cx, cy, sw, sh = float(cx), float(cy), dw * scale, dh * scale
    return Footprint(cx, cy, sw, sh, outward_bbox(cx, cy, sw, sh, photo.angle))


def covered_tiles(photo: PhotoObject, screen: ScreenSpec, xs: np.ndarray,
                  ys: np.ndarray, fp: Footprint) -> np.ndarray:
    """Which tiles draw_photo writes in full: tile (i, j) holds the columns
    xs[j] to xs[j+1] and the rows ys[i] to ys[i+1], every tile non-empty.
    `fp` is the photo's footprint.

    Each tile row's covered tiles are one run: those whose first and last
    column lie in the inset spans of the tile row's first and last pixel
    rows (see the module docstring); the answer errs only towards not
    covered.
    """
    cx, cy, sw, sh, _ = fp
    cos_t, sin_t = _rotation(photo)
    margin = 2.0 * _slack(cx, cy, sw, sh, screen.width, screen.height)
    # Centres of each tile row's first and last pixel row, and where along
    # each of them both local coordinates lie `margin` inside the photo.
    py = np.stack([ys[:-1], ys[1:] - 1], axis=1).reshape(-1) + 0.5 - cy
    u_lo, u_hi = _edge_span(cos_t, py * sin_t + sw / 2.0, sw, -margin)
    v_lo, v_hi = _edge_span(-sin_t, py * cos_t + sh / 2.0, sh, -margin)
    lo = np.maximum(u_lo, v_lo).reshape(-1, 2).max(axis=1)
    hi = np.minimum(u_hi, v_hi).reshape(-1, 2).min(axis=1)
    # Centres of each tile's first and last column.
    first, last = xs[:-1] + 0.5 - cx, xs[1:] - 0.5 - cx
    return (first >= lo[:, None]) & (last <= hi[:, None])


class Plan(NamedTuple):
    """A draw made once, by `plan`: the photo's footprint and rotation, its
    box on the screen, the whole content's (width, height), the region's
    rects cut to where the draw may write, as an (n, 4) array of x0, y0,
    x1, y1, the lookups the draw reads on them, and the window, the rect
    of the content's texels the draw is given: the whole content, as
    `plan` makes it, or a run's (see backends._groups).

    An axis-aligned draw's lookups are (bx, by, sx, sy): its block of
    pixels inside the footprint starts at (bx, by), and sx and sy give the
    texel column and row of each of its columns and rows.  A rotated draw's
    are (rows, lo, hi, starts, eps, py_sin, py_cos, col_cos, col_sin): the
    spans of each rect's rows cut to its columns, relative to the box, one
    array for all rects with rect k's rows from starts[k], each entry's
    row of the box, the slack, and the per-row and per-column products of
    the box (see `_row_spans`).  Every rotated rect has a row with a span.
    """

    fp: Footprint
    rotation: tuple[float, float]
    box: Rect
    size: tuple[int, int]
    rects: np.ndarray
    lookups: tuple
    window: Rect

    @property
    def bounds(self) -> np.ndarray:
        """Per rect, the bounding rect of the content texels its pixels may
        sample (see the module docstring), as an (n, 4) array of x0, y0,
        x1, y1 in texels.  Made on each read, so a draw that needs no
        window pays nothing for it."""
        if not len(self.rects):
            return np.zeros((0, 4), dtype=np.intp)
        if self.rotation == (1.0, 0.0):
            # The lookups are monotone, so a rect samples exactly the texels
            # between the lookups of its first and last columns and rows.
            bx, by, sx, sy = self.lookups
            x0, y0, x1, y1 = self.rects.T
            return np.stack([sx[x0 - bx], sy[y0 - by], sx[x1 - 1 - bx] + 1,
                             sy[y1 - 1 - by] + 1], axis=1)
        # Along each row of a rect, l lies between its values at the two
        # ends of the row's cut span, formed as the draw forms them, and
        # every other pixel's l is within eps of that range.
        rows, lo, hi, starts, eps, py_sin, py_cos, col_cos, col_sin = self.lookups
        _, _, sw, sh, _ = self.fp
        spanned = lo < hi
        ends = (np.where(spanned, lo, 0), np.where(spanned, hi - 1, 0))
        lx = [col_cos[c] + py_sin[rows] + sw / 2.0 for c in ends]
        ly = [col_sin[c] + py_cos[rows] + sh / 2.0 for c in ends]
        at = starts[:-1]

        def reduced(l, s, size):
            low = np.minimum.reduceat(np.where(spanned, np.minimum(*l), np.inf), at)
            high = np.maximum.reduceat(np.where(spanned, np.maximum(*l), -np.inf), at)
            return (np.clip(_texels(low - eps, s, size) - 1, 0, size - 1),
                    np.clip(_texels(high + eps, s, size) + 1, 0, size - 1) + 1)

        (x0, x1), (y0, y1) = reduced(lx, sw, self.size[0]), reduced(ly, sh, self.size[1])
        return np.stack([x0, y0, x1, y1], axis=1)

    def sub(self, k0: int, k1: int) -> "Plan":
        """The plan of the draw on rects k0 to k1 only, on the same lookups
        and window."""
        lookups = self.lookups
        if self.rotation != (1.0, 0.0):
            rows, lo, hi, starts, *rest = lookups
            s0, s1 = starts[k0], starts[k1]
            lookups = (rows[s0:s1], lo[s0:s1], hi[s0:s1], starts[k0:k1 + 1] - s0, *rest)
        return self._replace(rects=self.rects[k0:k1], lookups=lookups)


def plan(photo: PhotoObject, screen: ScreenSpec, region, fp: Footprint,
         size: tuple[int, int]) -> Plan:
    """The Plan of drawing the photo, at footprint `fp`, with a content of
    `size` (width, height) on the screen, on `region` (a sequence of
    disjoint Rects; None for the whole box)."""
    box = fp.box.intersect(Rect(0, 0, screen.width, screen.height))
    corners = np.array([(box.x, box.y, box.x2, box.y2)] if region is None else
                       [(r.x, r.y, r.x + r.w, r.y + r.h) for r in region],
                       dtype=np.intp).reshape(-1, 4)
    cos_t, sin_t = rotation = _rotation(photo)
    if cos_t == 1.0 and sin_t == 0.0:
        rects, lookups = _plan_axis(fp, box, corners, size)
    else:
        eps = _slack(fp.cx, fp.cy, fp.sw, fp.sh, screen.width, screen.height)
        rects, lookups = _plan_rotated(fp, box, corners, cos_t, sin_t, eps)
    return Plan(fp, rotation, box, size, rects, lookups, Rect(0, 0, *size))


def _cut(corners: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """The rects given by their corners cut to the rect x0, y0, x1, y1;
    those left empty are dropped."""
    cut = np.maximum(corners, (x0, y0, x0, y0))
    np.minimum(cut, (x1, y1, x1, y1), out=cut)
    return cut[(cut[:, 0] < cut[:, 2]) & (cut[:, 1] < cut[:, 3])]


def _axis_lookup(start: int, n: int, c: float, s: float, size: int):
    """Along one axis of an axis-aligned draw, the offset of the first of
    the n pixels from `start` that lie inside the footprint, and the
    texel index of each pixel inside (the pixels inside are contiguous)."""
    lv = (np.arange(start, start + n, dtype=np.float64) + 0.5 - c) + s / 2.0
    inside = np.flatnonzero((lv >= 0) & (lv < s))
    if not len(inside):
        return 0, inside
    lv = lv[inside[0]:inside[-1] + 1]
    # 0 <= lv < s, so the index is in 0..size-1 (see the module docstring).
    return int(inside[0]), (lv / s * size).astype(np.intp)


def _plan_axis(fp: Footprint, box: Rect, corners: np.ndarray, size):
    """An axis-aligned draw's rects, cut to its block of pixels inside the
    footprint, and its lookups."""
    x0, sx = _axis_lookup(box.x, box.w, fp.cx, fp.sw, size[0])
    y0, sy = _axis_lookup(box.y, box.h, fp.cy, fp.sh, size[1])
    bx, by = box.x + x0, box.y + y0
    return _cut(corners, bx, by, bx + len(sx), by + len(sy)), (bx, by, sx, sy)


def _plan_rotated(fp: Footprint, box: Rect, corners: np.ndarray, cos_t: float,
                  sin_t: float, eps: float):
    """A rotated draw's rects, cut to its box and kept where a row has a
    span, and its lookups."""
    rects = _cut(corners, box.x, box.y, box.x2, box.y2)
    if not len(rects):
        return rects, None
    x0, x1, *products = _row_spans(fp, box, cos_t, sin_t, eps)
    # Every rect's rows, relative to the box, in one array.
    heights = rects[:, 3] - rects[:, 1]
    ends = np.cumsum(heights)
    rows = np.arange(ends[-1]) - np.repeat(ends - heights, heights)
    rows += np.repeat(rects[:, 1] - box.y, heights)
    lo = np.maximum(x0[rows], np.repeat(rects[:, 0] - box.x, heights))
    hi = np.minimum(x1[rows], np.repeat(rects[:, 2] - box.x, heights))
    empty = lo >= hi
    kept = np.logical_or.reduceat(~empty, ends - heights)
    if not kept.all():
        if not kept.any():
            return rects[:0], None
        rows, lo, hi, empty = (a[np.repeat(kept, heights)] for a in (rows, lo, hi, empty))
        rects, ends = rects[kept], np.cumsum(heights[kept])
    # A row without a span gets lo = box.w and hi = 0, so it widens no band.
    lo[empty], hi[empty] = box.w, 0
    return rects, (rows, lo, hi, np.concatenate(([0], ends)), eps, *products)


def _texels(v: np.ndarray, s: float, size: int) -> np.ndarray:
    """floor(v / s * size), the texel index of each local coordinate in v,
    kept within one texel of the content."""
    return np.floor(np.clip(v / s * size, -1.0, size + 1.0)).astype(np.intp)


def draw_photo(frame: Frame, photo: PhotoObject, content: RasterImage,
               screen: ScreenSpec, planned: Plan | None = None) -> None:
    """Composite prepared content onto the frame at the photo's transform.

    `planned` is the draw's Plan, made here when not given, on the whole
    box and with `content` as the whole content; the kernel runs on each
    of its rects.  Pixels outside the rotated footprint, and outside every
    rect, are untouched; a pixel inside both is written exactly as by a
    draw on the whole box from the whole content.  `content` holds exactly
    the texels of the plan's window, which the draw samples at the
    window's offset; content of another size raises ValueError.
    """
    if planned is None:
        planned = plan(photo, screen, None, footprint(photo, screen),
                       (content.width, content.height))
    window = planned.window
    if (content.width, content.height) != (window.w, window.h):
        raise ValueError(f"photo {photo.id!r}: content is {content.width}x{content.height}, "
                         f"its plan's window {window.w}x{window.h}")
    if not len(planned.rects):
        return
    if planned.rotation == (1.0, 0.0):
        _draw_axis(frame, content, planned)
    else:
        _draw_rotated(frame, content, planned)


def _draw_axis(frame: Frame, content: RasterImage, planned: Plan) -> None:
    """An axis-aligned draw on its rects: the texel lookup separates into
    one column and one row lookup over the block, sliced per rect, each
    taken relative to the window."""
    bx, by, sx, sy = planned.lookups
    sx, sy = sx - planned.window.x, sy - planned.window.y
    texels, pixels = content.packed, frame.packed
    for x0, y0, x1, y1 in planned.rects.tolist():
        _composite(pixels, (slice(y0, y1), slice(x0, x1)),
                   texels.take(sy[y0 - by:y1 - by], axis=0).take(sx[x0 - bx:x1 - bx], axis=1))


def _row_spans(fp: Footprint, box: Rect, cos_t: float, sin_t: float, eps: float):
    """What a rotated draw forms once over its box: each row's conservative
    span of columns [x0, x1), relative to the box, and the products
    py*sin and py*cos per row and px*cos and -px*sin per column.

    For the row's pixel centres t = x + 0.5 - cx, lx and ly are linear in
    t; each edge inequality is solved for t with the slack `eps`, far above
    float64 rounding, and the span widened by a pixel on each side.  The
    inside test decides every pixel.
    """
    cx, cy, sw, sh, _ = fp
    py = np.arange(box.y, box.y2, dtype=np.float64) + 0.5 - cy
    py_sin, py_cos = py * sin_t, py * cos_t
    u_lo, u_hi = _edge_span(cos_t, py_sin + sw / 2.0, sw, eps)
    v_lo, v_hi = _edge_span(-sin_t, py_cos + sh / 2.0, sh, eps)
    t0 = box.x + 0.5 - cx
    x0 = np.clip(np.floor(np.maximum(u_lo, v_lo) - t0) - 1.0, 0, box.w).astype(np.intp)
    x1 = np.clip(np.ceil(np.minimum(u_hi, v_hi) - t0) + 2.0, 0, box.w).astype(np.intp)
    px = np.arange(box.x, box.x2) + 0.5 - cx
    return x0, x1, py_sin, py_cos, px * cos_t, -px * sin_t


def _draw_rotated(frame: Frame, content: RasterImage, planned: Plan) -> None:
    """A rotated draw on its rects, from the plan's cut spans and per-row
    and per-column products: bands of rows on each rect."""
    _, _, sw, sh, _ = planned.fp
    box = planned.box
    width, height = planned.size
    _, lo, hi, starts, _, py_sin, py_cos, col_cos, col_sin = planned.lookups
    cw = content.width
    # Texel (x, y) of the content is texel (x - window.x, y - window.y) of
    # the window, at flat index y * cw + x - shift, exact in integers.
    shift = planned.window.y * cw + planned.window.x
    texels = content.packed.reshape(-1)
    pixels = frame.packed

    # Each band of rows evaluates the full-grid expressions densely on the
    # union of its rows' spans: a column's products and a row's products
    # are formed once, then added in the grid's order.  Bands are disjoint,
    # so they may run in any order and on any thread.
    bands = []
    for (x0, y0, x1, y1), s0, s1 in zip(planned.rects.tolist(), starts[:-1].tolist(),
                                        starts[1:].tolist()):
        r0, r1 = y0 - box.y, y1 - box.y
        rows = _strip_rows(x1 - x0)
        at = np.arange(0, s1 - s0, rows)
        for b0, c0, c1 in zip((at + r0).tolist(), np.minimum.reduceat(lo[s0:s1], at).tolist(),
                              np.maximum.reduceat(hi[s0:s1], at).tolist()):
            if c0 < c1:
                bands.append((b0, min(b0 + rows, r1), c0, c1))

    def band(i: int) -> None:
        b0, b1, c0, c1 = bands[i]
        lx = np.add(col_cos[c0:c1], py_sin[b0:b1, None])
        lx += sw / 2.0
        ly = np.add(col_sin[c0:c1], py_cos[b0:b1, None])
        ly += sh / 2.0
        inside = (lx >= 0) & (lx < sw) & (ly >= 0) & (ly < sh)

        # Texel index floor(l / s * size).  On an inside pixel it is in
        # 0..size-1 without a clamp (see the module docstring); an outside
        # pixel's index is any, and take's clip keeps it in bounds.
        for v, s, size in ((lx, sw, width), (ly, sh, height)):
            v /= s
            v *= size
        sx, sy = lx.astype(np.intp), ly.astype(np.intp)
        sy *= cw
        sy += sx
        if shift:
            sy -= shift
        got = texels.take(sy, mode="clip")
        dst = pixels[box.y + b0:box.y + b1, box.x + c0:box.x + c1]
        if _all_opaque(got):
            np.copyto(dst, got, where=inside)
        else:
            _composite(dst, inside, got[inside])

    if sum((b1 - b0) * (c1 - c0) for b0, b1, c0, c1 in bands) >= SHARED_PX:
        _shared(len(bands), band)
    else:
        for i in range(len(bands)):
            band(i)
