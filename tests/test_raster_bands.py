"""The banded rotated-draw kernel against the flat span kernel it replaced.

`span_draw_photo` is the one-pass span kernel as it stood before rotated
draws ran in dense row bands, kept here verbatim as a test-only oracle,
as `mgrid_draw_photo` is for the full-grid kernel.  The property draws
onto a random background and requires bitwise equality of the whole
frame; its generator is derandomized and aims at band edges: clip heights
of one row and of k bands with one row less, none or one more, clips
wider than a band, edge-on angles and angles so small that a span bound
overflows.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import raster
from scrapbook.geometry import Rect
from scrapbook.image import STRIP_PX, RasterImage, _strip_rows
from scrapbook.photo import PhotoObject
from scrapbook.raster import (Frame, _composite, _edge_span, _rotation, _slack, draw_photo,
                              footprint)
from scrapbook.viewport import ScreenSpec

from test_strips import workers

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


# --- test-only span oracle ------------------------------------------------

def span_draw_photo(frame, photo, content, screen, clip=None):
    """draw_photo as one pass of the span kernel, whatever the draw's size."""
    cx, cy, sw, sh, bbox = footprint(photo, screen)
    frame_rect = Rect(0, 0, frame.width, frame.height)
    clip = bbox.intersect(frame_rect if clip is None else clip.intersect(frame_rect))
    if clip.is_empty():
        return
    cos_t, sin_t = _rotation(photo)
    span_draw_clipped(frame, content, clip, cx, cy, sw, sh, cos_t, sin_t)


def span_draw_clipped(frame, content, clip, cx, cy, sw, sh, cos_t, sin_t):
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


# --- generators -----------------------------------------------------------

ANGLES = (st.sampled_from([0.0, 90.0, -90.0, 180.0, -111.8, 45.0, 1e-9, 1e-306, -1e-306, 3e-308])
          | st.floats(-360, 360))


@st.composite
def band_edge_draws(draw):
    """A clip at band edges inside a photo's box, so the clipped box is
    the clip.  Centres on a quarter-pixel grid put pixel centres exactly
    on edges at the edge-on angles."""
    width = draw(st.sampled_from([1, 3, 97, 256, 1000, STRIP_PX + 5]) | st.integers(1, 600))
    rows = _strip_rows(width)
    k = draw(st.integers(1, 3))
    height = max(1, draw(st.sampled_from([1, k * rows - 1, k * rows, k * rows + 1])))
    margin = draw(st.sampled_from([0, 1, 3]))
    clip = Rect(margin, margin, width, height)
    screen = ScreenSpec.identity(width + 2 * margin, height + 2 * margin)
    cw, ch = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    # Every side of the photo is at least width + height + 4, so its box
    # holds the clip at any angle while the clip stays inside the photo's
    # unrotated square about the same centre; the centre moves by up to
    # that much, so a rotated photo's edges and corners cross the clip.
    side = width + height + 4
    scale = side / min(cw, ch) * draw(st.sampled_from([1.0, 1.25]))
    cx, cy = (round((margin + n / 2.0 + draw(st.sampled_from([-1, -0.75, -0.5, 0, 0.5, 1]))
                     * (side - n - 2) / 2.0) * 4) / 4 for n in (width, height))
    photo = PhotoObject(id="p", source="s", source_size=(cw, ch), scale=scale,
                        angle=draw(ANGLES), center=(cx, cy))
    assert footprint(photo, screen)[4].intersect(clip) == clip
    return photo, (cw, ch), screen, clip


@st.composite
def free_draws(draw):
    """A photo anywhere around a frame, partly or wholly off-screen, with
    or without a clip narrower than its box."""
    fw, fh = draw(st.sampled_from([(600, 400), (301, 700), (1, 300), (2000, 90),
                                   (STRIP_PX + 5, 3)]))
    screen = ScreenSpec.identity(fw, fh)
    cw, ch = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    scale = draw(st.floats(0.25, 4.0)) * min(max(fw, fh), 2000) / max(cw, ch)
    center = (draw(st.floats(-50, fw + 50)), draw(st.floats(-50, fh + 50)))
    photo = PhotoObject(id="p", source="s", source_size=(cw, ch), scale=scale,
                        angle=draw(ANGLES), center=center)
    clip = None
    if draw(st.booleans()):
        x0, x1 = sorted(draw(st.integers(-10, fw + 10)) for _ in range(2))
        y0, y1 = sorted(draw(st.integers(-10, fh + 10)) for _ in range(2))
        clip = Rect(x0, y0, x1 - x0, y1 - y0)
    return photo, (cw, ch), screen, clip


def _sampled_texels(photo, cw, ch, screen, clip):
    """The texels that the draw's inside pixels sample: draw content whose
    colour is its texel index onto black and onto white; the pixels the
    two frames agree on were written, and their colours name the texels."""
    index = np.arange(cw * ch).reshape(ch, cw)
    arr = np.stack([index & 255, index >> 8 & 255, index >> 16, np.full_like(index, 255)], -1)
    content = RasterImage.from_array(arr.astype(np.uint8))
    black, white = Frame(screen.width, screen.height), Frame(screen.width, screen.height)
    black.rgb[:] = 0
    span_draw_photo(black, photo, content, screen, clip)
    span_draw_photo(white, photo, content, screen, clip)
    rgb = black.rgb[(black.rgb == white.rgb).all(axis=-1)].astype(np.intp)
    return np.unique(rgb[:, 0] | rgb[:, 1] << 8 | rgb[:, 2] << 16)


def _content(nprng, alpha, photo, cw, ch, screen, clip):
    arr = nprng.integers(0, 256, (ch, cw, 4), dtype=np.uint8)
    if alpha != "any":
        arr[..., 3] = 255
    if alpha == "translucent where unsampled":
        # Opaque wherever an inside pixel samples, translucent elsewhere:
        # a band may gather a translucent texel for a pixel it never writes.
        unsampled = np.ones(cw * ch, dtype=bool)
        unsampled[_sampled_texels(photo, cw, ch, screen, clip)] = False
        arr.reshape(-1, 4)[unsampled, 3] = nprng.integers(0, 255, int(unsampled.sum()))
    return RasterImage.from_array(arr)


# --- bands equal the span kernel ------------------------------------------

@pytest.mark.parametrize("n", [None, 1, 2])
@PROPERTY
@given(case=band_edge_draws() | free_draws(),
       alpha=st.sampled_from(["opaque", "any", "translucent where unsampled"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_banded_draw_equals_span_draw(n, case, alpha, seed):
    """The clip is a region of one rect.  A draw is one pass on the calling
    thread whatever the worker count: n None leaves it as the host has it,
    n 1 or 2 sets it to one or two."""
    photo, (cw, ch), screen, clip = case
    nprng = np.random.default_rng(seed)
    content = _content(nprng, alpha, photo, cw, ch, screen, clip)
    want = Frame(screen.width, screen.height)
    want.rgb[:] = nprng.integers(0, 256, (screen.height, screen.width, 3), dtype=np.uint8)
    got = want.copy()
    span_draw_photo(want, photo, content, screen, clip)
    with workers(n) if n else nullcontext():
        draw_photo(got, photo, content, screen, raster.plan(
            photo, screen, None if clip is None else [clip], footprint(photo, screen),
            (content.width, content.height)))
    assert got == want, (photo, clip)


def test_translucent_texels_that_no_inside_pixel_samples_take_the_blend():
    """A band of a rotated draw gathers texels for pixels outside the
    footprint too.  Here those include translucent ones that no inside
    pixel samples, so the band blends its opaque inside texels, which
    gives the texels themselves: the frame equals the span kernel's."""
    screen = ScreenSpec.identity(300, 200)
    photo = PhotoObject(id="p", source="s", source_size=(20, 20), scale=40.0, angle=30.0,
                        center=(-100.0, 300.0))
    nprng = np.random.default_rng(3)
    content = _content(nprng, "translucent where unsampled", photo, 20, 20, screen, None)
    assert not raster._all_opaque(content.packed)
    want = Frame(300, 200)
    want.rgb[:] = nprng.integers(0, 256, (200, 300, 3), dtype=np.uint8)
    got = want.copy()
    span_draw_photo(want, photo, content, screen)
    gathered, blended = [], []
    all_opaque, composite = raster._all_opaque, raster._composite
    with mock.patch.object(raster, "_all_opaque", lambda texels: gathered.append(
            bool(all_opaque(texels))) or gathered[-1]), \
            mock.patch.object(raster, "_composite", lambda pixels, at, texels: blended.append(
                bool(all_opaque(texels))) or composite(pixels, at, texels)):
        draw_photo(got, photo, content, screen)
    assert got == want
    assert False in gathered
    assert blended and all(blended)


def test_texel_index_of_an_inside_coordinate_needs_no_clamp():
    """The rounding fact that lets the kernel take floor(l / s * size) with
    no clamp: for doubles 0 <= l < s, fl(l / s) <= 1 - 2**-53, and then
    fl(fl(l / s) * size) < size for every whole size >= 1.  Checked
    exhaustively for l one to eight ulps below s, over widths s at powers
    of two and their neighbours from 2**-40 to 2**40, every whole s to 512
    and seeded draws from the sizes a photo takes, against every size to
    1024 and powers of two and their neighbours to 2**40."""
    rng = np.random.default_rng(53)
    powers = 2.0 ** np.arange(-40, 41)
    s = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                        np.arange(1.0, 513.0), rng.uniform(1.0, 2.0 ** 24, 1000),
                        rng.uniform(0.0, 1.0, 200) * 2.0 ** rng.integers(-30, 30, 200)])
    ints = 2 ** np.arange(11, 41)
    size = np.unique(np.concatenate([np.arange(1, 1025), ints - 1, ints, ints + 1]))
    size = size.astype(np.float64)
    assert s.min() > 0 and np.all(size < 2 ** 53)
    below_one = 1.0 - 2.0 ** -53
    assert np.nextafter(1.0, 0) == below_one
    lv = s.copy()
    for _ in range(8):
        lv = np.nextafter(lv, 0)
        # The kernel's order: v /= s, then v *= size, then truncate.
        ratio = lv / s
        assert np.all(ratio <= below_one)
        index = (ratio[:, None] * size[None, :]).astype(np.intp)
        assert np.all(index <= size.astype(np.intp) - 1)
