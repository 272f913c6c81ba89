"""Seeded differential test: the span rasterizer against the mgrid kernel.

`mgrid_draw_photo` is the full-bounding-box kernel the span rasterizer
replaced, kept here verbatim as a test-only oracle.  Every case draws onto
a random background and requires bitwise equality of the whole frame.
"""

import math
import random
import warnings

import numpy as np
import pytest

from scrapbook.geometry import Rect, outward_bbox
from scrapbook.image import RasterImage
from scrapbook.photo import PhotoObject, display_size
from scrapbook.raster import Frame, draw_photo
from scrapbook.viewport import ScreenSpec, to_screen, to_standard

CASES = 2000
SPECIAL_ANGLES = (0.0, 90.0, -90.0, 180.0, 360.0, 1e-9, 89.9999, -111.8)


def _mgrid_composite(region, texels, inside):
    alpha_bytes = texels[:, :, 3]
    if (alpha_bytes == 255).all():
        if inside is None:
            region[:] = texels[:, :, :3]
        else:
            region[inside] = texels[:, :, :3][inside]
        return
    alpha = alpha_bytes[:, :, None].astype(np.float64) / 255.0
    blended = np.floor(texels[:, :, :3] * alpha
                       + region.astype(np.float64) * (1.0 - alpha) + 0.5)
    if inside is None:
        region[:] = blended.astype(np.uint8)
    else:
        region[inside] = blended.astype(np.uint8)[inside]


def mgrid_draw_photo(frame, photo, content, screen):
    dw, dh = display_size(photo)
    scale = float(screen.scale)
    sw, sh = dw * scale, dh * scale
    cx, cy = to_screen(screen, photo.center)
    cx, cy = float(cx), float(cy)

    bbox = outward_bbox(cx, cy, sw, sh, photo.angle)
    clip = bbox.intersect(Rect(0, 0, frame.width, frame.height))
    if clip.is_empty():
        return

    theta = math.radians(photo.angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    src = content.array

    if cos_t == 1.0 and sin_t == 0.0:
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
        sx = np.clip(np.floor(lx[c0:c1] / sw * content.width),
                     0, content.width - 1).astype(np.intp)
        sy = np.clip(np.floor(ly[r0:r1] / sh * content.height),
                     0, content.height - 1).astype(np.intp)
        texels = src[sy[:, None], sx[None, :]]
        region = frame.rgb[clip.y + r0:clip.y + r1, clip.x + c0:clip.x + c1]
        _mgrid_composite(region, texels, None)
        return

    ys, xs = np.mgrid[clip.y:clip.y2, clip.x:clip.x2]
    px = xs + 0.5 - cx
    py = ys + 0.5 - cy
    lx = px * cos_t + py * sin_t + sw / 2.0
    ly = -px * sin_t + py * cos_t + sh / 2.0

    inside = (lx >= 0) & (lx < sw) & (ly >= 0) & (ly < sh)
    if not inside.any():
        return

    sx = np.clip(np.floor(lx / sw * content.width), 0, content.width - 1).astype(np.intp)
    sy = np.clip(np.floor(ly / sh * content.height), 0, content.height - 1).astype(np.intp)
    texels = src[sy, sx]
    region = frame.rgb[clip.y:clip.y2, clip.x:clip.x2]
    _mgrid_composite(region, texels, inside)


def _content(rng: random.Random, nprng, translucent: bool) -> RasterImage:
    shape = rng.choice(("wide", "tall", "any", "any", "any"))
    w = 1 if shape == "tall" else rng.randint(1, 40)
    h = 1 if shape == "wide" else rng.randint(1, 40)
    arr = nprng.integers(0, 256, (h, w, 4), dtype=np.uint8)
    if not translucent:
        arr[:, :, 3] = 255
    elif rng.random() < 0.5:
        arr[:, :, 3] |= 0x80  # mostly opaque, with a few fully opaque texels
    return RasterImage.from_array(arr)


def _angle(rng: random.Random) -> float:
    if rng.random() < 0.4:
        return rng.choice(SPECIAL_ANGLES)
    return rng.uniform(-720.0, 720.0)


def _case(seed: int):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    fw, fh = rng.randint(1, 90), rng.randint(1, 70)
    fit = rng.random() < 0.5
    screen = ScreenSpec.fit(fw, fh) if fit else ScreenSpec.identity(fw, fh)
    content = _content(rng, nprng, translucent=rng.random() < 0.3)
    # Centres reach well past the frame, so photos land partly or fully
    # off-screen; the on-screen scale is 0.25 to 2 on either screen.
    cx, cy = to_standard(screen, (rng.uniform(-30, fw + 30), rng.uniform(-30, fh + 30)))
    photo = PhotoObject(id="p", source="s", source_size=(content.width, content.height),
                        scale=rng.uniform(0.25, 2.0) / float(screen.scale),
                        angle=_angle(rng), center=(float(cx), float(cy)))
    background = nprng.integers(0, 256, (fh, fw, 3), dtype=np.uint8)
    return photo, content, screen, background


def _draw_both(photo, content, screen, background):
    want = Frame(screen.width, screen.height)
    want.rgb[:] = background
    got = want.copy()
    mgrid_draw_photo(want, photo, content, screen)
    draw_photo(got, photo, content, screen)
    return got, want


@pytest.mark.parametrize("block", range(4))
def test_span_kernel_matches_mgrid_kernel(block):
    per_block = CASES // 4
    for seed in range(block * per_block, (block + 1) * per_block):
        photo, content, screen, background = _case(seed)
        got, want = _draw_both(photo, content, screen, background)
        assert np.array_equal(got.rgb, want.rgb), f"seed {seed}: {photo}"
        assert (got.array[..., 3] == 255).all(), f"seed {seed}: alpha changed"


@pytest.mark.parametrize("angle", SPECIAL_ANGLES + (45.0, -30.0, 1e-13, 270.0))
@pytest.mark.parametrize("content_size", [(1, 17), (17, 1), (1, 1), (23, 11)])
def test_special_angles_and_thin_content(angle, content_size):
    nprng = np.random.default_rng(7)
    arr = nprng.integers(0, 256, content_size[::-1] + (4,), dtype=np.uint8)
    content = RasterImage.from_array(arr)
    screen = ScreenSpec.identity(64, 48)
    background = nprng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    for center in ((32.0, 24.0), (0.0, 0.0), (63.5, 47.5), (-5.0, 30.0), (31.25, 23.75)):
        for scale in (0.25, 1.0, 2.0):
            photo = PhotoObject(id="p", source="s", source_size=content_size,
                                scale=scale, angle=angle, center=center)
            got, want = _draw_both(photo, content, screen, background)
            assert np.array_equal(got.rgb, want.rgb), f"{angle} {center} {scale}"
            assert (got.array[..., 3] == 255).all(), f"{angle} {center} {scale}"


# Angles so close to zero that an edge's span bound overflows to +-inf.
TINY_ANGLES = (1e-306, 1e-307, 3e-308, -1e-306, -3e-308)


@pytest.mark.parametrize("angle", TINY_ANGLES)
def test_tiny_angles_match_mgrid_kernel_without_warnings(angle):
    nprng = np.random.default_rng(11)
    content = RasterImage.from_array(nprng.integers(0, 256, (30, 40, 4), dtype=np.uint8))
    screen = ScreenSpec.identity(400, 400)
    background = nprng.integers(0, 256, (400, 400, 3), dtype=np.uint8)
    for center in ((200.0, 200.0), (0.0, 0.0), (399.5, 200.25), (-10.0, 390.0)):
        for scale in (0.5, 1.0, 3.0):
            photo = PhotoObject(id="p", source="s", source_size=(40, 30),
                                scale=scale, angle=angle, center=center)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, want = _draw_both(photo, content, screen, background)
            assert np.array_equal(got.rgb, want.rgb), f"{angle} {center} {scale}"


@pytest.mark.parametrize("block", range(2))
def test_clipped_draw_is_the_full_draw_inside_the_clip(block):
    per_block = CASES // 8
    for seed in range(block * per_block, (block + 1) * per_block):
        photo, content, screen, background = _case(seed)
        rng = random.Random(~seed)
        x0, x1 = sorted(rng.randint(-10, screen.width + 10) for _ in range(2))
        y0, y1 = sorted(rng.randint(-10, screen.height + 10) for _ in range(2))
        clip = Rect(x0, y0, x1 - x0, y1 - y0)
        full = Frame(screen.width, screen.height)
        full.rgb[:] = background
        clipped = full.copy()
        draw_photo(full, photo, content, screen)
        draw_photo(clipped, photo, content, screen, clip)
        inside = np.zeros((screen.height, screen.width), dtype=bool)
        inside[max(y0, 0):max(y1, 0), max(x0, 0):max(x1, 0)] = True
        assert np.array_equal(clipped.rgb[inside], full.rgb[inside]), f"seed {seed}: {clip}"
        assert np.array_equal(clipped.rgb[~inside], background[~inside]), f"seed {seed}: {clip}"
