import math
import random

import numpy as np

from scrapbook import effects as fx
from scrapbook.image import RasterImage
from scrapbook.photo import PhotoObject, display_size
from scrapbook.raster import Frame, draw_photo, prepare_content
from scrapbook.viewport import ScreenSpec, to_screen

from conftest import random_image


def oracle_draw(frame_rgb, photo, content, screen):
    """Scalar reference for the sampling and compositing contract."""
    dw, dh = display_size(photo)
    scale = float(screen.scale)
    sw, sh = dw * scale, dh * scale
    cx, cy = to_screen(screen, photo.center)
    cx, cy = float(cx), float(cy)
    theta = math.radians(photo.angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    height, width = frame_rgb.shape[:2]
    out = frame_rgb.copy()
    for y in range(height):
        for x in range(width):
            px = x + 0.5 - cx
            py = y + 0.5 - cy
            lx = px * cos_t + py * sin_t + sw / 2.0
            ly = -px * sin_t + py * cos_t + sh / 2.0
            if not (0 <= lx < sw and 0 <= ly < sh):
                continue
            sx = min(max(int(math.floor(lx / sw * content.width)), 0), content.width - 1)
            sy = min(max(int(math.floor(ly / sh * content.height)), 0), content.height - 1)
            r, g, b, a = content.get_pixel(sx, sy)
            alpha = a / 255.0
            for c, s_val in enumerate((r, g, b)):
                d_val = out[y, x, c]
                out[y, x, c] = int(math.floor(s_val * alpha + d_val * (1 - alpha) + 0.5))
    return out


def test_draw_matches_scalar_oracle():
    rng = random.Random(777)
    screen = ScreenSpec.identity(48, 36)
    for trial in range(40):
        content = random_image(rng, max_side=12, opaque=trial % 3 == 0)
        photo = PhotoObject(
            id="p", source="s", source_size=(content.width, content.height),
            center=(rng.uniform(-5, 53), rng.uniform(-5, 41)),
            scale=rng.uniform(0.2, 3.0),
            angle=rng.choice([0.0, 90.0, rng.uniform(-360, 360)]))
        frame = Frame(48, 36)
        frame.rgb[:, :] = np.array([rng.randrange(256) for _ in range(3)], dtype=np.uint8)
        expected = oracle_draw(frame.rgb, photo, content, screen)
        draw_photo(frame, photo, content, screen)
        assert np.array_equal(frame.rgb, expected), f"trial {trial} diverged"


def test_fit_mapping_matches_scalar_oracle():
    rng = random.Random(778)
    screen = ScreenSpec.fit(96, 60)  # scale 60/768, offsets letterbox
    for _ in range(10):
        content = random_image(rng, max_side=10)
        photo = PhotoObject(id="p", source="s",
                            source_size=(content.width, content.height),
                            center=(rng.uniform(0, 1024), rng.uniform(0, 768)),
                            scale=rng.uniform(1, 40), angle=rng.uniform(0, 360))
        frame = Frame(96, 60)
        expected = oracle_draw(frame.rgb, photo, content, screen)
        draw_photo(frame, photo, content, screen)
        assert np.array_equal(frame.rgb, expected)


def test_out_of_footprint_untouched():
    screen = ScreenSpec.identity(40, 40)
    frame = Frame(40, 40)
    content = RasterImage.filled(4, 4, (0, 255, 0, 255))
    photo = PhotoObject(id="p", source="s", source_size=(4, 4),
                        center=(10.0, 10.0), angle=45.0)
    draw_photo(frame, photo, content, screen)
    assert (frame.rgb[30:, 30:] == 255).all()
    assert (frame.rgb[10, 10] == (0, 255, 0)).any()


def test_offscreen_photo_draws_nothing():
    screen = ScreenSpec.identity(20, 20)
    frame = Frame(20, 20)
    content = RasterImage.filled(4, 4, (1, 2, 3, 255))
    photo = PhotoObject(id="p", source="s", source_size=(4, 4), center=(100.0, 100.0))
    draw_photo(frame, photo, content, screen)
    assert (frame.rgb == 255).all()


def test_translucent_blend_value():
    screen = ScreenSpec.identity(4, 4)
    frame = Frame(4, 4)  # white
    content = RasterImage.filled(4, 4, (100, 0, 0, 128))
    photo = PhotoObject(id="p", source="s", source_size=(4, 4), center=(2.0, 2.0))
    draw_photo(frame, photo, content, screen)
    # floor(100*128/255 + 255*(1-128/255) + 0.5)
    alpha = 128 / 255
    want = math.floor(100 * alpha + 255 * (1 - alpha) + 0.5)
    assert frame.rgb[2, 2, 0] == want


def test_prepare_content_crops_then_applies_chain(rng):
    src = random_image(rng, max_side=20)
    from scrapbook.geometry import Rect
    w = max(1, src.width // 2)
    h = max(1, src.height // 2)
    photo = PhotoObject(id="p", source="s", source_size=(src.width, src.height),
                        crop=Rect(0, 0, w, h), effects=(fx.invert(),))
    content = prepare_content(photo, src)
    assert (content.width, content.height) == (w, h)
    cropped = RasterImage.from_array(src.array[0:h, 0:w])
    assert content == fx.apply_effect(cropped, fx.invert())


def test_frame_to_image_round_trip():
    # A frame is an opaque image: its rgb view writes the image's pixels.
    frame = Frame(3, 2)
    frame.rgb[0, 0] = (9, 8, 7)
    assert frame.get_pixel(0, 0) == (9, 8, 7, 255)
    assert frame.get_pixel(2, 1) == (255, 255, 255, 255)
