import math
import random
from dataclasses import replace

import pytest

from scrapbook import effects as fx
from scrapbook.geometry import Rect, rotated_extents, round_half_up
from scrapbook.photo import (EmptyCropError, PhotoError, PhotoObject,
                             UnresolvedSourceError, crop_photo, display_size,
                             effect_pixels, move_to, photo_bbox, rotate_by,
                             scale_to, source_rect)


def make_photo(w=576, h=384, **kw):
    defaults = dict(id="p", source="img.ppm", source_size=(w, h), center=(512.0, 384.0))
    defaults.update(kw)
    return PhotoObject(**defaults)


# --- rounding rule ----------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (0.5, 1), (1.5, 2), (2.4, 2), (-0.5, 0), (-1.5, -1), (3.0, 3),
])
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


# --- crop -------------------------------------------------------------------

def test_crop_inside_source():
    photo = crop_photo(make_photo(), Rect(50, 50, 300, 300))
    assert photo.crop == Rect(50, 50, 300, 300)
    assert display_size(photo) == (300, 300)


def test_identity_crop():
    photo = crop_photo(make_photo(480, 360), Rect(0, 0, 480, 360))
    assert photo.crop == Rect(0, 0, 480, 360)
    assert display_size(photo) == (480, 360)


def test_crop_clamped_by_intersection():
    # rectangle-intersection oracle: x in [500,576) -> 76, y in [300,384) -> 84
    photo = crop_photo(make_photo(), Rect(500, 300, 300, 300))
    assert photo.crop == Rect(500, 300, 76, 84)


def test_crop_clamp_matches_intersection_oracle():
    rng = random.Random(31337)
    bounds = Rect(0, 0, 576, 384)
    for _ in range(300):
        rect = Rect(rng.randint(-100, 700), rng.randint(-100, 500),
                    rng.randint(1, 400), rng.randint(1, 400))
        expected = rect.intersect(bounds)
        if expected.is_empty():
            with pytest.raises(EmptyCropError):
                crop_photo(make_photo(), rect)
        else:
            assert crop_photo(make_photo(), rect).crop == expected


def test_crop_outside_source_errors():
    with pytest.raises(EmptyCropError):
        crop_photo(make_photo(), Rect(600, 0, 10, 10))
    with pytest.raises(PhotoError):
        crop_photo(make_photo(), Rect(0, 0, 0, 5))


def test_crop_requires_source_size():
    bare = PhotoObject(id="p", source="img.ppm")
    with pytest.raises(UnresolvedSourceError):
        crop_photo(bare, Rect(0, 0, 10, 10))
    with pytest.raises(UnresolvedSourceError):
        display_size(bare)


# --- transforms ---------------------------------------------------------------

def test_rotate_accumulates_and_inverts():
    photo = rotate_by(rotate_by(make_photo(), 70), -70)
    assert photo.angle == 0.0
    assert rotate_by(make_photo(), 430).display_angle == pytest.approx(70.0)


def test_scale_sets_display_dimensions():
    photo = scale_to(make_photo(900, 600), 0.8)
    assert display_size(photo) == (720, 480)


def test_move_sets_center():
    photo = move_to(make_photo(), 512, 384)
    assert photo.center == (512.0, 384.0)


def test_nonpositive_scale_rejected():
    with pytest.raises(PhotoError):
        scale_to(make_photo(), 0)
    with pytest.raises(PhotoError):
        scale_to(make_photo(), -2)
    with pytest.raises(PhotoError):
        PhotoObject(id="x", source="s", scale=-1)


def test_transforms_touch_one_field_each():
    base = make_photo()
    rotated = rotate_by(base, 33)
    assert (rotated.center, rotated.scale, rotated.crop) == (base.center, base.scale, base.crop)
    scaled = scale_to(base, 2)
    assert (scaled.center, scaled.angle) == (base.center, base.angle)
    moved = move_to(base, 1, 2)
    assert (moved.scale, moved.angle) == (base.scale, base.angle)


def test_action_order_commutes():
    rng = random.Random(99)
    for _ in range(50):
        x, y = rng.uniform(0, 1024), rng.uniform(0, 768)
        deg = rng.uniform(-360, 360)
        factor = rng.uniform(0.1, 3)
        actions = [lambda p: move_to(p, x, y),
                   lambda p: rotate_by(p, deg),
                   lambda p: scale_to(p, factor)]
        rng.shuffle(actions)
        photo = make_photo()
        for act in actions:
            photo = act(photo)
        reference = scale_to(rotate_by(move_to(make_photo(), x, y), deg), factor)
        assert photo == reference


def test_display_size_never_below_one():
    tiny = scale_to(make_photo(4, 4), 0.01)
    assert display_size(tiny) == (1, 1)


def test_display_size_includes_border_growth():
    photo = make_photo(100, 80, effects=(fx.border(5, (0, 0, 0, 255)),))
    assert display_size(photo) == (110, 90)
    assert effect_pixels(photo) == 110 * 90


# --- bounding boxes -----------------------------------------------------------

def test_bbox_axis_aligned():
    photo = make_photo(100, 80, center=(500.0, 400.0))
    assert photo_bbox(photo) == Rect(450, 360, 100, 80)


def test_bbox_90_degrees_swaps_extents():
    photo = rotate_by(make_photo(100, 80, center=(500.0, 400.0)), 90)
    box = photo_bbox(photo)
    # trig noise at 90 deg stays within the outward rounding
    assert (box.w, box.h) in ((80, 100), (81, 100), (80, 101), (81, 101))


def test_extents_70_degrees():
    w, h = rotated_extents(480, 360, 70)
    assert (math.ceil(w), math.ceil(h)) == (503, 575)


def corner_bbox_oracle(cx, cy, w, h, deg):
    theta = math.radians(deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    xs, ys = [], []
    for sx in (-0.5, 0.5):
        for sy in (-0.5, 0.5):
            x, y = sx * w, sy * h
            xs.append(cx + x * cos_t - y * sin_t)
            ys.append(cy + x * sin_t + y * cos_t)
    return (math.floor(min(xs)), math.floor(min(ys)),
            math.ceil(max(xs)), math.ceil(max(ys)))


def test_bbox_matches_corner_transform_oracle():
    rng = random.Random(4242)
    for _ in range(1000):
        w = rng.randint(1, 1400)
        h = rng.randint(1, 900)
        deg = rng.uniform(-720, 720)
        cx, cy = rng.uniform(-200, 1200), rng.uniform(-200, 900)
        photo = PhotoObject(id="p", source="s", source_size=(w, h),
                            center=(cx, cy), angle=deg)
        box = photo_bbox(photo)
        ox1, oy1, ox2, oy2 = corner_bbox_oracle(cx, cy, w, h, deg)
        assert abs(box.x - ox1) <= 1
        assert abs(box.y - oy1) <= 1
        assert abs(box.x2 - ox2) <= 1
        assert abs(box.y2 - oy2) <= 1


def test_effect_pixels_counts_chain():
    photo = make_photo(100, 80, effects=(fx.invert(), fx.grayscale()))
    assert effect_pixels(photo) == 2 * 100 * 80
    cropped = crop_photo(photo, Rect(0, 0, 50, 40))
    assert effect_pixels(cropped) == 2 * 50 * 40


def test_overhanging_crop_is_clamped_for_size_and_charge():
    """Size, charge and pixels all follow the crop clamped into the source,
    as crop_photo clamps it."""
    photo = make_photo(8, 6, crop=Rect(0, 0, 40, 30), scale=4.0, effects=(fx.sepia(),))
    assert source_rect(photo) == crop_photo(photo, Rect(0, 0, 40, 30)).crop == Rect(0, 0, 8, 6)
    assert display_size(photo) == (32, 24)
    assert effect_pixels(photo) == 8 * 6
    with pytest.raises(EmptyCropError):
        source_rect(replace(photo, crop=Rect(8, 0, 4, 4)))
