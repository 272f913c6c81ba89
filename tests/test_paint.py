"""The visible-surface paint pass against a plain back-to-front paint.

`plain_paint` prepares and draws every photo back to front, unclipped:
the paint pass without occlusion culling, kept here as the oracle.  The
property requires `backends._paint` to give the same frame bit for bit,
over the whole screen and inside a damage box, on random scenes with
rotated, off-screen and translucent photos.  Every generator is
derandomized, so each run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import backends
from scrapbook import effects as fx
from scrapbook.backends import BackendKind, _paint, render_full
from scrapbook.geometry import Rect
from scrapbook.image import RasterImage
from scrapbook.photo import EmptyCropError, PhotoObject
from scrapbook.raster import Frame, covered_tiles, draw_photo, prepare_content
from scrapbook.scene import SceneDocument
from scrapbook.viewport import ScreenSpec, to_standard

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

SPECIAL_ANGLES = (0.0, 90.0, -90.0, 180.0, 1e-9, 89.9999, -111.8)


def plain_paint(photos, sources, screen):
    frame = Frame(screen.width, screen.height)
    for photo in photos:
        draw_photo(frame, photo, prepare_content(photo, sources(photo.source)), screen)
    return frame


def _source(draw, nprng):
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    arr = nprng.integers(0, 256, (h, w, 4), dtype=np.uint8)
    alpha = draw(st.sampled_from(["opaque"] * 3 + ["one texel below 255", "any"]))
    if alpha != "any":
        arr[:, :, 3] = 255
    if alpha == "one texel below 255":
        arr[nprng.integers(h), nprng.integers(w), 3] = 254
    return RasterImage.from_array(arr)


EFFECTS = [fx.opacity(1.0), fx.opacity(0.5), fx.opacity(0.999),
           fx.border(1, (9, 200, 30, 255)), fx.border(2, (9, 200, 30, 0)),
           fx.border(3, (250, 10, 90, 128)), fx.invert(), fx.flip_h()]


def _center(draw, screen):
    """Centres anywhere from off the left or top edge to off the right or
    bottom one; whole and half pixels put pixel centres on photo edges."""
    def coord(size):
        return draw(st.integers(-30, size + 30)) + draw(
            st.sampled_from([0.0, 0.5]) | st.floats(0, 1, exclude_max=True))
    x, y = to_standard(screen, (coord(screen.width), coord(screen.height)))
    return float(x), float(y)


@st.composite
def scenes(draw):
    w, h = draw(st.integers(1, 120)), draw(st.integers(1, 100))
    screen = draw(st.sampled_from([ScreenSpec.identity, ScreenSpec.fit]))(w, h)
    nprng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sources, photos = {}, []
    for i in range(draw(st.integers(1, 8))):
        source = sources[f"s{i}"] = _source(draw, nprng)
        crop = None
        if draw(st.booleans()):
            x, y = draw(st.integers(0, source.width - 1)), draw(st.integers(0, source.height - 1))
            crop = Rect(x, y, draw(st.integers(1, 40)), draw(st.integers(1, 40)))
        angle = draw(st.sampled_from(SPECIAL_ANGLES) | st.floats(-360, 360, width=32))
        photos.append(PhotoObject(
            id=f"p{i}", source=f"s{i}", source_size=(source.width, source.height),
            crop=crop, scale=draw(st.floats(0.5, 4.0)) / float(screen.scale), angle=angle,
            center=_center(draw, screen),
            effects=tuple(draw(st.lists(st.sampled_from(EFFECTS), max_size=2)))))
    damage = None
    if draw(st.booleans()):
        x0, x1 = sorted(draw(st.integers(-20, w + 20)) for _ in range(2))
        y0, y1 = sorted(draw(st.integers(-20, h + 20)) for _ in range(2))
        damage = Rect(x0, y0, x1 - x0, y1 - y0)
    return photos, sources, screen, damage


@PROPERTY
@given(scenes())
def test_paint_equals_plain_back_to_front_paint(scene):
    photos, sources, screen, damage = scene
    want = plain_paint(photos, sources.__getitem__, screen)
    if damage is None:
        got = _paint(photos, sources.__getitem__, screen)
    else:
        # Inside the damage box a repaint over an old frame; outside, the
        # old frame untouched.
        old = Frame(screen.width, screen.height)
        old.rgb[:] = np.random.default_rng(0).integers(0, 256, old.rgb.shape, dtype=np.uint8)
        got = _paint(photos, sources.__getitem__, screen, old.copy(), damage)
        box = damage.intersect(Rect(0, 0, screen.width, screen.height))
        keep = np.ones((screen.height, screen.width), dtype=bool)
        keep[box.y:box.y2, box.x:box.x2] = False
        want.array[keep] = old.array[keep]
    assert got == want


@PROPERTY
@given(st.data())
def test_a_covered_tile_is_drawn_in_full(data):
    """Tiles cut at arbitrary columns and rows, so that some end exactly on
    a photo edge that passes through pixel centres."""
    draw = data.draw
    w, h = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    screen = draw(st.sampled_from([ScreenSpec.identity, ScreenSpec.fit]))(w, h)
    size = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    photo = PhotoObject(
        id="p", source="s", source_size=size,
        scale=draw(st.floats(0.5, 4.0)) / float(screen.scale),
        angle=draw(st.sampled_from(SPECIAL_ANGLES) | st.floats(-360, 360, width=32)),
        center=_center(draw, screen))
    cuts = st.lists(st.integers(1, 59), max_size=8)
    xs = np.array(sorted({0, w} | {x for x in draw(cuts) if x < w}))
    ys = np.array(sorted({0, h} | {y for y in draw(cuts) if y < h}))
    frame = Frame(w, h)
    draw_photo(frame, photo, RasterImage.filled(*size, (0, 0, 0, 255)), screen)
    drawn = (frame.rgb == 0).all(axis=2)
    for i, j in np.argwhere(covered_tiles(photo, screen, xs, ys)):
        assert drawn[ys[i]:ys[i + 1], xs[j]:xs[j + 1]].all(), (i, j)


# --- what is culled ------------------------------------------------------------

def _stack(top_effects=()):
    """A small photo `under` beneath a large photo `top` that covers it."""
    sources = {"small": RasterImage.filled(10, 10, (200, 30, 30, 255)),
               "large": RasterImage.filled(60, 60, (10, 90, 200, 255))}
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="under", source="small", source_size=(10, 10),
                                center=(50.0, 50.0)))
    scene.add_photo(PhotoObject(id="top", source="large", source_size=(60, 60),
                                center=(50.0, 50.0), angle=30.0, effects=top_effects))
    return scene, sources


@pytest.mark.parametrize("top_effects,drawn", [
    ((), ["top"]),
    ((fx.opacity(0.9),), ["under", "top"]),
    ((fx.border(2, (0, 0, 0, 100)),), ["under", "top"]),
    ((fx.border(2, (0, 0, 0, 255)), fx.invert()), ["top"]),
])
def test_only_photos_that_can_show_are_prepared_and_drawn(monkeypatch, top_effects, drawn):
    scene, sources = _stack(top_effects)
    screen = ScreenSpec.identity(100, 100)
    prepared, painted = [], []
    prepare, draw = backends.prepare_content, backends.draw_photo

    def logged_prepare(photo, source):
        prepared.append(photo.id)
        return prepare(photo, source)

    def logged_draw(frame, photo, *rest):
        painted.append(photo.id)
        draw(frame, photo, *rest)

    monkeypatch.setattr(backends, "prepare_content", logged_prepare)
    monkeypatch.setattr(backends, "draw_photo", logged_draw)
    frame, _ = render_full(BackendKind.RASTER, scene, sources.__getitem__, screen)
    assert prepared == painted == drawn
    assert frame == plain_paint(scene.photos, sources.__getitem__, screen)


# --- a hidden photo fails as a drawn one does -------------------------------------

def hidden_bad_crop_scene(center=(50.0, 50.0)):
    """`_stack` with the hidden photo's crop outside its 10x10 source."""
    scene, sources = _stack()
    scene.replace_photo(PhotoObject(id="under", source="small", crop=Rect(100, 100, 5, 5),
                                    center=center))
    return scene, sources


@pytest.mark.parametrize("center", [(50.0, 50.0), (-500.0, 50.0)], ids=["hidden", "off-screen"])
def test_culled_photo_with_crop_outside_source_still_raises(center):
    scene, sources = hidden_bad_crop_scene(center)
    for backend in BackendKind:
        with pytest.raises(EmptyCropError):
            render_full(backend, scene, sources.__getitem__, ScreenSpec.identity(100, 100))
