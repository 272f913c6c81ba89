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
from scrapbook import raster
from scrapbook.backends import BackendKind, _paint, _place, render_full
from scrapbook.geometry import Rect
from scrapbook.image import RasterImage
from scrapbook.photo import EmptyCropError, PhotoObject
from scrapbook.raster import Frame, covered_tiles, draw_photo, footprint, prepare_content
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
        angle = draw(st.sampled_from(SPECIAL_ANGLES) | st.floats(-360, 360))
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
        got = _paint(_place(photos, sources.__getitem__, screen), screen)
    else:
        # Inside the damage box a repaint over an old frame; outside, the
        # old frame untouched.
        old = Frame(screen.width, screen.height)
        old.rgb[:] = np.random.default_rng(0).integers(0, 256, old.rgb.shape, dtype=np.uint8)
        got = _paint(_place(photos, sources.__getitem__, screen), screen, old.copy(), damage)
        box = damage.intersect(Rect(0, 0, screen.width, screen.height))
        keep = np.ones((screen.height, screen.width), dtype=bool)
        keep[box.y:box.y2, box.x:box.x2] = False
        want.array[keep] = old.array[keep]
    assert got == want


def _tiled_photo(draw):
    """A photo on a screen of up to 60 px a side, and tiles cut at arbitrary
    columns and rows, so that some end exactly on a photo edge that
    passes through pixel centres."""
    w, h = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    screen = draw(st.sampled_from([ScreenSpec.identity, ScreenSpec.fit]))(w, h)
    size = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    photo = PhotoObject(
        id="p", source="s", source_size=size,
        scale=draw(st.floats(0.5, 4.0)) / float(screen.scale),
        angle=draw(st.sampled_from(SPECIAL_ANGLES) | st.floats(-360, 360)),
        center=_center(draw, screen))
    cuts = st.lists(st.integers(1, 59), max_size=8)
    xs = np.array(sorted({0, w} | {x for x in draw(cuts) if x < w}))
    ys = np.array(sorted({0, h} | {y for y in draw(cuts) if y < h}))
    return photo, screen, xs, ys


@PROPERTY
@given(st.data())
def test_a_covered_tile_is_drawn_in_full(data):
    photo, screen, xs, ys = _tiled_photo(data.draw)
    frame = Frame(screen.width, screen.height)
    draw_photo(frame, photo, RasterImage.filled(*photo.source_size, (0, 0, 0, 255)), screen)
    drawn = (frame.rgb == 0).all(axis=2)
    for i, j in np.argwhere(covered_tiles(photo, screen, xs, ys, footprint(photo, screen))):
        assert drawn[ys[i]:ys[i + 1], xs[j]:xs[j + 1]].all(), (i, j)


def corner_covered_tiles(photo, screen, xs, ys):
    """covered_tiles as it stood before it worked per tile row, kept as a
    test-only oracle: a tile is covered when its four corner pixel centres
    satisfy margin <= l <= size - margin for both local coordinates."""
    cx, cy, sw, sh, _ = footprint(photo, screen)
    cos_t, sin_t = raster._rotation(photo)
    margin = raster._slack(cx, cy, sw, sh, screen.width, screen.height)
    px = np.stack([xs[:-1], xs[1:] - 1], axis=1).reshape(-1) + 0.5 - cx
    py = np.stack([ys[:-1], ys[1:] - 1], axis=1).reshape(-1)[:, None] + 0.5 - cy
    lx = px * cos_t + py * sin_t + sw / 2.0
    ly = -px * sin_t + py * cos_t + sh / 2.0
    ok = (lx >= margin) & (lx <= sw - margin) & (ly >= margin) & (ly <= sh - margin)
    return ok.reshape(len(ys) - 1, 2, len(xs) - 1, 2).all(axis=(1, 3))


@PROPERTY
@given(st.data())
def test_per_row_covered_tiles_are_a_subset_of_the_corner_form(data):
    """The per-tile-row answer may differ from the corner form only
    towards not covered."""
    photo, screen, xs, ys = _tiled_photo(data.draw)
    got = covered_tiles(photo, screen, xs, ys, footprint(photo, screen))
    assert got.shape == (len(ys) - 1, len(xs) - 1)
    assert not (got & ~corner_covered_tiles(photo, screen, xs, ys)).any()


@pytest.mark.parametrize("angle", [0.0, 90.0, 30.0, -111.8, 1e-9])
def test_per_row_covered_tiles_equal_the_corner_form_away_from_edges(angle):
    """On 16 px tiles under a large photo, where no corner lies within a
    margin of an edge, both forms give the same tiles, and some."""
    screen = ScreenSpec.identity(400, 300)
    photo = PhotoObject(id="p", source="s", source_size=(50, 40), scale=5.0, angle=angle,
                        center=(200.3, 150.7))
    xs, ys = np.arange(0, 401, 16).clip(0, 400), np.arange(0, 301, 16).clip(0, 300)
    xs, ys = np.unique(np.append(xs, 400)), np.unique(np.append(ys, 300))
    got = covered_tiles(photo, screen, xs, ys, footprint(photo, screen))
    assert got.any() and np.array_equal(got, corner_covered_tiles(photo, screen, xs, ys))


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


def log_paint(monkeypatch):
    """The ids `backends` prepares and draws, in call order, from now on."""
    prepared, painted = [], []
    prepare, draw = backends.prepare_content, backends.draw_photo

    def logged_prepare(photo, source, window):
        prepared.append(photo.id)
        return prepare(photo, source, window)

    def logged_draw(frame, photo, *rest):
        painted.append(photo.id)
        draw(frame, photo, *rest)

    monkeypatch.setattr(backends, "prepare_content", logged_prepare)
    monkeypatch.setattr(backends, "draw_photo", logged_draw)
    return prepared, painted


@pytest.mark.parametrize("top_effects,drawn", [
    ((), ["top"]),
    ((fx.opacity(0.9),), ["under", "top"]),
    ((fx.border(2, (0, 0, 0, 100)),), ["under", "top"]),
    ((fx.border(2, (0, 0, 0, 255)), fx.invert()), ["top"]),
])
def test_only_photos_that_can_show_are_prepared_and_drawn(monkeypatch, top_effects, drawn):
    scene, sources = _stack(top_effects)
    screen = ScreenSpec.identity(100, 100)
    prepared, painted = log_paint(monkeypatch)
    frame, _ = render_full(BackendKind.RASTER, scene, sources.__getitem__, screen)
    assert prepared == painted == drawn
    assert frame == plain_paint(scene.photos, sources.__getitem__, screen)


@pytest.mark.parametrize("backend", list(BackendKind), ids=lambda b: b.value)
def test_end_repaints_only_the_box_at_rest(monkeypatch, backend):
    """Every strategy's `end` prepares and draws only the photos whose box
    meets the dragged photo's box at rest, and is charged as before."""
    source = RasterImage.filled(20, 20, (40, 120, 200, 128))
    scene = SceneDocument()
    for pid, center in (("left", (30.0, 50.0)), ("right", (170.0, 50.0)),
                        ("low", (100.0, 170.0)), ("dragged", (100.0, 100.0))):
        scene.add_photo(PhotoObject(id=pid, source="s", source_size=(20, 20),
                                    center=center))
    screen = ScreenSpec.identity(200, 200)
    session = backends.begin_interaction(backend, scene, lambda key: source, screen,
                                         "dragged")
    session.update((60.0, 80.0))
    prepared, painted = log_paint(monkeypatch)
    frame, cost = session.end((35.0, 55.0))
    assert prepared == painted == ["left", "dragged"]
    assert frame == plain_paint(scene.photos, lambda key: source, screen)
    want = (backends.draw_units(scene.photo("dragged"), screen) if backend.retained
            else backends.redraw_units(backend, scene.photos, screen))
    assert cost.work_units == want


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
