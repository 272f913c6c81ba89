"""Grouped windows against the single bounding window.

The paint pass splits each drawn photo's rects into runs (`backends._groups`)
and prepares each run on its own window.  The properties require, on the
seeded stacks of `test_paint_regions`, whose regions hold many rects:
- the grouped paint to equal `test_paint.plain_paint` bit for bit, with
  the default prepare step and through `resolve_scene`'s on every backend;
- every texel a run's pixels sample, found by a test-only oracle that
  evaluates the module docstring of `raster` on every pixel of the run's
  rects, to lie in the run's window;
- each run's window to lie in the photo's single bounding window, the
  runs to be the plan's rects in order, and the runs' texels never to
  exceed the single window's plus one allowance per extra window;
- each run, a plan with its window, drawn from exactly its window's
  texels to equal it drawn from the whole content.
The fixed cases pin that a prepare step may return any image of exactly
its window's texels, and that content of another size than the plan's
window is refused.
The stacks' contents are at most 40 texels a side, below the allowance,
so each example also runs at allowances small enough to split.  Every
generator is derandomized.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import backends
from scrapbook import effects as fx
from scrapbook.backends import (WINDOW_ALLOWANCE, BackendKind, _groups, _paint, _place,
                                _visible, render_full)
from scrapbook.effects import chain_output_size
from scrapbook.geometry import Rect
from scrapbook.image import RasterImage
from scrapbook.photo import PhotoObject
from scrapbook.raster import Frame, crop_rect, draw_photo, footprint, plan, prepare_content
from scrapbook.scene import SceneDocument
from scrapbook.service import LocalClient, resolve_scene
from scrapbook.viewport import ScreenSpec

from test_paint import plain_paint
from test_paint_regions import STACKS, noise_frame, plain_damage_paint

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
ALLOWANCES = st.sampled_from([0, 1, 16, 256, WINDOW_ALLOWANCE])


def scene_of(photos) -> SceneDocument:
    scene = SceneDocument()
    scene.photos = list(photos)
    return scene


def painted_area(screen, damage) -> Rect:
    area = Rect(0, 0, screen.width, screen.height)
    return area if damage is None else area.intersect(damage)


def plans(photos, sources, screen, damage):
    """Each drawn photo's Plan, as the paint pass makes it."""
    placed = _place(photos, sources.__getitem__, screen)
    for photo, source, fp, region in _visible(placed, painted_area(screen, damage), screen):
        crop = crop_rect(photo, source)
        yield photo, plan(photo, screen, region, fp,
                          chain_output_size(crop.w, crop.h, photo.effects))


def groups_at(allowance, drawn):
    with mock.patch.object(backends, "WINDOW_ALLOWANCE", allowance):
        return _groups(drawn)


# --- test-only oracle ---------------------------------------------------------

def sampled_texels(drawn, part):
    """The texels the pixels of the run's rects sample, from the module
    docstring's expressions evaluated on every pixel: an (n, 2) array of
    columns and rows, inside pixels only."""
    cx, cy, sw, sh, _ = drawn.fp
    cos_t, sin_t = drawn.rotation
    width, height = drawn.size
    found = []
    for x0, y0, x1, y1 in part.rects.tolist():
        px = np.arange(x0, x1, dtype=np.float64) + 0.5 - cx
        py = (np.arange(y0, y1, dtype=np.float64) + 0.5 - cy)[:, None]
        lx = px * cos_t + py * sin_t + sw / 2.0
        ly = -px * sin_t + py * cos_t + sh / 2.0
        inside = (lx >= 0) & (lx < sw) & (ly >= 0) & (ly < sh)
        tx = np.floor(lx[inside] / sw * width).astype(np.intp)
        ty = np.floor(ly[inside] / sh * height).astype(np.intp)
        found.append(np.stack([tx, ty], axis=1))
    return np.concatenate(found)


def inside(inner: Rect, outer: Rect) -> bool:
    return inner.intersect(outer) == inner


def single_window(drawn) -> Rect:
    """The photo's one bounding window: the union of its rects' bounds."""
    (x0, y0, _, _), (_, _, x1, y1) = drawn.bounds.min(axis=0), drawn.bounds.max(axis=0)
    return Rect(int(x0), int(y0), int(x1 - x0), int(y1 - y0))


# --- properties -------------------------------------------------------------------

@PROPERTY
@given(STACKS, ALLOWANCES)
def test_a_grouped_paint_equals_the_plain_paint_on_every_backend(stack, allowance):
    photos, sources, screen, damage = stack
    resolve = sources.__getitem__
    old = noise_frame(screen)
    want = (plain_paint(photos, resolve, screen) if damage is None
            else plain_damage_paint(photos, resolve, screen, old, damage))
    steps = [None] + [resolve_scene(b, scene_of(photos), LocalClient())[0] for b in BackendKind]
    with mock.patch.object(backends, "WINDOW_ALLOWANCE", allowance):
        for prepare in steps:
            got = _paint(_place(photos, resolve, screen), screen,
                         None if damage is None else old.copy(), damage, prepare)
            assert got == want


@PROPERTY
@given(STACKS, ALLOWANCES)
def test_each_group_window_holds_every_texel_its_rects_sample(stack, allowance):
    photos, sources, screen, damage = stack
    for _, drawn in plans(photos, sources, screen, damage):
        groups = groups_at(allowance, drawn)
        assert [r for part in groups for r in part.rects.tolist()] == drawn.rects.tolist()
        for part in groups:
            window = part.window
            assert not window.is_empty() and inside(window, single_window(drawn)), window
            texels = sampled_texels(drawn, part)
            if len(texels):
                assert texels[:, 0].min() >= window.x and texels[:, 1].min() >= window.y
                assert texels[:, 0].max() < window.x2 and texels[:, 1].max() < window.y2


@PROPERTY
@given(STACKS, ALLOWANCES)
def test_groups_never_cost_more_than_the_single_window_and_the_allowance(stack, allowance):
    photos, sources, screen, damage = stack
    for _, drawn in plans(photos, sources, screen, damage):
        windows = [part.window for part in groups_at(allowance, drawn)]
        if not windows:
            assert not len(drawn.rects)
            continue
        extra = allowance * (len(windows) - 1)
        whole = single_window(drawn)
        assert sum(w.area for w in windows) <= whole.area + extra
        if len(windows) > 1:
            # Split only where that saves more than the allowance per window.
            assert sum(w.area for w in windows) + extra < whole.area
        else:
            assert windows == [whole]


# --- fixed cases ----------------------------------------------------------------

def test_a_framed_photo_is_prepared_on_four_windows_on_every_backend():
    """A large photo with a chain under an opaque photo that leaves it one
    tile all round: its region is a top and a bottom strip and two side
    columns, which the default allowance prepares as four windows, each
    through the prepare step, locally or routed."""
    sources = {"big": RasterImage.from_array(
        np.random.default_rng(5).integers(0, 256, (300, 400, 4), dtype=np.uint8)),
        "top": RasterImage.filled(368, 268, (10, 90, 200, 255))}
    sources["big"].array[:, :, 3] = 255
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="big", source="big", source_size=(400, 300),
                                center=(200.0, 150.0), effects=(fx.sharpen(), fx.sepia())))
    scene.add_photo(PhotoObject(id="top", source="top", source_size=(368, 268),
                                center=(200.0, 150.0)))
    screen = ScreenSpec.identity(400, 300)
    resolve = sources.__getitem__
    (_, drawn), = [case for case in plans(scene.photos, sources, screen, None)
                   if case[0].id == "big"]
    windows = [part.window for part in _groups(drawn)]
    assert len(windows) == 4
    assert sum(w.area for w in windows) < single_window(drawn).area // 4
    want = plain_paint(scene.photos, resolve, screen)
    for backend in BackendKind:
        prepared = []
        prepare, _ = resolve_scene(backend, scene, LocalClient())

        def logged(photo, source, window):
            prepared.append((photo.id, window))
            return prepare(photo, source, window)

        frame, _ = render_full(backend, scene, resolve, screen, prepare=logged)
        assert frame == want, backend
        assert [w for pid, w in prepared if pid == "big"] == windows, backend


# --- a run is a plan with its window ----------------------------------------------

@PROPERTY
@given(STACKS, st.sampled_from([0, WINDOW_ALLOWANCE]))
def test_each_run_drawn_from_its_window_equals_it_drawn_from_the_whole_content(stack,
                                                                               allowance):
    photos, sources, screen, damage = stack
    old = noise_frame(screen)
    for photo, drawn in plans(photos, sources, screen, damage):
        whole = prepare_content(photo, sources[photo.source])
        assert (whole.width, whole.height) == drawn.size
        for part in groups_at(allowance, drawn):
            w = part.window
            want, got = old.copy(), old.copy()
            draw_photo(want, photo, whole, screen, part._replace(window=Rect(0, 0, *drawn.size)))
            draw_photo(got, photo, whole.read(w.x, w.y, w.w, w.h), screen, part)
            assert got == want, (photo, w)


@pytest.mark.parametrize("angle", [0.0, 30.0])
def test_a_prepare_step_may_return_a_plain_image_of_its_window(angle):
    """PrepareStep's contract is exactly the window's texels, as an image
    of the window's size: a step that copies them into a plain RasterImage
    renders the plain paint's frame, axis-aligned and rotated."""
    source = RasterImage.from_array(
        np.random.default_rng(7).integers(0, 256, (30, 40, 4), dtype=np.uint8))
    source.array[:, :, 3] = 255
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="p", source="s", source_size=(40, 30), scale=2.0,
                                angle=angle, center=(0.0, 0.0), effects=(fx.sharpen(),)))
    screen = ScreenSpec.identity(30, 20)
    resolve = {"s": source}.__getitem__
    windows = []

    def plain_step(photo, source, window):
        windows.append(window)
        return RasterImage.from_array(prepare_content(photo, source, window).array)

    frame, _ = render_full(BackendKind.RASTER, scene, resolve, screen, prepare=plain_step)
    # Only the photo's lower right shows, so no window starts at the origin.
    assert windows and all(w.x > 0 and w.y > 0 for w in windows), windows
    assert frame == plain_paint(scene.photos, resolve, screen)


@pytest.mark.parametrize("angle", [0.0, 30.0])
def test_content_whose_size_is_not_the_plan_window_raises(angle):
    photo = PhotoObject(id="p", source="s", source_size=(40, 30), angle=angle,
                        center=(20.0, 15.0))
    screen = ScreenSpec.identity(40, 30)
    content = RasterImage.filled(40, 30, (0, 0, 0, 255))
    fp = footprint(photo, screen)
    whole = plan(photo, screen, None, fp, (40, 30))
    part = whole._replace(window=Rect(5, 5, 10, 10))
    frame = Frame(40, 30)
    for given_content, planned in [(content, part), (content.read(5, 5, 10, 10), whole),
                                   (content, plan(photo, screen, [], fp, (40, 30))._replace(
                                       window=part.window))]:
        with pytest.raises(ValueError, match="window 10x10|window 40x30"):
            draw_photo(frame, photo, given_content, screen, planned)
    assert frame == Frame(40, 30)
