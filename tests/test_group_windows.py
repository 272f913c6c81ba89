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
  exceed the single window's plus one allowance per extra window.
The stacks' contents are at most 40 texels a side, below the allowance,
so each example also runs at allowances small enough to split.  Every
generator is derandomized.
"""

from unittest import mock

import numpy as np
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
from scrapbook.raster import crop_rect, plan
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
        assert [r for part, _ in groups for r in part.rects.tolist()] == drawn.rects.tolist()
        for part, window in groups:
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
        windows = [window for _, window in groups_at(allowance, drawn)]
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
    windows = [window for _, window in _groups(drawn)]
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
