"""Regions against the bounding-rect clip they replaced.

`bbox_visible` is `backends._visible` as it stood before regions: each
kept photo's draw is clipped to the one bounding rect of its uncovered
tiles.  `bbox_paint` runs the paint pass with it, as a test-only oracle.
The property requires the paint pass with regions to give the same frame
bit for bit as that oracle and as `test_paint.plain_paint`, over the
whole screen and inside a damage box, on random stacks of opaque and
translucent, rotated and axis-aligned photos.  Every generator is
derandomized.  The rest checks the region's own contract: disjoint rects
inside the photo's box and the painted area whose union is exactly its
uncovered tiles, identical tile rows merged, and draw calls on runs
of it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import backends
from scrapbook.backends import TILE, BackendKind, _paint, _place, _region, _visible, render_full
from scrapbook.geometry import Rect
from scrapbook.image import RasterImage
from scrapbook.photo import PhotoObject
from scrapbook.raster import Frame, covered_tiles, crop_rect, footprint, is_opaque
from scrapbook.scene import SceneDocument
from scrapbook.viewport import ScreenSpec, to_standard

from test_paint import EFFECTS, SPECIAL_ANGLES, plain_paint

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


# --- test-only bounding-rect oracle -----------------------------------------

def bbox_visible(placed, area, screen):
    """The photos that show in `area`, back-to-front, each with the clip
    its draw needs: the bounding rect of its tiles not yet covered by an
    opaque photo above it."""
    xs = np.minimum(np.arange(area.x, area.x2 + TILE, TILE), area.x2)
    ys = np.minimum(np.arange(area.y, area.y2 + TILE, TILE), area.y2)
    covered = np.zeros((len(ys) - 1, len(xs) - 1), dtype=bool)
    kept = []
    for photo, source, fp in reversed(placed):
        box = fp.box.intersect(area)
        if box.is_empty():
            continue
        c0, c1 = (box.x - area.x) // TILE, -(-(box.x2 - area.x) // TILE)
        r0, r1 = (box.y - area.y) // TILE, -(-(box.y2 - area.y) // TILE)
        under = covered[r0:r1, c0:c1]
        open_rows = np.flatnonzero(~under.all(axis=1))
        if len(open_rows) == 0:
            continue
        open_cols = np.flatnonzero(~under.all(axis=0))
        x0, x1 = xs[c0 + open_cols[0]], xs[c0 + open_cols[-1] + 1]
        y0, y1 = ys[r0 + open_rows[0]], ys[r0 + open_rows[-1] + 1]
        kept.append((photo, source, fp, Rect(int(x0), int(y0), int(x1 - x0), int(y1 - y0))))
        if is_opaque(photo, source):
            under |= covered_tiles(photo, screen, xs[c0:c1 + 1], ys[r0:r1 + 1])
    return kept[::-1]


def bbox_paint(photos, sources, screen, frame=None, damage=None):
    """The paint pass with each draw clipped to the bounding rect of its
    uncovered tiles: a region of that one rect."""
    def visible(placed, area, screen):
        return [(photo, source, fp, [clip]) for photo, source, fp, clip in
                bbox_visible(placed, area, screen)]

    with mock.patch.object(backends, "_visible", visible):
        return _paint(_place(photos, sources, screen), screen, frame, damage)


def plain_damage_paint(photos, sources, screen, old, damage):
    """plain_paint inside the damage box, the old frame outside it."""
    want = plain_paint(photos, sources, screen)
    box = damage.intersect(Rect(0, 0, screen.width, screen.height))
    keep = np.ones((screen.height, screen.width), dtype=bool)
    keep[box.y:box.y2, box.x:box.x2] = False
    want.array[keep] = old.array[keep]
    return want


def noise_frame(screen, seed=0):
    frame = Frame(screen.width, screen.height)
    frame.rgb[:] = np.random.default_rng(seed).integers(0, 256, frame.rgb.shape,
                                                         dtype=np.uint8)
    return frame


# --- generators -------------------------------------------------------------

def random_stack(seed):
    """A screen of 8 to 240 pixels a side and two to fourteen photos, each
    from a quarter of the screen to all of it, mostly opaque and mostly
    without effects, so that regions have many rects.  Half the angles are
    edge-on or near it and centres fall on whole, half or any pixels, as in
    `test_paint`; half the stacks have a damage box cut anywhere.  The
    stack comes from one seed, so each example is a fresh scene."""
    rng = np.random.default_rng(seed)
    w, h = int(rng.integers(8, 241)), int(rng.integers(8, 201))
    screen = (ScreenSpec.identity, ScreenSpec.fit)[rng.integers(2)](w, h)
    sources, photos = {}, []
    for i in range(rng.integers(2, 15)):
        cw, ch = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        arr = rng.integers(0, 256, (ch, cw, 4), dtype=np.uint8)
        alpha = rng.integers(8)
        if alpha < 7:
            arr[:, :, 3] = 255
        if alpha == 6:
            arr[rng.integers(ch), rng.integers(cw), 3] = 254
        sources[f"s{i}"] = RasterImage.from_array(arr)
        extent = rng.uniform(0.25, 1.0) * max(w, h)
        angle = (SPECIAL_ANGLES[rng.integers(len(SPECIAL_ANGLES))] if rng.integers(2)
                 else rng.uniform(-360, 360))
        x, y = (int(rng.integers(-30, n + 31)) + (0.0, 0.5, rng.random())[rng.integers(3)]
                for n in (w, h))
        photos.append(PhotoObject(
            id=f"p{i}", source=f"s{i}", source_size=(cw, ch),
            scale=extent / max(cw, ch) / float(screen.scale), angle=float(angle),
            center=tuple(float(v) for v in to_standard(screen, (x, y))),
            effects=(EFFECTS[rng.integers(len(EFFECTS))],) if rng.integers(4) == 0 else ()))
    damage = None
    if rng.integers(2):
        x0, x1 = sorted(int(v) for v in rng.integers(-20, w + 21, 2))
        y0, y1 = sorted(int(v) for v in rng.integers(-20, h + 21, 2))
        damage = Rect(x0, y0, x1 - x0, y1 - y0)
    return photos, sources, screen, damage


STACKS = st.integers(0, 2 ** 32 - 1).map(random_stack)


# --- regions equal the bounding-rect clip and the plain paint ---------------

@PROPERTY
@given(STACKS)
def test_regions_equal_the_bounding_rect_clip_and_the_plain_paint(stack):
    photos, sources, screen, damage = stack
    resolve = sources.__getitem__
    if damage is None:
        got = _paint(_place(photos, resolve, screen), screen)
        oracle = bbox_paint(photos, resolve, screen)
        plain = plain_paint(photos, resolve, screen)
    else:
        old = noise_frame(screen)
        got = _paint(_place(photos, resolve, screen), screen, old.copy(), damage)
        oracle = bbox_paint(photos, resolve, screen, old.copy(), damage)
        plain = plain_damage_paint(photos, resolve, screen, old, damage)
    assert got == oracle
    assert got == plain


@PROPERTY
@given(STACKS)
def test_each_region_is_disjoint_rects_whose_union_is_the_uncovered_tiles(stack):
    photos, sources, screen, damage = stack
    area = Rect(0, 0, screen.width, screen.height)
    if damage is not None:
        area = area.intersect(damage)
    for photo, region in region_cases(photos, sources, screen, area):
        box = backends.screen_bbox(photo, screen).intersect(area)
        hits = np.zeros((screen.height, screen.width), dtype=np.int64)
        for rect in region:
            assert not rect.is_empty() and rect.intersect(box) == rect, (rect, box)
            hits[rect.y:rect.y2, rect.x:rect.x2] += 1
        assert hits.max() <= 1, photo.id
        want = np.zeros_like(hits, dtype=bool)
        want[box.y:box.y2, box.x:box.x2] = True
        want &= ~covered_above(photo, photos, sources, screen, area)
        assert np.array_equal(hits == 1, want), photo.id


def region_cases(photos, sources, screen, area):
    placed = []
    for photo in photos:
        source = sources[photo.source]
        crop_rect(photo, source)
        placed.append((photo, source, footprint(photo, screen)))
    return [(photo, region) for photo, _, _, region in _visible(placed, area, screen)]


def regions_by_id(photos, sources, screen, area):
    return {photo.id: region for photo, region in region_cases(photos, sources, screen, area)}


def covered_above(photo, photos, sources, screen, area):
    """The pixels of `area`'s tiles that an opaque photo above `photo`
    covers, as a screen-sized mask."""
    xs = np.minimum(np.arange(area.x, area.x2 + TILE, TILE), area.x2)
    ys = np.minimum(np.arange(area.y, area.y2 + TILE, TILE), area.y2)
    tiles = np.zeros((len(ys) - 1, len(xs) - 1), dtype=bool)
    for above in photos[photos.index(photo) + 1:]:
        if is_opaque(above, sources[above.source]):
            tiles |= covered_tiles(above, screen, xs, ys)
    mask = np.zeros((screen.height, screen.width), dtype=bool)
    mask[area.y:area.y2, area.x:area.x2] = (
        tiles.repeat(np.diff(ys), axis=0).repeat(np.diff(xs), axis=1))
    return mask


# --- the region's shape -------------------------------------------------------

def test_runs_per_tile_row_and_identical_rows_merge():
    opened = np.array([[1, 1, 0, 1],
                       [1, 1, 0, 1],
                       [0, 1, 1, 0],
                       [0, 0, 0, 0],
                       [1, 0, 1, 0]], dtype=bool)
    xs, ys = np.array([0, 16, 32, 48, 60]), np.array([5, 21, 37, 53, 69, 70])
    assert _region(opened, xs, ys) == [
        Rect(0, 5, 32, 32), Rect(48, 5, 12, 32), Rect(16, 37, 32, 16),
        Rect(0, 69, 16, 1), Rect(32, 69, 16, 1)]


def tile_photo(pid, source, col, row, angle=0.0):
    """A photo whose box is exactly tile (col, row) of an identity screen."""
    return PhotoObject(id=pid, source=source, source_size=(TILE, TILE), angle=angle,
                       center=(col * TILE + TILE / 2.0, row * TILE + TILE / 2.0))


def checkerboard_scene(n=8, under_side=4):
    """A translucent photo the size of the screen, from a square source of
    `under_side` texels, under opaque one-tile photos on every other tile:
    its region is one rect per open tile."""
    sources = {"under": RasterImage.filled(under_side, under_side, (200, 30, 30, 128)),
               "tile": RasterImage.filled(TILE, TILE, (10, 90, 200, 255))}
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="under", source="under",
                                source_size=(under_side, under_side),
                                scale=n * TILE / under_side, angle=0.0,
                                center=(n * TILE / 2.0, n * TILE / 2.0)))
    for row in range(n):
        for col in range(row % 2, n, 2):
            scene.add_photo(tile_photo(f"t{row}-{col}", "tile", col, row))
    return scene, sources, ScreenSpec.identity(n * TILE, n * TILE)


def test_a_checkerboard_gives_one_rect_per_open_tile():
    scene, sources, screen = checkerboard_scene()
    cases = regions_by_id(scene.photos, sources, screen, Rect(0, 0, 128, 128))
    assert sorted(cases["under"], key=lambda r: (r.y, r.x)) == [
        Rect(col * TILE, row * TILE, TILE, TILE)
        for row in range(8) for col in range(1 - row % 2, 8, 2)]
    frame, _ = render_full(BackendKind.RASTER, scene, sources.__getitem__, screen)
    assert frame == bbox_paint(scene.photos, sources.__getitem__, screen)
    assert frame == plain_paint(scene.photos, sources.__getitem__, screen)


def test_identical_tile_rows_merge_into_one_rect_per_run():
    """An opaque band over the middle columns of a large rotated photo
    leaves it two open columns of tiles, identical in every row."""
    sources = {"big": RasterImage.filled(10, 10, (30, 160, 60, 255)),
               "band": RasterImage.filled(2, 10, (250, 250, 0, 255))}
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="big", source="big", source_size=(10, 10), scale=20.0,
                                angle=10.0, center=(80.0, 80.0)))
    scene.add_photo(PhotoObject(id="band", source="band", source_size=(2, 10), scale=48.0,
                                center=(80.0, 240.0)))
    screen = ScreenSpec.identity(160, 160)
    cases = regions_by_id(scene.photos, sources, screen, Rect(0, 0, 160, 160))
    assert cases["big"] == [Rect(0, 0, 32, 160), Rect(128, 0, 32, 160)]
    frame, _ = render_full(BackendKind.RASTER, scene, sources.__getitem__, screen)
    assert frame == bbox_paint(scene.photos, sources.__getitem__, screen)
    assert frame == plain_paint(scene.photos, sources.__getitem__, screen)


def test_a_region_that_touches_the_screen_edge():
    """A rotated photo larger than a screen whose sides are not whole
    tiles, under an opaque photo in the middle: its rects end on the
    screen's last partial tiles."""
    sources = {"big": RasterImage.filled(9, 7, (30, 160, 60, 200)),
               "mid": RasterImage.filled(5, 5, (250, 250, 0, 255))}
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="big", source="big", source_size=(9, 7), scale=30.0,
                                angle=-7.0, center=(50.0, 35.0)))
    scene.add_photo(PhotoObject(id="mid", source="mid", source_size=(5, 5), scale=8.0,
                                center=(50.0, 35.0)))
    screen = ScreenSpec.identity(101, 69)
    cases = regions_by_id(scene.photos, sources, screen, Rect(0, 0, 101, 69))
    region = cases["big"]
    assert len(region) > 1
    assert max(r.x2 for r in region) == 101 and max(r.y2 for r in region) == 69
    assert min(r.x for r in region) == 0 and min(r.y for r in region) == 0
    frame, _ = render_full(BackendKind.RASTER, scene, sources.__getitem__, screen)
    assert frame == bbox_paint(scene.photos, sources.__getitem__, screen)
    assert frame == plain_paint(scene.photos, sources.__getitem__, screen)


def test_an_end_damage_box_that_cuts_through_tiles():
    """A drag ends with the photo at rest at a fractional, rotated
    position: its box, the damage, starts and ends inside tiles of the
    screen grid, and the repaint equals the plain paint and the oracle."""
    scene, sources, screen = checkerboard_scene()
    sources["drag"] = RasterImage.filled(10, 6, (90, 20, 220, 255))
    scene.add_photo(PhotoObject(id="drag", source="drag", source_size=(10, 6), scale=4.3,
                                angle=23.0, center=(40.0, 40.0)))
    moved = PhotoObject(id="drag", source="drag", source_size=(10, 6), scale=4.3,
                        angle=23.0, center=(61.3, 57.7))
    damage = backends.screen_bbox(moved, screen)
    assert damage.x % TILE and damage.y % TILE and damage.x2 % TILE and damage.y2 % TILE
    for backend in BackendKind:
        session = backends.begin_interaction(backend, scene, sources.__getitem__, screen,
                                             "drag")
        session.update((50.0, 50.0))
        frame, _ = session.end(moved.center)
        assert frame == plain_paint(scene.photos, sources.__getitem__, screen), backend
        scene.replace_photo(PhotoObject(id="drag", source="drag", source_size=(10, 6),
                                        scale=4.3, angle=23.0, center=(40.0, 40.0)))
    old = noise_frame(screen)
    got = _paint(_place(scene.photos, sources.__getitem__, screen), screen, old.copy(), damage)
    assert got == bbox_paint(scene.photos, sources.__getitem__, screen, old.copy(), damage)


def corners(rect):
    return rect.y, rect.x, rect.y2, rect.x2


@pytest.mark.parametrize("allowance,draws", [(0, 32), (backends.WINDOW_ALLOWANCE, 1)],
                         ids=["split", "joined"])
def test_paint_draws_each_photo_on_runs_of_its_region_by_its_module_name(allowance, draws):
    """The draws go through `backends.draw_photo` as looked up at call
    time.  Each photo's draws are consecutive and back-to-front, and their
    regions are disjoint runs of the photo's region that together are all
    of it: one run per open tile when no texel may be wasted, one run of
    all 32 tiles at the allowance."""
    scene, sources, screen = checkerboard_scene(under_side=128)
    calls = []
    draw = backends.draw_photo

    def logged_draw(frame, photo, content, screen, region, *rest):
        calls.append((photo.id, region))
        draw(frame, photo, content, screen, region, *rest)

    with mock.patch.object(backends, "draw_photo", logged_draw), \
            mock.patch.object(backends, "WINDOW_ALLOWANCE", allowance):
        frame, _ = render_full(BackendKind.RASTER, scene, sources.__getitem__, screen)
    ids = [pid for pid, _ in calls]
    assert [pid for k, pid in enumerate(ids) if k == 0 or pid != ids[k - 1]] == [
        p.id for p in scene.photos]
    assert ids.count("under") == draws
    regions = regions_by_id(scene.photos, sources, screen, Rect(0, 0, 128, 128))
    assert len(regions["under"]) == 32
    for photo in scene.photos:
        drawn = [rect for pid, region in calls if pid == photo.id for rect in region]
        hits = np.zeros((screen.height, screen.width), dtype=np.int64)
        for rect in drawn:
            hits[rect.y:rect.y2, rect.x:rect.x2] += 1
        assert hits.max() == 1, photo.id
        assert sorted(drawn, key=corners) == sorted(regions[photo.id], key=corners), photo.id
    assert frame == plain_paint(scene.photos, sources.__getitem__, screen)
