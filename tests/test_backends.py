import random

import pytest

from scrapbook import effects as fx
from scrapbook.backends import (CAPABILITIES, BackendKind, Capability, SessionError,
                                UnsupportedEffectError, begin_interaction,
                                capability_check, draw_units, redraw_units,
                                render_full, report)
from scrapbook.effects import EffectKind
from scrapbook.image import RasterImage
from scrapbook.photo import PhotoObject, move_to
from scrapbook.scene import SceneDocument
from scrapbook.viewport import ScreenSpec

from conftest import random_image

RETAINED = (BackendKind.SCENEGRAPH, BackendKind.LEGACY)


def flat_sources(color=(200, 30, 30, 255), size=(100, 100)):
    img = RasterImage.filled(size[0], size[1], color)
    return lambda key: img


def two_photo_scene():
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="a", source="s", source_size=(100, 100),
                                center=(200.0, 200.0)))
    scene.add_photo(PhotoObject(id="b", source="s", source_size=(100, 100),
                                center=(420.0, 320.0)))
    return scene


# --- capability matrix ------------------------------------------------------

def test_capability_examples():
    assert capability_check(BackendKind.LEGACY, EffectKind.SEPIA) is Capability.FALLBACK_NEEDED
    assert capability_check(BackendKind.RASTER, EffectKind.REDEYE) is Capability.SUPPORTED
    assert capability_check(BackendKind.SCENEGRAPH, EffectKind.HUE) is Capability.SUPPORTED


def test_capability_matrix_is_total():
    for backend in BackendKind:
        for kind in EffectKind:
            assert capability_check(backend, kind) in (Capability.SUPPORTED,
                                                       Capability.FALLBACK_NEEDED)
    assert CAPABILITIES[BackendKind.RASTER] == frozenset(EffectKind)
    assert frozenset(EffectKind) - CAPABILITIES[BackendKind.SCENEGRAPH] == {
        EffectKind.EMBOSS, EffectKind.REDEYE, EffectKind.FLIP_H, EffectKind.FLIP_V}
    assert frozenset(EffectKind) - CAPABILITIES[BackendKind.LEGACY] == {
        EffectKind.HUE, EffectKind.SATURATE, EffectKind.SEPIA,
        EffectKind.SHARPEN, EffectKind.REDEYE}


# --- cost model -------------------------------------------------------------

def test_full_render_cost_raster():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(1024, 768)
    _, cost = render_full(BackendKind.RASTER, scene, flat_sources(), screen)
    assert cost.work_units == 786432 + 20000


def test_full_render_cost_retained():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(1024, 768)
    for backend in RETAINED:
        _, cost = render_full(backend, scene, flat_sources(), screen)
        assert cost.work_units == 20000


def test_empty_scene_render():
    screen = ScreenSpec.identity(1024, 768)
    frame, cost = render_full(BackendKind.RASTER, SceneDocument(), flat_sources(), screen)
    assert cost.work_units == 786432
    assert (frame.rgb == 255).all()


def test_render_cost_counts_effect_pixels():
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="a", source="s", source_size=(100, 80),
                                center=(300.0, 300.0), effects=(fx.invert(),)))
    screen = ScreenSpec.identity(1024, 768)
    assert redraw_units(BackendKind.RASTER, scene.photos, screen) == 786432 + 8000 + 8000
    # retained bakes the chain once at node creation
    assert redraw_units(BackendKind.SCENEGRAPH, scene.photos, screen) == 8000 + 8000


def test_virtual_time_from_throughput():
    cost = report(10000, 2000.0)
    assert cost.virtual_ms == 10000 / 2000.0
    assert report(12345, float("inf")).virtual_ms == 0.0


def test_cost_content_independent(rng):
    scene = two_photo_scene()
    screen = ScreenSpec.identity(1024, 768)
    noisy = random_image(rng, max_side=100, opaque=True)
    big = RasterImage.filled(100, 100, (1, 2, 3, 255))
    noisy_padded = RasterImage.from_array(
        __import__("numpy").pad(noisy.array, ((0, 100 - noisy.height),
                                              (0, 100 - noisy.width), (0, 0)),
                                mode="edge"))
    _, c1 = render_full(BackendKind.RASTER, scene, lambda k: big, screen)
    _, c2 = render_full(BackendKind.RASTER, scene, lambda k: noisy_padded, screen)
    assert c1 == c2


def test_raster_cost_linear_in_drawn_area():
    screen = ScreenSpec.identity(1024, 768)
    base = redraw_units(BackendKind.RASTER, SceneDocument().photos, screen)
    totals = []
    for n in (1, 2, 3, 4):
        scene = SceneDocument()
        for k in range(n):
            scene.add_photo(PhotoObject(id=f"p{k}", source="s", source_size=(50, 40),
                                        center=(100.0 + 60 * k, 100.0)))
        totals.append(redraw_units(BackendKind.RASTER, scene.photos, screen) - base)
    assert totals == [2000 * n for n in (1, 2, 3, 4)]


# --- interaction sessions -----------------------------------------------------

def test_update_cost_examples():
    screen = ScreenSpec.identity(1024, 768)

    def frame_units(backend, effects=()):
        scene = SceneDocument()
        scene.add_photo(PhotoObject(id="p", source="s", source_size=(100, 80),
                                    center=(300.0, 300.0), effects=effects))
        session = begin_interaction(backend, scene, flat_sources(size=(100, 80)), screen, "p")
        return session.update((304.0, 300.0))[1].work_units

    assert frame_units(BackendKind.RASTER) == 2 * 8000
    assert frame_units(BackendKind.RASTER, (fx.invert(),)) == 2 * 8000 + 8000
    for backend in RETAINED:
        assert frame_units(backend, (fx.invert(),)) == 2 * 8000


def test_begin_cost_is_static_layer_render():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(1024, 768)
    session = begin_interaction(BackendKind.RASTER, scene, flat_sources(), screen, "b")
    assert session.begin_cost.work_units == 786432 + 10000  # clear + photo "a"
    session.end()
    scene2 = two_photo_scene()
    session2 = begin_interaction(BackendKind.SCENEGRAPH, scene2, flat_sources(),
                                 screen, "b")
    assert session2.begin_cost.work_units == 0
    session2.end()


def test_begin_frame_matches_full_render_for_topmost():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(300, 240)
    sources = flat_sources(size=(40, 40))
    reference, _ = render_full(BackendKind.RASTER, scene, sources, screen)
    session = begin_interaction(BackendKind.RASTER, scene, sources, screen, "b")
    assert session.frame() == reference
    session.end()


def test_update_frames_match_instantaneous_full_render():
    rng = random.Random(52)
    for backend in BackendKind:
        scene = two_photo_scene()
        screen = ScreenSpec.identity(300, 240)
        sources = flat_sources(size=(40, 40))
        session = begin_interaction(backend, scene, sources, screen, "b")
        for _ in range(5):
            target = (rng.uniform(0, 300), rng.uniform(0, 240))
            frame, _ = session.update(target)
            probe = two_photo_scene()
            probe.replace_photo(move_to(probe.photo("b"), *target))
            want, _ = render_full(backend, probe, sources, screen)
            assert frame == want
        session.end()


def test_end_commits_and_matches_full_render():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(300, 240)
    sources = flat_sources(size=(40, 40))
    session = begin_interaction(BackendKind.RASTER, scene, sources, screen, "a")
    session.update((150.0, 120.0))
    frame, cost = session.end()
    assert scene.photo("a").center == (150.0, 120.0)
    want, _ = render_full(BackendKind.RASTER, scene, sources, screen)
    assert frame == want
    assert cost.work_units == redraw_units(BackendKind.RASTER, scene.photos, screen)


def overlapping_scene(rng):
    """Four photos that overlap, with random opaque sources; the bottom
    one, "a", is the one dragged."""
    sources = {k: random_image(rng, max_side=40, opaque=True) for k in "abcd"}
    scene = SceneDocument()
    for key, center, angle in (("a", (60.0, 50.0), 20.0), ("b", (150.0, 110.0), 0.0),
                               ("c", (90.0, 90.0), -35.0), ("d", (200.0, 60.0), 90.0)):
        img = sources[key]
        scene.add_photo(PhotoObject(id=key, source=key, source_size=(img.width, img.height),
                                    scale=2.5, angle=angle, center=center))
    return scene, sources.__getitem__


@pytest.mark.parametrize("release", [(120.0, 70.0), (300.0, 235.0), (-400.0, 100.0),
                                     (150.0, 110.0)],
                         ids=["on-screen", "partly-off-screen", "off-screen",
                              "beneath-others"])
@pytest.mark.parametrize("backend", list(BackendKind), ids=lambda b: b.value)
def test_end_frame_is_full_render_of_committed_scene(backend, release):
    scene, sources = overlapping_scene(random.Random(7))
    screen = ScreenSpec.identity(300, 240)
    session = begin_interaction(backend, scene, sources, screen, "a")
    session.update((100.0, 100.0))
    frame, cost = session.end(release)
    moved = scene.photo("a")
    assert moved.center == release
    want, _ = render_full(backend, scene, sources, screen)
    assert frame == want
    if backend.retained:
        assert cost.work_units == draw_units(moved, screen)


def test_end_cost_retained_is_photo_box():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(1024, 768)
    session = begin_interaction(BackendKind.LEGACY, scene, flat_sources(), screen, "a")
    _, cost = session.end()
    assert cost.work_units == 10000


def test_end_without_moves_keeps_frame():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(300, 240)
    sources = flat_sources(size=(40, 40))
    before, _ = render_full(BackendKind.RASTER, scene, sources, screen)
    session = begin_interaction(BackendKind.RASTER, scene, sources, screen, "b")
    frame, _ = session.end()
    assert frame == before


def test_double_end_rejected():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(100, 100)
    session = begin_interaction(BackendKind.RASTER, scene, flat_sources(), screen, "a")
    session.end()
    with pytest.raises(SessionError):
        session.end()
    with pytest.raises(SessionError):
        session.update((1.0, 1.0))


def test_nested_session_rejected():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(100, 100)
    session = begin_interaction(BackendKind.RASTER, scene, flat_sources(), screen, "a")
    with pytest.raises(SessionError):
        begin_interaction(BackendKind.RASTER, scene, flat_sources(), screen, "b")
    session.end()
    follow_up = begin_interaction(BackendKind.RASTER, scene, flat_sources(), screen, "b")
    follow_up.end()


def test_unknown_photo_rejected():
    scene = two_photo_scene()
    screen = ScreenSpec.identity(100, 100)
    with pytest.raises(KeyError):
        begin_interaction(BackendKind.RASTER, scene, flat_sources(), screen, "zz")


def test_unsupported_effect_rejected_by_renderer():
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="p", source="s", source_size=(10, 10),
                                center=(50.0, 50.0), effects=(fx.sepia(),)))
    screen = ScreenSpec.identity(100, 100)
    with pytest.raises(UnsupportedEffectError):
        render_full(BackendKind.LEGACY, scene, flat_sources(size=(10, 10)), screen)
    with pytest.raises(UnsupportedEffectError):
        begin_interaction(BackendKind.LEGACY, scene, flat_sources(size=(10, 10)),
                          screen, "p")


# --- cross-backend pixel equality ---------------------------------------------

SHARED_EFFECTS = sorted(CAPABILITIES[BackendKind.SCENEGRAPH]
                        & CAPABILITIES[BackendKind.LEGACY]
                        & CAPABILITIES[BackendKind.RASTER])


def random_supported_effect(rng):
    kind = rng.choice(SHARED_EFFECTS)
    if kind is EffectKind.BRIGHTNESS:
        return fx.brightness(rng.randint(-100, 100))
    if kind is EffectKind.CONTRAST:
        return fx.contrast(rng.uniform(0, 3))
    if kind is EffectKind.HUE:
        return fx.hue(rng.uniform(0, 360))
    if kind is EffectKind.SATURATE:
        return fx.saturate(rng.uniform(0, 2))
    if kind is EffectKind.BLACKWHITE:
        return fx.blackwhite(rng.randint(0, 255))
    if kind is EffectKind.OPACITY:
        return fx.opacity(rng.uniform(0, 1))
    if kind is EffectKind.BORDER:
        return fx.border(rng.randint(1, 3), (rng.randrange(256), rng.randrange(256),
                                             rng.randrange(256), 255))
    return fx.EffectSpec(kind)


def random_scene(rng, sources_map, max_photos=10):
    scene = SceneDocument(z_base=rng.randint(-3, 3))
    for i in range(rng.randint(0, max_photos)):
        key = rng.choice(sorted(sources_map))
        img = sources_map[key]
        effects = tuple(random_supported_effect(rng) for _ in range(rng.randint(0, 2)))
        scene.add_photo(PhotoObject(
            id=f"p{i}", source=key, source_size=(img.width, img.height),
            crop=None, scale=rng.uniform(0.3, 2.0), angle=rng.uniform(-360, 360),
            center=(rng.uniform(0, 200), rng.uniform(0, 150)), effects=effects))
    return scene


def test_cross_backend_frames_bit_identical():
    rng = random.Random(90125)
    sources_map = {f"img{k}": random_image(rng, max_side=24, opaque=True)
                   for k in range(4)}
    resolver = sources_map.__getitem__
    screen = ScreenSpec.identity(200, 150)
    for _ in range(20):
        scene = random_scene(rng, sources_map)
        frames = {}
        for backend in BackendKind:
            chains_ok = all(
                capability_check(backend, s.kind) is Capability.SUPPORTED
                for p in scene.photos for s in p.effects)
            assert chains_ok
            frames[backend], _ = render_full(backend, scene, resolver, screen)
        assert frames[BackendKind.RASTER] == frames[BackendKind.SCENEGRAPH]
        assert frames[BackendKind.RASTER] == frames[BackendKind.LEGACY]


@pytest.mark.parametrize("backend", list(BackendKind), ids=lambda b: b.value)
def test_each_photo_is_footprinted_once_per_render_begin_and_end(monkeypatch, backend):
    """A full render, a session's begin and its end each make one
    footprint per photo, which both the paint pass and the charge read;
    the charges are those of the redraw rule."""
    from scrapbook import backends
    scene, sources = overlapping_scene(random.Random(7))
    screen = ScreenSpec.identity(300, 240)
    made = []
    footprint = backends.footprint

    def counted(photo, screen, center=None):
        made.append(photo.id)
        return footprint(photo, screen, center)

    monkeypatch.setattr(backends, "footprint", counted)
    _, cost = render_full(backend, scene, sources, screen)
    assert sorted(made) == ["a", "b", "c", "d"]
    monkeypatch.undo()
    assert cost.work_units == redraw_units(backend, scene.photos, screen)

    monkeypatch.setattr(backends, "footprint", counted)
    made.clear()
    session = begin_interaction(backend, scene, sources, screen, "a")
    assert sorted(made) == ["a", "b", "c", "d"]
    session.update((100.0, 100.0))
    made.clear()
    _, cost = session.end((120.0, 70.0))
    assert sorted(made) == ["a", "b", "c", "d"]
    monkeypatch.undo()
    want = (draw_units(scene.photo("a"), screen) if backend.retained
            else redraw_units(backend, scene.photos, screen))
    assert cost.work_units == want
