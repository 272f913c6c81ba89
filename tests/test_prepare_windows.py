"""Prepared windows against the whole prepared content.

The paint pass asks each drawn photo's prepare step for a window, the
bounding rect of the content texels its region samples, and the chain
runs on that window mapped back through it.  The properties require a
window of a chain's output to equal the same window of the whole-image
`apply_chain`, for random chains of every kind, run locally or routed
through the service; and `backends._paint` with windows to equal
`test_paint.plain_paint` bit for bit, locally and through
`resolve_scene`'s prepare step on every backend.  Each example is built
from one seed and every generator is derandomized.  The fixed cases pin
the window maps that are not the identity: border, redeye, stacked
convolutions, flips and sepia's two columns.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import backends
from scrapbook import effects as fx
from scrapbook.backends import BackendKind, _paint, _place
from scrapbook.geometry import Rect
from scrapbook.image import RasterImage
from scrapbook.photo import PhotoObject
from scrapbook.raster import ContentWindow, Frame, crop_rect, prepare_content
from scrapbook.scene import SceneDocument
from scrapbook.service import LocalClient, resolve_scene
from scrapbook.viewport import ScreenSpec, to_standard

from test_paint import SPECIAL_ANGLES, plain_paint
from test_paint_regions import noise_frame, plain_damage_paint

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


# --- generators -------------------------------------------------------------

def random_spec(rng, kind: fx.EffectKind, w: int, h: int) -> fx.EffectSpec:
    """A spec of `kind` whose parameters suit a w x h image: borders up to
    4 px of any alpha, and redeye regions anywhere on or off the image."""
    params = {
        fx.EffectKind.BRIGHTNESS: lambda: {"delta": float(rng.uniform(-255, 255))},
        fx.EffectKind.CONTRAST: lambda: {"factor": float(rng.uniform(0, 3))},
        fx.EffectKind.HUE: lambda: {"degrees": float(rng.uniform(-720, 720))},
        fx.EffectKind.SATURATE: lambda: {"factor": float(rng.uniform(0, 3))},
        fx.EffectKind.BLACKWHITE: lambda: {"threshold": float(rng.uniform(0, 255))},
        fx.EffectKind.OPACITY: lambda: {"alpha": float(rng.uniform(0, 1))},
        fx.EffectKind.BORDER: lambda: {
            "width": int(rng.integers(0, 5)),
            "color": tuple(int(v) for v in rng.integers(0, 256, 3)) + (
                int((0, 255, rng.integers(256))[rng.integers(3)]),)},
        fx.EffectKind.REDEYE: lambda: {"region": Rect(
            int(rng.integers(-4, w + 2)), int(rng.integers(-4, h + 2)),
            int(rng.integers(1, w + 6)), int(rng.integers(1, h + 6)))},
    }.get(kind, dict)()
    return fx.EffectSpec(kind, params)


def random_chain(rng, w: int, h: int, length: int) -> tuple:
    chain = []
    for _ in range(length):
        kind = list(fx.EffectKind)[rng.integers(len(fx.EffectKind))]
        chain.append(random_spec(rng, kind, w, h))
        w, h = fx.chain_output_size(w, h, chain[-1:])
    return tuple(chain)


def random_source(rng, w: int, h: int) -> RasterImage:
    arr = rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
    if rng.integers(3):
        arr[:, :, 3] = 255
    return RasterImage.from_array(arr)


def random_span(rng, n: int, inside: bool) -> tuple[int, int]:
    """An interval of 0..n, away from both ends where `inside` and n allow;
    else often one texel or all of them, often at an end, so that windows
    meet the content's edges and corners."""
    if inside and n >= 3:
        size = int(rng.integers(1, n - 1))
        return int(rng.integers(1, n - size)), size
    size = int((1, n, rng.integers(1, n + 1))[rng.integers(3)])
    return int((0, n - size, rng.integers(0, n - size + 1))[rng.integers(3)]), size


def random_windowed_chain(seed):
    """A source of 1 to 24 px a side, maybe cropped, a chain of one to four
    steps of any kind, and a window of the chain's output, in a quarter of
    the examples away from its edges."""
    rng = np.random.default_rng(seed)
    source = random_source(rng, int(rng.integers(1, 25)), int(rng.integers(1, 25)))
    crop = None
    if rng.integers(2):
        x, y = int(rng.integers(source.width)), int(rng.integers(source.height))
        crop = Rect(x, y, int(rng.integers(1, 25)), int(rng.integers(1, 25)))
    photo = PhotoObject(id="p", source="s", source_size=(source.width, source.height),
                        crop=crop)
    rect = crop.intersect(Rect(0, 0, source.width, source.height)) if crop else \
        Rect(0, 0, source.width, source.height)
    chain = random_chain(rng, rect.w, rect.h, int(rng.integers(1, 5)))
    w, h = fx.chain_output_size(rect.w, rect.h, chain)
    inside = rng.integers(4) == 0
    (x, ww), (y, wh) = random_span(rng, w, inside), random_span(rng, h, inside)
    return replace(photo, effects=chain), source, Rect(x, y, ww, wh)


def random_chained_stack(seed):
    """A screen of 8 to 160 px a side and two to ten photos from a quarter
    of the screen to all of it, mostly opaque, rotated or not, half of them
    with a chain of one to three steps of any kind.  Half the stacks have a
    damage box cut anywhere, half of those a small one."""
    rng = np.random.default_rng(seed)
    w, h = int(rng.integers(8, 161)), int(rng.integers(8, 161))
    screen = (ScreenSpec.identity, ScreenSpec.fit)[rng.integers(2)](w, h)
    sources, photos = {}, []
    for i in range(rng.integers(2, 11)):
        cw, ch = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        sources[f"s{i}"] = random_source(rng, cw, ch)
        chain = random_chain(rng, cw, ch, int(rng.integers(1, 4))) if rng.integers(2) else ()
        extent = rng.uniform(0.25, 1.0) * max(w, h)
        angle = (SPECIAL_ANGLES[rng.integers(len(SPECIAL_ANGLES))] if rng.integers(2)
                 else rng.uniform(-360, 360))
        x, y = (int(rng.integers(-30, n + 31)) + (0.0, 0.5, rng.random())[rng.integers(3)]
                for n in (w, h))
        photos.append(PhotoObject(
            id=f"p{i}", source=f"s{i}", source_size=(cw, ch),
            scale=extent / max(cw, ch) / float(screen.scale), angle=float(angle),
            center=tuple(float(v) for v in to_standard(screen, (x, y))), effects=chain))
    damage = None
    if rng.integers(4) == 0:
        x0, x1 = sorted(int(v) for v in rng.integers(-20, w + 21, 2))
        y0, y1 = sorted(int(v) for v in rng.integers(-20, h + 21, 2))
        damage = Rect(x0, y0, x1 - x0, y1 - y0)
    elif rng.integers(3) == 0:
        dw, dh = int(rng.integers(1, w // 3 + 2)), int(rng.integers(1, h // 3 + 2))
        damage = Rect(int(rng.integers(0, w - dw + 1)), int(rng.integers(0, h - dh + 1)), dw, dh)
    return photos, sources, screen, damage


WINDOWED_CHAINS = st.integers(0, 2 ** 32 - 1).map(random_windowed_chain)
CHAINED_STACKS = st.integers(0, 2 ** 32 - 1).map(random_chained_stack)


def scene_of(photos) -> SceneDocument:
    scene = SceneDocument()
    scene.photos = list(photos)
    return scene


def prepare_steps(photos):
    """The default prepare step, then resolve_scene's on every backend."""
    yield None
    for backend in BackendKind:
        yield resolve_scene(backend, scene_of(photos), LocalClient())[0]


def prepared_window(prepare, photo, source, window):
    return (prepare or prepare_content)(photo, source, window)


# --- a window of a chain equals that window of the whole chain ---------------

def check_window(photo, source, window):
    rect = crop_rect(photo, source)
    whole = fx.apply_chain(RasterImage.from_array(source.array[rect.y:rect.y2, rect.x:rect.x2]),
                           photo.effects)
    want = whole.array[window.y:window.y2, window.x:window.x2]
    for prepare in prepare_steps([photo]):
        got = prepared_window(prepare, photo, source, window)
        assert np.array_equal(got.array, want), (photo.effects, window)
        if window == Rect(0, 0, whole.width, whole.height):
            assert not isinstance(got, ContentWindow)
        else:
            assert (got.rect, got.size) == (window, (whole.width, whole.height))


@PROPERTY
@given(WINDOWED_CHAINS)
def test_a_window_of_a_chain_equals_that_window_of_the_whole_chain(case):
    check_window(*case)


@PROPERTY
@given(CHAINED_STACKS)
def test_a_windowed_paint_equals_the_plain_paint_on_every_backend(stack):
    photos, sources, screen, damage = stack
    resolve = sources.__getitem__
    old = noise_frame(screen)
    want = (plain_paint(photos, resolve, screen) if damage is None
            else plain_damage_paint(photos, resolve, screen, old, damage))
    for prepare in prepare_steps(photos):
        got = _paint(_place(photos, resolve, screen), screen,
                     None if damage is None else old.copy(), damage, prepare)
        assert got == want


# --- fixed cases ----------------------------------------------------------------

def chain_case(w, h, chain, seed=0):
    source = random_source(np.random.default_rng(seed), w, h)
    source.array[:, :, 3] = 255
    return PhotoObject(id="p", source="s", source_size=(w, h), effects=tuple(chain)), source


def applied_kinds(photo, source, window):
    """The kinds the default prepare step applies for the window, in order."""
    kinds = []
    apply = fx.apply_effect

    def logged(image, spec):
        kinds.append(spec.kind.value)
        return apply(image, spec)

    prepared_window(None, photo, source, window)  # warm, then log
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fx, "apply_effect", logged)
        prepared_window(None, photo, source, window)
    return kinds


def test_a_window_wholly_inside_a_border_reads_nothing_before_it():
    photo, source = chain_case(12, 9, [fx.blur(), fx.border(3, (1, 2, 3, 200)), fx.invert()])
    for window in (Rect(0, 0, 15, 3), Rect(0, 0, 2, 2), Rect(15, 3, 3, 6), Rect(4, 12, 9, 3)):
        check_window(photo, source, window)
        assert applied_kinds(photo, source, window) == ["invert"]
    for window in (Rect(1, 1, 5, 5), Rect(14, 0, 4, 15), Rect(3, 11, 1, 4)):  # straddling
        check_window(photo, source, window)
        assert applied_kinds(photo, source, window) == ["blur", "border", "invert"]


def test_a_redeye_region_that_straddles_the_window_edge():
    photo, source = chain_case(20, 16, [fx.redeye(Rect(3, 2, 9, 8)), fx.flip_h()])
    source.array[:, :, 0] = 250  # every pixel hot
    for window in (Rect(0, 0, 10, 6), Rect(9, 5, 11, 11), Rect(14, 0, 6, 16)):
        check_window(photo, source, window)


def test_two_stacked_convolutions_at_a_true_edge():
    photo, source = chain_case(17, 13, [fx.sharpen(), fx.emboss()])
    for window in (Rect(0, 0, 1, 1), Rect(16, 12, 1, 1), Rect(0, 5, 3, 2), Rect(15, 0, 2, 13),
                   Rect(6, 5, 1, 1)):
        check_window(photo, source, window)


def test_a_flip_of_an_off_centre_window():
    for chain in ([fx.flip_h()], [fx.flip_v()], [fx.flip_h(), fx.blur(), fx.flip_v()]):
        photo, source = chain_case(21, 14, chain)
        for window in (Rect(2, 3, 5, 4), Rect(15, 9, 6, 5), Rect(0, 10, 1, 4)):
            check_window(photo, source, window)


# --- sepia reads two columns ----------------------------------------------------

@functools.cache
def sepia_split_colours() -> np.ndarray:
    """The RGB colours whose sepia bytes on a wide strip differ from the
    plain left-to-right sum, quantized: where how BLAS evaluates the
    product shows.  Only a sum within rounding of a half can round either
    way, so only those colours go through sepia."""
    near = []
    g, b = np.divmod(np.arange(65536.0), 256.0)
    for r in range(256):
        plain = sum(v[:, None] * fx._SEPIA[:, k] for k, v in enumerate((np.full(65536, r), g, b)))
        tie = (np.abs(plain - np.floor(plain) - 0.5) < 1e-9).any(axis=1)
        near.append(np.stack([np.full(tie.sum(), r), g[tie], b[tie]], axis=1))
    rgb = np.concatenate(near)
    arr = np.full((1, len(rgb), 4), 255, dtype=np.uint8)
    arr[0, :, :3] = rgb
    wide = fx.apply_effect(RasterImage.from_array(arr), fx.sepia()).array[0, :, :3]
    plain = fx._quantize(sum(rgb[:, [k]] * fx._SEPIA[:, k] for k in range(3)))
    return rgb[(plain != wide).any(axis=1)].astype(np.uint8)


def test_sepia_on_one_texel_windows_matches_the_whole_content_draw():
    """Each colour where BLAS shows, drawn alone through a 1x1 damage box,
    locally and routed: the sepia step reads two columns, as wide strips
    do, and gives the whole-content bytes."""
    colours = sepia_split_colours()
    side = int(np.ceil(np.sqrt(len(colours))))
    arr = np.full((side, side, 4), 255, dtype=np.uint8)
    arr.reshape(-1, 4)[:len(colours), :3] = colours
    source = RasterImage.from_array(arr)
    photo = PhotoObject(id="p", source="s", source_size=(side, side),
                        center=(side / 2.0, side / 2.0), effects=(fx.sepia(), fx.invert()))
    screen = ScreenSpec.identity(side, side)
    resolve = {"s": source}.__getitem__
    want = plain_paint([photo], resolve, screen)
    for prepare in (None, resolve_scene(BackendKind.LEGACY, scene_of([photo]))[0]):
        got = Frame(side, side)
        for k in range(len(colours)):
            y, x = divmod(k, side)
            _paint(_place([photo], resolve, screen), screen, got, Rect(x, y, 1, 1), prepare)
            assert got.array[y, x].tolist() == want.array[y, x].tolist(), colours[k]


def test_a_one_column_sepia_window_reads_a_neighbour_column():
    photo, source = chain_case(9, 5, [fx.sepia()])
    src, steps = fx.chain_window(9, 5, photo.effects, Rect(8, 1, 1, 3))
    assert src == Rect(7, 1, 2, 3) and steps[0][1:] == (Rect(8, 1, 1, 3), 1, 0)
    check_window(photo, source, Rect(8, 1, 1, 3))
    # An image one column wide has no second column to read.
    assert fx.chain_window(1, 5, photo.effects, Rect(0, 1, 1, 3))[0] == Rect(0, 1, 1, 3)


# --- draws take only the window -------------------------------------------------

def test_the_paint_prepares_only_the_sampled_window():
    """A large photo mostly off screen: its prepare step makes only the
    texels its draw samples."""
    source = random_source(np.random.default_rng(3), 40, 30)
    photo = PhotoObject(id="p", source="s", source_size=(40, 30), scale=2.0,
                        center=(0.0, 0.0), effects=(fx.sharpen(),))
    screen = ScreenSpec.identity(20, 10)
    prepared = []
    prepare = backends.prepare_content

    def logged(photo, source, window):
        content = prepare(photo, source, window)
        prepared.append((content.rect, content.size))
        return content

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "prepare_content", logged)
        frame = _paint(_place([photo], {"s": source}.__getitem__, screen), screen)
    assert prepared == [(Rect(20, 15, 10, 5), (40, 30))]
    assert frame == plain_paint([photo], {"s": source}.__getitem__, screen)
