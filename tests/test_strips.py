"""Row-strip kernels against the whole-image kernels they replaced.

`whole_rgb` and `whole_convolve3x3` are the whole-image effect kernels as
they stood before pixel work ran in row strips, and `FLOAT_FNS` (from
`test_effect_oracles`) holds the float function of each kind the
per-pixel adapter runs, which no kind but sepia still runs per pixel.
They are test-only oracles, as `mgrid_draw_photo` is for draws.
Properties run with one worker and with two, on shapes at strip edges;
every generator is derandomized.  Draws are drawn here on a region of
strip-high rects.  A rotated draw whose bands evaluate at least
raster.SHARED_PX pixels shares them with the pool thread and must equal
the same draw on one worker; every smaller draw is one pass on the
calling thread.
"""

import hashlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import effects as fx
from scrapbook import image as image_mod
from scrapbook import raster
from scrapbook.backends import BackendKind, render_full
from scrapbook.effects import EffectKind, apply_effect
from scrapbook.geometry import Rect
from scrapbook.image import STRIP_PX, RasterImage, _row_strips, _strip_rows
from scrapbook.photo import PhotoObject
from scrapbook.raster import Frame, draw_photo
from scrapbook.scene import STANDARD_VIEWPORT
from scrapbook.viewport import ScreenSpec, to_standard

import test_golden
from test_effect_oracles import FLOAT_FNS, _quantize, random_image
from test_raster_differential import mgrid_draw_photo

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@contextmanager
def workers(n):
    """Run the strip kernels on n threads, whatever the CPUs."""
    with mock.patch.object(image_mod, "_WORKERS", n):
        yield


# --- test-only whole-image oracles ----------------------------------------

def whole_rgb(fn):
    def apply(image, params):
        src = image.array
        rgb = src[:, :, :3].astype(np.float64)
        out = np.empty_like(src)
        out[:, :, :3] = _quantize(fn(rgb, params))
        out[:, :, 3] = src[:, :, 3]
        return RasterImage.from_array(out)
    return apply


def whole_convolve3x3(image, kernel):
    src = image.array
    rgb = src[:, :, :3].astype(np.float64)
    padded = np.pad(rgb, ((1, 1), (1, 1), (0, 0)), mode="edge")
    h, w = image.height, image.width
    acc = np.zeros_like(rgb)
    for idx, weight in enumerate(kernel.weights):
        if weight == 0:
            continue
        dy, dx = divmod(idx, 3)
        acc += weight * padded[dy:dy + h, dx:dx + w]
    out = np.empty_like(src)
    out[:, :, :3] = _quantize(acc / kernel.divisor + kernel.bias)
    out[:, :, 3] = src[:, :, 3]
    return RasterImage.from_array(out)


KERNELS = {EffectKind.BLUR: fx.BLUR_KERNEL, EffectKind.SHARPEN: fx.SHARPEN_KERNEL,
           EffectKind.EMBOSS: fx.EMBOSS_KERNEL}


def whole_image_effect(image, spec):
    if spec.kind in KERNELS:
        return whole_convolve3x3(image, KERNELS[spec.kind])
    return whole_rgb(FLOAT_FNS[spec.kind])(image, spec.params)


# --- generators -----------------------------------------------------------

@st.composite
def strip_shapes(draw):
    """(width, height) at strip edges: one row, rows wider than a strip,
    and k strips of rows with one row less, none or one more."""
    width = draw(st.sampled_from([1, 3, 97, 256, 1000, STRIP_PX + 5]) | st.integers(1, 600))
    rows = max(1, STRIP_PX // width)
    k = draw(st.integers(1, 3))
    height = draw(st.sampled_from([1, k * rows - 1, k * rows, k * rows + 1]))
    return width, max(1, height)


finite = dict(allow_nan=False, allow_infinity=False)
STRIP_SPECS = st.one_of(
    st.sampled_from([fx.grayscale(), fx.invert(), fx.sepia(), fx.desaturate(),
                     fx.blur(), fx.sharpen(), fx.emboss()]),
    st.floats(-255, 255, **finite).map(fx.brightness),
    st.floats(0, 1000, **finite).map(fx.contrast),
    st.floats(-1e4, 1e4, **finite).map(fx.hue),
    st.floats(0, 50, **finite).map(fx.saturate),
    st.floats(0, 255, **finite).map(fx.blackwhite),
)


def test_float_fns_cover_every_strip_and_table_kind():
    adapted = {kind for kind, row in fx._KINDS.items()
               if row.apply.__qualname__.startswith("_per_pixel.")}
    assert set(FLOAT_FNS) == adapted


# --- strip kernels equal whole-image kernels ------------------------------

@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(spec=STRIP_SPECS, shape=strip_shapes(), seed=st.integers(0, 2 ** 32 - 1))
def test_strip_effect_equals_whole_image_effect(n, spec, shape, seed):
    image = random_image(seed, *shape)
    with workers(n):
        got = apply_effect(image, spec)
    assert got == whole_image_effect(image, spec), (spec, shape)


@pytest.mark.parametrize("spec", [fx.invert(), fx.brightness(-255), fx.brightness(0.5),
                                  fx.brightness(254.5), fx.contrast(0), fx.contrast(1.7),
                                  fx.contrast(1e300)])
def test_table_kinds_equal_their_float_function_on_every_value(spec):
    values = np.arange(256)
    arr = np.stack([values, 255 - values, values * 7 % 256, values // 2], axis=-1)
    image = RasterImage.from_array(arr.astype(np.uint8)[None])
    with np.errstate(over="ignore"):
        want = whole_rgb(FLOAT_FNS[spec.kind])(image, spec.params)
    assert apply_effect(image, spec) == want


# --- draws on a region of many strips against the mgrid oracle ------------

def strip_region(width, height):
    """The rects of a width x height frame's row strips, as a region."""
    rows = _strip_rows(width)
    return [Rect(0, r0, width, min(rows, height - r0)) for r0 in range(0, height, rows)]


def _content(nprng, w, h, alpha):
    arr = nprng.integers(0, 256, (h, w, 4), dtype=np.uint8)
    if alpha == "opaque":
        arr[:, :, 3] = 255
    elif alpha == "top half opaque":
        # Strips over the top half copy texels, the rest blend them.
        arr[: h // 2, :, 3] = 255
        arr[h // 2:, :, 3] &= 0xFE
    return RasterImage.from_array(arr)


@pytest.mark.parametrize("n", [1, 2])
@PROPERTY
@given(data=st.data())
def test_draw_in_many_strips_equals_mgrid_draw(n, data):
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    nprng = np.random.default_rng(seed)
    fw, fh = data.draw(st.sampled_from([(600, 400), (700, 301), (1, 300), (2000, 90)]))
    screen = data.draw(st.sampled_from([ScreenSpec.identity(fw, fh), ScreenSpec.fit(fw, fh)]))
    alpha = data.draw(st.sampled_from(["opaque", "top half opaque", "any"]))
    content = _content(nprng, data.draw(st.integers(1, 300)), data.draw(st.integers(2, 300)), alpha)
    angle = data.draw(st.sampled_from([0.0, 90.0, 180.0, 1e-9, -30.0]) | st.floats(-360, 360))
    cx, cy = to_standard(screen, (data.draw(st.floats(-50, fw + 50)),
                                  data.draw(st.floats(-50, fh + 50))))
    scale = data.draw(st.floats(0.5, 4.0)) * fh / content.height / float(screen.scale)
    photo = PhotoObject(id="p", source="s", source_size=(content.width, content.height),
                        scale=scale, angle=angle, center=(float(cx), float(cy)))
    want = Frame(fw, fh)
    want.rgb[:] = nprng.integers(0, 256, (fh, fw, 3), dtype=np.uint8)
    got = want.copy()
    mgrid_draw_photo(want, photo, content, screen)
    with workers(n):
        draw_photo(got, photo, content, screen, raster.plan(
            photo, screen, strip_region(fw, fh), raster.footprint(photo, screen),
            (content.width, content.height)))
    assert got == want, photo


def test_translucent_strips_mix_copy_and_blend():
    """A photo whose top rows are opaque and bottom rows translucent: with
    the draw's region cut into strips, some strips take the exact copy and
    some the blend, and the frame still equals the one-pass mgrid draw."""
    nprng = np.random.default_rng(5)
    content = _content(nprng, 40, 60, "top half opaque")
    screen = ScreenSpec.identity(800, 600)
    for angle in (0.0, 20.0):
        photo = PhotoObject(id="p", source="s", source_size=(40, 60), scale=10.0,
                            angle=angle, center=(400.0, 300.0))
        want = Frame(800, 600)
        want.rgb[:] = nprng.integers(0, 256, (600, 800, 3), dtype=np.uint8)
        got = want.copy()
        mgrid_draw_photo(want, photo, content, screen)
        paths = []
        all_opaque = raster._all_opaque
        with mock.patch.object(raster, "_all_opaque",
                               lambda texels: paths.append(bool(all_opaque(texels))) or paths[-1]):
            draw_photo(got, photo, content, screen, raster.plan(
                photo, screen, strip_region(800, 600), raster.footprint(photo, screen),
                (content.width, content.height)))
        assert got == want, angle
        assert set(paths) == {True, False}, angle


# --- worker count, concurrency and errors ---------------------------------

def test_one_worker_reproduces_the_goldens():
    with workers(1):
        for name in test_golden.POOL_IMAGES:
            assert test_golden.effect_digests(name) == test_golden.EFFECT_DIGESTS[name]
        scene = test_golden._exp_c_scene(100, STANDARD_VIEWPORT)
        frame, _ = render_full(BackendKind.RASTER, scene, test_golden.bench.photo_pool(),
                               ScreenSpec.fit(1920, 1200))
    assert test_golden._frame_digest(frame) == test_golden.SCENE_DIGESTS["raster"]


def _blur_and_draw(image, photo, screen):
    """Blur the image, then draw it twice: at the photo's transform on the
    whole box, and at -40 degrees and twice the scale on a region, from the
    window its rects sample."""
    frame = Frame(screen.width, screen.height)
    blurred = apply_effect(image, fx.blur())
    draw_photo(frame, photo, blurred, screen)
    tilted = PhotoObject(id="q", source="s", source_size=photo.source_size,
                         scale=2 * photo.scale, angle=-40.0, center=photo.center)
    planned = raster.plan(tilted, screen, [Rect(100, 80, 700, 540)],
                          raster.footprint(tilted, screen), photo.source_size)
    planned = planned._replace(window=_window_of(planned))
    draw_photo(frame, tilted, blurred.read(*astuple(planned.window)), screen, planned)
    return hashlib.sha256(bytes(blurred.data) + bytes(frame.data)).hexdigest()


def test_concurrent_callers_get_the_serial_bytes():
    """Four threads run strip kernels and draws that share their bands at
    once, as the HTTP server's handler threads do, and share the one
    strip pool.  The content is translucent, so a strip or a band skipped
    or blended twice changes the bytes."""
    image = random_image(3, 500, 400)
    screen = ScreenSpec.identity(900, 700)
    photo = PhotoObject(id="p", source="s", source_size=(500, 400), scale=1.3,
                        angle=17.0, center=(450.0, 350.0))
    with workers(1):
        serial = _blur_and_draw(image, photo, screen)
    # Both draws are above the threshold: each shares its bands.
    with workers(2), mock.patch.object(raster, "_shared", wraps=raster._shared) as shared:
        assert _blur_and_draw(image, photo, screen) == serial
    assert shared.call_count == 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with workers(2), ThreadPoolExecutor(max_workers=4) as callers:
            futures = [callers.submit(_blur_and_draw, image, photo, screen) for _ in range(8)]
            assert [f.result(timeout=60) for f in futures] == [serial] * 8
    finally:
        sys.setswitchinterval(interval)


def test_single_worker_or_single_strip_runs_inline_in_order():
    for n, height in ((1, 50), (2, 1)):
        seen = []
        with workers(n):
            _row_strips(height, STRIP_PX, lambda r0, r1: seen.append(
                (r0, r1, threading.get_ident())))
        assert seen == [(r, r + 1, threading.get_ident()) for r in range(height)]


def test_a_draw_below_the_threshold_hands_nothing_to_the_pool_thread():
    """An axis-aligned draw of any size, small as a drag's damage box or
    larger than 2**20 pixels, and a rotated draw whose bands evaluate
    fewer than raster.SHARED_PX pixels are one kernel pass on the caller
    and hand nothing to the pool thread.  The content covers the whole
    frame, so the box is side x side pixels."""
    content = random_image(7, 60, 40)
    for side, angle, name in ((1000, 0.0, "_draw_axis"), (1100, 0.0, "_draw_axis"),
                              (300, 30.0, "_draw_rotated"), (500, 30.0, "_draw_rotated")):
        assert angle == 0.0 or side * side < raster.SHARED_PX
        photo = PhotoObject(id="p", source="s", source_size=(60, 40), scale=side / 20.0,
                            angle=angle, center=(side / 2.0, side / 2.0))
        pool = mock.Mock()
        with mock.patch.object(image_mod, "_WORKERS", 2), \
                mock.patch.object(image_mod, "_POOL", pool), \
                mock.patch.object(raster, name, wraps=getattr(raster, name)) as kernel:
            draw_photo(Frame(side, side), photo, content, ScreenSpec.identity(side, side))
        assert not pool.submit.called, (side, angle)
        assert kernel.call_count == 1, (side, angle)


def _window_of(planned):
    """The bounding rect of the texels the plan's rects sample."""
    x0, y0, _, _ = planned.bounds.min(axis=0).tolist()
    _, _, x1, y1 = planned.bounds.max(axis=0).tolist()
    return Rect(x0, y0, x1 - x0, y1 - y0)


@PROPERTY
@given(data=st.data())
def test_a_rotated_draw_above_the_threshold_shares_its_bands_and_equals_one_worker(data):
    """A rotated draw whose bands evaluate at least raster.SHARED_PX pixels
    hands its bands to the pool thread too, and writes the bytes of the
    same draw on one worker: opaque, partly or wholly translucent content,
    on the whole box or on a region whose window has a non-zero origin."""
    nprng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    alpha = data.draw(st.sampled_from(["opaque", "top half opaque", "any"]))
    content = _content(nprng, data.draw(st.integers(16, 300)), data.draw(st.integers(16, 300)), alpha)
    angle = data.draw(st.sampled_from([-30.0, 1e-9, 89.5]) | st.floats(1.0, 89.0))
    screen = ScreenSpec.identity(800, 600)
    # The rotated rect holds a disc of radius 800 about a centre near the
    # frame's, so every pixel of the frame is inside, and the region's
    # pixels lie at least 300 pixels, three texels, from each edge.
    photo = PhotoObject(id="p", source="s", source_size=(content.width, content.height),
                        scale=1600.0 / min(content.width, content.height), angle=angle,
                        center=(data.draw(st.floats(350, 450)), data.draw(st.floats(250, 350))))
    windowed = data.draw(st.booleans())
    planned = raster.plan(photo, screen, [Rect(50, 50, 700, 500)] if windowed else None,
                          raster.footprint(photo, screen), (content.width, content.height))
    if windowed:
        planned = planned._replace(window=_window_of(planned))
        assert planned.window.x > 0 and planned.window.y > 0
    drawn = content.read(*astuple(planned.window))
    want = Frame(800, 600)
    want.rgb[:] = nprng.integers(0, 256, (600, 800, 3), dtype=np.uint8)
    got = want.copy()
    with workers(1):
        draw_photo(want, photo, drawn, screen, planned)
    with workers(2), mock.patch.object(image_mod._POOL, "submit",
                                       wraps=image_mod._POOL.submit) as submit:
        draw_photo(got, photo, drawn, screen, planned)
    assert submit.called, photo
    assert got == want, photo


def test_strips_cover_the_rows_once():
    for width, height in ((1, 3 * STRIP_PX + 1), (300, 1000), (STRIP_PX + 1, 7)):
        hits = np.zeros(height, dtype=np.int64)

        def work(r0, r1):
            assert (r1 - r0) * width <= max(STRIP_PX, width)
            hits[r0:r1] += 1

        with workers(2):
            _row_strips(height, width, work)
        assert (hits == 1).all()


def test_a_failing_strip_is_raised_after_every_other_strip_returns():
    finished = []
    lock = threading.Lock()

    def work(r0, r1):
        if r0 == 0:
            raise RuntimeError("strip 0")
        time.sleep(0.01)
        with lock:
            finished.append(r0)

    with workers(2), pytest.raises(RuntimeError, match="strip 0"):
        _row_strips(12, STRIP_PX, work)
    assert sorted(finished) == list(range(1, 12))


def test_the_first_strip_error_is_raised():
    def work(r0, r1):
        raise ValueError(f"strip {r0}")

    with workers(2), pytest.raises(ValueError, match="strip 0"):
        _row_strips(6, STRIP_PX, work)
