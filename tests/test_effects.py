import colorsys
import math
import random

import numpy as np
import pytest

from scrapbook import effects as fx
from scrapbook.effects import (EffectKind, EffectParamError, EffectSpec,
                               Kernel3x3, apply_chain, apply_effect,
                               chain_output_size, chain_pixels, convolve3x3)
from scrapbook.geometry import Rect
from scrapbook.image import RasterImage

from conftest import random_image


def px(rgba):
    return RasterImage.filled(1, 1, rgba)


def rhu(v):
    return math.floor(v + 0.5)


# --- frozen single-pixel values -----------------------------------------

def test_invert_pixel():
    assert apply_effect(px((10, 20, 30, 255)), fx.invert()).get_pixel(0, 0) == (245, 235, 225, 255)


def test_grayscale_red_luma():
    # independent evaluation: 0.299*255 = 76.245 -> 76
    assert apply_effect(px((255, 0, 0, 255)), fx.grayscale()).get_pixel(0, 0) == (76, 76, 76, 255)


def test_sepia_gray100():
    # 100*(0.393+0.769+0.189)=135.1; 100*1.203=120.3; 100*0.937=93.7
    assert apply_effect(px((100, 100, 100, 255)), fx.sepia()).get_pixel(0, 0) == (135, 120, 94, 255)


def test_hue_180_red_to_cyan():
    assert apply_effect(px((255, 0, 0, 255)), fx.hue(180)).get_pixel(0, 0) == (0, 255, 255, 255)


def test_blackwhite_extremes():
    assert apply_effect(px((255, 255, 255, 255)), fx.blackwhite(128)).get_pixel(0, 0)[:3] == (255, 255, 255)
    assert apply_effect(px((0, 0, 0, 255)), fx.blackwhite(128)).get_pixel(0, 0)[:3] == (0, 0, 0)


# --- per-pixel oracles on random images ----------------------------------

def test_grayscale_matches_scalar_oracle(rng):
    img = random_image(rng, max_side=16)
    out = apply_effect(img, fx.grayscale())
    for y in range(img.height):
        for x in range(img.width):
            r, g, b, a = img.get_pixel(x, y)
            luma = rhu(0.299 * r + 0.587 * g + 0.114 * b)
            assert out.get_pixel(x, y) == (luma, luma, luma, a)


def test_sepia_matches_scalar_oracle(rng):
    img = random_image(rng, max_side=12)
    out = apply_effect(img, fx.sepia())
    for y in range(img.height):
        for x in range(img.width):
            r, g, b, a = img.get_pixel(x, y)
            want = (min(255, rhu(0.393 * r + 0.769 * g + 0.189 * b)),
                    min(255, rhu(0.349 * r + 0.686 * g + 0.168 * b)),
                    min(255, rhu(0.272 * r + 0.534 * g + 0.131 * b)))
            assert out.get_pixel(x, y)[:3] == want


def test_brightness_contrast_scalar_oracle(rng):
    img = random_image(rng, max_side=12)
    bright = apply_effect(img, fx.brightness(-40))
    contr = apply_effect(img, fx.contrast(1.7))
    for y in range(img.height):
        for x in range(img.width):
            r, g, b, a = img.get_pixel(x, y)
            assert bright.get_pixel(x, y) == tuple(
                max(0, min(255, rhu(c - 40))) for c in (r, g, b)) + (a,)
            assert contr.get_pixel(x, y) == tuple(
                max(0, min(255, rhu((c - 128) * 1.7 + 128))) for c in (r, g, b)) + (a,)


def test_hue_against_colorsys_oracle(rng):
    # colorsys is an independent HSL implementation; allow 1-step rounding skew
    img = random_image(rng, max_side=10)
    degrees = 73.0
    out = apply_effect(img, fx.hue(degrees))
    for y in range(img.height):
        for x in range(img.width):
            r, g, b, a = img.get_pixel(x, y)
            h, l, s = colorsys.rgb_to_hls(r / 255.0, g / 255.0, b / 255.0)
            rr, gg, bb = colorsys.hls_to_rgb((h + degrees / 360.0) % 1.0, l, s)
            got = out.get_pixel(x, y)
            for have, want in zip(got[:3], (rr, gg, bb)):
                assert abs(have - rhu(want * 255)) <= 1
            assert got[3] == a


def test_saturate_against_colorsys_oracle(rng):
    img = random_image(rng, max_side=10)
    factor = 0.4
    out = apply_effect(img, fx.saturate(factor))
    for y in range(img.height):
        for x in range(img.width):
            r, g, b, a = img.get_pixel(x, y)
            h, l, s = colorsys.rgb_to_hls(r / 255.0, g / 255.0, b / 255.0)
            rr, gg, bb = colorsys.hls_to_rgb(h, l, min(1.0, s * factor))
            for have, want in zip(out.get_pixel(x, y)[:3], (rr, gg, bb)):
                assert abs(have - rhu(want * 255)) <= 1


# --- algebraic properties -------------------------------------------------

@pytest.mark.parametrize("spec", [fx.invert(), fx.flip_h(), fx.flip_v()])
def test_involutions(rng, spec):
    for _ in range(25):
        img = random_image(rng, max_side=24)
        assert apply_effect(apply_effect(img, spec), spec) == img


@pytest.mark.parametrize("spec", [fx.grayscale(), fx.desaturate()])
def test_idempotent(rng, spec):
    for _ in range(25):
        img = random_image(rng, max_side=24)
        once = apply_effect(img, spec)
        assert apply_effect(once, spec) == once


@pytest.mark.parametrize("spec", [
    fx.brightness(0), fx.contrast(1), fx.hue(0), fx.saturate(1), fx.opacity(1),
])
def test_identity_parameters(rng, spec):
    for _ in range(10):
        img = random_image(rng, max_side=16)
        assert apply_effect(img, spec) == img


def test_effects_deterministic(rng):
    img = random_image(rng, max_side=16)
    for kind_spec in (fx.sepia(), fx.hue(123.4), fx.blur(), fx.emboss()):
        assert apply_effect(img, kind_spec) == apply_effect(img, kind_spec)


def test_dimensions_preserved_except_border(rng):
    img = random_image(rng, max_side=12)
    for spec in (fx.grayscale(), fx.blur(), fx.redeye(Rect(0, 0, 4, 4)), fx.opacity(0.5)):
        out = apply_effect(img, spec)
        assert (out.width, out.height) == (img.width, img.height)
    framed = apply_effect(img, fx.border(3, (9, 8, 7, 255)))
    assert (framed.width, framed.height) == (img.width + 6, img.height + 6)
    assert framed.get_pixel(0, 0) == (9, 8, 7, 255)
    assert framed.get_pixel(3, 3) == img.get_pixel(0, 0)


def test_opacity_touches_only_alpha(rng):
    img = random_image(rng, max_side=12)
    out = apply_effect(img, fx.opacity(0.5))
    assert np.array_equal(out.array[:, :, :3], img.array[:, :, :3])
    expected = np.floor(img.array[:, :, 3].astype(np.float64) * 0.5 + 0.5)
    assert np.array_equal(out.array[:, :, 3], expected.astype(np.uint8))


def test_alpha_untouched_by_color_effects(rng):
    img = random_image(rng, max_side=12)
    for spec in (fx.invert(), fx.sepia(), fx.blur(), fx.blackwhite(90), fx.contrast(2)):
        assert np.array_equal(apply_effect(img, spec).array[:, :, 3], img.array[:, :, 3])


# Every kind, with opacity and border both ways round.
ALPHA_SPECS = [fx.grayscale(), fx.invert(), fx.sepia(), fx.brightness(-40), fx.contrast(1.7),
               fx.hue(77.0), fx.saturate(1.5), fx.desaturate(), fx.blackwhite(100),
               fx.blur(), fx.sharpen(), fx.emboss(), fx.opacity(1.0), fx.opacity(0.6),
               fx.flip_h(), fx.flip_v(), fx.border(2, (1, 2, 3, 255)),
               fx.border(3, (1, 2, 3, 90)), fx.redeye(Rect(1, 1, 5, 4))]


@pytest.mark.parametrize("spec", ALPHA_SPECS, ids=lambda s: s.kind.value)
def test_registry_alpha_matches_apply(rng, spec):
    img = random_image(rng, max_side=12)
    alpha = fx.effect_alpha(spec, img.array[:, :, 3])
    assert np.array_equal(alpha, apply_effect(img, spec).array[:, :, 3])
    opaque = random_image(rng, max_side=12, opaque=True)
    keeps = (apply_effect(opaque, spec).array[:, :, 3] == 255).all()
    assert keeps != fx.lowers_alpha((spec,))


def test_redeye_rule():
    img = RasterImage.filled(4, 1, (0, 0, 0, 255))
    img.set_pixel(0, 0, (200, 40, 60, 255))   # 200 > 1.5*60: hot
    img.set_pixel(1, 0, (200, 150, 60, 255))  # 200 < 225: not hot
    img.set_pixel(2, 0, (90, 10, 20, 255))    # hot, outside region
    out = apply_effect(img, fx.redeye(Rect(0, 0, 2, 1)))
    assert out.get_pixel(0, 0) == (50, 40, 60, 255)  # (40+60)/2
    assert out.get_pixel(1, 0) == (200, 150, 60, 255)
    assert out.get_pixel(2, 0) == (90, 10, 20, 255)


def test_flips_mirror(rng):
    img = random_image(rng, max_side=9)
    fh = apply_effect(img, fx.flip_h())
    fv = apply_effect(img, fx.flip_v())
    assert np.array_equal(fh.array, img.array[:, ::-1])
    assert np.array_equal(fv.array, img.array[::-1, :])


# --- convolution ----------------------------------------------------------

def test_identity_kernel(rng):
    ident = Kernel3x3((0, 0, 0, 0, 1, 0, 0, 0, 0))
    img = random_image(rng, max_side=16)
    assert convolve3x3(img, ident) == img


def test_box_blur_constant_fixed_point():
    img = RasterImage.filled(5, 4, (37, 142, 250, 200))
    assert apply_effect(img, fx.blur()) == img


def test_sharpen_constant_fixed_point():
    # sharpen weights sum to 1, so constant images are unchanged
    assert sum(fx.SHARPEN_KERNEL.weights) == 1
    img = RasterImage.filled(6, 3, (11, 99, 180, 255))
    assert apply_effect(img, fx.sharpen()) == img


def test_convolution_scalar_oracle(rng):
    kernel = Kernel3x3((1, -2, 0.5, 3, 1, -1, 0, 2, -0.25), divisor=2.0, bias=10.0)
    img = random_image(rng, max_side=8)
    out = convolve3x3(img, kernel)

    def sample(x, y, c):
        x = min(max(x, 0), img.width - 1)
        y = min(max(y, 0), img.height - 1)
        return img.get_pixel(x, y)[c]

    for y in range(img.height):
        for x in range(img.width):
            for c in range(3):
                acc = sum(w * sample(x + dx - 1, y + dy - 1, c)
                          for i, w in enumerate(kernel.weights)
                          for dy, dx in [divmod(i, 3)])
                want = max(0, min(255, rhu(acc / 2.0 + 10.0)))
                assert out.get_pixel(x, y)[c] == want
            assert out.get_pixel(x, y)[3] == img.get_pixel(x, y)[3]


def test_zero_divisor_rejected():
    with pytest.raises(ValueError):
        Kernel3x3((1,) * 9, divisor=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_kernel_values_rejected(bad):
    for i in range(9):
        weights = [1] * 9
        weights[i] = bad
        with pytest.raises(ValueError, match=f"weight {i} must be a finite number"):
            Kernel3x3(tuple(weights))
    with pytest.raises(ValueError, match="divisor must be a finite number"):
        Kernel3x3((1,) * 9, divisor=bad)
    with pytest.raises(ValueError, match="bias must be a finite number"):
        Kernel3x3((1,) * 9, bias=bad)


# --- chains ---------------------------------------------------------------

def test_empty_chain_is_identity(rng):
    img = random_image(rng)
    out = apply_chain(img, [])
    assert out == img and out is not img


def test_double_invert_chain(rng):
    img = random_image(rng, max_side=16)
    assert apply_chain(img, [fx.invert(), fx.invert()]) == img


def test_grayscale_chain_idempotence(rng):
    img = random_image(rng, max_side=16)
    assert apply_chain(img, [fx.grayscale(), fx.grayscale()]) == apply_chain(img, [fx.grayscale()])


def test_chain_pixel_accounting():
    chain = [fx.invert(), fx.border(2, (0, 0, 0, 255)), fx.blur()]
    # 10x10 invert, then borders make it 14x14 for itself and the blur
    assert chain_pixels(10, 10, chain) == 100 + 196 + 196
    assert chain_output_size(10, 10, chain) == (14, 14)
    assert chain_pixels(10, 10, []) == 0


def test_border_output_limited_before_allocation():
    edge = 1 << 12  # a 4096x4096 output is exactly MAX_IMAGE_PIXELS
    assert edge * edge == fx.MAX_IMAGE_PIXELS
    one = [fx.border(1, (0, 0, 0, 255))]
    assert chain_output_size(edge - 2, edge - 2, one) == (edge, edge)
    with pytest.raises(EffectParamError):
        chain_output_size(edge - 1, edge - 2, one)
    with pytest.raises(EffectParamError):
        chain_pixels(2, 2, [fx.border(10 ** 12, (0, 0, 0, 255))])
    with pytest.raises(EffectParamError):
        apply_effect(RasterImage.filled(2, 2), fx.border(10 ** 12, (0, 0, 0, 255)))


# --- parameter validation --------------------------------------------------

@pytest.mark.parametrize("bad", [
    lambda: fx.brightness(300),
    lambda: fx.brightness(float("nan")),
    lambda: fx.contrast(-0.1),
    lambda: fx.saturate(-1),
    lambda: fx.blackwhite(256),
    lambda: fx.opacity(1.5),
    lambda: fx.border(-1, (0, 0, 0, 255)),
    lambda: fx.border(1, (0, 0, 300, 255)),
    lambda: fx.redeye(Rect(0, 0, 0, 0)),
    lambda: EffectSpec(EffectKind.HUE, {}),
    lambda: EffectSpec(EffectKind.INVERT, {"degrees": 1}),
    lambda: fx.border(1, (1, 2, 3, True)),
    lambda: fx.redeye(Rect(0.5, 0, 1, 2)),
    lambda: fx.hue(10 ** 400),
    lambda: EffectSpec.from_json_dict({"kind": "redeye", "region": [0, 0, -1, 2]}),
    lambda: EffectSpec.from_json_dict({"kind": "redeye", "region": [0, 0, "a", 2]}),
    lambda: EffectSpec.from_json_dict({"kind": "redeye", "region": [0.5, 0, 1, 2]}),
    lambda: EffectSpec.from_json_dict({"kind": "border", "width": 1, "color": [1, 2, 3, True]}),
    lambda: EffectSpec.from_json_dict({"kind": ["x"]}),
    lambda: EffectSpec.from_json_dict(5),
])
def test_out_of_range_params(bad):
    with pytest.raises(EffectParamError):
        bad()


def test_unknown_kind_unrepresentable():
    with pytest.raises(ValueError):
        EffectSpec("posterize")
    with pytest.raises(EffectParamError):
        EffectSpec.from_json_dict({"kind": "posterize"})


def test_spec_json_round_trip():
    specs = [fx.brightness(-12), fx.border(2, (1, 2, 3, 4)), fx.redeye(Rect(5, 6, 7, 8)),
             fx.hue(270.5), fx.invert()]
    for spec in specs:
        assert EffectSpec.from_json_dict(spec.to_json_dict()) == spec


@pytest.mark.parametrize("spec", [fx.invert(), fx.brightness(-37), fx.brightness(12.5),
                                  fx.contrast(0.0), fx.contrast(1e300), fx.saturate(0.3),
                                  fx.saturate(2.0), fx.hue(120), fx.hue(-7.25)],
                         ids=lambda spec: f"{spec.kind.value}{list(spec.params.values())}")
def test_a_cached_table_equals_a_fresh_one_and_cannot_be_written(spec):
    """Tables built per kind and parameter value are cached: a call with
    the same value gets the same arrays, equal to freshly built ones,
    read-only, and the kind's bytes are those of a call after the cache
    is cleared."""
    image = random_image(random.Random(11), max_side=12)
    if spec.kind in fx._CHANNEL_MAPS:
        key = (spec.kind, tuple(spec.params.items()))
        cache = fx._pair_tables
    else:
        key = (spec.params.get("factor"),)
        cache = fx._hsl_colour_tables
    cached = cache(*key)
    assert cache(*key) is cached
    fresh = cache.__wrapped__(*key)
    for table, want in zip(cached, fresh, strict=True):
        assert np.array_equal(table, want) and table.dtype == want.dtype
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    warm = apply_effect(image, spec)
    cache.cache_clear()
    assert apply_effect(image, spec) == warm
