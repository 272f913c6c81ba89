"""Byte kernels of the colour and 3x3 effects against the float kernels
they replaced.

The functions under "test-only float oracles" are the per-pixel float64
kernels as they stood before hue, saturate, the luma kinds, the table
kinds and the convolutions took their operands from tables and integer
sums, kept verbatim.  Every kind must give their bytes: exhaustively on
all 2**24 colours for one parameter of each colour kind and on every
byte pair for the table kinds, and under derandomized Hypothesis
properties over parameters, edge colours and integer kernels at the
int32 edge.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import effects as fx
from scrapbook.effects import EffectKind, Kernel3x3, apply_effect, convolve3x3
from scrapbook.image import RasterImage, _row_strips

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


# --- test-only float oracles (verbatim) -------------------------------------

def _round_half_up(arr: np.ndarray) -> np.ndarray:
    return np.floor(arr + 0.5)


def _quantize(arr: np.ndarray) -> np.ndarray:
    return np.clip(_round_half_up(arr), 0, 255).astype(np.uint8)


def _luma(rgb: np.ndarray) -> np.ndarray:
    return _round_half_up(0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2])


def _rgb_to_hsl(rgb: np.ndarray):
    """RGB in [0,1] to hexagonal HSL: H in [0,360), S and L in [0,1]."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    light = (mx + mn) / 2.0
    delta = mx - mn
    chromatic = delta > 0
    sat = np.zeros_like(light)
    denom = 1.0 - np.abs(2.0 * light - 1.0)
    np.divide(delta, denom, out=sat, where=chromatic)
    h = np.zeros_like(light)
    r_max = chromatic & (mx == r)
    g_max = chromatic & (mx == g) & ~r_max
    b_max = chromatic & ~r_max & ~g_max
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.where(r_max, ((g - b) / delta) % 6.0, h)
        h = np.where(g_max, (b - r) / delta + 2.0, h)
        h = np.where(b_max, (r - g) / delta + 4.0, h)
    return h * 60.0, sat, light


def _hsl_to_rgb(h: np.ndarray, s: np.ndarray, light: np.ndarray) -> np.ndarray:
    c = (1.0 - np.abs(2.0 * light - 1.0)) * s
    hp = (h % 360.0) / 60.0
    x = c * (1.0 - np.abs(hp % 2.0 - 1.0))
    zero = np.zeros_like(c)
    sector = [hp < 1, hp < 2, hp < 3, hp < 4, hp < 5, hp >= 5]
    r1 = np.select(sector, [c, x, zero, zero, x, c])
    g1 = np.select(sector, [x, c, c, x, zero, zero])
    b1 = np.select(sector, [zero, zero, x, c, c, x])
    m = light - c / 2.0
    return np.stack([r1 + m, g1 + m, b1 + m], axis=-1)


def convolve3x3_float(image: RasterImage, kernel: Kernel3x3) -> RasterImage:
    """Convolve RGB channels with clamp-to-edge borders; alpha is copied."""
    src = image.array
    h, w = image.height, image.width
    taps = [(divmod(idx, 3), weight) for idx, weight in enumerate(kernel.weights) if weight != 0]
    out = np.empty_like(src)

    def strip(r0: int, r1: int) -> None:
        rows = np.clip(np.arange(r0 - 1, r1 + 1), 0, h - 1)
        padded = np.pad(src[rows, :, :3].astype(np.float64), ((0, 0), (1, 1), (0, 0)), mode="edge")
        acc = np.zeros((r1 - r0, w, 3))
        for (dy, dx), weight in taps:
            acc += weight * padded[dy:dy + r1 - r0, dx:dx + w]
        out[r0:r1, :, :3] = _quantize(acc / kernel.divisor + kernel.bias)
        out[r0:r1, :, 3] = src[r0:r1, :, 3]

    _row_strips(h, w, strip)
    return RasterImage.from_array(out)


def _rgb(fn):
    """Row adapter for kinds that map the float RGB planes: fn(rgb, params)
    is quantized and alpha is kept, one row strip at a time."""
    def apply(image: RasterImage, params: dict) -> RasterImage:
        src = image.array
        out = np.empty_like(src)

        def strip(r0: int, r1: int) -> None:
            out[r0:r1, :, :3] = _quantize(fn(src[r0:r1, :, :3].astype(np.float64), params))
            out[r0:r1, :, 3] = src[r0:r1, :, 3]

        _row_strips(image.height, image.width, strip)
        return RasterImage.from_array(out)
    return apply


def _gray(rgb, params):
    return np.repeat(_luma(rgb)[..., None], 3, axis=-1)


def _hue(rgb, params):
    h, s, light = _rgb_to_hsl(rgb / 255.0)
    return _hsl_to_rgb((h + params["degrees"]) % 360.0, s, light) * 255.0


def _saturate(rgb, params):
    h, s, light = _rgb_to_hsl(rgb / 255.0)
    return _hsl_to_rgb(h, np.clip(s * params["factor"], 0.0, 1.0), light) * 255.0


def _blackwhite(rgb, params):
    mask = _luma(rgb) >= params["threshold"]
    return np.repeat(np.where(mask, 255.0, 0.0)[..., None], 3, axis=-1)


# The float function of every kind that the per-pixel adapter runs.
FLOAT_FNS = {
    EffectKind.GRAYSCALE: _gray,
    EffectKind.INVERT: lambda rgb, p: 255.0 - rgb,
    EffectKind.SEPIA: lambda rgb, p: rgb @ fx._SEPIA.T,
    EffectKind.BRIGHTNESS: lambda rgb, p: rgb + p["delta"],
    EffectKind.CONTRAST: lambda rgb, p: (rgb - 128.0) * p["factor"] + 128.0,
    EffectKind.HUE: _hue,
    EffectKind.SATURATE: _saturate,
    EffectKind.DESATURATE: _gray,
    EffectKind.BLACKWHITE: _blackwhite,
}


def oracle_effect(image, spec):
    """What the float kernels give for one colour or table kind."""
    with np.errstate(over="ignore"):
        return _rgb(FLOAT_FNS[spec.kind])(image, spec.params)


# --- exhaustive ---------------------------------------------------------------

def colour_slab(blue_high: int) -> RasterImage:
    """All 2**20 colours whose blue has the high nibble blue_high, as a
    1024x1024 image; alpha varies so that keeping it is checked too."""
    c = np.arange(2 ** 20, dtype=np.uint32)
    arr = np.empty((2 ** 20, 4), dtype=np.uint8)
    arr[:, 0] = c & 255
    arr[:, 1] = (c >> 8) & 255
    arr[:, 2] = (blue_high << 4) | (c >> 16)
    arr[:, 3] = (c * 7 + blue_high) & 255
    return RasterImage.from_array(arr.reshape(1024, 1024, 4))


@pytest.mark.parametrize("spec", [fx.hue(137), fx.saturate(1.37), fx.grayscale(),
                                  fx.desaturate(), fx.blackwhite(127.5)],
                         ids=lambda spec: spec.kind.value)
def test_colour_kind_equals_float_kernel_on_every_colour(spec):
    for blue_high in range(16):
        image = colour_slab(blue_high)
        assert apply_effect(image, spec) == oracle_effect(image, spec), blue_high


def byte_pairs() -> RasterImage:
    """Every (R, G) and every (B, A) byte pair, as a 256x256 image."""
    x, y = np.meshgrid(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8))
    return RasterImage.from_array(np.stack([x, y, y, x], axis=-1))


@pytest.mark.parametrize("spec", [fx.invert(), fx.brightness(-255), fx.brightness(37.5),
                                  fx.brightness(255), fx.contrast(0), fx.contrast(0.6),
                                  fx.contrast(1.7), fx.contrast(1e300)],
                         ids=lambda spec: f"{spec.kind.value}{list(spec.params.values())}")
def test_table_kind_equals_float_kernel_on_every_byte_pair(spec):
    image = byte_pairs()
    assert apply_effect(image, spec) == oracle_effect(image, spec)


# --- properties -------------------------------------------------------------

EDGE = st.sampled_from([0, 1, 2, 126, 127, 128, 129, 253, 254, 255])
CHANNEL = EDGE | st.integers(0, 255)


@st.composite
def edge_pixels(draw):
    """A row of pixels weighted to greys, channel ties, 0 and 255."""
    pixels = []
    for _ in range(draw(st.integers(1, 40))):
        r, g, b, a = (draw(CHANNEL) for _ in range(4))
        tie = draw(st.sampled_from(["none", "grey", "rg", "gb", "rb"]))
        if tie == "grey":
            g = b = r
        elif tie == "rg":
            g = r
        elif tie == "gb":
            b = g
        elif tie == "rb":
            b = r
        pixels.append((r, g, b, a))
    return RasterImage.from_array(np.array([pixels], dtype=np.uint8))


finite = dict(allow_nan=False, allow_infinity=False)
DEGREES = (st.sampled_from([0, 60, 120, 180, 240, 300, 360, -360, 720, -0.0, 1e-300, -1e-300,
                            359.99999999999994, -359.99999999999994, 2.0 ** 40, -2.0 ** 40,
                            2.0 ** 40 + 0.5, 1e16, -1e300, -999999999.75])
           | st.floats(-720, 720, **finite) | st.floats(-2.0 ** 42, 2.0 ** 42, **finite)
           | st.floats(**finite) | st.integers(-10 ** 6, 10 ** 6))
COLOUR_SPECS = st.one_of(
    DEGREES.map(fx.hue),
    (st.sampled_from([0, 1, 1.37, 2, 1e300]) | st.floats(0, 50, **finite)).map(fx.saturate),
    st.sampled_from([fx.grayscale(), fx.desaturate(), fx.invert(), fx.sepia()]),
    (EDGE | st.floats(0, 255, **finite)).map(fx.blackwhite),
    st.floats(-255, 255, **finite).map(fx.brightness),
    (st.sampled_from([0, 1, 1e300]) | st.floats(0, 1000, **finite)).map(fx.contrast),
)


@PROPERTY
@given(spec=COLOUR_SPECS, image=edge_pixels())
def test_colour_kinds_equal_float_kernels_on_edge_colours(spec, image):
    assert apply_effect(image, spec) == oracle_effect(image, spec), spec


def random_image(seed, width, height):
    nprng = np.random.default_rng(seed)
    return RasterImage.from_array(nprng.integers(0, 256, (height, width, 4), dtype=np.uint8))


# The largest whole weight w for which nine of them keep 255 * 9w < 2**31.
EDGE_WEIGHT = (2 ** 31 - 1) // (255 * 9)


@st.composite
def integer_kernels(draw):
    """Whole-weight kernels, many at or just past the int32 edge."""
    scale = draw(st.sampled_from([1, 2, 1000, EDGE_WEIGHT, EDGE_WEIGHT + 1, 2 * EDGE_WEIGHT]))
    weights = tuple(draw(st.integers(-1, 1)) * scale
                    + draw(st.sampled_from([0, 0, 1, -1])) for _ in range(9))
    whole_float = draw(st.booleans())
    if whole_float:
        weights = tuple(float(w) for w in weights)
    total = sum(abs(w) for w in weights) or 1
    divisor = draw(st.sampled_from([1.0, 9.0, -3.0, float(total), total / 255.0]))
    bias = draw(st.sampled_from([0.0, 128.0, -0.5, 0.5]))
    return Kernel3x3(weights, divisor=divisor, bias=bias)


@PROPERTY
@given(kernel=integer_kernels(), seed=st.integers(0, 2 ** 32 - 1),
       width=st.integers(1, 40), height=st.integers(1, 40), bright=st.booleans())
def test_integer_kernels_equal_float_convolution(kernel, seed, width, height, bright):
    image = random_image(seed, width, height)
    if bright:
        image.array[:, :, :3] = 255
    assert convolve3x3(image, kernel) == convolve3x3_float(image, kernel), kernel


def test_kernels_at_the_int32_edge_take_the_right_accumulator():
    below = Kernel3x3((EDGE_WEIGHT,) * 9, divisor=float(9 * EDGE_WEIGHT))
    past = Kernel3x3((EDGE_WEIGHT + 1,) * 9, divisor=float(9 * EDGE_WEIGHT + 9))
    assert below.accumulator is np.int32
    assert past.accumulator is np.float64
    assert Kernel3x3((1.5,) + (0,) * 8).accumulator is np.float64
    for kernel in (fx.BLUR_KERNEL, fx.SHARPEN_KERNEL, fx.EMBOSS_KERNEL):
        assert kernel.accumulator is np.int32
    # The sum 255 * 9 * (EDGE_WEIGHT + 1) no longer fits int32.
    image = RasterImage.filled(3, 2, (255, 255, 255, 255))
    for kernel in (below, past):
        assert convolve3x3(image, kernel) == convolve3x3_float(image, kernel)
    assert convolve3x3(image, past).get_pixel(1, 1) == (255, 255, 255, 255)


def mixed_image(seed: int) -> RasterImage:
    """256x256 random colours, then every grey and a ramp of ties."""
    arr = random_image(seed, 256, 256).array
    v = np.arange(256, dtype=np.uint8)
    arr[0, :, :3] = v[:, None]
    arr[1, :, 0], arr[1, :, 1], arr[1, :, 2] = 255, v, v
    arr[2, :, 0], arr[2, :, 1], arr[2, :, 2] = v, 255, v[::-1]
    arr[3, :, 0], arr[3, :, 1], arr[3, :, 2] = 0, v, 255
    return RasterImage.from_array(arr)


# Turns on both sides of zero and of each multiple of 360 the sum can
# cross, and past 2**40, where hue switches to numpy's remainder.
TURNS = [137, -137, 0, -0.0, 1e-300, -1e-300, 360, -360, 359.99999999999994,
         -359.99999999999994, 720.25, -720.25, -999999999.75, 2.0 ** 40, -2.0 ** 40,
         math.nextafter(2.0 ** 40, math.inf), -2.0 ** 40 - 1.0, 1e16, -1e300]


@pytest.mark.parametrize("degrees", TURNS)
def test_hue_equals_float_kernel_across_turns(degrees):
    image = mixed_image(7)
    spec = fx.hue(degrees)
    assert apply_effect(image, spec) == oracle_effect(image, spec)


@pytest.mark.parametrize("factor", [0, 0.5, 1, 1.37, 2, 50, 1e300])
def test_saturate_equals_float_kernel_across_factors(factor):
    image = mixed_image(8)
    spec = fx.saturate(factor)
    assert apply_effect(image, spec) == oracle_effect(image, spec)
