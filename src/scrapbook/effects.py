"""Pixel effect operations: the single source of truth for every backend.

Each effect is a pure function of (image, spec): deterministic and never
mutates its input.  Channel math uses float64 intermediates, rounds
half-up and clamps after rounding, so results are bit-reproducible
everywhere the same chain runs.  An output's alpha depends only on the
input's alpha: the flips move it with the pixels, `opacity` scales it,
`border` writes its colour's alpha around it, and every other kind keeps
it as it is.

The kinds that map colour run in row strips (`image._row_strips`),
possibly on two threads: strips are disjoint, each pixel gets the same
float64 expression on the same operands as in a whole-image pass (a
convolution strip reads one halo row above and below it), and the call
returns only when every strip is done.  Only the work that depends on
the whole pixel runs per pixel; every other operand comes from a small
table built with the same expression, or from exact integer sums:
- invert, brightness and contrast run their expression once on the 256
  channel values and look a pixel's (R, G) and (B, A) byte pairs up in
  two 65,536-entry tables;
- grayscale, desaturate and blackwhite add the luma products 0.299*r,
  0.587*g and 0.114*b from three 256-entry tables, in that order;
- hue and saturate take lightness, delta, saturation, c and m from
  tables indexed by the pixel's max and min channel (see `_hsl`);
- blur, sharpen and emboss sum whole weights in int32, which is exact
  (`Kernel3x3.accumulator`); the divide, bias and rounding stay float64.
A table that depends on a parameter is built once per kind and value
and kept, read-only, for the last `_CACHED_VALUES` values, so a small
image pays for its pixels and not for its tables.
Sepia still runs `rgb @ _SEPIA.T` in float64 per pixel, so its bytes rest
on how BLAS evaluates that product.  OpenBLAS's Haswell kernel gives the
fused chain fma(b, s2, fma(g, s1, r*s0)) on a strip; the plain
left-to-right sum differs on 751 of the 2**24 colours after quantizing.
Sepia's bytes hold only where BLAS fuses the same way.  An image one
column wide is a stack of 1x3 products, which takes another path and
differs on 287 of those colours, so a window never narrows sepia's input
to one column where the image has two.

Each kind is one row of `_KINDS`: its apply function, its parameter schema
(a check per name plus the JSON form where it differs), its growth per
side, its alpha map, whether it can lower alpha, and its window map.
Validation, JSON, size accounting, the failover's alpha, the paint pass's
occlusion test and windowed prepares all read that row.

A window map says what a kind reads to make one window of its output, so
that a chain can run on only the part of an image a draw samples
(`chain_window`, `run_window`).  The kinds that map each pixel on its own
read the window itself; a 3x3 convolution reads a one-pixel halo of real
neighbours, clamped only at the image edge, and the halo is cut off after
it; the flips read the mirrored window; a border reads the window moved by
its width and clipped to its input, and a window wholly inside the border
reads nothing; redeye reads the window with its region moved into it.  Each
step's output window then equals the same window of the whole-image step,
whether it runs here or, as the same spec on the same window image,
through the failover service; the service's alpha map is applied to the
window image the service saw, before the cut.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .geometry import Rect, is_finite_number, is_int
from .image import RasterImage, _row_strips


class EffectKind(str, Enum):
    GRAYSCALE = "grayscale"
    INVERT = "invert"
    SEPIA = "sepia"
    BRIGHTNESS = "brightness"
    CONTRAST = "contrast"
    HUE = "hue"
    SATURATE = "saturate"
    DESATURATE = "desaturate"
    BLACKWHITE = "blackwhite"
    BLUR = "blur"
    SHARPEN = "sharpen"
    EMBOSS = "emboss"
    OPACITY = "opacity"
    FLIP_H = "flip_h"
    FLIP_V = "flip_v"
    BORDER = "border"
    REDEYE = "redeye"


class EffectParamError(ValueError):
    """Effect parameters outside their documented ranges (a caller bug)."""


# The largest image a request body can carry: a body of at most 64 MiB of
# base64 holds 48 MiB of RGB at 3 bytes a pixel.  An effect may not grow an
# image past it.
MAX_IMAGE_PIXELS = 2 ** 24


class _Param(NamedTuple):
    """One parameter of a kind: `check` accepts the Python value and `what`
    says what it accepts; `load` and `dump` convert the JSON form where it
    differs from the Python value."""

    check: Callable[[object], bool]
    what: str
    load: Callable[[object], object] = lambda value: value
    dump: Callable[[object], object] = lambda value: value

    def error(self, kind: EffectKind, name: str, value) -> EffectParamError:
        return EffectParamError(f"{kind.value}: {name} must be {self.what}, got {value!r}")


def _number(lo=-math.inf, hi=math.inf) -> _Param:
    return _Param(lambda v: is_finite_number(v) and lo <= v <= hi,
                  f"a finite number in [{lo}, {hi}]")


_WIDTH = _Param(lambda w: is_int(w) and w >= 0, "a non-negative int")
_COLOR = _Param(lambda c: (isinstance(c, (tuple, list)) and len(c) == 4
                           and all(is_int(v) and 0 <= v <= 255 for v in c)),
                "four 0..255 ints", load=tuple, dump=list)
_REGION = _Param(lambda r: (isinstance(r, Rect) and r.w > 0 and r.h > 0
                            and all(is_int(v) for v in (r.x, r.y, r.w, r.h))),
                 "a non-empty Rect of ints [x, y, w, h]",
                 load=lambda v: Rect(*v), dump=lambda r: [r.x, r.y, r.w, r.h])


@dataclass(frozen=True)
class EffectSpec:
    """One effect in a chain: a kind plus its validated parameters."""

    kind: EffectKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, EffectKind):
            object.__setattr__(self, "kind", EffectKind(self.kind))
        schema = _KINDS[self.kind].params
        unknown = set(self.params) - set(schema)
        if unknown:
            raise EffectParamError(f"{self.kind.value}: unexpected parameters {sorted(unknown)}")
        missing = set(schema) - set(self.params)
        if missing:
            raise EffectParamError(f"{self.kind.value}: missing parameters {sorted(missing)}")
        for name, param in schema.items():
            if not param.check(self.params[name]):
                raise param.error(self.kind, name, self.params[name])

    def to_json_dict(self) -> dict:
        schema = _KINDS[self.kind].params
        return {"kind": self.kind.value,
                **{name: schema[name].dump(value) for name, value in self.params.items()}}

    @classmethod
    def from_json_dict(cls, data) -> "EffectSpec":
        if not isinstance(data, dict):
            raise EffectParamError(f"effect must be an object, got {type(data).__name__}")
        try:
            kind = EffectKind(data.get("kind"))
        except ValueError:
            raise EffectParamError(f"unknown effect kind {data.get('kind')!r}") from None
        schema = _KINDS[kind].params
        params = {}
        for name, value in data.items():
            if name == "kind":
                continue
            if name in schema:
                try:
                    value = schema[name].load(value)
                except (TypeError, ValueError):
                    raise schema[name].error(kind, name, value) from None
            params[name] = value
        return cls(kind, params)


# Convenience constructors; chains read naturally as [invert(), blur()].

def grayscale() -> EffectSpec: return EffectSpec(EffectKind.GRAYSCALE)
def invert() -> EffectSpec: return EffectSpec(EffectKind.INVERT)
def sepia() -> EffectSpec: return EffectSpec(EffectKind.SEPIA)
def desaturate() -> EffectSpec: return EffectSpec(EffectKind.DESATURATE)
def blur() -> EffectSpec: return EffectSpec(EffectKind.BLUR)
def sharpen() -> EffectSpec: return EffectSpec(EffectKind.SHARPEN)
def emboss() -> EffectSpec: return EffectSpec(EffectKind.EMBOSS)
def flip_h() -> EffectSpec: return EffectSpec(EffectKind.FLIP_H)
def flip_v() -> EffectSpec: return EffectSpec(EffectKind.FLIP_V)
def brightness(delta) -> EffectSpec: return EffectSpec(EffectKind.BRIGHTNESS, {"delta": delta})
def contrast(factor) -> EffectSpec: return EffectSpec(EffectKind.CONTRAST, {"factor": factor})
def hue(degrees) -> EffectSpec: return EffectSpec(EffectKind.HUE, {"degrees": degrees})
def saturate(factor) -> EffectSpec: return EffectSpec(EffectKind.SATURATE, {"factor": factor})
def blackwhite(threshold) -> EffectSpec: return EffectSpec(EffectKind.BLACKWHITE, {"threshold": threshold})
def opacity(alpha) -> EffectSpec: return EffectSpec(EffectKind.OPACITY, {"alpha": alpha})
def border(width, color) -> EffectSpec: return EffectSpec(EffectKind.BORDER, {"width": width, "color": tuple(color)})
def redeye(region: Rect) -> EffectSpec: return EffectSpec(EffectKind.REDEYE, {"region": region})


@dataclass(frozen=True)
class Kernel3x3:
    """3x3 convolution kernel: clamp(round(sum(w*c) / divisor + bias))."""

    weights: tuple
    divisor: float = 1.0
    bias: float = 0.0

    def __post_init__(self):
        if len(self.weights) != 9:
            raise ValueError(f"kernel needs 9 weights, got {len(self.weights)}")
        named = [(f"weight {i}", w) for i, w in enumerate(self.weights)]
        for name, value in named + [("divisor", self.divisor), ("bias", self.bias)]:
            if not is_finite_number(value):
                raise ValueError(f"kernel {name} must be a finite number, got {value!r}")
        if self.divisor == 0:
            raise ValueError("kernel divisor must not be zero")

    @property
    def accumulator(self) -> type:
        """int32 when every weight is whole and 255 * sum(|w|) < 2**31: then
        every partial sum of weight * channel is an int32 equal to the
        float64 one.  float64 otherwise."""
        if all(float(w).is_integer() for w in self.weights) \
                and 255 * sum(abs(int(w)) for w in self.weights) < 2 ** 31:
            return np.int32
        return np.float64


BLUR_KERNEL = Kernel3x3((1, 1, 1, 1, 1, 1, 1, 1, 1), divisor=9.0)
SHARPEN_KERNEL = Kernel3x3((0, -1, 0, -1, 5, -1, 0, -1, 0))
EMBOSS_KERNEL = Kernel3x3((-2, -1, 0, -1, 1, 1, 0, 1, 2), bias=128.0)


def _round_half_up(arr: np.ndarray) -> np.ndarray:
    return np.floor(arr + 0.5)


def _quantize(arr: np.ndarray, dtype=np.uint8) -> np.ndarray:
    """Round a float64 temporary half-up and clamp it to 0..255; arr is
    overwritten.  The clamped arr + 0.5 is not negative, so narrowing it
    truncates to the floor: clamping the floor gives the same value."""
    arr += 0.5
    np.clip(arr, 0, 255, out=arr)
    return arr.astype(dtype)


def convolve3x3(image: RasterImage, kernel: Kernel3x3) -> RasterImage:
    """Convolve RGB channels with clamp-to-edge borders; alpha is copied.

    The sums run in `kernel.accumulator`, so the built-in kernels add
    int32 channels; the divide, bias and rounding are float64 either way.
    """
    src = image.array
    h, w = image.height, image.width
    acc_type = kernel.accumulator
    weights = [int(wt) if acc_type is np.int32 else wt for wt in kernel.weights]
    taps = [(divmod(idx, 3), weight) for idx, weight in enumerate(weights) if weight != 0]
    taps = taps or [((1, 1), 0)]
    out = np.empty_like(src)

    def strip(r0: int, r1: int) -> None:
        # Rows r0 - 1 .. r1 and columns -1 .. w, clamped to the edge.
        n, top, bottom = r1 - r0, max(r0 - 1, 0), min(r1 + 1, h)
        padded = np.empty((n + 2, w + 2, 3), acc_type)
        inner = padded[top - r0 + 1:bottom - r0 + 1, 1:-1]
        inner[...] = src[top:bottom, :, :3]
        padded[0], padded[-1] = padded[top - r0 + 1], padded[bottom - r0]
        padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
        (dy, dx), weight = taps[0]
        acc = weight * padded[dy:dy + n, dx:dx + w]
        for (dy, dx), weight in taps[1:]:
            window = padded[dy:dy + n, dx:dx + w]
            if weight == 1:
                acc += window
            elif weight == -1:
                acc -= window
            else:
                acc += weight * window
        out[r0:r1, :, :3] = _quantize(acc / kernel.divisor + kernel.bias)
        out[r0:r1, :, 3] = src[r0:r1, :, 3]

    _row_strips(h, w, strip)
    return RasterImage._adopt(out)


def _per_pixel(kernel):
    """Row adapter for the kinds that map each pixel on its own:
    kernel(params) builds what the call needs once, such as its tables,
    and returns strip(src, out), which writes the RGBA rows `out` from
    the same rows `src` and keeps alpha."""
    def apply(image: RasterImage, params: dict) -> RasterImage:
        src = image.array
        out = np.empty_like(src)
        strip = kernel(params)
        _row_strips(image.height, image.width, lambda r0, r1: strip(src[r0:r1], out[r0:r1]))
        return RasterImage._adopt(out)
    return apply


_SEPIA = np.array([[0.393, 0.769, 0.189],
                   [0.349, 0.686, 0.168],
                   [0.272, 0.534, 0.131]])


def _sepia(params):
    def strip(src, out):
        out[..., :3] = _quantize(src[..., :3].astype(np.float64) @ _SEPIA.T)
        out[..., 3] = src[..., 3]
    return strip


def _frozen(*tables):
    """Cached tables are shared by every call, so they are read-only."""
    for table in tables:
        table.flags.writeable = False
    return tables


# Parameter values whose tables each per-value cache below keeps.
_CACHED_VALUES = 8

# The channel map of each table kind, on the channel values as float64.
_CHANNEL_MAPS = {
    EffectKind.INVERT: lambda v, p: 255.0 - v,
    EffectKind.BRIGHTNESS: lambda v, p: v + p["delta"],
    EffectKind.CONTRAST: lambda v, p: (v - 128.0) * p["factor"] + 128.0,
}


@functools.lru_cache(maxsize=_CACHED_VALUES)
def _pair_tables(kind: EffectKind, items: tuple):
    """The (R, G) and (B, A) pair tables of a table kind whose params are
    `items`: its channel map runs once on the 256 channel values, which
    equals quantizing it on the float RGB planes, and each table holds a
    '<u2' word per byte pair; the second keeps A."""
    # A huge contrast factor overflows to +-inf on far channel values;
    # the quantizer clamps that to 0 or 255, as it would per pixel.
    with np.errstate(over="ignore"):
        table = _quantize(_CHANNEL_MAPS[kind](np.arange(256.0), dict(items)), "<u2")
    low = np.tile(table, 256)
    return _frozen(low | np.repeat(table << 8, 256),
                   low | np.arange(0, 65536, 256, dtype="<u2").repeat(256))


def _table(kind: EffectKind):
    """Kernel for the kinds that map each channel value on its own: a
    pixel's (R, G) and (B, A) byte pairs are looked up as '<u2' words in
    the kind's `_pair_tables` for its params."""
    def kernel(params):
        rg, ba = _pair_tables(kind, tuple(params.items()))

        def strip(src, out):
            pairs, dst = src.view("<u2"), out.view("<u2")
            rg.take(pairs[..., 0], out=dst[..., 0], mode="clip")
            ba.take(pairs[..., 1], out=dst[..., 1], mode="clip")
        return strip
    return kernel


@functools.cache
def _luma_tables():
    """The products 0.299*v, 0.587*v and 0.114*v of the 256 channel values."""
    v = np.arange(256.0)
    return _frozen(0.299 * v, 0.587 * v, 0.114 * v)


# The grey byte of each luma for grayscale and desaturate: the luma itself.
_GREY = np.arange(256)


def _luma(tone):
    """Kernel for the kinds that write a grey of the pixel's luma, where
    luma = floor(0.299*r + 0.587*g + 0.114*b + 0.5), summed in that order
    from the product tables, and tone(params) is the 256-entry table of the
    grey byte for each luma.  Luma lies in 0..255, so narrowing the sum
    plus 0.5 gives it."""
    def kernel(params):
        grey = tone(params).astype("<u4") * 0x010101
        red, green, blue = _luma_tables()

        def strip(src, out):
            luma = red.take(src[..., 0])
            luma += green.take(src[..., 1])
            luma += blue.take(src[..., 2])
            luma += 0.5
            words = out.view("<u4")[..., 0]
            np.bitwise_and(src.view("<u4")[..., 0], 0xFF000000, out=words)
            words |= grey.take(luma.astype(np.uint8))
        return strip
    return kernel


@functools.cache
def _hsl_tables():
    """What hexagonal RGB-to-HSL takes from a pixel's largest and smallest
    channel alone, indexed by max * 256 + min: lightness, the hue divisor
    (delta, or 1 for a grey, whose hue quotient is then 0 as its hue is)
    and saturation.  Also the hue numerator a/255 - b/255 of two channels,
    indexed by a + 256 * b."""
    v = np.arange(256) / 255.0
    mx, mn = np.repeat(v, 256), np.tile(v, 256)
    light = (mx + mn) / 2.0
    delta = mx - mn
    chromatic = delta > 0
    sat = np.zeros_like(light)
    np.divide(delta, 1.0 - np.abs(2.0 * light - 1.0), out=sat, where=chromatic)
    return _frozen(mn - mx, light, np.where(chromatic, delta, 1.0), sat)


# The hue offset by the pixel's max channel code (8 red, 16 green, 0 blue)
# plus 1 where the quotient is negative: red adds 0, or 6 to a negative
# quotient, which is q % 6.0 for |q| <= 1; green adds 2 and blue 4.
_HUE_OFFSET = np.zeros(18)
_HUE_OFFSET[[8, 9, 16, 17, 0, 1]] = 0.0, 6.0, 2.0, 2.0, 4.0, 4.0
# Bit shift of the c, x and zero channel in an output word, per hue sector:
# sectors 0..5 give (c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c)
# and (c, 0, x) as (R, G, B).
_SHIFT_C = np.array([0, 8, 8, 16, 16, 0], dtype="<u4")
_SHIFT_X = np.array([8, 0, 16, 8, 0, 16], dtype="<u4")
_SHIFT_ZERO = np.array([16, 16, 0, 0, 8, 8], dtype="<u4")


@functools.lru_cache(maxsize=_CACHED_VALUES)
def _hsl_colour_tables(factor):
    """c = (1 - |2l - 1|) * s, m = l - c/2 and the bytes of c + m and
    0 + m per (max, min) index, for the saturation s scaled by `factor`
    (None leaves it): they do not depend on the hue, so every hue shares
    the tables of None."""
    _, light, _, sat = _hsl_tables()
    s = sat if factor is None else np.clip(sat * factor, 0.0, 1.0)
    c = (1.0 - np.abs(2.0 * light - 1.0)) * s
    m = light - c / 2.0
    return _frozen(c, m, _quantize((c + m) * 255.0, "<u4"),
                   _quantize((0.0 + m) * 255.0, "<u4"))


def _hsl(degrees, factor=None):
    """Kernel of hue (turn by degrees) and saturate (degrees 0, scale the
    saturation by factor) with hexagonal HSL in float64.

    Each value is the expression of a per-pixel RGB-HSL-RGB round trip on
    the same operands.  The max and min of the uint8 channels pick the
    channels the max and min of v/255 would.  Lightness, delta, saturation,
    c = (1 - |2l - 1|) * s, m = l - c/2 and the bytes of c + m and 0 + m
    come from per-(max, min) tables.  Per pixel there remain the hue
    quotient and its offset, (h + degrees) % 360 % 360, the sector, the
    remainder hp % 2 and the x channel.  Adding 0 degrees leaves h, which
    lies in [0, 360], so saturate takes the same path.

    While |degrees| <= 2**40, every |h + degrees| < 2**52 and the % 360
    needs no fmod: with t = trunc((h + degrees) / 360), which is the true
    quotient or one further from zero, r = (h + degrees) - 360*t is exact
    and lies in (-360, 360); numpy's remainder is then r + 360 where r < 0,
    rounded as numpy rounds it, and r elsewhere, and the second % 360 only
    turns 360 into 0.  hp % 2 is hp less the even part of its floor, exact
    by Sterbenz's lemma.
    """
    numerator, _, divisor, _ = _hsl_tables()
    c, m, c_byte, zero_byte = _hsl_colour_tables(factor)
    small = abs(degrees) <= 2.0 ** 40

    def strip(src, out):
        r, g, b = src[..., 0], src[..., 1], src[..., 2]
        hi = np.maximum(np.maximum(r, g), b)
        idx = hi.astype(np.intp)
        idx <<= 8
        idx |= np.minimum(np.minimum(r, g), b)
        r_max = r == hi
        g_max = g == hi
        g_max &= ~r_max
        # The max channel's code shifts the pair (g, b), (b, r) or (r, g)
        # of the word R | G<<8 | B<<16 | R<<24 to its low 16 bits.
        code = r_max.view(np.uint8) << 3
        code |= g_max.view(np.uint8) << 4
        words = src.view("<u4")[..., 0]
        pair = words & 0xFFFFFF
        pair |= words << 24
        pair >>= code
        pair &= 0xFFFF
        h = numerator.take(pair)
        h /= divisor.take(idx)
        code |= (h < 0).view(np.uint8)
        h += _HUE_OFFSET.take(code)
        h *= 60.0
        h += degrees
        if small:
            turns = h / 360.0
            np.trunc(turns, out=turns)
            turns *= 360.0
            h -= turns
            h += 360.0 * (h < 0)
            h -= 360.0 * (h >= 360.0)
        else:
            np.remainder(h, 360.0, out=h)
            np.remainder(h, 360.0, out=h)
        h /= 60.0
        sector = h.astype(np.uint8)
        h -= sector & 6
        np.minimum(sector, 5, out=sector)
        h -= 1.0
        np.abs(h, out=h)
        np.subtract(1.0, h, out=h)
        h *= c.take(idx)
        h += m.take(idx)
        h *= 255.0
        rgba = out.view("<u4")[..., 0]
        np.bitwise_and(words, 0xFF000000, out=rgba)
        rgba |= _quantize(h, "<u4") << _SHIFT_X.take(sector)
        rgba |= c_byte.take(idx) << _SHIFT_C.take(sector)
        rgba |= zero_byte.take(idx) << _SHIFT_ZERO.take(sector)
    return strip


def _opacity_alpha(alpha, params):
    return _quantize(alpha.astype(np.float64) * params["alpha"])


def _opacity(image, params):
    out = image.array.copy()
    out[:, :, 3] = _opacity_alpha(out[:, :, 3], params)
    return RasterImage._adopt(out)


def _border(image, params):
    width = params["width"]
    h, w = image.height, image.width
    out = np.empty((h + 2 * width, w + 2 * width, 4), dtype=np.uint8)
    out[:, :] = params["color"]
    out[width:width + h, width:width + w] = image.array
    return RasterImage._adopt(out)


def _redeye(image, params):
    region = params["region"].intersect(Rect(0, 0, image.width, image.height))
    out = image.array.copy()
    if not region.is_empty():
        patch = out[region.y:region.y2, region.x:region.x2].astype(np.float64)
        r, g, b = patch[:, :, 0], patch[:, :, 1], patch[:, :, 2]
        hot = r > 1.5 * np.maximum(g, b)
        r_fixed = np.where(hot, _round_half_up((g + b) / 2.0), r)
        out[region.y:region.y2, region.x:region.x2, 0] = np.clip(r_fixed, 0, 255).astype(np.uint8)
    return RasterImage._adopt(out)


# --- window maps: what a kind reads to make one window of its output -------
#
# window(params, out, w, h) takes a window `out` of the kind's output on a
# w x h input and gives (src, params, x, y): the window `src` of the input
# it reads, the params it runs with on the image of that window, and where
# `out` starts, at (x, y), in the result of that run.

def _same_window(params, out, w, h):
    """Kinds that map each pixel on its own read the window itself."""
    return out, params, 0, 0


def _halo_window(params, out, w, h):
    """A 3x3 convolution reads one more pixel on each side, clamped only at
    the image edge: inside the window every pixel sees its real neighbours,
    and the halo, whose own edge is clamped, is cut off."""
    src = Rect(out.x - 1, out.y - 1, out.w + 2, out.h + 2).intersect(Rect(0, 0, w, h))
    return src, params, out.x - src.x, out.y - src.y


def _sepia_window(params, out, w, h):
    """Sepia reads at least two columns where its input has them: on a
    one-column image BLAS takes another path (see the module docstring)."""
    if out.w > 1 or w < 2:
        return out, params, 0, 0
    x = min(out.x, w - 2)
    return Rect(x, out.y, 2, out.h), params, out.x - x, 0


def _flip_h_window(params, out, w, h):
    return Rect(w - out.x2, out.y, out.w, out.h), params, 0, 0


def _flip_v_window(params, out, w, h):
    return Rect(out.x, h - out.y2, out.w, out.h), params, 0, 0


def _border_window(params, out, w, h):
    """The border's output pixel (x, y) is the input's (x - width, y - width)
    where that lies in the input, and the colour elsewhere.  A window wholly
    inside the border reads nothing."""
    width = params["width"]
    src = Rect(out.x - width, out.y - width, out.w, out.h).intersect(Rect(0, 0, w, h))
    return src, params, out.x - src.x, out.y - src.y


def _redeye_window(params, out, w, h):
    """Redeye reads the window, with its region moved into the window's
    coordinates."""
    r = params["region"]
    return out, {"region": Rect(r.x - out.x, r.y - out.y, r.w, r.h)}, 0, 0


class _Kind(NamedTuple):
    """One registry row: the apply function, the parameter schema, the
    pixels `grow` adds on each side of the image (only border adds any),
    the output alpha plane as a function of the input one, whether the
    kind can lower an alpha of 255 (only opacity below 1 and a border whose
    colour is translucent can), and its window map (see above)."""

    apply: Callable[[RasterImage, dict], RasterImage]
    params: dict = {}
    grow: Callable[[dict], int] = lambda params: 0
    alpha: Callable[[np.ndarray, dict], np.ndarray] = lambda alpha, params: alpha
    lowers_alpha: Callable[[dict], bool] = lambda params: False
    window: Callable = _same_window


_KINDS = {
    EffectKind.GRAYSCALE: _Kind(_per_pixel(_luma(lambda p: _GREY))),
    EffectKind.INVERT: _Kind(_per_pixel(_table(EffectKind.INVERT))),
    EffectKind.SEPIA: _Kind(_per_pixel(_sepia), window=_sepia_window),
    EffectKind.BRIGHTNESS: _Kind(_per_pixel(_table(EffectKind.BRIGHTNESS)),
                                 {"delta": _number(-255, 255)}),
    EffectKind.CONTRAST: _Kind(_per_pixel(_table(EffectKind.CONTRAST)),
                               {"factor": _number(0)}),
    EffectKind.HUE: _Kind(_per_pixel(lambda p: _hsl(p["degrees"])), {"degrees": _number()}),
    EffectKind.SATURATE: _Kind(_per_pixel(lambda p: _hsl(0.0, p["factor"])),
                               {"factor": _number(0)}),
    EffectKind.DESATURATE: _Kind(_per_pixel(_luma(lambda p: _GREY))),  # same as grayscale
    EffectKind.BLACKWHITE: _Kind(_per_pixel(_luma(lambda p: np.where(_GREY >= p["threshold"], 255, 0))),
                                 {"threshold": _number(0, 255)}),
    EffectKind.BLUR: _Kind(lambda image, p: convolve3x3(image, BLUR_KERNEL),
                           window=_halo_window),
    EffectKind.SHARPEN: _Kind(lambda image, p: convolve3x3(image, SHARPEN_KERNEL),
                              window=_halo_window),
    EffectKind.EMBOSS: _Kind(lambda image, p: convolve3x3(image, EMBOSS_KERNEL),
                             window=_halo_window),
    EffectKind.OPACITY: _Kind(_opacity, {"alpha": _number(0, 1)}, alpha=_opacity_alpha,
                              lowers_alpha=lambda p: p["alpha"] < 1),
    EffectKind.FLIP_H: _Kind(lambda image, p: RasterImage.from_array(image.array[:, ::-1]),
                             alpha=lambda alpha, p: alpha[:, ::-1], window=_flip_h_window),
    EffectKind.FLIP_V: _Kind(lambda image, p: RasterImage.from_array(image.array[::-1, :]),
                             alpha=lambda alpha, p: alpha[::-1, :], window=_flip_v_window),
    EffectKind.BORDER: _Kind(_border, {"width": _WIDTH, "color": _COLOR},
                             grow=lambda p: p["width"],
                             alpha=lambda alpha, p: np.pad(alpha, p["width"],
                                                           constant_values=p["color"][3]),
                             lowers_alpha=lambda p: p["color"][3] < 255,
                             window=_border_window),
    EffectKind.REDEYE: _Kind(_redeye, {"region": _REGION}, window=_redeye_window),
}


def apply_effect(image: RasterImage, spec: EffectSpec) -> RasterImage:
    """Apply one effect, returning a new image.

    Dimensions are preserved except for `border`, which grows the image by
    2*width per axis; an output above MAX_IMAGE_PIXELS raises
    EffectParamError before anything is allocated.
    """
    chain_output_size(image.width, image.height, (spec,))
    return _KINDS[spec.kind].apply(image, spec.params)


def effect_alpha(spec: EffectSpec, alpha: np.ndarray) -> np.ndarray:
    """The alpha plane apply_effect gives an image whose alpha plane is
    `alpha`: the failover service carries RGB only, so a routed step's
    alpha is rebuilt from this."""
    return _KINDS[spec.kind].alpha(alpha, spec.params)


def lowers_alpha(effects) -> bool:
    """Whether some step of a chain can lower an alpha of 255.  False means
    a chain run on an opaque image gives an opaque image."""
    return any(_KINDS[spec.kind].lowers_alpha(spec.params) for spec in effects)


def apply_chain(image: RasterImage, effects) -> RasterImage:
    """Left-to-right fold of apply_effect into a new image; the empty chain
    gives a copy."""
    out = image
    for spec in effects:
        out = apply_effect(out, spec)
    return image.copy() if out is image else out


class Step(NamedTuple):
    """One step of a chain run on a window: `spec` as it runs on the image
    of its input window, and the window `out` of its output that it keeps,
    at (x, y) in the result of that run."""

    spec: EffectSpec
    out: Rect
    x: int
    y: int


def chain_window(width: int, height: int, effects, window: Rect) -> tuple[Rect, list[Step]]:
    """How a chain run on a width x height image makes only `window` of its
    output: the window of the input to read, and the steps to run on it in
    order.  The window is mapped back one step at a time, last step first,
    through each kind's window map.  A step that reads nothing, a window
    wholly inside a border, ends the walk: no step before it runs."""
    sizes = [(width, height), *chain_sizes(width, height, effects)]
    steps = []
    for spec, (w, h) in zip(effects[::-1], sizes[-2::-1]):
        src, params, x, y = _KINDS[spec.kind].window(spec.params, window, w, h)
        if params is not spec.params:
            spec = EffectSpec(spec.kind, params)
        steps.append(Step(spec, window, x, y))
        window = src
        if window.is_empty():
            break
    return window, steps[::-1]


def run_window(image: RasterImage | None, steps, apply=None) -> RasterImage:
    """Run the steps of chain_window on `image`, the input window they read
    (None where they read nothing), through apply(image, spec), by default
    apply_effect as named at call time.  Each step's result is cut to its
    window when it covers more."""
    for step in steps:
        out = step.out
        if image is None:  # only a border reads nothing: its window is its colour
            image = RasterImage.filled(out.w, out.h, step.spec.params["color"])
            continue
        image = (apply or apply_effect)(image, step.spec)
        if (step.x, step.y, out.w, out.h) != (0, 0, image.width, image.height):
            image = RasterImage.from_array(
                image.array[step.y:step.y + out.h, step.x:step.x + out.w])
    return image


def chain_sizes(width: int, height: int, effects):
    """Image dimensions after each effect of a chain; growth past
    MAX_IMAGE_PIXELS is refused."""
    for spec in effects:
        grow = _KINDS[spec.kind].grow(spec.params)
        width, height = width + 2 * grow, height + 2 * grow
        if grow and width * height > MAX_IMAGE_PIXELS:
            raise EffectParamError(f"{spec.kind.value}: output {width}x{height} exceeds "
                                   f"{MAX_IMAGE_PIXELS} pixels")
        yield width, height


def chain_pixels(width: int, height: int, effects) -> int:
    """Pixels written when a chain runs on a width x height image.

    Each effect writes its full output area; border grows the running
    dimensions for itself and for every later effect.
    """
    return sum(w * h for w, h in chain_sizes(width, height, effects))


def chain_output_size(width: int, height: int, effects) -> tuple[int, int]:
    """Image dimensions after a chain runs (only border changes them)."""
    return [(width, height), *chain_sizes(width, height, effects)][-1]
