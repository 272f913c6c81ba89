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
returns only when every strip is done.  Invert, brightness and contrast
map each channel value on its own, so they run their expression once on
the 256 values and look the quantized table up, which gives the same
bytes.

Each kind is one row of `_KINDS`: its apply function, its parameter schema
(a check per name plus the JSON form where it differs), its growth per
side, its alpha map and whether it can lower alpha.  Validation, JSON,
size accounting, the failover's alpha and the paint pass's occlusion test
all read that row.
"""

from __future__ import annotations

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
        if self.divisor == 0:
            raise ValueError("kernel divisor must not be zero")


BLUR_KERNEL = Kernel3x3((1, 1, 1, 1, 1, 1, 1, 1, 1), divisor=9.0)
SHARPEN_KERNEL = Kernel3x3((0, -1, 0, -1, 5, -1, 0, -1, 0))
EMBOSS_KERNEL = Kernel3x3((-2, -1, 0, -1, 1, 1, 0, 1, 2), bias=128.0)


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


def convolve3x3(image: RasterImage, kernel: Kernel3x3) -> RasterImage:
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


def _lut(fn):
    """Row adapter for kinds that map each channel value on its own:
    fn(values, params) runs once on the 256 channel values, and its
    quantized table is looked up per channel.  That equals quantizing fn
    on the float RGB planes."""
    def apply(image: RasterImage, params: dict) -> RasterImage:
        # A huge contrast factor overflows to +-inf on far channel values;
        # the quantizer clamps that to 0 or 255, as it would per pixel.
        with np.errstate(over="ignore"):
            table = _quantize(fn(np.arange(256.0), params))
        src = image.array
        out = np.empty_like(src)
        out[:, :, :3] = table.take(src[:, :, :3])
        out[:, :, 3] = src[:, :, 3]
        return RasterImage.from_array(out)
    return apply


def _gray(rgb, params):
    return np.repeat(_luma(rgb)[..., None], 3, axis=-1)


_SEPIA = np.array([[0.393, 0.769, 0.189],
                   [0.349, 0.686, 0.168],
                   [0.272, 0.534, 0.131]])


def _hue(rgb, params):
    h, s, light = _rgb_to_hsl(rgb / 255.0)
    return _hsl_to_rgb((h + params["degrees"]) % 360.0, s, light) * 255.0


def _saturate(rgb, params):
    h, s, light = _rgb_to_hsl(rgb / 255.0)
    return _hsl_to_rgb(h, np.clip(s * params["factor"], 0.0, 1.0), light) * 255.0


def _blackwhite(rgb, params):
    mask = _luma(rgb) >= params["threshold"]
    return np.repeat(np.where(mask, 255.0, 0.0)[..., None], 3, axis=-1)


def _opacity_alpha(alpha, params):
    return _quantize(alpha.astype(np.float64) * params["alpha"])


def _opacity(image, params):
    out = image.array.copy()
    out[:, :, 3] = _opacity_alpha(out[:, :, 3], params)
    return RasterImage.from_array(out)


def _border(image, params):
    width = params["width"]
    h, w = image.height, image.width
    out = np.empty((h + 2 * width, w + 2 * width, 4), dtype=np.uint8)
    out[:, :] = params["color"]
    out[width:width + h, width:width + w] = image.array
    return RasterImage.from_array(out)


def _redeye(image, params):
    region = params["region"].intersect(Rect(0, 0, image.width, image.height))
    out = image.array.copy()
    if not region.is_empty():
        patch = out[region.y:region.y2, region.x:region.x2].astype(np.float64)
        r, g, b = patch[:, :, 0], patch[:, :, 1], patch[:, :, 2]
        hot = r > 1.5 * np.maximum(g, b)
        r_fixed = np.where(hot, _round_half_up((g + b) / 2.0), r)
        out[region.y:region.y2, region.x:region.x2, 0] = np.clip(r_fixed, 0, 255).astype(np.uint8)
    return RasterImage.from_array(out)


class _Kind(NamedTuple):
    """One registry row: the apply function, the parameter schema, the
    pixels `grow` adds on each side of the image (only border adds any),
    the output alpha plane as a function of the input one, and whether the
    kind can lower an alpha of 255 (only opacity below 1 and a border whose
    colour is translucent can)."""

    apply: Callable[[RasterImage, dict], RasterImage]
    params: dict = {}
    grow: Callable[[dict], int] = lambda params: 0
    alpha: Callable[[np.ndarray, dict], np.ndarray] = lambda alpha, params: alpha
    lowers_alpha: Callable[[dict], bool] = lambda params: False


_KINDS = {
    EffectKind.GRAYSCALE: _Kind(_rgb(_gray)),
    EffectKind.INVERT: _Kind(_lut(lambda v, p: 255.0 - v)),
    EffectKind.SEPIA: _Kind(_rgb(lambda rgb, p: rgb @ _SEPIA.T)),
    EffectKind.BRIGHTNESS: _Kind(_lut(lambda v, p: v + p["delta"]),
                                 {"delta": _number(-255, 255)}),
    EffectKind.CONTRAST: _Kind(_lut(lambda v, p: (v - 128.0) * p["factor"] + 128.0),
                               {"factor": _number(0)}),
    EffectKind.HUE: _Kind(_rgb(_hue), {"degrees": _number()}),
    EffectKind.SATURATE: _Kind(_rgb(_saturate), {"factor": _number(0)}),
    EffectKind.DESATURATE: _Kind(_rgb(_gray)),  # same luma replication
    EffectKind.BLACKWHITE: _Kind(_rgb(_blackwhite), {"threshold": _number(0, 255)}),
    EffectKind.BLUR: _Kind(lambda image, p: convolve3x3(image, BLUR_KERNEL)),
    EffectKind.SHARPEN: _Kind(lambda image, p: convolve3x3(image, SHARPEN_KERNEL)),
    EffectKind.EMBOSS: _Kind(lambda image, p: convolve3x3(image, EMBOSS_KERNEL)),
    EffectKind.OPACITY: _Kind(_opacity, {"alpha": _number(0, 1)}, alpha=_opacity_alpha,
                              lowers_alpha=lambda p: p["alpha"] < 1),
    EffectKind.FLIP_H: _Kind(lambda image, p: RasterImage.from_array(image.array[:, ::-1]),
                             alpha=lambda alpha, p: alpha[:, ::-1]),
    EffectKind.FLIP_V: _Kind(lambda image, p: RasterImage.from_array(image.array[::-1, :]),
                             alpha=lambda alpha, p: alpha[::-1, :]),
    EffectKind.BORDER: _Kind(_border, {"width": _WIDTH, "color": _COLOR},
                             grow=lambda p: p["width"],
                             alpha=lambda alpha, p: np.pad(alpha, p["width"],
                                                           constant_values=p["color"][3]),
                             lowers_alpha=lambda p: p["color"][3] < 255),
    EffectKind.REDEYE: _Kind(_redeye, {"region": _REGION}),
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
    """Left-to-right fold of apply_effect; the empty chain is the identity."""
    out = image.copy()
    for spec in effects:
        out = apply_effect(out, spec)
    return out


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
