"""Deterministic benchmark harness under a virtual clock.

Three experiment families are reproduced against the work-unit cost
model.  Everything is a pure function of (seed, configuration): identical
inputs give byte-identical CSV output, and the wall clock is never read.

* Experiment A measures application times of four operations (crop,
  rotate 70 deg, grayscale, invert) on eight test images: two content
  classes ("b" detailed, "f" flat) at four sizes.  Each run uses a screen
  exactly matching the image so raster work scales exactly with area.
* Experiment B replays a recorded 2681 ms / 503 px downward mouse drag
  through an interaction session, paced at a 40 ms frame budget, and
  reports how far completion lagged the input plus renderer utilization.
* Experiment C loads up to 100 photos per a scripted plan, probing the
  first centre photo with a -111.8 deg rotation every 5 photos, until a
  stop rule fires.

Measured virtual times can be quantized at the reporting layer to mimic
coarse timers that floor fast operations to zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import effects as fx
from .backends import (DEFAULT_THROUGHPUT, BackendKind, attr_change_units,
                       begin_interaction, load_units, report)
from .geometry import Rect, rotated_extents, round_half_up
from .image import RasterImage
from .photo import PhotoObject, crop_photo, display_size, move_to, rotate_by
from .scene import SceneDocument
from .viewport import ScreenSpec

EXP_SIZES = ((480, 360), (576, 384), (900, 600), (1280, 720))
EXP_A_OPS = ("crop", "rotate", "grayscale", "invert")
CROP_RECT = Rect(50, 50, 300, 300)
ROTATE_DEGREES = 70.0
PROBE_DEGREES = -111.8

TRACE_DURATION_MS = 2681.0
TRACE_DISTANCE_PX = 503.0
TRACE_SAMPLES = 269
FRAME_BUDGET_MS = 40.0

SIM_SCREEN = (1920, 1200)
SIM_PHOTOS = 100  # photos in the load script
SIM_CENTER = (960.0, 600.0)
SIM_SMALL = (576, 384)
SIM_LARGE = (900, 600)

ALL_BACKENDS = (BackendKind.RASTER, BackendKind.SCENEGRAPH, BackendKind.LEGACY)


def quantize_clock(t: float, resolution: float) -> float:
    """Floor a timestamp to the timer's update grid.

    Durations computed from quantized endpoints vanish when they fit
    inside one grid cell, which is how coarse timers report fast
    operations as zero.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    return math.floor(t / resolution) * resolution


def _reported(ms: float, quantize: float | None) -> float:
    return quantize_clock(ms, quantize) if quantize else ms


# --- deterministic image pool -------------------------------------------

def _pattern(width: int, height: int, salt: int) -> RasterImage:
    ys, xs = np.mgrid[0:height, 0:width]
    arr = np.empty((height, width, 4), dtype=np.uint8)
    arr[:, :, 0] = (xs * 3 + ys * 5 + salt * 29) % 256
    arr[:, :, 1] = (xs * 7 + ys * 11 + salt * 47) % 256
    arr[:, :, 2] = (xs * 13 + ys * 17 + salt * 71) % 256
    arr[:, :, 3] = 255
    return RasterImage.from_array(arr)


def _flat(width: int, height: int) -> RasterImage:
    return RasterImage.filled(width, height, (190, 190, 190, 255))


def photo_pool():
    """Resolver for the harness image names, generated on first use.

    Names: "b<W>x<H>" (detailed) and "f<W>x<H>" (flat) for the four test
    sizes, plus "pool/<W>x<H>/<NNN>" for the load-simulation pool.
    """
    cache: dict[str, RasterImage] = {}

    def resolve(name: str) -> RasterImage:
        if name in cache:
            return cache[name]
        image = None
        if name.startswith(("b", "f")) and "x" in name and "/" not in name:
            try:
                w, h = (int(v) for v in name[1:].split("x"))
            except ValueError:
                raise KeyError(name) from None
            if (w, h) in EXP_SIZES:
                image = _flat(w, h) if name[0] == "f" else _pattern(w, h, 0)
        elif name.startswith("pool/"):
            try:
                size_part, num = name[5:].split("/")
                w, h = (int(v) for v in size_part.split("x"))
                image = _pattern(w, h, int(num))
            except ValueError:
                raise KeyError(name) from None
        if image is None:
            raise KeyError(name)
        cache[name] = image
        return image

    return resolve


def pool_key(size: tuple[int, int], index: int) -> str:
    return f"pool/{size[0]}x{size[1]}/{index:03d}"


# --- experiment A: application times ------------------------------------

@dataclass(frozen=True)
class ExpATrial:
    backend: str
    image: str
    op: str
    trial: int
    virtual_ms: float
    work_units: int


def _exp_a_apply(photo: PhotoObject, op: str) -> PhotoObject:
    if op == "crop":
        return crop_photo(photo, CROP_RECT)
    if op == "rotate":
        return rotate_by(photo, ROTATE_DEGREES)
    if op == "grayscale":
        return replace(photo, effects=(fx.grayscale(),))
    if op == "invert":
        return replace(photo, effects=(fx.invert(),))
    raise ValueError(f"unknown experiment op {op!r}")


def exp_a_run(backends=ALL_BACKENDS, sizes=EXP_SIZES, ops=EXP_A_OPS,
              throughput: float = DEFAULT_THROUGHPUT, quantize: float | None = None,
              sources=None, trials: int = 2) -> list[ExpATrial]:
    """Application-time trials for every (backend, image, op).

    Each trial is an independent measurement starting at virtual t=0: the
    test page shows one photo on a screen of exactly the image's size,
    the operation is applied, and the synchronous work is timed.
    """
    sources = sources or photo_pool()
    rows = []
    for backend in backends:
        for w, h in sizes:
            for cls in ("b", "f"):
                name = f"{cls}{w}x{h}"
                source = sources(name)  # missing source fails the run here
                if (source.width, source.height) != (w, h):
                    raise ValueError(f"source {name} is {source.width}x{source.height}")
                screen = ScreenSpec.identity(w, h)
                for op in ops:
                    scene = SceneDocument()
                    before = scene.add_photo(PhotoObject(
                        id="subject", source=name, source_size=(w, h),
                        center=(w / 2.0, h / 2.0)))
                    after = _exp_a_apply(before, op)
                    units = attr_change_units(backend, scene, screen, before, after)
                    cost = report(units, throughput)
                    for trial in range(1, trials + 1):
                        rows.append(ExpATrial(backend.value, name, op, trial,
                                              _reported(cost.virtual_ms, quantize),
                                              cost.work_units))
    return rows


def write_exp_a_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["backend", "image", "op", "trial", "virtual_ms", "work_units"])
    for r in rows:
        writer.writerow([r.backend, r.image, r.op, r.trial, r.virtual_ms, r.work_units])


# --- experiment B: scripted mouse move -----------------------------------

@dataclass(frozen=True)
class MouseSample:
    t: float
    x: float
    y: float


@dataclass(frozen=True)
class MouseTrace:
    """Recorded pointer offsets relative to the grab point."""

    samples: tuple[MouseSample, ...]

    @property
    def duration(self) -> float:
        return self.samples[-1].t

    @property
    def displacement(self) -> tuple[float, float]:
        return self.samples[-1].x, self.samples[-1].y


def make_mouse_trace() -> MouseTrace:
    """The recorded drag: 269 uniform samples over 2681 ms, 503 px down."""
    steps = TRACE_SAMPLES - 1
    samples = tuple(
        MouseSample((k * TRACE_DURATION_MS) / steps, 0.0, (k * TRACE_DISTANCE_PX) / steps)
        for k in range(TRACE_SAMPLES))
    return MouseTrace(samples)


@dataclass(frozen=True)
class ExpBResult:
    backend: str
    size: str
    effect: str
    delta_ms: float
    frames: int
    utilization: float


def _frame_targets(trace: MouseTrace) -> list[tuple[float, int]]:
    """Pointer states the renderer must show: one per 40 ms budget tick.

    Samples inside one tick coalesce to the newest; the release sample is
    excluded because the session's end composite commits it.  The target
    list depends only on the trace, so every replay renders the same
    frames in the same order regardless of how slow the renderer is.
    """
    targets = []
    rendered = 0
    tick = FRAME_BUDGET_MS
    last = len(trace.samples) - 1
    while tick < trace.duration:
        newest = rendered
        while newest + 1 < last and trace.samples[newest + 1].t <= tick:
            newest += 1
        if newest > rendered:
            targets.append((tick, newest))
            rendered = newest
        tick += FRAME_BUDGET_MS
    return targets


def exp_b_run(backend: BackendKind, photo_size: tuple[int, int],
              effect: str | None = None, throughput: float = DEFAULT_THROUGHPUT,
              sources=None, screen_size: tuple[int, int] = SIM_SCREEN) -> ExpBResult:
    """Replay the recorded drag through an interaction session.

    Pointer input is consumed at the 40 ms frame budget; each budget tick
    queues one frame at the newest pointer position and the renderer works
    the queue off as fast as the virtual clock allows, never dropping a
    frame.  Releasing the mouse at 2681 ms commits the final position
    through end_interaction; delta is how far that completion ran past
    the recording.
    """
    w, h = photo_size
    if (w, h) not in EXP_SIZES:
        raise ValueError(f"photo size {w}x{h} not in the test set")
    sources = sources or photo_pool()
    screen = ScreenSpec.identity(*screen_size)

    scene = SceneDocument()
    chain = (fx.invert(),) if effect == "invert" else ()
    photo = PhotoObject(id="subject", source=f"b{w}x{h}", source_size=(w, h),
                        effects=chain)
    dw, dh = display_size(photo)
    grab = (screen_size[0] / 2.0, dh / 2.0)
    scene.add_photo(move_to(photo, *grab))

    trace = make_mouse_trace()
    positions = [(grab[0] + s.x, grab[1] + s.y) for s in trace.samples]

    session = begin_interaction(backend, scene, sources, screen, "subject", throughput)
    clock = session.begin_cost.virtual_ms
    busy = session.begin_cost.virtual_ms
    frames = 0
    for tick, idx in _frame_targets(trace):
        start = max(clock, tick)
        _, cost = session.update(positions[idx])
        clock = start + cost.virtual_ms
        busy += cost.virtual_ms
        frames += 1

    end_start = max(clock, trace.duration)
    _, end_cost = session.end(final_center=positions[-1])
    completion = end_start + end_cost.virtual_ms
    busy += end_cost.virtual_ms
    frames += 1

    delta = max(0.0, completion - trace.duration)
    utilization = busy / completion if completion > 0 else 0.0
    return ExpBResult(backend.value, f"{w}x{h}", effect or "", delta, frames, utilization)


def write_exp_b_csv(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["backend", "size", "effect", "delta_ms", "frames", "utilization"])
    for r in rows:
        writer.writerow([r.backend, r.size, r.effect, r.delta_ms, r.frames, r.utilization])


# --- experiment C: load simulation ---------------------------------------

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit SplitMix generator; the harness's only randomness source."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class SimPlanEntry:
    """Scripted setup for the i-th loaded photo."""

    index: int
    at_center: bool
    center: tuple[float, float]
    source_size: tuple[int, int]
    rotation: float
    scale: float
    crop: Rect | None


@dataclass(frozen=True)
class StopRules:
    load_timeout_ms: float = 15000.0
    unresponsive_timeout_ms: float = 30000.0
    max_photos: int = SIM_PHOTOS


def _draws_before(i: int) -> int:
    # Photos not at the centre consume two position draws each.
    return 2 * sum(1 for j in range(1, i) if j % 5 != 0)


def sim_plan(i: int, seed: int,
             screen_size: tuple[int, int] = SIM_SCREEN) -> SimPlanEntry:
    """Evaluate the load-script rules, in their stated order, for photo i.

    One generator stream per run (seeded with `seed`) feeds all photos in
    loading order; random draws happen at the position step, and the raw
    values are reduced onto [0, screen - bbox] once the photo's final
    footprint is known, so placed photos always start fully on screen;
    a screen too small for the footprint raises ValueError.
    """
    if not 1 <= i <= SIM_PHOTOS:
        raise ValueError(f"photo index must be 1..{SIM_PHOTOS}, got {i}")
    rng = SplitMix64(seed)
    for _ in range(_draws_before(i)):
        rng.next_u64()

    at_center = i % 5 == 0
    if not at_center:
        raw_x, raw_y = rng.next_u64(), rng.next_u64()
    source_size = SIM_SMALL if i % 2 == 0 else SIM_LARGE
    rotation = 0.0
    scale = 1.0
    if i % 3 == 0 and i % 5 != 0:
        rotation = -50.0 if i % 2 == 0 else 10.0
    elif i % 5 == 0:
        scale = 0.8
    crop = CROP_RECT if i % 7 == 0 else None

    if at_center:
        center = (screen_size[0] / 2.0, screen_size[1] / 2.0)
    else:
        cw, ch = (crop.w, crop.h) if crop else source_size
        dw = max(1, round_half_up(cw * scale))
        dh = max(1, round_half_up(ch * scale))
        ew, eh = rotated_extents(dw, dh, rotation)
        ew, eh = math.ceil(ew), math.ceil(eh)
        if ew > screen_size[0] or eh > screen_size[1]:
            raise ValueError(f"photo{i:03d} ({ew}x{eh} px) does not fit the "
                             f"{screen_size[0]}x{screen_size[1]} screen")
        x = raw_x % (screen_size[0] - ew + 1)
        y = raw_y % (screen_size[1] - eh + 1)
        center = (x + ew / 2.0, y + eh / 2.0)
    return SimPlanEntry(i, at_center, center, source_size, rotation, scale, crop)


def plan_photo(entry: SimPlanEntry, photo_id: str | None = None) -> PhotoObject:
    return PhotoObject(
        id=photo_id or f"photo{entry.index:03d}",
        source=pool_key(entry.source_size, entry.index),
        source_size=entry.source_size,
        crop=entry.crop,
        scale=entry.scale,
        angle=entry.rotation,
        center=entry.center,
    )


@dataclass(frozen=True)
class ExpCProbe:
    backend: str
    count: int
    probe_virtual_ms: float
    stop_rule: str = ""


@dataclass(frozen=True)
class ExpCResult:
    rows: tuple[ExpCProbe, ...]
    stop_rule: str
    stopped_at: int


PROBE_PHOTO_INDEX = 5  # the first centre-positioned photo


def exp_c_run(backend: BackendKind, seed: int = 0, throughput: float = DEFAULT_THROUGHPUT,
              rules: StopRules = StopRules(), quantize: float | None = None,
              screen_size: tuple[int, int] = SIM_SCREEN) -> ExpCResult:
    """Load photos per the script until a stop rule fires.

    Every fifth photo the centre probe photo is rotated -111.8 deg and the
    synchronous work of that change is timed; the probe is measure-only
    (the rotation is not kept), so successive probes compare like for
    like.  Work accounting is analytic, so no frames are produced.
    """
    screen = ScreenSpec.identity(*screen_size)
    scene = SceneDocument()
    rows: list[ExpCProbe] = []
    stop_rule = "max_photos"
    stopped_at = rules.max_photos

    for i in range(1, rules.max_photos + 1):
        photo = scene.add_photo(plan_photo(sim_plan(i, seed, screen_size)))
        load_ms = report(load_units(backend, scene, screen), throughput).virtual_ms
        if load_ms > rules.load_timeout_ms:
            stop_rule, stopped_at = "load_timeout", i
            break
        if i % 5 == 0:
            probe_before = scene.photo(f"photo{PROBE_PHOTO_INDEX:03d}")
            probe_after = rotate_by(probe_before, PROBE_DEGREES)
            units = attr_change_units(backend, scene, screen, probe_before, probe_after)
            probe_ms = report(units, throughput).virtual_ms
            rows.append(ExpCProbe(backend.value, i, _reported(probe_ms, quantize)))
            if probe_ms > rules.unresponsive_timeout_ms:
                stop_rule, stopped_at = "unresponsive", i
                break

    return ExpCResult(tuple(rows), stop_rule, stopped_at)


def write_exp_c_csv(result: ExpCResult, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["backend", "count", "probe_virtual_ms", "stop_rule"])
    for r in result.rows:
        writer.writerow([r.backend, r.count, r.probe_virtual_ms, r.stop_rule])
    backend = result.rows[0].backend if result.rows else ""
    writer.writerow([backend, result.stopped_at, "", result.stop_rule])
