"""The benchmark workloads: compose and drag.

Each workload has a set-up, which builds every input from the seed and is
timed as `setup_s`.  The measured loop then cycles through the workload's
backends one operation at a time: a render on compose, a drag replay on
drag.  A round is one operation on every backend.  The first round always
runs whole; after it, the next operation starts only if the last one's
duration says it will end within the requested seconds.  Every output is
checked, and an operation whose check fails counts as failed.

The engine is driven only through its public functions and the
`scrapbook` command line, so the benchmark measures the code a user runs.
"""

from __future__ import annotations

import hashlib
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scrapbook import backends, bench, cli
from scrapbook import effects as fx
from scrapbook.geometry import Rect
from scrapbook.image import save_ppm
from scrapbook.photo import rotate_by
from scrapbook.scene import SceneDocument, scene_save
from scrapbook.viewport import ScreenSpec

from tracing import Tracer, install_engine_wrappers

COMPOSE_BACKENDS = ("raster", "scenegraph", "legacy")
DRAG_BACKENDS = (backends.BackendKind.RASTER, backends.BackendKind.SCENEGRAPH)
PROBE_ID = f"photo{bench.PROBE_PHOTO_INDEX:03d}"


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY the self-test."""

    photos: int = 100
    deck_per_kind: int = 3            # compose chains hold each kind this often
    compose_screen: str = "1920x1200"
    drag_frames: int | None = None    # None replays every frame of the trace
    setup_reps: int = 3


FULL = Scale()
TINY = Scale(photos=6, deck_per_kind=1, compose_screen="480x300", drag_frames=3,
             setup_reps=1)


@dataclass
class Result:
    """What one run measured; times are wall clock."""

    op_ms: list[float] = field(default_factory=list)
    busy_s: float = 0.0               # summed duration of every operation
    round_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    report: dict = field(default_factory=dict)      # printed as `report` lines
    digests: dict = field(default_factory=dict)
    overhead_ms: float | None = None
    spans: list = field(default_factory=list)

    def end_to_end(self) -> dict:
        return {"op_ms_p50": statistics.median(self.op_ms),
                "op_ms_p90": p90(self.op_ms),
                "ops_per_s": len(self.op_ms) / self.busy_s,
                "round_s": statistics.median(self.round_s),
                "peak_rss_mb": self.peak_rss_mb,
                "setup_s": statistics.median(self.setup_s)}


def settle_allocator() -> None:
    """Put glibc malloc in the state a long-running process reaches.

    glibc serves a block above its mmap threshold with fresh pages, and
    raises the threshold, up to 32 MiB, when such a block is freed.  When
    that first happens depends on the order of allocations.  It decides
    whether the rotated draws' 10-30 MB temporaries fault in fresh pages or
    reuse the heap, which moves the same render by about a quarter.
    Freeing one block just under 32 MiB before anything is measured puts
    every run in the settled state.  Other allocators just see one
    allocation.
    """
    np.empty((32 << 20) - (64 << 10), dtype=np.uint8)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cycle(seconds: float, kinds, run_one) -> list[float]:
    """Call run_one(kind) for kinds in turn, one whole round first, then
    while the next call is predicted to end within `seconds`; returns each
    call's duration in seconds."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(run_one(kinds[len(durations) % len(kinds)]))
        if (len(durations) >= len(kinds)
                and time.perf_counter() - start + durations[-1] > seconds):
            return durations


def _record_rounds(res: Result, durations: list[float], per_round: int) -> None:
    res.busy_s = sum(durations)
    res.round_s = [sum(durations[k:k + per_round])
                   for k in range(0, len(durations) - per_round + 1, per_round)]


def _timed_setup(reps: int, build):
    """Run build() reps times; return its last result and every duration."""
    times, built = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return built, times


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- compose ------------------------------------------------------------------

def _random_effect(rng: random.Random, kind: str) -> fx.EffectSpec:
    params = {
        "brightness": lambda: {"delta": rng.randint(-60, 60)},
        "contrast": lambda: {"factor": round(rng.uniform(0.6, 1.4), 2)},
        "hue": lambda: {"degrees": rng.randint(15, 345)},
        "saturate": lambda: {"factor": round(rng.uniform(0.3, 1.7), 2)},
        "blackwhite": lambda: {"threshold": rng.randint(64, 192)},
        "opacity": lambda: {"alpha": round(rng.uniform(0.5, 0.95), 2)},
        "border": lambda: {"width": rng.randint(2, 10),
                           "color": (rng.randrange(256), rng.randrange(256),
                                     rng.randrange(256), 255)},
        "redeye": lambda: {"region": Rect(rng.randint(0, 100), rng.randint(0, 100),
                                          rng.randint(40, 160), rng.randint(40, 120))},
    }.get(kind, dict)()
    return fx.EffectSpec(fx.EffectKind(kind), params)


def _chain_class(entry: bench.SimPlanEntry):
    """(source size, rotated) for photos that may carry a chain; photos the
    rule table scales or crops carry none, so effect work stays comparable."""
    if entry.scale != 1.0 or entry.crop is not None:
        return None
    return entry.source_size, entry.rotation != 0.0


def compose_scene(seed: int, scale: Scale) -> SceneDocument:
    """The exp-c rule table on the standard viewport, plus seeded chains.

    Each effect kind is dealt `deck_per_kind` times: to a small and a
    large axis-aligned photo and to a rotated one.  Within each class the
    seed picks the photos, pairs effects into chains of one or two, and
    draws parameters and positions.  So the effect work and memory of a
    scene depend little on the seed, even for costly kinds such as hue
    or opacity, whose blend runs over the whole rotated footprint.
    """
    rng = random.Random(seed)
    entries = [bench.sim_plan(i, seed, screen_size=(1024, 768))
               for i in range(1, scale.photos + 1)]
    classes: dict = {}
    for entry in entries:
        key = _chain_class(entry)
        if key is not None:
            classes.setdefault(key, []).append(entry.index)
    small, large = bench.SIM_SMALL, bench.SIM_LARGE
    dealt: dict = {}
    for j, kind in enumerate(fx.EffectKind):
        targets = [(small, False), (large, False), (small if j % 2 == 0 else large, True)]
        for copy in range(scale.deck_per_kind):
            dealt.setdefault(targets[copy % 3], []).append(kind.value)
    chains = {}
    for key, kinds in sorted(dealt.items()):
        rng.shuffle(kinds)
        candidates = classes.get(key, [])
        photos = rng.sample(candidates, min(len(kinds) - len(kinds) // 3, len(candidates)))
        for n, i in enumerate(photos):
            chains[i] = tuple(_random_effect(rng, k) for k in kinds[n::len(photos)])

    scene = SceneDocument()
    for entry in entries:
        photo = bench.plan_photo(entry)
        scene.add_photo(replace(photo, effects=chains.get(entry.index, ())))
    return scene


class ComposeInputs:
    def __init__(self, work: Path, seed: int, scale: Scale):
        pool = bench.photo_pool()
        scene = compose_scene(seed, scale)
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        files = []
        for photo in scene.photos:
            name = f"p{photo.id[-3:]}.ppm"
            save_ppm(pool(photo.source), work / name)
            files.append(replace(photo, source=name))
        scene.photos = files
        self.scene_path = work / "scene.json"
        self.scene_path.write_text(scene_save(scene), encoding="utf-8")
        self.work = work


def _render(inputs: ComposeInputs, backend: str, screen: str, tracer: Tracer | None):
    out = inputs.work / f"frame-{backend}.ppm"
    argv = ["render", "--scene", str(inputs.scene_path), "--backend", backend,
            "--screen", screen, "--out", str(out)]
    t0 = time.perf_counter()
    code = tracer.call("cli.main", cli.main, (argv,)) if tracer else cli.main(argv)
    ms = (time.perf_counter() - t0) * 1e3
    if code != 0:
        raise RuntimeError(f"render on {backend} exited {code}")
    return ms, _sha256_file(out)


def run_compose(seed: int, seconds: float, trace: bool, work: Path,
                scale: Scale = FULL) -> Result:
    res = Result()
    inputs, res.setup_s = _timed_setup(scale.setup_reps,
                                       lambda: ComposeInputs(work, seed, scale))
    per_backend: dict[str, list[float]] = {}
    digests: list[tuple[str, str]] = []

    def render(backend: str, tracer=None) -> float:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            ms, digest = _render(inputs, backend, scale.compose_screen, tracer)
        except Exception as exc:  # a crashed render is a failed operation
            print(f"compose: {backend} render failed: {exc!r}", file=sys.stderr)
            res.failed += 1
            return time.perf_counter() - t0
        res.op_ms.append(ms)
        per_backend.setdefault(backend, []).append(ms)
        digests.append((backend, digest))
        return ms / 1e3

    if trace:
        # An untraced raster render, then one traced round; their raster
        # times differ by the tracing overhead.
        plain, _ = _render(inputs, "raster", scale.compose_screen, None)
        tracer = Tracer()
        install_engine_wrappers(tracer)
        try:
            durations = [render(b, tracer) for b in COMPOSE_BACKENDS]
        finally:
            tracer.uninstall()
        if "raster" in per_backend:
            res.overhead_ms = per_backend["raster"][0] - plain
        res.spans = tracer.spans
    else:
        durations = _cycle(seconds, COMPOSE_BACKENDS, render)
    _record_rounds(res, durations, len(COMPOSE_BACKENDS))
    res.peak_rss_mb = self_peak_rss_mb()

    # Cross-backend frame equality: every render of the scene, on any
    # backend, must give the same frame; renders off the majority fail.
    values = [d for _, d in digests]
    majority = max(set(values), key=values.count) if values else None
    res.failed += sum(1 for v in values if v != majority or values.count(majority) < 2)
    for backend, times in per_backend.items():
        res.report[f"render_s.{backend}"] = statistics.median(times) / 1e3
    res.digests = {b: sorted({d for bb, d in digests if bb == b}) for b in per_backend}
    return res


# --- drag ---------------------------------------------------------------------

def frame_targets(trace: bench.MouseTrace, budget_ms: float) -> list[tuple[float, int]]:
    """exp-b's pacing rule: at each budget tick, one frame at the newest
    sample; the release sample is left to end().

    Restated from the experiment harness so that the benchmark depends on
    the package's public names only.
    """
    targets, rendered = [], 0
    tick = budget_ms
    last = len(trace.samples) - 1
    while tick < trace.duration:
        newest = rendered
        while newest + 1 < last and trace.samples[newest + 1].t <= tick:
            newest += 1
        if newest > rendered:
            targets.append((tick, newest))
            rendered = newest
        tick += budget_ms
    return targets


class DragInputs:
    def __init__(self, seed: int, scale: Scale):
        self.sources = bench.photo_pool()
        scene = SceneDocument()
        for i in range(1, scale.photos + 1):
            photo = scene.add_photo(bench.plan_photo(bench.sim_plan(i, seed)))
            self.sources(photo.source)  # generate now, not inside the drag
        scene.replace_photo(rotate_by(scene.photo(PROBE_ID), bench.PROBE_DEGREES))
        self.photos = list(scene.photos)
        self.screen = ScreenSpec.identity(*bench.SIM_SCREEN)
        self.trace = bench.make_mouse_trace()
        targets = frame_targets(self.trace, bench.FRAME_BUDGET_MS)
        self.targets = targets[:scale.drag_frames] if scale.drag_frames else targets

    def scene(self) -> SceneDocument:
        scene = SceneDocument()
        scene.photos = list(self.photos)
        return scene


def _digest(frame) -> str:
    return hashlib.sha256(frame.rgb.tobytes()).hexdigest()


def _session_call(tracer, name, fn, args, units_of):
    """Time one session call; in a traced run it is also a span."""
    t0 = time.perf_counter_ns()
    if tracer is None:
        out = fn(*args)
    else:
        out = tracer.call(name, fn, args, attrs=lambda _a, r: {"units": units_of(r)})
    return out, (time.perf_counter_ns() - t0) / 1e6


def _replay(inputs: DragInputs, backend, res: Result, tracer=None) -> dict:
    """One drag under exp-b's rule, with wall time in place of modelled time."""
    scene = inputs.scene()
    grab = scene.photo(PROBE_ID).center
    positions = [(grab[0] + s.x, grab[1] + s.y) for s in inputs.trace.samples]
    b = backend.value
    session, begin_ms = _session_call(
        tracer, f"backends.begin.{b}", backends.begin_interaction,
        (backend, scene, inputs.sources, inputs.screen, PROBE_ID),
        lambda s: s.begin_cost.work_units)
    res.attempted += 1
    clock = begin_ms
    frames, digests = [], []
    for tick, idx in inputs.targets:
        (frame, _cost), ms = _session_call(tracer, f"backends.update.{b}", session.update,
                                           (positions[idx],), lambda r: r[1].work_units)
        res.attempted += 1
        digests.append(_digest(frame))
        clock = max(clock, tick) + ms
        frames.append(ms)
    (frame, _cost), end_ms = _session_call(tracer, f"backends.end.{b}", session.end,
                                           (positions[-1],), lambda r: r[1].work_units)
    res.attempted += 1
    completion = max(clock, inputs.trace.duration) + end_ms
    return {"frames_ms": frames, "digests": digests, "release": _digest(frame),
            "delta_ms": max(0.0, completion - inputs.trace.duration),
            "busy_s": (begin_ms + sum(frames) + end_ms) / 1e3}


def run_drag(seed: int, seconds: float, trace: bool, work: Path,
             scale: Scale = FULL) -> Result:
    res = Result()
    inputs, res.setup_s = _timed_setup(scale.setup_reps, lambda: DragInputs(seed, scale))
    replays: list[tuple[str, dict]] = []

    def replay(backend, tracer=None) -> float:
        run = _replay(inputs, backend, res, tracer)
        replays.append((backend.value, run))
        res.op_ms.extend(run["frames_ms"])
        return run["busy_s"]

    if trace:
        plain = _replay(inputs, backends.BackendKind.RASTER, Result())["frames_ms"]
        tracer = Tracer()
        install_engine_wrappers(tracer)
        try:
            durations = [replay(b, tracer) for b in DRAG_BACKENDS]
        finally:
            tracer.uninstall()
        traced = [s.ns / 1e6 for s in tracer.spans if s.name == "backends.update.raster"]
        res.overhead_ms = statistics.median(traced) - statistics.median(plain)
        res.spans = tracer.spans
    else:
        durations = _cycle(seconds, DRAG_BACKENDS, replay)
    _record_rounds(res, durations, len(DRAG_BACKENDS))
    res.peak_rss_mb = self_peak_rss_mb()

    # Every replay, on either backend, must show the same frames.
    ref = replays[0][1]
    for _, run in replays[1:]:
        res.failed += sum(1 for a, b in zip(ref["digests"], run["digests"]) if a != b)
        res.failed += run["release"] != ref["release"]
    for b in {b for b, _ in replays}:
        res.report[f"drag_delta_ms.{b}"] = statistics.median(
            run["delta_ms"] for bb, run in replays if bb == b)
        res.digests[b] = sorted({run["release"] for bb, run in replays if bb == b})
    res.report["frame_ms_p50"] = statistics.median(res.op_ms)
    res.report["frame_ms_p90"] = p90(res.op_ms)
    return res


WORKLOADS = {"compose": run_compose, "drag": run_drag}
