"""In-memory span recorder and the timing wrappers of the traced run.

Wrappers are installed from outside the package, at the module attribute
each caller looks up at call time, so the engine's code is unchanged.
A span records its name, start, end, the nearest enclosing span on the
same thread and a few attributes computed after the clock stops.  Spans
stay in memory until the run ends and are written out then.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass

EFFECT_KINDS = ("grayscale", "invert", "sepia", "brightness", "contrast", "hue",
                "saturate", "desaturate", "blackwhite", "blur", "sharpen", "emboss",
                "opacity", "flip_h", "flip_v", "border", "redeye")
BACKENDS = ("raster", "scenegraph", "legacy")
SESSION_BACKENDS = ("raster", "scenegraph")
SESSION_OPS = ("begin", "update", "end")
DISPATCH_CODES = ("ok", "4001", "4002", "4003", "4004", "5001")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    attrs: dict

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run fn inside a span; attrs(args, result) runs after the clock."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        done = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
            done = True
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            extra = attrs(args, result) if attrs is not None and done else {}
            self.spans.append(Span(sid, parent, name, start, end, extra))

    def wrap(self, module, attr: str, name: str, attrs=None) -> bool:
        """Replace module.attr by a timing wrapper; False if it is absent."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))
        return True

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()



def dump_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.sid, s.parent, s.name, s.start_ns, s.end_ns,
                                 s.attrs]) + "\n")


# --- attributes, computed after each span's clock stops -------------------

def _px_of_result(args, image):
    return {"px": image.width * image.height}


def _px_of_arg(args, _result):
    return {"px": args[0].width * args[0].height}


def _effect_attrs(args, image):
    return {"kind": args[1].kind.value, "px": image.width * image.height}


def _backend_attrs(args, _result):
    return {"backend": args[0].value}


def _dispatch_attrs(args, response):
    envelope = args[0]
    image = envelope.get("image") if isinstance(envelope, dict) else None
    payload = response.get("payload") or {}
    out = payload.get("image") if isinstance(payload, dict) else None
    return {"code": str(response.get("error_code") or "ok"),
            "bytes_in": len(image) if isinstance(image, str) else 0,
            "bytes_out": len(out) if isinstance(out, str) else 0}


def install_engine_wrappers(tracer: Tracer) -> None:
    """Wrap every layer entry point at the names its callers bind.

    A binding that is missing, say after a rename, is reported on stderr
    so that its metrics reading 0 is not mistaken for a measurement.
    """
    from scrapbook import backends, cli, effects, image, raster, service
    from scrapbook.geometry import Rect

    def draw_attrs(args, _result):
        frame, photo, _content, screen = args[:4]
        theta = math.radians(photo.angle)
        rotated = not (math.cos(theta) == 1.0 and math.sin(theta) == 0.0)
        frame_rect = Rect(0, 0, frame.width, frame.height)
        return {"rotated": rotated,
                "px": backends.screen_bbox(photo, screen).intersect(frame_rect).area}

    plan = [
        (image, "decode_ppm", "image.decode_ppm", _px_of_result),
        (image, "encode_ppm", "image.encode_ppm", _px_of_arg),
        (service, "decode_ppm", "image.decode_ppm", _px_of_result),
        (service, "encode_ppm", "image.encode_ppm", _px_of_arg),
        (service, "decode_image", "service.decode_image", _px_of_result),
        (service, "encode_image", "service.encode_image", _px_of_arg),
        (service, "dispatch", "service.dispatch", _dispatch_attrs),
        (effects, "apply_effect", "effects.apply_effect", _effect_attrs),
        (backends, "draw_photo", "raster.draw_photo", draw_attrs),
        (backends, "prepare_content", "raster.prepare_content", None),
        (raster, "prepare_content", "raster.prepare_content", None),
        (backends, "render_full", "backends.render_full", _backend_attrs),
        (cli, "render_full", "backends.render_full", _backend_attrs),
        (cli, "resolve_scene", "service.resolve_scene", None),
        (cli, "scene_load", "scene.scene_load", None),
    ]
    missing = []
    for module, attr, name, attrs in plan:
        if not tracer.wrap(module, attr, name, attrs):
            missing.append(f"{module.__name__}.{attr}")
    if missing:
        print(f"warning: not traced, missing bindings: {missing}", file=sys.stderr)


# --- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float):
    return num / den if den else None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _mean_ms(spans) -> float:
    return _mean(s.ns for s in spans) / 1e6


def _self_ns(span: Span, children: dict[int, list[Span]]) -> int:
    """Span duration minus the union of its children's intervals."""
    covered = 0
    cursor = span.start_ns
    for child in sorted(children.get(span.sid, ()), key=lambda c: c.start_ns):
        lo = max(child.start_ns, cursor)
        if child.end_ns > lo:
            covered += child.end_ns - lo
            cursor = child.end_ns
    return span.ns - covered


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics from one run's spans; None marks a ratio with
    nothing to divide by."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_mpx(name):
        group = named(name)
        return _ratio(sum(s.ns for s in group) / 1e6,
                      sum(s.attrs.get("px", 0) for s in group) / 1e6)

    m = {}
    m["image.decode_ppm.ms_per_mpx"] = per_mpx("image.decode_ppm")
    m["image.decode_ppm.calls"] = len(named("image.decode_ppm"))
    m["image.encode_ppm.ms_per_mpx"] = per_mpx("image.encode_ppm")
    m["scene.scene_load.ms"] = _mean_ms(named("scene.scene_load"))

    for kind in EFFECT_KINDS:
        group = [s for s in named("effects.apply_effect") if s.attrs.get("kind") == kind]
        px = sum(s.attrs["px"] for s in group)
        m[f"effects.apply_effect.{kind}.ns_per_px"] = _ratio(sum(s.ns for s in group), px)
        m[f"effects.apply_effect.{kind}.px"] = px

    draws = named("raster.draw_photo")
    for cls, rotated in (("rotated", True), ("axis", False)):
        group = [s for s in draws if s.attrs.get("rotated") is rotated]
        px = sum(s.attrs["px"] for s in group)
        m[f"raster.draw_photo.{cls}.ns_per_px"] = _ratio(sum(s.ns for s in group), px)
        m[f"raster.draw_photo.{cls}.px"] = px
        m[f"raster.draw_photo.{cls}.calls"] = len(group)
    m["raster.prepare_content.ms"] = _mean_ms(named("raster.prepare_content"))

    for backend in BACKENDS:
        group = [s for s in named("backends.render_full")
                 if s.attrs.get("backend") == backend]
        m[f"backends.render_full.{backend}.ms"] = _mean_ms(group)
        m[f"backends.render_full.{backend}.self_ms"] = _mean(
            _self_ns(s, children) for s in group) / 1e6

    for op in SESSION_OPS:
        for backend in SESSION_BACKENDS:
            group = named(f"backends.{op}.{backend}")
            units = sum(s.attrs.get("units", 0) for s in group)
            key = f"backends.{op}.{backend}"
            m[f"{key}.ms"] = _mean_ms(group)
            m[f"{key}.units"] = _mean(s.attrs.get("units", 0) for s in group)
            m[f"{key}.ns_per_unit"] = _ratio(sum(s.ns for s in group), units)

    resolves = named("service.resolve_scene")
    dispatches = named("service.dispatch")
    m["service.resolve_scene.ms"] = _mean_ms(resolves)
    m["service.resolve_scene.remote_calls"] = _mean(
        sum(1 for d in dispatches if d.parent == r.sid) for r in resolves)
    m["service.dispatch.ms"] = _mean_ms(dispatches)
    for code in DISPATCH_CODES:
        m[f"service.dispatch.code_{code}"] = sum(
            1 for d in dispatches if d.attrs.get("code") == code)
    m["service.encode_image.ms_per_mpx"] = per_mpx("service.encode_image")
    m["service.decode_image.ms_per_mpx"] = per_mpx("service.decode_image")
    for key in ("bytes_in", "bytes_out"):
        m[f"service.{key}"] = _mean(d.attrs.get(key, 0) for d in dispatches)

    mains = named("cli.main")
    m["cli.main.self_ms"] = _mean(_self_ns(s, children) for s in mains) / 1e6
    m["trace.spans"] = len(spans)
    return m
