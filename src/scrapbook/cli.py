"""Command-line entry points: effect batches, scene rendering, the
failover service and the three experiment harnesses."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import bench
from .backends import DEFAULT_THROUGHPUT, BackendKind, render_full
from .effects import EffectKind, EffectParamError, EffectSpec, apply_effect
from .image import PpmError, PpmFile, load_ppm, save_ppm
from .photo import PhotoError
from .plotting import write_line_chart
from .scene import SceneFormatError, scene_load
from .service import DirectoryStore, HttpClient, LocalClient, resolve_scene, serve
from .viewport import ScreenSpec


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from None
    if w <= 0 or h <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive, got {text!r}")
    return w, h


def _exp_size(text: str) -> tuple[int, int]:
    size = _parse_size(text)
    if size not in bench.EXP_SIZES:
        raise argparse.ArgumentTypeError(
            f"photo size must be one of {[f'{w}x{h}' for w, h in bench.EXP_SIZES]}, "
            f"got {text!r}")
    return size


def _throughput(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not value > 0:
        raise argparse.ArgumentTypeError(f"throughput must be > 0 (inf allowed), got {text!r}")
    return value


def _quantum(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"clock quantum must be finite and > 0, got {text!r}")
    return value


def _int_in(lo: int, hi: int, what: str):
    """An argparse type: an int in lo..hi."""
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{what} must be in {lo}..{hi}, got {text!r}")
        return value
    return integer


def _parse_param(text: str):
    key, _, raw = text.partition("=")
    if not _:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    if "," in raw:
        return key, [int(v) for v in raw.split(",")]
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _backend(text: str) -> BackendKind:
    try:
        return BackendKind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"backend must be one of {[b.value for b in BackendKind]}, got {text!r}") from None


def _file_resolver(base: Path):
    """Source name -> image, relative to `base` unless absolute.  Each file
    is opened once and checked from its header and length; a draw reads
    only the rect of it that its window maps back to."""
    return functools.cache(lambda source: PpmFile(base / source))


def _cmd_effects(args) -> int:
    params = dict(args.params or [])
    spec = EffectSpec.from_json_dict({"kind": args.op, **params})
    image = load_ppm(args.infile)
    save_ppm(apply_effect(image, spec), args.outfile)
    return 0


def _cmd_render(args) -> int:
    scene_path = Path(args.scene)
    scene = scene_load(scene_path.read_text(encoding="utf-8"))
    sources = _file_resolver(scene_path.parent)
    scene.photos = [replace(p, source_size=(sources(p.source).width,
                                            sources(p.source).height))
                    for p in scene.photos]
    screen = ScreenSpec.fit(*args.screen)
    client = HttpClient(args.service) if args.service else LocalClient()
    prepare, failover_cost = resolve_scene(args.backend, scene, client, args.throughput)
    frame, cost = render_full(args.backend, scene, sources, screen, args.throughput, prepare)
    cost = cost + failover_cost
    save_ppm(frame, args.out)
    if args.cost:
        with open(args.cost, "w", encoding="utf-8") as fh:
            fh.write("work_units,virtual_ms,frames\n")
            fh.write(f"{cost.work_units},{cost.virtual_ms},{cost.frames}\n")
    return 0


def _cmd_serve(args) -> int:
    store = DirectoryStore(args.store) if args.store else None
    serve(args.port, store)
    return 0


def _write_csv(path, write, rows) -> None:
    """write(rows, fh) to the file at path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(rows, fh)
    else:
        write(rows, sys.stdout)


def _cmd_exp_a(args) -> int:
    backends = args.backend or list(bench.ALL_BACKENDS)
    rows = bench.exp_a_run(backends=backends, throughput=args.throughput,
                           quantize=args.quantize_clock)
    _write_csv(args.csv, bench.write_exp_a_csv, rows)
    if args.plot:
        series = {}
        for r in rows:
            if r.trial != 1 or not r.image.startswith("b"):
                continue
            w, h = _parse_size(r.image[1:])
            series.setdefault(f"{r.backend}/{r.op}", []).append((w * h, r.virtual_ms))
        for points in series.values():
            points.sort()
        write_line_chart(args.plot, "application time by image area", series,
                         "image pixels", "virtual ms")
    return 0


def _cmd_exp_b(args) -> int:
    sizes = [args.size] if args.size else list(bench.EXP_SIZES)
    rows = [bench.exp_b_run(args.backend, size, effect=args.effect,
                            throughput=args.throughput, screen_size=args.screen)
            for size in sizes]
    _write_csv(args.csv, bench.write_exp_b_csv, rows)
    if args.plot:
        points = sorted((int(r.size.split("x")[0]) * int(r.size.split("x")[1]), r.delta_ms)
                        for r in rows)
        write_line_chart(args.plot, "drag completion delta by photo area",
                         {args.backend.value: points}, "photo pixels", "delta ms")
    return 0


def _cmd_exp_c(args) -> int:
    rules = bench.StopRules(max_photos=args.max_photos)
    try:
        result = bench.exp_c_run(args.backend, seed=args.seed, throughput=args.throughput,
                                 rules=rules, quantize=args.quantize_clock,
                                 screen_size=args.screen)
    except ValueError as exc:  # the screen cannot hold a scripted photo
        return _user_error(exc)
    _write_csv(args.csv, bench.write_exp_c_csv, result)
    if args.plot:
        points = [(r.count, r.probe_virtual_ms) for r in result.rows]
        write_line_chart(args.plot, "probe rotation time by loaded photos",
                         {args.backend.value: points}, "photos loaded", "virtual ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrapbook",
        description="Headless photo-composition engine and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fx = sub.add_parser("effects", help="batch pixel-effect operations")
    fx_sub = p_fx.add_subparsers(dest="effects_command", required=True)
    p_apply = fx_sub.add_parser("apply", help="apply one effect to a PPM file")
    p_apply.add_argument("--op", required=True,
                         choices=[k.value for k in EffectKind])
    p_apply.add_argument("--param", dest="params", action="append",
                         type=_parse_param, metavar="K=V")
    p_apply.add_argument("--in", dest="infile", required=True)
    p_apply.add_argument("--out", dest="outfile", required=True)
    p_apply.set_defaults(func=_cmd_effects)

    p_render = sub.add_parser("render", help="render a scene document to PPM")
    p_render.add_argument("--scene", required=True)
    p_render.add_argument("--backend", type=_backend, required=True)
    p_render.add_argument("--screen", type=_parse_size, default=(1024, 768))
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--cost", help="also write a cost report CSV")
    p_render.add_argument("--throughput", type=_throughput, default=DEFAULT_THROUGHPUT)
    p_render.add_argument("--service", help="failover service base URL "
                          "(default: in-process)")
    p_render.set_defaults(func=_cmd_render)

    p_serve = sub.add_parser("serve", help="run the processing service")
    p_serve.add_argument("--port", type=_int_in(0, 65535, "port"), default=8080)
    p_serve.add_argument("--store", help="directory of <key>.ppm images")
    p_serve.set_defaults(func=_cmd_serve)

    common = {"--throughput": dict(type=_throughput, default=DEFAULT_THROUGHPUT,
                                   help="renderer speed in pixels per virtual ms"),
              "--csv": dict(default=None, help="CSV output path (default stdout)"),
              "--plot": dict(default=None, help="SVG chart output path")}

    p_a = sub.add_parser("exp-a", help="application-time measurements")
    p_a.add_argument("--backend", type=_backend, action="append",
                     help="repeatable; default all")
    p_a.add_argument("--quantize-clock", type=_quantum, default=None, metavar="MS")
    for flag, kw in common.items():
        p_a.add_argument(flag, **kw)
    p_a.set_defaults(func=_cmd_exp_a)

    p_b = sub.add_parser("exp-b", help="scripted mouse-move replay")
    p_b.add_argument("--backend", type=_backend, required=True)
    p_b.add_argument("--size", type=_exp_size, default=None,
                     help="photo size WxH, one of the four test sizes; default runs all four")
    p_b.add_argument("--effect", choices=["invert"], default=None)
    p_b.add_argument("--screen", type=_parse_size, default=(1920, 1200))
    for flag, kw in common.items():
        p_b.add_argument(flag, **kw)
    p_b.set_defaults(func=_cmd_exp_b)

    p_c = sub.add_parser("exp-c", help="load simulation until a stop rule")
    p_c.add_argument("--backend", type=_backend, required=True)
    p_c.add_argument("--seed", type=int, default=0,
                     help="placement seed; every photo lands fully on screen and is "
                          "charged its whole box, so the CSV is the same for any seed")
    p_c.add_argument("--max-photos", type=_int_in(1, bench.SIM_PHOTOS, "max photos"),
                     default=bench.SIM_PHOTOS)
    p_c.add_argument("--screen", type=_parse_size, default=(1920, 1200))
    p_c.add_argument("--quantize-clock", type=_quantum, default=None, metavar="MS")
    for flag, kw in common.items():
        p_c.add_argument(flag, **kw)
    p_c.set_defaults(func=_cmd_exp_c)

    return parser


# Mistakes in what the user handed over: bad parameters, documents or
# images, and files that cannot be read or written.
_USER_ERRORS = (EffectParamError, SceneFormatError, PhotoError, PpmError, OSError,
                UnicodeDecodeError)


def _user_error(exc: Exception) -> int:
    print(f"scrapbook: error: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        return _user_error(exc)


if __name__ == "__main__":
    sys.exit(main())
