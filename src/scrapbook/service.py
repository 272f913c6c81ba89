"""Single-endpoint processing service and capability failover routing.

When a backend lacks an effect, the effect runs "server-side" through one
JSON switch in place of the local step, as each photo is drawn, so every
feature works on every backend.  A drawn photo's chain runs only on the
window its draw samples (see `raster.prepare_content`), so a routed step
sends only its input window, with a redeye region moved into it; the
request's format is that of a whole-image request.  The same envelope is
spoken in-process (LocalClient) and over HTTP POST /api (HttpClient
against serve()).

Request envelope:   {"op": str, "args": object, "image": str}
    `image` is a base64 binary-PPM payload, or "store:<key>" to reference
    the server's image store.  A store is any mapping from key to
    RasterImage whose missing keys raise KeyError; `scrapbook serve
    --store DIR` serves the DIR/<key>.ppm files through DirectoryStore.
Response envelope:  {"status": "ok"|"error", "error_code": int|null,
                     "message": str, "payload": object|null}

Error codes:
    4001  unknown op
    4002  malformed args or envelope
    4003  unknown effect kind
    4004  undecodable or unresolvable image
    5001  internal failure

Errors always travel inside the response envelope, never as transport
failures.  The wire carries RGB only.  An effect's output alpha depends
only on its input alpha (the flips move it with the pixels), so the
client rebuilds it from the input's alpha plane through the effect's
registry row.
"""

from __future__ import annotations

import base64
import binascii
import json
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from . import effects as fx
from . import raster
from .backends import (DEFAULT_THROUGHPUT, BackendKind, Capability,
                       CostReport, PrepareStep, capability_check, report, runs_chain)
from .image import PpmError, RasterImage, decode_ppm, encode_ppm, load_ppm
from .photo import PhotoObject, source_rect

ERR_UNKNOWN_OP = 4001
ERR_MALFORMED_ARGS = 4002
ERR_UNKNOWN_EFFECT = 4003
ERR_BAD_IMAGE = 4004
ERR_INTERNAL = 5001

_STORE_PREFIX = "store:"

# Virtual ms one effect routed to the service costs, in place of local work.
REMOTE_LATENCY_MS = 50.0

# Largest request body the HTTP server reads, 64 MiB: the base64 of the
# largest image an effect may produce, far above what the repo sends.
MAX_BODY_BYTES = fx.MAX_IMAGE_PIXELS * 3 * 4 // 3


class FailoverError(RuntimeError):
    """The service answered with an error envelope."""

    def __init__(self, code: int, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServiceUnreachableError(RuntimeError):
    """Transport to the remote service failed after all retries; the
    caller decides whether to retry later or abort."""


def encode_image(image: RasterImage) -> str:
    return base64.b64encode(encode_ppm(image)).decode("ascii")


def decode_image(payload: str) -> RasterImage:
    raw = base64.b64decode(payload.encode("ascii"), validate=True)
    return decode_ppm(raw)


def make_ping_request() -> dict:
    return {"op": "ping", "args": {}, "image": None}


def make_apply_request(spec: fx.EffectSpec, image: RasterImage | str) -> dict:
    """Apply-effect envelope; pass a store key string to skip the upload."""
    if isinstance(image, RasterImage):
        payload = encode_image(image)
    else:
        payload = _STORE_PREFIX + image
    return {"op": "apply_effect", "args": {"effect": spec.to_json_dict()}, "image": payload}


def _ok(payload: dict) -> dict:
    return {"status": "ok", "error_code": None, "message": "", "payload": payload}


def _error(code: int, message: str) -> dict:
    return {"status": "error", "error_code": code, "message": message, "payload": None}


class DirectoryStore:
    """Read-only store over a directory of <key>.ppm files."""

    def __init__(self, root):
        self.root = Path(root)

    def __getitem__(self, key: str) -> RasterImage:
        if "/" in key or "\\" in key or key.startswith("."):
            raise KeyError(key)
        path = self.root / f"{key}.ppm"
        if not path.is_file():
            raise KeyError(key)
        return load_ppm(path)


def _resolve_image(field, store) -> RasterImage | dict:
    if not isinstance(field, str):
        return _error(ERR_BAD_IMAGE, "image must be a base64 PPM string or store key")
    if field.startswith(_STORE_PREFIX):
        key = field[len(_STORE_PREFIX):]
        if store is None:
            return _error(ERR_BAD_IMAGE, f"no image store configured for key {key!r}")
        try:
            return store[key]
        except KeyError:
            return _error(ERR_BAD_IMAGE, f"image store has no key {key!r}")
    try:
        return decode_image(field)
    except (binascii.Error, PpmError, ValueError) as exc:
        return _error(ERR_BAD_IMAGE, f"undecodable image: {exc}")


def _apply_effect_op(envelope: dict, store) -> dict:
    args = envelope.get("args")
    if not isinstance(args, dict) or not isinstance(args.get("effect"), dict):
        return _error(ERR_MALFORMED_ARGS, "args.effect object required")
    effect = args["effect"]
    try:
        fx.EffectKind(effect.get("kind"))
    except ValueError:
        return _error(ERR_UNKNOWN_EFFECT, f"unknown effect kind {effect.get('kind')!r}")
    try:
        spec = fx.EffectSpec.from_json_dict(effect)
    except fx.EffectParamError as exc:
        return _error(ERR_MALFORMED_ARGS, str(exc))
    image = _resolve_image(envelope.get("image"), store)
    if isinstance(image, dict):
        return image
    try:
        result = fx.apply_effect(image, spec)
    except fx.EffectParamError as exc:  # output too large for the image
        return _error(ERR_MALFORMED_ARGS, str(exc))
    return _ok({"image": encode_image(result)})


def dispatch(envelope, store=None) -> dict:
    """Interpret one request envelope; stateless except for the store."""
    try:
        if not isinstance(envelope, dict):
            return _error(ERR_MALFORMED_ARGS, "request envelope must be a JSON object")
        op = envelope.get("op")
        if op == "ping":
            return _ok({"pong": True})
        if op == "apply_effect":
            return _apply_effect_op(envelope, store)
        return _error(ERR_UNKNOWN_OP, f"unknown op {op!r}")
    except Exception as exc:  # never let an internal bug escape the envelope
        return _error(ERR_INTERNAL, f"internal failure: {exc}")


class LocalClient:
    """In-process transport: dispatch without serialization overhead."""

    def __init__(self, store=None):
        self.store = store

    def call(self, envelope: dict) -> dict:
        return dispatch(envelope, self.store)


class HttpClient:
    """POST /api transport with a bounded retry before giving up."""

    def __init__(self, base_url: str, attempts: int = 3, timeout: float = 10.0):
        self.url = base_url.rstrip("/") + "/api"
        self.attempts = attempts
        self.timeout = timeout

    def call(self, envelope: dict) -> dict:
        body = json.dumps(envelope).encode("utf-8")
        last_error = None
        for _ in range(self.attempts):
            request = urllib.request.Request(
                self.url, data=body, headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read().decode("utf-8"))
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                last_error = exc
        raise ServiceUnreachableError(
            f"service at {self.url} unreachable after {self.attempts} attempts: "
            f"{last_error}") from last_error


def route_effect(backend: BackendKind, image: RasterImage, spec: fx.EffectSpec,
                 client=None) -> RasterImage:
    """Run the effect locally when the backend supports it, otherwise via
    the service; the result is bit-identical either way."""
    if capability_check(backend, spec.kind) is Capability.SUPPORTED:
        return fx.apply_effect(image, spec)
    client = client or LocalClient()
    response = client.call(make_apply_request(spec, image))
    if response.get("status") != "ok":
        raise FailoverError(response.get("error_code") or ERR_INTERNAL,
                            response.get("message", "unknown failure"))
    result = decode_image(response["payload"]["image"])
    result.array[:, :, 3] = fx.effect_alpha(spec, image.array[:, :, 3])
    return result


def resolve_scene(backend: BackendKind, scene, client=None,
                  throughput: float = DEFAULT_THROUGHPUT) -> tuple[PrepareStep, CostReport]:
    """The failover of a render: (prepare, cost).  `prepare` is the step
    render_full takes; it crops a photo and runs its chain one step at a
    time through route_effect, so only drawn photos reach the service, and
    each step runs only on what the window it is given maps back to.
    `cost` charges every chain the backend cannot run, drawn or not, on
    its whole crop: a local step its output area as work, a routed step
    one remote latency.
    """
    local_pixels = 0
    remote_calls = 0
    for photo in scene.photos:
        if runs_chain(backend, photo):
            continue
        rect = source_rect(photo)
        for spec, (w, h) in zip(photo.effects, fx.chain_sizes(rect.w, rect.h, photo.effects)):
            if capability_check(backend, spec.kind) is Capability.SUPPORTED:
                local_pixels += w * h
            else:
                remote_calls += 1

    def prepare(photo: PhotoObject, source: RasterImage, window=None) -> RasterImage:
        return raster.prepare_content(
            photo, source, window, lambda image, spec: route_effect(backend, image, spec, client))

    cost = (report(local_pixels, throughput, frames=0)
            + CostReport(0, remote_calls * REMOTE_LATENCY_MS))
    return prepare, cost


class _ApiHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        if self.path != "/api":
            self.send_error(404, "only POST /api is served")
            return
        declared = self.headers.get("Content-Length")
        try:
            length = int(declared)
        except (TypeError, ValueError):
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body is left unread: its length is unknown or too large.
            response = _error(ERR_MALFORMED_ARGS, "Content-Length must be an integer in "
                              f"0..{MAX_BODY_BYTES}, got {declared!r}")
        else:
            try:
                envelope = json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError):
                envelope = None  # dispatch answers 4002 inside the envelope
            response = dispatch(envelope, self.server.store)
        body = json.dumps(response).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # keep test output quiet
        pass


class FailoverHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, store=None):
        super().__init__(address, _ApiHandler)
        self.store = store


def make_server(port: int = 0, store=None, host: str = "127.0.0.1") -> FailoverHTTPServer:
    """Bind the single-endpoint API server; port 0 picks a free port."""
    return FailoverHTTPServer((host, port), store)


def serve(port: int, store=None, host: str = "127.0.0.1") -> None:
    server = make_server(port, store, host)
    print(f"serving POST http://{host}:{server.server_address[1]}/api")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
