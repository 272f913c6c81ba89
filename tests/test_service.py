import json
import socket
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import effects as fx
from scrapbook import service
from scrapbook.backends import CAPABILITIES, BackendKind, CostReport
from scrapbook.effects import EffectKind, apply_effect
from scrapbook.geometry import Rect
from scrapbook.image import RasterImage
from scrapbook.photo import PhotoObject, move_to
from scrapbook.scene import SceneDocument
from scrapbook.service import (ERR_BAD_IMAGE, ERR_INTERNAL,
                               ERR_MALFORMED_ARGS, ERR_UNKNOWN_EFFECT,
                               ERR_UNKNOWN_OP, FailoverError, HttpClient,
                               LocalClient, REMOTE_LATENCY_MS,
                               ServiceUnreachableError, decode_image, dispatch,
                               encode_image, make_apply_request,
                               make_ping_request, make_server, resolve_scene,
                               route_effect)
from scrapbook.viewport import ScreenSpec

from conftest import random_image


def tiny_image():
    return RasterImage.filled(1, 1, (10, 20, 30, 255))


# --- dispatch -----------------------------------------------------------------

def test_ping():
    response = dispatch(make_ping_request())
    assert response["status"] == "ok"
    assert response["error_code"] is None
    assert response["payload"] == {"pong": True}


def test_unknown_op():
    response = dispatch({"op": "launch_missiles", "args": {}, "image": None})
    assert response["status"] == "error"
    assert response["error_code"] == ERR_UNKNOWN_OP
    assert response["message"]


def test_malformed_args():
    response = dispatch({"op": "apply_effect", "args": "nope", "image": None})
    assert response["error_code"] == ERR_MALFORMED_ARGS
    response = dispatch({"op": "apply_effect",
                         "args": {"effect": {"kind": "opacity", "alpha": 40}},
                         "image": encode_image(tiny_image())})
    assert response["error_code"] == ERR_MALFORMED_ARGS
    assert dispatch(None)["error_code"] == ERR_MALFORMED_ARGS


def test_unknown_effect_kind():
    response = dispatch({"op": "apply_effect",
                         "args": {"effect": {"kind": "vortex"}},
                         "image": encode_image(tiny_image())})
    assert response["error_code"] == ERR_UNKNOWN_EFFECT


@pytest.mark.parametrize("effect,code", [
    ({"kind": "redeye", "region": [0, 0, -1, 2]}, ERR_MALFORMED_ARGS),
    ({"kind": "redeye", "region": [0, 0, "a", 2]}, ERR_MALFORMED_ARGS),
    ({"kind": "redeye", "region": [0.5, 0, 1, 2]}, ERR_MALFORMED_ARGS),
    ({"kind": "border", "width": 1, "color": [1, 2, 3, True]}, ERR_MALFORMED_ARGS),
    ({"kind": ["x"]}, ERR_UNKNOWN_EFFECT),
    ({"kind": {"a": 1}}, ERR_UNKNOWN_EFFECT),
    ({"kind": "border", "width": 10 ** 12, "color": [1, 2, 3, 255]}, ERR_MALFORMED_ARGS),
])
def test_bad_effect_gets_documented_code(effect, code):
    response = dispatch({"op": "apply_effect", "args": {"effect": effect},
                         "image": encode_image(tiny_image())})
    assert response["error_code"] == code


def test_undecodable_image():
    request = {"op": "apply_effect", "args": {"effect": {"kind": "invert"}}}
    assert dispatch({**request, "image": "!!!"})["error_code"] == ERR_BAD_IMAGE
    assert dispatch({**request, "image": "cGxhaW4gdGV4dA=="})["error_code"] == ERR_BAD_IMAGE
    assert dispatch({**request, "image": None})["error_code"] == ERR_BAD_IMAGE
    assert dispatch({**request, "image": "store:nope"})["error_code"] == ERR_BAD_IMAGE


def test_internal_failure_wrapped(monkeypatch):
    def boom(image, spec):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(service.fx, "apply_effect", boom)
    response = dispatch({"op": "apply_effect",
                         "args": {"effect": {"kind": "invert"}},
                         "image": encode_image(tiny_image())})
    assert response["error_code"] == ERR_INTERNAL
    assert "simulated fault" in response["message"]


def test_apply_effect_payload():
    response = dispatch({"op": "apply_effect",
                         "args": {"effect": {"kind": "invert"}},
                         "image": encode_image(tiny_image())})
    assert response["status"] == "ok"
    out = decode_image(response["payload"]["image"])
    assert out.get_pixel(0, 0) == (245, 235, 225, 255)


def test_identical_requests_identical_responses(rng):
    request = make_apply_request(fx.sepia(), random_image(rng, max_side=8, opaque=True))
    assert dispatch(request) == dispatch(request)


def test_store_keys():
    store = {"k1": tiny_image()}
    response = dispatch(make_apply_request(fx.invert(), "k1"), store)
    assert response["status"] == "ok"
    assert decode_image(response["payload"]["image"]).get_pixel(0, 0) == (245, 235, 225, 255)
    missing = dispatch(make_apply_request(fx.invert(), "k2"), store)
    assert missing["error_code"] == ERR_BAD_IMAGE


# --- routing -------------------------------------------------------------------

def test_route_local_path_is_direct_call(rng):
    img = random_image(rng, max_side=8)
    spec = fx.sepia()
    assert route_effect(BackendKind.RASTER, img, spec) == apply_effect(img, spec)


def test_route_remote_path_bit_identical(rng):
    img = random_image(rng, max_side=8, opaque=True)
    spec = fx.sepia()  # legacy cannot do sepia
    assert route_effect(BackendKind.LEGACY, img, spec) == apply_effect(img, spec)


def unsupported_pairs():
    for backend in BackendKind:
        for kind in sorted(frozenset(EffectKind) - CAPABILITIES[backend]):
            yield backend, kind


def spec_for(kind: EffectKind) -> fx.EffectSpec:
    if kind is EffectKind.REDEYE:
        return fx.redeye(Rect(0, 0, 6, 6))
    if kind is EffectKind.HUE:
        return fx.hue(211.5)
    if kind is EffectKind.SATURATE:
        return fx.saturate(1.8)
    return fx.EffectSpec(kind)


@pytest.mark.parametrize("backend,kind", list(unsupported_pairs()),
                         ids=lambda v: getattr(v, "value", v))
def test_route_transparency_for_every_unsupported_pair(backend, kind, rng):
    img = random_image(rng, max_side=10, opaque=True)
    spec = spec_for(kind)
    assert route_effect(backend, img, spec) == apply_effect(img, spec)


def test_route_preserves_alpha_of_routed_rgb_effects(rng):
    img = random_image(rng, max_side=8)  # arbitrary alpha
    spec = fx.sharpen()  # legacy routes sharpen; sharpen never touches alpha
    assert route_effect(BackendKind.LEGACY, img, spec) == apply_effect(img, spec)


def alpha_ramp_image(rng, width=60, height=40):
    """Random colour over an alpha ramp along both axes, so a flip of the
    alpha plane in either direction shows."""
    arr = np.random.default_rng(rng.randrange(2 ** 32)).integers(
        0, 256, (height, width, 4), dtype=np.uint8)
    ys, xs = np.mgrid[0:height, 0:width]
    arr[:, :, 3] = xs * 255 // (width - 1) // 2 + ys * 2
    return RasterImage.from_array(arr)


@pytest.mark.parametrize("backend,kind", list(unsupported_pairs()),
                         ids=lambda v: getattr(v, "value", v))
def test_routed_step_moves_alpha_like_apply_effect(backend, kind, rng):
    img = alpha_ramp_image(rng)
    spec = spec_for(kind)
    assert route_effect(backend, img, spec) == apply_effect(img, spec)


def test_route_error_surfaces_as_failover_error():
    class BrokenClient:
        def call(self, envelope):
            return {"status": "error", "error_code": 5001, "message": "kaput",
                    "payload": None}

    with pytest.raises(FailoverError):
        route_effect(BackendKind.LEGACY, tiny_image(), fx.sepia(), BrokenClient())


def test_failover_chain_accounting(rng):
    from scrapbook.backends import report
    img = random_image(rng, max_side=6, opaque=True)
    chain = (fx.invert(), fx.sepia(), fx.grayscale())
    scene = SceneDocument()
    photo = scene.add_photo(PhotoObject(id="p", source="src",
                                        source_size=(img.width, img.height), effects=chain))
    prepare, cost = resolve_scene(BackendKind.LEGACY, scene)
    assert prepare(photo, img) == fx.apply_chain(img, chain)
    local_px = 2 * img.width * img.height  # invert + grayscale local
    assert cost.work_units == local_px
    # sepia routed: one remote latency on top of the local work
    assert cost.virtual_ms == report(local_px).virtual_ms + REMOTE_LATENCY_MS


def test_resolve_scene_renders_unsupported_chains(rng):
    from scrapbook.backends import render_full
    img = random_image(rng, max_side=16, opaque=True)
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="p", source="src", source_size=(img.width, img.height),
                                center=(40.0, 30.0), effects=(fx.sepia(),)))
    screen = ScreenSpec.identity(80, 60)
    reference, _ = render_full(BackendKind.RASTER, scene, lambda k: img, screen)
    prepare, cost = resolve_scene(BackendKind.LEGACY, scene)
    frame, _ = render_full(BackendKind.LEGACY, scene, lambda k: img, screen, prepare=prepare)
    assert frame == reference
    assert cost.work_units == 0  # sepia went remote
    assert cost.virtual_ms == REMOTE_LATENCY_MS


class CountingClient(LocalClient):
    """A LocalClient that records the effect kind of each request."""

    def __init__(self):
        super().__init__()
        self.kinds = []

    def call(self, envelope):
        self.kinds.append(envelope["args"]["effect"]["kind"])
        return super().call(envelope)


def test_culled_photo_is_charged_but_never_routed():
    from scrapbook.backends import render_full, report
    sources = {"small": RasterImage.filled(10, 10, (200, 30, 30, 255)),
               "large": RasterImage.filled(60, 60, (10, 90, 200, 255))}
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="under", source="small", source_size=(10, 10),
                                center=(50.0, 50.0), effects=(fx.invert(), fx.sepia())))
    scene.add_photo(PhotoObject(id="top", source="large", source_size=(60, 60),
                                center=(50.0, 50.0)))
    client = CountingClient()
    prepare, cost = resolve_scene(BackendKind.LEGACY, scene, client)
    frame, _ = render_full(BackendKind.LEGACY, scene, sources.__getitem__,
                           ScreenSpec.identity(100, 100), prepare=prepare)
    assert client.kinds == []
    assert frame.array[50, 50].tolist() == [10, 90, 200, 255]
    # The hidden photo's invert is charged as local work, its sepia as a routed call.
    assert cost == report(100, frames=0) + CostReport(0, REMOTE_LATENCY_MS)

    scene.replace_photo(move_to(scene.photo("under"), 10.0, 10.0))
    render_full(BackendKind.LEGACY, scene, sources.__getitem__,
                ScreenSpec.identity(100, 100), prepare=prepare)
    assert client.kinds == ["sepia"]


# Kinds scenegraph (emboss, redeye, flips) or legacy (sepia, hue, sharpen,
# redeye) lack, with kinds every backend runs and with border growth.
FAILOVER_EFFECTS = [fx.sepia(), fx.hue(120), fx.sharpen(), fx.emboss(), fx.flip_h(),
                    fx.flip_v(), fx.redeye(Rect(1, 1, 6, 5)), fx.invert(), fx.opacity(0.5),
                    fx.border(2, (9, 200, 30, 255))]


@st.composite
def failover_scenes(draw):
    """Small scenes whose crops may overhang their sources and whose chains
    use kinds some backend lacks."""
    screen = ScreenSpec.identity(draw(st.integers(1, 60)), draw(st.integers(1, 50)))
    nprng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sources, scene = {}, SceneDocument()
    for i in range(draw(st.integers(1, 4))):
        w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        arr = nprng.integers(0, 256, (h, w, 4), dtype=np.uint8)
        if draw(st.booleans()):
            arr[:, :, 3] = 255
        sources[f"s{i}"] = RasterImage.from_array(arr)
        crop = None
        if draw(st.booleans()):
            crop = Rect(draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)),
                        draw(st.integers(1, 40)), draw(st.integers(1, 40)))
        scene.add_photo(PhotoObject(
            id=f"p{i}", source=f"s{i}", source_size=(w, h), crop=crop,
            scale=draw(st.sampled_from([0.5, 1.0, 2.5, 4.0])),
            angle=draw(st.sampled_from([0.0, 30.0, -90.0])),
            center=(float(draw(st.integers(-10, 70))), float(draw(st.integers(-10, 60)))),
            effects=tuple(draw(st.lists(st.sampled_from(FAILOVER_EFFECTS), max_size=2)))))
    return scene, sources, screen


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(failover_scenes())
def test_every_backend_renders_the_same_frame_through_failover(case):
    from scrapbook.backends import render_full
    scene, sources, screen = case
    frames = {}
    for backend in BackendKind:
        prepare, _ = resolve_scene(backend, scene, LocalClient())
        frames[backend], _ = render_full(backend, scene, sources.__getitem__, screen,
                                         prepare=prepare)
    assert frames[BackendKind.SCENEGRAPH] == frames[BackendKind.RASTER]
    assert frames[BackendKind.LEGACY] == frames[BackendKind.RASTER]


# --- HTTP transport --------------------------------------------------------------

@pytest.fixture
def server():
    srv = make_server(0, {"stored": tiny_image()})
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def base_url(srv):
    return f"http://127.0.0.1:{srv.server_address[1]}"


def test_http_ping_and_apply(server):
    client = HttpClient(base_url(server))
    assert client.call(make_ping_request())["status"] == "ok"
    response = client.call(make_apply_request(fx.invert(), tiny_image()))
    assert decode_image(response["payload"]["image"]).get_pixel(0, 0) == (245, 235, 225, 255)
    stored = client.call(make_apply_request(fx.invert(), "stored"))
    assert stored["status"] == "ok"


def test_http_error_envelope_not_transport_error(server):
    client = HttpClient(base_url(server))
    response = client.call({"op": "nope", "args": {}, "image": None})
    assert response["error_code"] == ERR_UNKNOWN_OP
    # invalid JSON body still yields a 200 envelope
    req = urllib.request.Request(base_url(server) + "/api", data=b"{bad",
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=5) as resp:
        assert resp.status == 200
        body = json.loads(resp.read())
    assert body["error_code"] == ERR_MALFORMED_ARGS


def raw_post(srv, head: bytes, body: bytes = b"") -> dict:
    """POST /api over a bare socket; returns the JSON of a 200 response."""
    with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as sock:
        sock.sendall(b"POST /api HTTP/1.1\r\nHost: test\r\n" + head + b"\r\n" + body)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    status, _, payload = data.partition(b"\r\n\r\n")
    assert status.split(b"\r\n")[0].split()[1] == b"200"
    return json.loads(payload)


@pytest.mark.parametrize("head,body", [
    (b"", b""),
    (b"Content-Length: abc\r\n", b""),
    (b"Content-Length: -1\r\n", b""),
    (b"Content-Length: %d\r\n" % (service.MAX_BODY_BYTES + 1), b""),
    (b"Content-Length: 100000\r\n", b"[" * 100_000),
], ids=["missing", "non-integer", "negative", "oversized", "deeply-nested"])
def test_http_framing_errors_get_envelope(server, head, body):
    assert raw_post(server, head, body)["error_code"] == ERR_MALFORMED_ARGS


def test_http_route_transparency(server, rng):
    img = random_image(rng, max_side=6, opaque=True)
    client = HttpClient(base_url(server))
    assert route_effect(BackendKind.LEGACY, img, fx.sepia(), client) == \
        apply_effect(img, fx.sepia())


class RecordingClient(LocalClient):
    """LocalClient that keeps every request envelope."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def call(self, envelope):
        self.requests.append(envelope)
        return super().call(envelope)


def off_screen_routed_scene():
    """A 40x30 photo whose chain legacy must route (sharpen, redeye) and
    finish locally (invert), with most of it off a 30x20 screen: its draw
    samples the texels (15, 10) to (39, 29)."""
    source = RasterImage.from_array(
        np.random.default_rng(5).integers(0, 256, (30, 40, 4), dtype=np.uint8))
    source.array[:, :, 0] |= 0x80  # red enough for redeye to act
    scene = SceneDocument()
    scene.add_photo(PhotoObject(id="p", source="s", source_size=(40, 30), center=(5.0, 5.0),
                                effects=(fx.sharpen(), fx.redeye(Rect(10, 5, 20, 20)),
                                         fx.invert())))
    return scene, {"s": source}, ScreenSpec.identity(30, 20)


def test_http_renders_a_windowed_routed_chain_as_the_local_client(server):
    from scrapbook.backends import render_full
    scene, sources, screen = off_screen_routed_scene()
    frames = []
    for backend, client in ((BackendKind.LEGACY, HttpClient(base_url(server))),
                            (BackendKind.LEGACY, LocalClient()), (BackendKind.RASTER, None)):
        prepare, _ = resolve_scene(backend, scene, client)
        frames.append(render_full(backend, scene, sources.__getitem__, screen,
                                  prepare=prepare)[0])
    assert frames[0] == frames[1] == frames[2]


def test_a_routed_request_carries_only_the_window():
    """The routed sharpen gets the window with its one-pixel halo, clamped
    at the crop's edge, and the routed redeye the window with its region
    moved into it; both in the same envelope as a whole-crop request."""
    from scrapbook.backends import render_full
    scene, sources, screen = off_screen_routed_scene()
    client = RecordingClient()
    prepare, _ = resolve_scene(BackendKind.LEGACY, scene, client)
    render_full(BackendKind.LEGACY, scene, sources.__getitem__, screen, prepare=prepare)
    sharpen, redeye = client.requests
    window = RasterImage.from_array(sources["s"].array[9:30, 14:40])
    assert sharpen == make_apply_request(fx.sharpen(), window)
    assert len(sharpen["image"]) < len(encode_image(sources["s"]))
    assert redeye["args"]["effect"] == {"kind": "redeye", "region": [-5, -5, 20, 20]}
    assert decode_image(redeye["image"]).width * decode_image(redeye["image"]).height == 25 * 20


def test_unreachable_service_retries_then_raises():
    client = HttpClient("http://127.0.0.1:9", attempts=2, timeout=0.2)
    with pytest.raises(ServiceUnreachableError):
        client.call(make_ping_request())


def test_directory_store(tmp_path):
    from scrapbook.image import save_ppm
    from scrapbook.service import DirectoryStore
    save_ppm(tiny_image(), tmp_path / "photo.ppm")
    store = DirectoryStore(tmp_path)
    assert store["photo"].get_pixel(0, 0) == (10, 20, 30, 255)
    with pytest.raises(KeyError):
        store["absent"]
    with pytest.raises(KeyError):
        store["../photo"]
