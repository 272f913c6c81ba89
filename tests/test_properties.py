"""Property-based tests of the parsers that take outside input.

Every generator is derandomized, so each run checks the same examples.
"""

import copy
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import effects as fx
from scrapbook.effects import EffectKind, EffectParamError, EffectSpec
from scrapbook.geometry import Rect
from scrapbook.image import PpmError, PpmFile, RasterImage, decode_ppm
from scrapbook.photo import PhotoObject
from scrapbook.scene import SceneDocument, SceneFormatError, scene_load, scene_save
from scrapbook.service import (ERR_BAD_IMAGE, ERR_INTERNAL, ERR_UNKNOWN_OP, MAX_BODY_BYTES,
                               dispatch, encode_image, make_server)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

KIND_NAMES = [k.value for k in EffectKind]
PARAM_NAMES = ["delta", "factor", "degrees", "threshold", "alpha", "width", "color", "region"]


def json_values(ints=st.integers()):
    scalars = (st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6)
               | st.lists(ints, min_size=4, max_size=4))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=10)


def effect_json(values):
    """Effect objects near the schema (known kinds and parameter names with
    any values), plus any JSON value at all."""
    params = st.dictionaries(st.sampled_from(PARAM_NAMES) | st.text(max_size=6),
                             values, max_size=3)
    kinds = st.sampled_from(KIND_NAMES) | values
    return (st.builds(lambda kind, p: {**p, "kind": kind}, kinds, params)
            | params | values)


def valid_specs():
    number = st.integers(-2 ** 60, 2 ** 60) | st.floats(allow_nan=False, allow_infinity=False)
    byte = st.integers(0, 255)
    return st.one_of(
        st.sampled_from([fx.grayscale(), fx.invert(), fx.sepia(), fx.desaturate(), fx.blur(),
                         fx.sharpen(), fx.emboss(), fx.flip_h(), fx.flip_v()]),
        st.builds(fx.brightness, st.integers(-255, 255) | st.floats(-255, 255)),
        st.builds(fx.contrast, st.floats(0, 1e300)),
        st.builds(fx.hue, number),
        st.builds(fx.saturate, st.integers(0, 2 ** 60)),
        st.builds(fx.blackwhite, st.floats(0, 255)),
        st.builds(fx.opacity, st.floats(0, 1)),
        st.builds(fx.border, st.integers(0, 10 ** 6), st.tuples(byte, byte, byte, byte)),
        st.builds(fx.redeye, st.builds(Rect, st.integers(), st.integers(),
                                       st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))),
    )


@PROPERTY
@given(effect_json(json_values()))
def test_effect_from_json_returns_or_raises_param_error(data):
    try:
        EffectSpec.from_json_dict(data)
    except EffectParamError:
        pass


_IMAGE = encode_image(RasterImage.filled(3, 2, (200, 40, 30, 255)))

# Small integers and integers of any size from 2**12 up: a border of width
# 2**12 or more on the 3x2 image passes effects.MAX_IMAGE_PIXELS and must be
# refused before allocating.  Widths in between are valid and only slow.
_DISPATCH_INTS = (st.integers(-300, 300) | st.integers(min_value=1 << 12)
                  | st.integers(max_value=-(1 << 12)))


def borders(widths):
    """Border objects with a valid colour, so that the width decides."""
    color = st.lists(st.integers(0, 255), min_size=4, max_size=4)
    return st.fixed_dictionaries({"kind": st.just("border"), "width": widths,
                                  "color": color})


@PROPERTY
@given(effect_json(json_values(_DISPATCH_INTS)) | borders(_DISPATCH_INTS))
def test_dispatch_of_any_effect_is_never_internal_failure(effect):
    response = dispatch({"op": "apply_effect", "args": {"effect": effect}, "image": _IMAGE})
    assert response["error_code"] != ERR_INTERNAL, response["message"]


def _sample_document() -> dict:
    scene = SceneDocument(z_base=2)
    scene.add_photo(PhotoObject(id="a", source="a.ppm", center=(10.5, 20.0), scale=1.5,
                                angle=30.0, effects=(fx.brightness(-12), fx.border(2, (1, 2, 3, 4)))))
    scene.add_photo(PhotoObject(id="b", source="b.ppm", crop=Rect(5, 5, 30, 30),
                                effects=(fx.redeye(Rect(1, 2, 3, 4)),)))
    return json.loads(scene_save(scene))


_DOCUMENT = _sample_document()


def _paths(value, prefix=()):
    """Every path of keys and indexes into a JSON value."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """The sample document with one value anywhere in it replaced."""
    doc = copy.deepcopy(_DOCUMENT)
    *parents, last = draw(st.sampled_from(list(_paths(doc))[1:]))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = draw(json_values())
    return doc


@PROPERTY
@given(mutated_documents() | json_values())
def test_scene_load_returns_or_raises_scene_format_error(doc):
    try:
        scene_load(json.dumps(doc))
    except SceneFormatError:
        pass


@PROPERTY
@given(valid_specs())
def test_valid_specs_round_trip_through_json_text(spec):
    text = json.dumps(spec.to_json_dict())
    assert EffectSpec.from_json_dict(json.loads(text)) == spec


def _header_token():
    numbers = st.integers(-2, 6) | st.sampled_from([255, 256, 65535, 10 ** 30])
    return numbers.map(lambda v: b"%d" % v) | st.sampled_from(
        [b"", b"x", b"+3", b"1_0", b"4.0", b"\xff", b"\x00"])


@st.composite
def near_ppm(draw):
    """A P6 magic, three header fields near the valid ones, any separators
    and comments, then a payload of any length up to a few pixels."""
    sep = st.sampled_from([b" ", b"\n", b"\t\r", b"#c\n", b" # x\n ", b"#", b""])
    header = b"P6" + b"".join(draw(sep) + draw(_header_token()) for _ in range(3))
    return header + draw(sep) + draw(st.binary(max_size=120))


@pytest.fixture(scope="module")
def ppm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ppm") / "photo.ppm"


@PROPERTY
@given(near_ppm() | st.binary(max_size=64))
def test_decode_ppm_returns_or_raises_ppm_error(ppm_path, data):
    """decode_ppm returns or raises a PpmError, and the header-only reader
    (PpmFile on the same bytes) gives the same size or the same error."""
    ppm_path.write_bytes(data)
    outcomes = []
    for read in (lambda: decode_ppm(data), lambda: PpmFile(ppm_path)):
        try:
            img = read()
        except PpmError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((img.width, img.height))
    assert outcomes[0] == outcomes[1]


# Header text a client can put on one line: Latin-1 without control characters.
_HEADER_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                                     blacklist_categories=("Cc",)), max_size=12)


@st.composite
def api_requests(draw):
    """A raw POST /api head and body: Content-Length missing, any text,
    negative, beyond MAX_BODY_BYTES or the body's length; the body any
    bytes or any JSON value."""
    body = draw(st.binary(max_size=64) | json_values().map(lambda v: json.dumps(v).encode()))
    declared = draw(st.none() | _HEADER_TEXT | st.integers(max_value=-1).map(str)
                    | st.integers(min_value=MAX_BODY_BYTES + 1).map(str)
                    | st.just(str(len(body))))
    head = b"POST /api HTTP/1.1\r\nHost: test\r\n"
    if declared is not None:
        head += b"Content-Length: " + declared.encode("latin-1") + b"\r\n"
    return head + b"\r\n", body


def _post(port: int, head: bytes, body: bytes) -> bytes:
    """Send one request, half-close, and read the whole response."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head + body)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


def test_http_framing_of_any_request_gets_an_envelope():
    # One server for every example; a function-scoped fixture would be
    # shared across examples, which Hypothesis rejects.
    server = make_server(0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()

    @PROPERTY
    @given(api_requests())
    def check(request):
        status, _, payload = _post(server.server_address[1], *request).partition(b"\r\n\r\n")
        assert status.split(b"\r\n")[0].split()[1] == b"200"
        envelope = json.loads(payload)
        assert envelope["error_code"] in (None, *range(ERR_UNKNOWN_OP, ERR_BAD_IMAGE + 1))

    try:
        check()
    finally:
        server.shutdown()
        server.server_close()
