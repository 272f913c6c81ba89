"""The one-write PPM codec and the header-only file reader against the
codec they replaced.

`oracle_decode_ppm` and `oracle_encode_ppm` are the slice-and-copy codec
as it stood before decode_ppm wrote packed words and encode_ppm wrote
header and payload into one buffer, kept here verbatim as test-only
oracles.  The property builds P6 files near the edges of both codecs:
1x1, 1xN and Nx1 images, odd widths, comment and whitespace variants, a
comment longer than the header reader's first read, bytes after the
payload and a payload one byte short.  Decoding must give the oracle's
pixels or its error, type and message alike, and so must PpmFile, which
checks a file from its header and length and decodes it on first read.
Encoding must give the oracle's bytes, on small images and on frames
whose groups of four pixels span several strips, and a decode-encode
round trip of an encoded image must give the same bytes back.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import image
from scrapbook.image import (_HEADER_READ, PpmBadMagicError, PpmError, PpmHeaderError,
                             PpmMaxvalError, PpmTruncatedError, RasterImage, decode_ppm,
                             encode_ppm)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


# --- test-only oracles ------------------------------------------------------

def _read_header_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines, then collect one token.
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PpmHeaderError("unexpected end of header")
    return buf[start:pos], pos


def oracle_decode_ppm(buf: bytes) -> RasterImage:
    """Decode a binary PPM (P6, maxval 255) byte string."""
    if buf[:2] != b"P6":
        raise PpmBadMagicError(f"not a binary PPM: magic {buf[:2]!r}")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(buf, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PpmHeaderError(f"non-numeric header field {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PpmHeaderError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise PpmMaxvalError(f"maxval {maxval} unsupported, must be 255")
    pos += 1  # exactly one whitespace byte separates header and payload
    need = width * height * 3
    payload = buf[pos:pos + need]
    if len(payload) < need:
        raise PpmTruncatedError(f"payload {len(payload)} bytes, need {need}")
    rgb = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    out = np.empty((height, width, 4), dtype=np.uint8)
    out[:, :, :3] = rgb
    out[:, :, 3] = 255
    return RasterImage.from_array(out)


def oracle_encode_ppm(image: RasterImage) -> bytes:
    """Encode to binary PPM bytes; alpha is dropped."""
    header = b"P6\n%d %d\n255\n" % (image.width, image.height)
    return header + image.array[:, :, :3].tobytes()


# --- generators -------------------------------------------------------------

def _sizes():
    side = st.integers(1, 40)
    return st.one_of(st.just((1, 1)), st.tuples(st.just(1), side), st.tuples(side, st.just(1)),
                     st.tuples(side.map(lambda v: 2 * v + 1), side), st.tuples(side, side))


# Whitespace and comments between header fields.  The long comments put a
# field, or the byte after the header, on either side of the end of the
# header reader's first read, or several reads further on.
_SEPARATORS = (st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b\x0c", b"  \n\t", b"#c\n",
                                b" # x\n ", b"#\n#\n"])
               | st.integers(_HEADER_READ - 16, _HEADER_READ + 4).map(
                   lambda k: b"#" + b"-" * k + b"\n")
               | st.just(b"\n# " + b"long comment " * (_HEADER_READ // 4) + b"\n"))


@st.composite
def ppm_files(draw):
    """The bytes of a P6 file near a valid one."""
    width, height = draw(_sizes())
    seps = [draw(_SEPARATORS) for _ in range(3)]
    fields = (b"%d" % width, b"%d" % height, draw(st.sampled_from([b"255", b"0255", b"65535"])))
    header = b"P6" + b"".join(s + f for s, f in zip(seps, fields))
    header += draw(st.sampled_from([b"\n", b" ", b"\t", b"\r"]))
    payload = draw(st.binary(min_size=width * height * 3, max_size=width * height * 3))
    end = draw(st.sampled_from(["exact", "trailing", "one short", "empty"]))
    if end == "trailing":
        payload += draw(st.binary(min_size=1, max_size=8))
    elif end == "one short":
        payload = payload[:-1]
    elif end == "empty":
        payload = b""
    return header + payload


def _images():
    return _sizes().flatmap(lambda wh: st.binary(min_size=wh[0] * wh[1] * 4,
                                                 max_size=wh[0] * wh[1] * 4).map(
        lambda data: RasterImage(wh[0], wh[1], data)))


def _outcome(fn, *args):
    """fn's result, or the type and message of the PpmError it raised."""
    try:
        return fn(*args)
    except PpmError as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    if isinstance(want, RasterImage):
        return (isinstance(got, RasterImage)
                and (got.width, got.height) == (want.width, want.height)
                and got.array.flags.c_contiguous and np.array_equal(got.array, want.array))
    return got == want


@pytest.fixture(scope="module")
def ppm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "photo.ppm"


# --- properties -------------------------------------------------------------

@PROPERTY
@given(ppm_files())
def test_decode_and_ppm_file_equal_the_oracle_decode(ppm_path, buf):
    want = _outcome(oracle_decode_ppm, buf)
    assert _same(_outcome(decode_ppm, buf), want)
    ppm_path.write_bytes(buf)
    assert _same(_outcome(image.PpmFile, ppm_path), want)


@PROPERTY
@given(_images())
def test_encode_equals_the_oracle_encode_and_round_trips(img):
    encoded = encode_ppm(img)
    assert encoded == oracle_encode_ppm(img)
    assert encode_ppm(decode_ppm(encoded)) == encoded


def test_ppm_file_decodes_once_on_first_pixel_read(ppm_path, monkeypatch):
    img = RasterImage.filled(5, 3, (9, 8, 7, 255))
    ppm_path.write_bytes(oracle_encode_ppm(img))
    calls = []
    decode = image.decode_ppm
    monkeypatch.setattr(image, "decode_ppm", lambda buf: calls.append(len(buf)) or decode(buf))
    lazy = image.PpmFile(ppm_path)
    assert (lazy.width, lazy.height) == (5, 3) and calls == []
    assert lazy == img and lazy.get_pixel(4, 2) == (9, 8, 7, 255)
    assert lazy.copy() == img
    assert len(calls) == 1


@pytest.mark.parametrize("width, height", [(1023, 300), (2001, 400), (3, 90001), (5, 7)])
@pytest.mark.parametrize("workers", [1, 2])
def test_encode_across_strips_equals_the_oracle_encode(width, height, workers, monkeypatch):
    """Frames whose width is not a multiple of 4 and whose groups span one
    to four strips of STRIP_PX groups, encoded inline and on two threads."""
    arr = np.random.default_rng(width * height).integers(0, 256, (height, width, 4),
                                                          dtype=np.uint8)
    img = RasterImage.from_array(arr)
    monkeypatch.setattr(image, "_WORKERS", workers)
    assert encode_ppm(img) == oracle_encode_ppm(img)
