import random

import numpy as np
import pytest

from scrapbook.image import (PpmBadMagicError, PpmHeaderError, PpmMaxvalError,
                             PpmTruncatedError, RasterImage, decode_ppm,
                             encode_ppm, load_ppm, save_ppm)
from scrapbook.raster import Frame

from conftest import random_image


def test_decode_two_pixel_file():
    buf = b"P6\n2 1\n255\n" + bytes((255, 0, 0, 0, 0, 255))
    img = decode_ppm(buf)
    assert (img.width, img.height) == (2, 1)
    assert img.get_pixel(0, 0) == (255, 0, 0, 255)
    assert img.get_pixel(1, 0) == (0, 0, 255, 255)


def test_wrong_magic_rejected():
    with pytest.raises(PpmBadMagicError):
        decode_ppm(b"P5\n2 1\n255\n" + bytes(2))


def test_truncated_payload_rejected():
    # 4x4 needs 48 payload bytes; 40 are present.
    buf = b"P6\n4 4\n255\n" + bytes(40)
    with pytest.raises(PpmTruncatedError):
        decode_ppm(buf)


def test_maxval_must_be_255():
    with pytest.raises(PpmMaxvalError):
        decode_ppm(b"P6\n1 1\n65535\n" + bytes(6))


@pytest.mark.parametrize("buf", [
    b"P6\n1 x\n255\n" + bytes(3),
    b"P6\n1 1",
    b"P6\n0 4\n255\n",
    b"P6\n-3 4\n255\n" + bytes(36),
])
def test_malformed_headers(buf):
    with pytest.raises(PpmHeaderError):
        decode_ppm(buf)


def test_header_comments_skipped():
    buf = b"P6 # comment\n2 # another\n1\n255\n" + bytes(6)
    img = decode_ppm(buf)
    assert (img.width, img.height) == (2, 1)


def test_save_drops_alpha(tmp_path):
    img = RasterImage.filled(1, 1, (10, 20, 30, 128))
    path = tmp_path / "px.ppm"
    save_ppm(img, path)
    assert path.read_bytes() == b"P6\n1 1\n255\n" + bytes((10, 20, 30))
    assert load_ppm(path).get_pixel(0, 0) == (10, 20, 30, 255)


def test_round_trip_bit_identical(tmp_path):
    rng = random.Random(7)
    for i in range(20):
        img = random_image(rng, max_side=16, opaque=True)
        path = tmp_path / f"img{i}.ppm"
        save_ppm(img, path)
        assert load_ppm(path) == img
        # a second encode of the reload matches the first byte for byte
        assert encode_ppm(load_ppm(path)) == encode_ppm(img)


def test_save_to_unwritable_path(tmp_path):
    img = RasterImage.filled(1, 1, (1, 2, 3, 255))
    with pytest.raises(OSError):
        save_ppm(img, tmp_path / "missing-dir" / "px.ppm")


def test_buffer_length_invariant():
    with pytest.raises(ValueError):
        RasterImage(2, 2, bytearray(15))
    with pytest.raises(ValueError):
        RasterImage(0, 4)
    img = RasterImage(3, 5)
    assert len(img.data) == 3 * 5 * 4


def test_from_array_copies_its_input():
    arr = np.zeros((2, 3, 4), dtype=np.uint8)
    img = RasterImage.from_array(arr)
    arr[0, 0] = (1, 2, 3, 4)
    assert img.get_pixel(0, 0) == (0, 0, 0, 0)
    assert not np.shares_memory(img.array, arr)
    assert img.array.flags.c_contiguous and img.array.flags.owndata


def test_frame_copy_is_an_independent_frame():
    frame = Frame(4, 3)
    other = frame.copy()
    assert type(other) is Frame and other == frame
    other.rgb[1, 2] = (1, 2, 3)
    assert frame.get_pixel(2, 1) == (255, 255, 255, 255)
    assert other.get_pixel(2, 1) == (1, 2, 3, 255)
