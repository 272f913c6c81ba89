"""Sources read by window against the whole decode.

`PpmFile.read` seeks to a rect's first row, reads only the bytes from
there to the rect's last pixel and expands only the rect's columns.  The
property requires it to give the pixels of a whole `decode_ppm` cut to
the same rect, the test-only oracle, on valid P6 files built with
`test_ppm_codec`'s generators (1x1, one row, one column, odd widths,
comment and whitespace variants, bytes after the payload), for rects at
the file's edges: one row, one column, the first and the last pixel and
the whole image, plus one anywhere.  An in-memory image's read is a copy
of the same rect.  Every generator is derandomized.  The rest checks that
a PPM source is opaque by its format, as a scan of its decoded pixels
says, that a file shortened after it was opened fails as a decode would,
that a file cut between the length check and the read fails the short
read, and that a prepared window from a file equals one from its decoded image
without a whole decode.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrapbook import image
from scrapbook import effects as fx
from scrapbook.geometry import Rect
from scrapbook.image import PpmFile, PpmTruncatedError, RasterImage, decode_ppm, save_ppm
from scrapbook.photo import PhotoObject
from scrapbook.raster import is_opaque, prepare_content

from test_ppm_codec import _SEPARATORS, _outcome, _sizes
from test_prepare_windows import random_windowed_chain

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def valid_ppm_files(draw):
    """The bytes of a P6 file that decodes: any separators between the
    header fields, any one whitespace byte after them and maybe bytes
    after the payload.  A comment right after a number would be part of
    it, so there a separator that starts with one gets a space first."""
    width, height = draw(_sizes())
    header = b"P6" + draw(_SEPARATORS) + b"%d" % width
    for field in (b"%d" % height, b"255"):
        sep = draw(_SEPARATORS)
        header += (b" " + sep if sep.startswith(b"#") else sep) + field
    header += draw(st.sampled_from([b"\n", b" ", b"\t", b"\r"]))
    payload = draw(st.binary(min_size=width * height * 3, max_size=width * height * 3))
    return header + payload + draw(st.sampled_from([b"", b"\x00", b"trailing"]))


def edge_rects(width: int, height: int, seed: int):
    """One row, one column, the first and last pixel and the whole image,
    each where the seed puts it, and one rect anywhere."""
    rng = np.random.default_rng(seed)
    x, y = int(rng.integers(width)), int(rng.integers(height))
    w, h = int(rng.integers(1, width - x + 1)), int(rng.integers(1, height - y + 1))
    return [Rect(0, y, width, 1), Rect(x, y, w, 1), Rect(x, 0, 1, height), Rect(x, y, 1, h),
            Rect(0, 0, 1, 1), Rect(width - 1, height - 1, 1, 1), Rect(0, 0, width, height),
            Rect(x, y, w, h)]


def oracle_read(buf: bytes, rect: Rect) -> np.ndarray:
    """Whole decode, then cut to the rect."""
    return decode_ppm(buf).array[rect.y:rect.y2, rect.x:rect.x2]


@pytest.fixture(scope="module")
def ppm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("windows") / "photo.ppm"


@PROPERTY
@given(valid_ppm_files(), st.integers(0, 2 ** 32 - 1))
def test_a_windowed_read_equals_the_whole_decode_cut_to_the_rect(ppm_path, buf, seed):
    ppm_path.write_bytes(buf)
    source = PpmFile(ppm_path)
    decoded = decode_ppm(buf)
    for rect in edge_rects(source.width, source.height, seed):
        want = oracle_read(buf, rect)
        for got in (source.read(rect.x, rect.y, rect.w, rect.h),
                    decoded.read(rect.x, rect.y, rect.w, rect.h)):
            assert type(got) is RasterImage and (got.width, got.height) == (rect.w, rect.h)
            assert got.array.flags.c_contiguous and got.array.flags.owndata
            assert np.array_equal(got.array, want), rect


def test_an_in_memory_read_is_a_copy():
    source = RasterImage.filled(6, 4, (1, 2, 3, 4))
    window = source.read(1, 1, 3, 2)
    window.array[:] = 9
    assert source == RasterImage.filled(6, 4, (1, 2, 3, 4))


@PROPERTY
@given(valid_ppm_files())
def test_a_ppm_source_is_opaque_by_format_as_a_scan_says(ppm_path, buf):
    ppm_path.write_bytes(buf)
    scanned = bool((decode_ppm(buf).array[:, :, 3] == 255).all())
    assert PpmFile(ppm_path).opaque_by_format and scanned


def test_is_opaque_trusts_the_format_without_a_decode(ppm_path, monkeypatch):
    """A PpmFile source answers as its decoded image's scan does, for
    every crop and for chains that can and cannot lower alpha, and is
    never decoded to say so."""
    arr = np.random.default_rng(7).integers(0, 256, (9, 13, 4), dtype=np.uint8)
    save_ppm(RasterImage.from_array(arr), ppm_path)
    source = PpmFile(ppm_path)
    decoded = image.load_ppm(ppm_path)
    assert not decoded.opaque_by_format
    decodes = []
    monkeypatch.setattr(image, "decode_ppm", lambda buf: decodes.append(buf))
    for crop in (None, Rect(0, 0, 1, 1), Rect(12, 8, 5, 5), Rect(3, 2, 4, 6)):
        for chain in ((), (fx.invert(),), (fx.opacity(0.5),), (fx.border(2, (0, 0, 0, 10)),),
                      (fx.border(2, (0, 0, 0, 255)), fx.blur())):
            photo = PhotoObject(id="p", source="s", source_size=(13, 9), crop=crop,
                                effects=chain)
            assert is_opaque(photo, source) == is_opaque(photo, decoded), (crop, chain)
    assert decodes == []


def test_a_file_shortened_after_it_was_opened_fails_as_a_decode(ppm_path):
    full = image.encode_ppm(RasterImage.filled(7, 5, (10, 20, 30, 255)))
    for cut in (1, 3, 40, len(full) - 20):
        ppm_path.write_bytes(full)
        source = PpmFile(ppm_path)
        ppm_path.write_bytes(full[:-cut])
        want = _outcome(decode_ppm, bytes(full[:-cut]))
        assert want[0] is PpmTruncatedError
        for rect in (Rect(0, 0, 1, 1), Rect(6, 4, 1, 1), Rect(0, 0, 7, 5)):
            with pytest.raises(PpmTruncatedError) as caught:
                source.read(rect.x, rect.y, rect.w, rect.h)
            assert str(caught.value) == want[1]


def test_a_file_cut_after_the_length_check_fails_the_short_read(ppm_path, monkeypatch):
    """fstat still reports the whole file, so only the read sees the cut:
    a rect whose bytes reach past it raises PpmTruncatedError, and a rect
    before it reads its pixels.  The spare byte past the last pixel may
    lie past the end of the file."""
    pixels = np.random.default_rng(11).integers(0, 256, (5, 7, 4), dtype=np.uint8)
    pixels[..., 3] = 255
    full = image.encode_ppm(RasterImage.from_array(pixels))
    ppm_path.write_bytes(full)
    source = PpmFile(ppm_path)
    whole = os.stat(ppm_path)
    monkeypatch.setattr(image.os, "fstat", lambda fd: whole)
    for rect in (Rect(6, 4, 1, 1), Rect(0, 0, 7, 5)):
        assert np.array_equal(source.read(rect.x, rect.y, rect.w, rect.h).array,
                              oracle_read(bytes(full), rect))
    for cut in (1, 3, 40, len(full) - 20):
        ppm_path.write_bytes(full[:-cut])
        end = len(full) - cut - source.offset
        for rect in (Rect(0, 0, 1, 1), Rect(6, 4, 1, 1), Rect(0, 0, 7, 5), Rect(2, 1, 3, 2)):
            last = 3 * ((rect.y2 - 1) * 7 + rect.x2)
            if last <= end:
                assert np.array_equal(source.read(rect.x, rect.y, rect.w, rect.h).array,
                                      oracle_read(bytes(full), rect)), (cut, rect)
            else:
                with pytest.raises(PpmTruncatedError):
                    source.read(rect.x, rect.y, rect.w, rect.h)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1))
def test_a_prepared_window_from_a_file_equals_one_from_its_decoded_image(
        tmp_path_factory, seed):
    """test_prepare_windows's windowed chains, with the source saved as a
    P6 file: the prepare step reads only the window's source rect from
    the file, without a whole decode, and gives the texels it gives on the
    decoded image."""
    photo, source, window = random_windowed_chain(seed)
    path = tmp_path_factory.getbasetemp() / "chain.ppm"
    save_ppm(source, path)
    decodes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(image, "decode_ppm", lambda buf: decodes.append(buf))
        from_file = prepare_content(photo, PpmFile(path), window)
    assert decodes == []
    from_memory = prepare_content(photo, image.load_ppm(path), window)
    assert type(from_file) is type(from_memory)
    assert np.array_equal(from_file.array, from_memory.array)
