"""RGBA8 raster images and the binary PPM (P6) codec.

Images are row-major RGBA8 numpy arrays with straight (non-premultiplied)
alpha.  P6 is the required interchange format: it is bit-exact, trivial to
parse and carries no alpha, so saving drops alpha and loading sets it to
255 everywhere.  Decoding and encoding each write every output byte once.

A source is read by window: `RasterImage.read(x, y, w, h)` gives a fresh
copy of one rect of its pixels, and the paint pass reads only the rect a
drawn photo's window maps back to.  `PpmFile` is a source read from its
file: it reads the file's header and length when opened, and so raises
every PpmError that decode_ppm would.  Its `read` seeks to the rect's
first row, reads only the bytes from there to the rect's last pixel and
expands only the rect's columns, so its bytes equal a whole decode_ppm
cut to the rect; the whole decode runs only when `array` is read.  A P6
file carries no alpha, so a `PpmFile` is opaque by its format
(`opaque_by_format`) and needs no scan to say so.  `load_ppm` decodes at
once.  Sources are read-only during a render: a file or an array that
changes under a render may give any mix of old and new pixels.

Pixel kernels that would touch a large image at once run in row strips of
about STRIP_PX pixels (`_row_strips`), on up to two threads.  Strips are
disjoint, each pixel gets the same expression on the same operands as in
a whole-image pass, and the caller returns only when every strip is done,
so the result does not depend on the number of workers or on which thread
ran which strip.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Pixels per row strip: big enough that numpy's per-call overhead is small,
# small enough that a strip's float64 temporaries stay a few megabytes.
STRIP_PX = 2 ** 16


def _cpu_count() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that run the strips of one kernel call: the caller plus
# _WORKERS - 1 pool threads, shared by every caller.
_WORKERS = min(2, _cpu_count())
_POOL = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1), thread_name_prefix="strips")


class PpmError(ValueError):
    """Base class for PPM decode failures."""


class PpmBadMagicError(PpmError):
    """File does not start with the P6 magic."""


class PpmHeaderError(PpmError):
    """Width/height/maxval header is malformed."""


class PpmMaxvalError(PpmError):
    """Maxval is not 255; only 8-bit channels are supported."""


class PpmTruncatedError(PpmError):
    """Pixel payload is shorter than width*height*3 bytes."""


class RasterImage:
    """Owned width x height grid of RGBA8 samples.

    The pixels live in one C-contiguous (height, width, 4) uint8 `array`
    that nothing else aliases; `data` and `packed` are views of it.  `data`,
    when given, is width*height*4 bytes of row-major RGBA and is copied.
    """

    __slots__ = ("width", "height", "array")

    # True where the format has no alpha channel, so every pixel's alpha
    # is 255 without a look at the pixels.
    opaque_by_format = False

    def __init__(self, width: int, height: int, data: bytearray | bytes | None = None):
        if width <= 0 or height <= 0:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        expected = width * height * 4
        if data is None:
            self.array = np.zeros((height, width, 4), dtype=np.uint8)
        elif len(data) != expected:
            raise ValueError(f"pixel buffer length {len(data)} != {expected}")
        else:
            self.array = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 4).copy()
        self.width = width
        self.height = height

    @classmethod
    def filled(cls, width: int, height: int, rgba=(0, 0, 0, 255)) -> "RasterImage":
        img = cls(width, height)
        img.array[:, :] = rgba
        return img

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "RasterImage":
        """Build from a non-empty (h, w, 4) uint8 array, copied once."""
        if arr.ndim != 3 or arr.shape[2] != 4 or arr.dtype != np.uint8 or 0 in arr.shape:
            raise ValueError(f"expected non-empty (h, w, 4) uint8 array, "
                             f"got {arr.shape} {arr.dtype}")
        return cls._adopt(np.array(arr, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "RasterImage":
        """Build around a fresh C-contiguous (h, w, 4) uint8 array, without
        a copy; the caller hands it over and keeps no other reference."""
        img = cls.__new__(cls)
        img.height, img.width = arr.shape[:2]
        img.array = arr
        return img

    @property
    def data(self) -> np.ndarray:
        """Flat uint8 view of the pixels, row-major RGBA."""
        return self.array.reshape(-1)

    @property
    def packed(self) -> np.ndarray:
        """Writable (h, w) uint32 view: one element per RGBA pixel."""
        return self.array.view(np.uint32)[..., 0]

    def read(self, x: int, y: int, w: int, h: int) -> "RasterImage":
        """A fresh image of the non-empty rect (x, y, w, h), which lies
        inside this one."""
        return RasterImage.from_array(self.array[y:y + h, x:x + w])

    def get_pixel(self, x: int, y: int) -> tuple[int, int, int, int]:
        return tuple(self.array[y, x].tolist())

    def set_pixel(self, x: int, y: int, rgba) -> None:
        self.array[y, x] = rgba

    def copy(self) -> "RasterImage":
        """An independent image of the same type and pixels."""
        return self.from_array(self.array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RasterImage):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"RasterImage({self.width}x{self.height})"


def _strip_rows(width: int) -> int:
    """Rows in one strip of a width-pixel-wide grid: about STRIP_PX pixels,
    and at least one row."""
    return max(1, STRIP_PX // max(width, 1))


def _row_strips(height: int, width: int, work) -> None:
    """Run work(r0, r1) on row strips of `_strip_rows(width)` rows that
    cover rows 0..height of a width-pixel-wide grid.

    A single strip, or a single worker, runs inline in order.  Otherwise
    the caller and the pool claim strips in order until none is left; a
    pool task that starts after that finds nothing to do, so the caller
    never waits for a queued task.  This returns only after every strip
    has finished, then raises the first strip's error, if any.
    """
    rows = _strip_rows(width)
    bounds = [(r0, min(r0 + rows, height)) for r0 in range(0, height, rows)]
    if len(bounds) == 1 or _WORKERS == 1:
        for r0, r1 in bounds:
            work(r0, r1)
        return
    claims = iter(range(len(bounds)))
    lock = threading.Lock()
    finished = threading.Semaphore(0)
    errors = [None] * len(bounds)

    def run() -> None:
        while True:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            try:
                work(*bounds[i])
            except BaseException as exc:  # raised by the caller once every strip is done
                errors[i] = exc
            finished.release()

    # run() keeps every strip's error itself, so the futures hold nothing
    # to read, and waiting on them would wait for tasks still queued.
    for _ in range(min(_WORKERS, len(bounds)) - 1):
        _POOL.submit(run)
    run()
    for _ in bounds:
        finished.acquire()
    for exc in errors:
        if exc is not None:
            raise exc


class _ShortHeader(Exception):
    """The header may run past the bytes read so far."""


def _read_header_token(buf: bytes, pos: int, partial: bool) -> tuple[bytes, int]:
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
    if pos == n and partial:
        raise _ShortHeader
    if start == pos:
        raise PpmHeaderError("unexpected end of header")
    return buf[start:pos], pos


def _parse_header(buf: bytes, partial: bool = False) -> tuple[int, int, int]:
    """Width, height and payload offset of the P6 header at the start of
    `buf`, or the PpmError the header earns.  With `partial`, `buf` may be
    only the first bytes of the file, and _ShortHeader means that the
    answer may depend on bytes past them."""
    if partial and len(buf) < 2:
        raise _ShortHeader
    if buf[:2] != b"P6":
        raise PpmBadMagicError(f"not a binary PPM: magic {buf[:2]!r}")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(buf, pos, partial)
        try:
            fields.append(int(token))
        except ValueError:
            raise PpmHeaderError(f"non-numeric header field {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PpmHeaderError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise PpmMaxvalError(f"maxval {maxval} unsupported, must be 255")
    # Exactly one whitespace byte separates header and payload.
    return width, height, pos + 1


def _check_payload(have: int, width: int, height: int) -> None:
    """PpmTruncatedError unless `have` bytes follow the header, enough for
    width x height RGB pixels."""
    need = width * height * 3
    if have < need:
        raise PpmTruncatedError(f"payload {max(0, have)} bytes, need {need}")


def decode_ppm(buf: bytes) -> RasterImage:
    """Decode a binary PPM (P6, maxval 255) byte string.

    The pixels are written once, as packed little-endian words: pixel i
    is the 4-byte word at payload offset 3*i with its high byte, the next
    pixel's red, replaced by alpha 255.  The last pixel's word would
    reach past the payload, so its three bytes are copied on their own.
    """
    width, height, pos = _parse_header(buf)
    _check_payload(len(buf) - pos, width, height)
    n = width * height
    image = RasterImage._adopt(np.empty((height, width, 4), dtype=np.uint8))
    words = image.array.reshape(-1).view("<u4")
    rgbx = np.ndarray((n - 1,), dtype="<u4", buffer=buf, offset=pos, strides=(3,))
    np.bitwise_and(rgbx, 0x00FFFFFF, out=words[:-1])
    words[:-1] |= 0xFF000000
    last = image.array.reshape(-1, 4)[-1]
    last[:3] = np.frombuffer(buf, dtype=np.uint8, count=3, offset=pos + 3 * (n - 1))
    last[3] = 255
    return image


# Bytes the header reader takes first; a longer header, such as one with a
# long comment, is read on in growing steps.
_HEADER_READ = 256


def _read_header(fh) -> tuple[int, int, int]:
    """_parse_header on the leading bytes of the binary file `fh`, read
    until they decide it."""
    head = b""
    step = _HEADER_READ
    while True:
        more = fh.read(step)
        head += more
        try:
            return _parse_header(head, partial=bool(more))
        except _ShortHeader:
            step = len(head)


class PpmFile(RasterImage):
    """The image in a PPM file, read by window or decoded on first access
    to `array`.

    Construction reads only the header and the file's length and raises
    what decode_ppm would raise on the file's bytes, so a file whose
    pixels are never read is checked in full but never decoded.  `read`
    reads one rect from the file (see the module docstring).  The first
    read of `array` decodes the whole file through decode_ppm and keeps
    the pixels; later reads find them in the slot.
    """

    __slots__ = ("path", "offset")
    opaque_by_format = True

    def __init__(self, path):
        with open(path, "rb") as fh:
            self.width, self.height, self.offset = _read_header(fh)
            size = os.fstat(fh.fileno()).st_size
        _check_payload(size - self.offset, self.width, self.height)
        self.path = path

    def __getattr__(self, name: str):
        # Called only while a slot is empty: before the first decode.
        if name != "array":
            raise AttributeError(name)
        with open(self.path, "rb") as fh:
            self.array = decode_ppm(fh.read()).array
        return self.array

    def read(self, x: int, y: int, w: int, h: int) -> RasterImage:
        """The rect's pixels as decode_ppm writes them: pixel (c, r) of the
        rect is the 4-byte word at 3 * (r * width + c) from the rect's
        first byte, with its high byte replaced by alpha 255.  The buffer
        holds one spare byte past the rect's last pixel, so that pixel's
        word stays inside it; the mask drops the byte."""
        n = (h - 1) * self.width + w
        buf = bytearray(3 * n + 1)
        with open(self.path, "rb") as fh:
            _check_payload(os.fstat(fh.fileno()).st_size - self.offset,
                           self.width, self.height)
            fh.seek(self.offset + 3 * (y * self.width + x))
            fh.readinto(buf)
        out = np.empty((h, w, 4), dtype=np.uint8)
        words = out.view("<u4")[..., 0]
        rgbx = np.ndarray((h, w), dtype="<u4", buffer=buf, strides=(3 * self.width, 3))
        np.bitwise_and(rgbx, 0x00FFFFFF, out=words)
        words |= 0xFF000000
        return RasterImage._adopt(out)


def encode_ppm(image: RasterImage) -> bytearray:
    """Encode to binary PPM bytes; alpha is dropped.

    Header and payload are written once into one buffer.  Each group of
    four packed little-endian RGBA pixels p0..p3 becomes three payload
    words: rgb0 + r1, gb1 + rg2 and b2 + rgb3, in runs of STRIP_PX groups
    on the strip pool (`_row_strips`), so the temporaries stay in cache;
    the pixels of a last partial group are copied on their own.
    """
    header = b"P6\n%d %d\n255\n" % (image.width, image.height)
    n = image.width * image.height
    out = bytearray(len(header) + 3 * n)
    out[:len(header)] = header
    payload = np.frombuffer(out, dtype=np.uint8, offset=len(header))
    groups = n // 4
    pixels = image.array.reshape(-1).view("<u4")[:4 * groups].reshape(groups, 4)
    words = payload[:12 * groups].view("<u4").reshape(groups, 3)

    def run(g0: int, g1: int) -> None:
        p, w = pixels[g0:g1], words[g0:g1]
        t = np.empty(g1 - g0, dtype="<u4")
        np.bitwise_and(p[:, 0], 0x00FFFFFF, out=w[:, 0])
        w[:, 0] |= np.left_shift(p[:, 1], 24, out=t)
        np.right_shift(p[:, 1], 8, out=w[:, 1])
        w[:, 1] &= 0xFFFF
        w[:, 1] |= np.left_shift(p[:, 2], 16, out=t)
        np.right_shift(p[:, 2], 16, out=w[:, 2])
        w[:, 2] &= 0xFF
        w[:, 2] |= np.left_shift(p[:, 3], 8, out=t)

    # One group a row: a strip is a run of STRIP_PX groups.
    _row_strips(groups, 1, run)
    payload[12 * groups:] = image.array.reshape(-1, 4)[4 * groups:, :3].reshape(-1)
    return out


def load_ppm(path) -> RasterImage:
    with open(path, "rb") as fh:
        return decode_ppm(fh.read())


def save_ppm(image: RasterImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_ppm(image))
