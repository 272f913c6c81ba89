"""RGBA8 raster images and the binary PPM (P6) codec.

Images are row-major RGBA8 numpy arrays with straight (non-premultiplied)
alpha.  P6 is the required interchange format: it is bit-exact, trivial to
parse and carries no alpha, so saving drops alpha and loading sets it to
255 everywhere.

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
        img = cls.__new__(cls)
        img.height, img.width = arr.shape[:2]
        img.array = np.array(arr, order="C")
        return img

    @property
    def data(self) -> np.ndarray:
        """Flat uint8 view of the pixels, row-major RGBA."""
        return self.array.reshape(-1)

    @property
    def packed(self) -> np.ndarray:
        """Writable (h, w) uint32 view: one element per RGBA pixel."""
        return self.array.view(np.uint32)[..., 0]

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


def _row_strips(height: int, width: int, work) -> None:
    """Run work(r0, r1) on row strips of about STRIP_PX pixels that cover
    rows 0..height of a width-pixel-wide grid.

    A single strip, or a single worker, runs inline in order.  Otherwise
    the caller and the pool claim strips in order until none is left; a
    pool task that starts after that finds nothing to do, so the caller
    never waits for a queued task.  This returns only after every strip
    has finished, then raises the first strip's error, if any.
    """
    rows = max(1, STRIP_PX // max(width, 1))
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


def decode_ppm(buf: bytes) -> RasterImage:
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


def encode_ppm(image: RasterImage) -> bytes:
    """Encode to binary PPM bytes; alpha is dropped."""
    header = b"P6\n%d %d\n255\n" % (image.width, image.height)
    return header + image.array[:, :, :3].tobytes()


def load_ppm(path) -> RasterImage:
    with open(path, "rb") as fh:
        return decode_ppm(fh.read())


def save_ppm(image: RasterImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_ppm(image))
