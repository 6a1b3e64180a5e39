"""Grayscale image container and PGM (netpbm) reading and writing.

Both the binary (P5) and ASCII (P2) variants are supported, with maxval
255 or 65535. Binary 16-bit samples are big-endian, as netpbm tools write
them. Other maxval values are rejected instead of rescaled so pixel data
is never silently altered on its way into the codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GrayImage", "PgmError", "load_pgm", "save_pgm"]

# maxval -> bit depth
_MAXVALS = {255: 8, 65535: 16}
_WHITESPACE = b" \t\r\n\x0b\x0c"


class PgmError(ValueError):
    """Malformed PGM data. ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(eq=False)
class GrayImage:
    """Rectangular grayscale raster.

    ``pixels`` is a ``(height, width)`` integer array; every sample must fit
    in ``bit_depth`` bits. The array is normalized to uint8 or uint16 on
    construction.
    """

    width: int
    height: int
    bit_depth: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if self.bit_depth not in (8, 16):
            raise ValueError(f"unsupported bit depth {self.bit_depth}")
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape != (self.height, self.width):
            raise ValueError(
                f"pixel array shape {px.shape} does not match "
                f"{self.height}x{self.width} image"
            )
        if not np.issubdtype(px.dtype, np.integer):
            raise ValueError("pixel samples must be integers")
        if int(px.min()) < 0 or int(px.max()) > self.max_sample:
            raise ValueError("pixel sample out of range for declared bit depth")
        self.pixels = px.astype(np.uint8 if self.bit_depth == 8 else np.uint16)

    @property
    def max_sample(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def total_bits(self) -> int:
        """Raw size of the raster in bits (width * height * bit_depth)."""
        return self.width * self.height * self.bit_depth

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.bit_depth == other.bit_depth
            and np.array_equal(self.pixels, other.pixels)
        )


class _Scanner:
    """Tokenizer for PGM headers and ASCII rasters, tracking byte offsets."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def skip_separators(self):
        """Advance past whitespace and '#' comments (comment runs to EOL)."""
        data = self.data
        n = len(data)
        while self.pos < n:
            c = data[self.pos : self.pos + 1]
            if c in (b"#",):
                nl = data.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif c in _WHITESPACE and c:
                self.pos += 1
            else:
                return

    def next_int(self, what: str) -> int:
        self.skip_separators()
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos : self.pos + 1] not in _WHITESPACE:
            if data[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        token = data[start : self.pos]
        if not token:
            raise PgmError(f"missing {what}", start)
        try:
            return int(token)
        except ValueError:
            raise PgmError(f"invalid {what} {token!r}", start) from None


def load_pgm(data: bytes) -> GrayImage:
    """Parse a P5 or P2 PGM byte stream into a GrayImage.

    Raises PgmError (with the byte offset of the problem) on a bad magic
    number, an unsupported maxval, out-of-range samples or truncated data.
    """
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"not a PGM stream (magic {magic!r})", 0)
    scan = _Scanner(data, 2)
    width = scan.next_int("width")
    height = scan.next_int("height")
    maxval_at = scan.pos
    maxval = scan.next_int("maxval")
    if maxval not in _MAXVALS:
        raise PgmError(f"unsupported maxval {maxval} (must be 255 or 65535)", maxval_at)
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}", 2)
    depth = _MAXVALS[maxval]
    count = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        if scan.pos >= len(data) or data[scan.pos : scan.pos + 1] not in _WHITESPACE:
            raise PgmError("missing separator before raster", scan.pos)
        start = scan.pos + 1
        dtype = np.dtype(">u2") if depth == 16 else np.dtype("u1")
        expected = count * dtype.itemsize
        if len(data) - start < expected:
            raise PgmError(
                f"truncated raster, expected {expected} bytes", len(data)
            )
        if len(data) - start > expected:
            raise PgmError("trailing bytes after raster", start + expected)
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=start)
        pixels = samples.reshape(height, width)
    else:
        # every sample but the last needs a digit and a separator
        if count > (len(data) - scan.pos + 1) // 2:
            raise PgmError(f"truncated raster, expected {count} samples", len(data))
        samples = np.empty(count, dtype=np.uint32)
        for i in range(count):
            at = scan.pos
            value = scan.next_int("sample")
            if value < 0 or value > maxval:
                raise PgmError(f"sample {value} exceeds maxval {maxval}", at)
            samples[i] = value
        scan.skip_separators()
        if scan.pos != len(data):
            raise PgmError("trailing data after raster", scan.pos)
        pixels = samples.reshape(height, width)

    return GrayImage(width=width, height=height, bit_depth=depth, pixels=pixels)


def save_pgm(image: GrayImage, ascii_format: bool = False) -> bytes:
    """Serialize a GrayImage to PGM bytes, P5 by default, P2 when asked.

    Output is deterministic: same image, same bytes. A save/load round trip
    is bit-exact.
    """
    maxval = image.max_sample
    if ascii_format:
        lines = [b"P2", f"{image.width} {image.height}".encode(), str(maxval).encode()]
        for row in image.pixels:
            lines.append(" ".join(str(int(v)) for v in row).encode())
        return b"\n".join(lines) + b"\n"
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode()
    if image.bit_depth == 16:
        raster = image.pixels.astype(">u2").tobytes()
    else:
        raster = image.pixels.astype("u1").tobytes()
    return header + raster
