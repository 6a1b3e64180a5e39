"""Container format for compressed images.

A compressed image is a self-describing byte stream (conventionally a
``.wbc`` file):

    offset  size  field
    0       4     magic "WBC1"
    4       1     format version (1)
    5       4     image width, u32 little-endian
    9       4     image height, u32 little-endian;
                  width * height <= image_io.MAX_SAMPLES (2**26)
    13      1     bit depth (8 or 16)
    14      1     decomposition levels, 1 <= levels, 2**levels <= min(w, h)
    15      1     flags, always 1 (dead-zone quantization)
    16      2     quantizer step count, u16 LE (always 1 + 3 * levels)
    18      4*n   quantizer steps, u32 LE each, canonical plane order
    ..      4     code table entry count, u32 LE
    ..      var   entries: zigzag varint symbol in the int32 range, then
                  u8 code length, 1 <= length <= huffman.MAX_CODE_LENGTH (57)
    ..      8     payload bit length, u64 LE
    ..      var   payload, ceil(bits / 8) bytes, zero padded

Table entries are sorted by symbol, so serialization is deterministic; a
container whose symbols do not strictly ascend, which includes a repeated
symbol, is rejected at the first entry out of order.
The flags byte is always 1 and a container with any other value is
rejected.
The advertised size of a stream counts header bytes plus payload bytes;
that total is what compression ratios are measured against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .huffman import MAX_CODE_LENGTH
from .image_io import MAX_SAMPLES

__all__ = ["BitstreamError", "CompressedBitstream", "MAGIC", "VERSION"]

MAGIC = b"WBC1"
VERSION = 1
_FLAGS = 1  # bit 0: dead-zone quantization, the only quantizer
# code table symbols are quantizer indices (< 2**20) and zero-run
# lengths (<= MAX_SAMPLES), so the decoder's int32 stream holds them all
_SYMBOL_LIMIT = 1 << 31
# a zigzag value below 2**(7 * i) takes at most i varint bytes
_VARINT_LIMITS = np.array([1 << 7 * i for i in range(1, 9)], dtype=np.int64)
# magic, version, geometry, depth, levels, flags and step count; the
# entry count; the payload bit length
_FIXED_HEADER_BYTES = 18 + 4 + 8


class BitstreamError(ValueError):
    """Corrupt or truncated container data."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _write_uvarint(buf: bytearray, value: int):
    if value < 0:
        raise ValueError("uvarint cannot encode negatives")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise BitstreamError("truncated varint", len(data))
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise BitstreamError("varint too long", pos)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


@dataclass
class CompressedBitstream:
    """In-memory form of a compressed image container."""

    width: int
    height: int
    bit_depth: int
    levels: int
    steps: tuple[int, ...]
    code_lengths: dict[int, int]
    payload: bytes = b""
    payload_bit_length: int = 0
    _header_cache: bytes | None = field(default=None, repr=False, compare=False)

    def header_bytes(self) -> bytes:
        if self._header_cache is None:
            self._header_cache = pack_header(
                self.width,
                self.height,
                self.bit_depth,
                self.levels,
                self.steps,
                self.code_lengths,
                self.payload_bit_length,
            )
        return self._header_cache

    @property
    def bit_length(self) -> int:
        """Total container size in bits (header plus padded payload)."""
        return (len(self.header_bytes()) + len(self.payload)) * 8

    @property
    def byte_length(self) -> int:
        return len(self.header_bytes()) + len(self.payload)

    def to_bytes(self) -> bytes:
        expected = (self.payload_bit_length + 7) // 8
        if len(self.payload) != expected:
            raise BitstreamError(
                f"payload is {len(self.payload)} bytes, bit length implies {expected}"
            )
        return self.header_bytes() + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedBitstream":
        if data[:4] != MAGIC:
            raise BitstreamError(f"bad magic {data[:4]!r}", 0)
        if len(data) < 18:
            raise BitstreamError("truncated header", len(data))
        version = data[4]
        if version != VERSION:
            raise BitstreamError(f"unsupported format version {version}", 4)
        width, height = struct.unpack_from("<II", data, 5)
        if width * height > MAX_SAMPLES:
            raise BitstreamError(
                f"{width}x{height} image exceeds {MAX_SAMPLES} samples", 5
            )
        bit_depth = data[13]
        levels = data[14]
        flags = data[15]
        (step_count,) = struct.unpack_from("<H", data, 16)
        if bit_depth not in (8, 16):
            raise BitstreamError(f"bad bit depth {bit_depth}", 13)
        if levels < 1 or 2**levels > min(width, height):
            raise BitstreamError(
                f"{levels} decomposition levels impossible for {width}x{height}", 14
            )
        if flags != _FLAGS:
            raise BitstreamError(f"unsupported flags {flags}", 15)
        if step_count != 1 + 3 * levels:
            raise BitstreamError(
                f"step count {step_count} does not match {levels} levels", 16
            )
        pos = 18
        need = 4 * step_count
        if len(data) < pos + need:
            raise BitstreamError("truncated step table", len(data))
        steps = struct.unpack_from(f"<{step_count}I", data, pos)
        for i, step in enumerate(steps):
            if step < 1:
                raise BitstreamError(f"quantizer step {step} must be >= 1", pos + 4 * i)
        pos += need
        if len(data) < pos + 4:
            raise BitstreamError("truncated code table", len(data))
        (entry_count,) = struct.unpack_from("<I", data, pos)
        if 2 * entry_count > len(data) - pos - 4:
            raise BitstreamError(
                f"code table entry count {entry_count} exceeds the bytes left", pos
            )
        pos += 4
        code_lengths: dict[int, int] = {}
        previous = -_SYMBOL_LIMIT - 1
        for _ in range(entry_count):
            entry = pos
            raw, pos = _read_uvarint(data, pos)
            symbol = _unzigzag(raw)
            if not -_SYMBOL_LIMIT <= symbol < _SYMBOL_LIMIT:
                raise BitstreamError(f"code table symbol {symbol} outside int32", entry)
            if symbol <= previous:
                raise BitstreamError(
                    f"code table symbol {symbol} does not follow {previous} in order", entry
                )
            previous = symbol
            if pos >= len(data):
                raise BitstreamError("truncated code table entry", len(data))
            length = data[pos]
            if not 1 <= length <= MAX_CODE_LENGTH:
                raise BitstreamError(f"code length {length} out of range", pos)
            pos += 1
            code_lengths[symbol] = length
        if len(data) < pos + 8:
            raise BitstreamError("truncated payload length", len(data))
        (payload_bits,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        payload_len = (payload_bits + 7) // 8
        if len(data) - pos < payload_len:
            raise BitstreamError("truncated payload", len(data))
        if len(data) - pos > payload_len:
            raise BitstreamError("trailing bytes after payload", pos + payload_len)
        return cls(
            width=width,
            height=height,
            bit_depth=bit_depth,
            levels=levels,
            steps=tuple(steps),
            code_lengths=code_lengths,
            payload=data[pos : pos + payload_len],
            payload_bit_length=payload_bits,
        )


def pack_header(
    width: int,
    height: int,
    bit_depth: int,
    levels: int,
    steps: tuple[int, ...],
    code_lengths: dict[int, int],
    payload_bit_length: int,
) -> bytes:
    """Serialize the fixed header; ``header_size`` gives its length
    without packing it."""
    if len(steps) != 1 + 3 * levels:
        raise BitstreamError("step table does not match level count")
    buf = bytearray()
    buf += MAGIC
    buf.append(VERSION)
    buf += struct.pack("<II", width, height)
    buf.append(bit_depth)
    buf.append(levels)
    buf.append(_FLAGS)
    buf += struct.pack("<H", len(steps))
    buf += struct.pack(f"<{len(steps)}I", *steps)
    buf += struct.pack("<I", len(code_lengths))
    for sym in sorted(code_lengths):
        _write_uvarint(buf, _zigzag(sym))
        length = code_lengths[sym]
        if not 1 <= length <= MAX_CODE_LENGTH:
            raise BitstreamError(f"code length {length} out of range")
        buf.append(length)
    buf += struct.pack("<Q", payload_bit_length)
    return bytes(buf)


def header_size(levels: int, symbols: np.ndarray) -> int:
    """Byte length of ``pack_header``'s output for ``levels`` and a code
    table over ``symbols`` (distinct, within +-2**62), without packing it."""
    symbols = np.asarray(symbols, dtype=np.int64)
    zigzag = (symbols << 1) ^ (symbols >> 63)
    # one varint byte, one more per limit reached, and one length byte
    varint_bytes = np.searchsorted(_VARINT_LIMITS, zigzag, side="right")
    entry_bytes = 2 * symbols.size + int(varint_bytes.sum())
    return _FIXED_HEADER_BYTES + 4 * (1 + 3 * levels) + entry_bytes
