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

Table entries are in strictly ascending symbol order, so serialization
is deterministic; a container whose symbols do not strictly ascend, which
includes a repeated symbol, is rejected at the first entry out of order,
and so is such a table on write. In memory the table is two arrays, the
symbols (int64) and their code lengths (uint8), read and written in
numpy; a table the numpy reader cannot take is read again one entry at a
time, which finds the first bad entry and its offset.
The flags byte is always 1 and a container with any other value is
rejected.
The advertised size of a stream counts header bytes plus payload bytes;
that total is what compression ratios are measured against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
_VARINT_LIMITS = np.array([1 << 7 * i for i in range(1, 10)], dtype=np.uint64)
# varint bytes of a zigzag symbol in the int32 range, and bytes of a table
# entry at most
_SYMBOL_VARINT_BYTES = 5
_MAX_ENTRY_BYTES = _SYMBOL_VARINT_BYTES + 1
# code table entries one numpy pass of the reader takes
_TABLE_CHUNK = 1 << 14
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


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


@dataclass(eq=False)
class CompressedBitstream:
    """In-memory form of a compressed image container. The code table is
    ``symbols`` (int64, strictly ascending) and their ``code_lengths``
    (uint8)."""

    width: int
    height: int
    bit_depth: int
    levels: int
    steps: tuple[int, ...]
    symbols: np.ndarray
    code_lengths: np.ndarray
    payload: bytes = b""
    payload_bit_length: int = 0

    def header_bytes(self) -> bytes:
        return pack_header(
            self.width,
            self.height,
            self.bit_depth,
            self.levels,
            self.steps,
            self.symbols,
            self.code_lengths,
            self.payload_bit_length,
        )

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
        symbols, code_lengths, pos = _read_table(data, pos, entry_count)
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
            symbols=symbols,
            code_lengths=code_lengths,
            payload=data[pos : pos + payload_len],
            payload_bit_length=payload_bits,
        )


def _read_table(data: bytes, pos: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The symbols (int64) and lengths (uint8) of the ``count`` code table
    entries from ``pos`` on and the position after them, read
    ``_TABLE_CHUNK`` entries at a time by ``_read_chunk``. A chunk it
    cannot read is read by ``_read_entries``, which gives its entries or
    the error with its offset; so a hostile entry count costs no more than
    one chunk beyond the entries actually present."""
    view = np.frombuffer(data, dtype=np.uint8)
    symbols, widths = [np.empty(0, np.int64)], [np.empty(0, np.uint8)]
    previous = -_SYMBOL_LIMIT - 1
    for done in range(0, count, _TABLE_CHUNK):
        n = min(count - done, _TABLE_CHUNK)
        chunk = _read_chunk(view, pos, n, previous)
        symbol, width, pos = chunk or _read_entries(data, pos, n, previous)
        previous = int(symbol[-1])
        symbols.append(symbol)
        widths.append(width)
    return np.concatenate(symbols), np.concatenate(widths), pos


def _read_chunk(view: np.ndarray, pos: int, n: int, previous: int):
    """The symbols (int64) and lengths (uint8) of the ``n`` valid entries
    from ``pos`` on whose symbols ascend from above ``previous``, and the
    position after them; None where the bytes are not such entries, or
    hold a symbol varint longer than ``_SYMBOL_VARINT_BYTES``.

    Every varint byte but the last has its high bit set and a valid length
    byte does not, so the bytes with a clear high bit come in pairs: the
    end of a symbol's varint, then its length byte. A length byte with its
    high bit set is out of range, so the length check finds a pair broken
    that way."""
    chunk = view[pos : pos + _MAX_ENTRY_BYTES * n]
    clear = np.flatnonzero(chunk < 0x80)
    if clear.size < 2 * n:
        return None
    ends = clear[: 2 * n : 2]
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 2
    # the varint bytes before each one's last
    more = ends - starts
    if more.max() >= _SYMBOL_VARINT_BYTES:
        return None
    raw = chunk[ends].astype(np.int64) << np.int64(7) * more
    for i in range(int(more.max())):
        longer = np.flatnonzero(more > i)
        byte = chunk[starts[longer] + i].astype(np.int64) & np.int64(0x7F)
        raw[longer] |= byte << np.int64(7 * i)
    symbols = (raw >> np.int64(1)) ^ -(raw & np.int64(1))
    widths = chunk[ends + 1]
    if (
        symbols[0] <= previous
        or np.any(symbols[1:] <= symbols[:-1])
        or symbols[-1] >= _SYMBOL_LIMIT
        or not np.all((widths >= 1) & (widths <= MAX_CODE_LENGTH))
    ):
        return None
    return symbols, widths, pos + int(ends[-1]) + 2


def _read_entries(
    data: bytes, pos: int, count: int, previous: int = -_SYMBOL_LIMIT - 1
) -> tuple[np.ndarray, np.ndarray, int]:
    """The symbols and lengths of the ``count`` entries from ``pos`` on,
    whose symbols must ascend from above ``previous``, and the position
    after them, read one at a time: the reference reader, and the one that
    finds the first bad entry and its offset."""
    symbols, lengths = [], []
    for _ in range(count):
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
        symbols.append(symbol)
        lengths.append(length)
    return np.array(symbols, dtype=np.int64), np.array(lengths, dtype=np.uint8), pos


def _varint_bytes(zigzag: np.ndarray) -> np.ndarray:
    """Varint byte count of each uint64 value: one, and one more per
    multiple of 7 bits the value reaches."""
    return np.searchsorted(_VARINT_LIMITS, zigzag, side="right") + 1


def _zigzag(symbols: np.ndarray) -> np.ndarray:
    """Zigzag (uint64) of int64 symbols: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ..."""
    unsigned = symbols.view(np.uint64)
    return (unsigned << np.uint64(1)) ^ (symbols >> np.int64(63)).view(np.uint64)


def pack_header(
    width: int,
    height: int,
    bit_depth: int,
    levels: int,
    steps: tuple[int, ...],
    symbols: np.ndarray,
    lengths: np.ndarray,
    payload_bit_length: int,
) -> bytes:
    """Serialize the fixed header; ``header_size`` gives its length
    without packing it. The code table, ``symbols`` strictly ascending and
    their ``lengths``, is written in numpy."""
    if len(steps) != 1 + 3 * levels:
        raise BitstreamError("step table does not match level count")
    symbols = np.asarray(symbols, dtype=np.int64)
    widths = np.asarray(lengths)
    n = symbols.size
    if symbols.ndim != 1 or widths.shape != symbols.shape:
        raise BitstreamError(f"{n} code table symbols, {widths.size} code lengths")
    if np.any(symbols[1:] <= symbols[:-1]):
        raise BitstreamError("code table symbols do not strictly ascend")
    bad = np.flatnonzero((widths < 1) | (widths > MAX_CODE_LENGTH))
    if bad.size:
        raise BitstreamError(f"code length {widths[bad[0]]} out of range")
    zigzag = _zigzag(symbols)
    size = _varint_bytes(zigzag)
    # each entry is its varint, low 7 bits first, then its length byte
    end = np.cumsum(size + 1)
    table = np.empty(n + int(size.sum()), dtype=np.uint8)
    table[end - 1] = widths
    start = end - size - 1
    for i in range(int(size.max(initial=0))):
        byte = (zigzag >> np.uint64(7 * i)).astype(np.uint8)
        byte &= np.uint8(0x7F)
        byte |= (size > i + 1).view(np.uint8) << np.uint8(7)
        more = size > i
        table[start[more] + i] = byte[more]
    buf = bytearray()
    buf += MAGIC
    buf.append(VERSION)
    buf += struct.pack("<II", width, height)
    buf.append(bit_depth)
    buf.append(levels)
    buf.append(_FLAGS)
    buf += struct.pack("<H", len(steps))
    buf += struct.pack(f"<{len(steps)}I", *steps)
    buf += struct.pack("<I", n)
    buf += table.tobytes()
    buf += struct.pack("<Q", payload_bit_length)
    return bytes(buf)


def header_size(levels: int, symbols: np.ndarray) -> int:
    """Byte length of ``pack_header``'s output for ``levels`` and a code
    table over ``symbols`` (distinct, in the int64 range), without packing
    it."""
    symbols = np.asarray(symbols, dtype=np.int64)
    entry_bytes = symbols.size + int(_varint_bytes(_zigzag(symbols)).sum())
    return _FIXED_HEADER_BYTES + 4 * (1 + 3 * levels) + entry_bytes
