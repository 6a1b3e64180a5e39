import dataclasses
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from medlink import bitstream
from medlink.bitstream import (
    MAGIC,
    BitstreamError,
    CompressedBitstream,
    _read_uvarint,
    _unzigzag,
    header_size,
    pack_header,
)
from medlink.codec import compress
from medlink.huffman import MAX_CODE_LENGTH
from medlink.image_io import MAX_SAMPLES
from medlink.synth import synth_image


def _write_uvarint(buf: bytearray, value: int):
    """Reference varint writer: 7 bits a byte, low bits first, the high
    bit set on every byte but the last."""
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


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _sample_stream(payload=b"\xa5\x80", payload_bits=10):
    return CompressedBitstream(
        width=16,
        height=8,
        bit_depth=16,
        levels=2,
        steps=(1, 2, 2, 3, 5, 5, 9),
        symbols=np.array([-3, 0, 2, 700]),
        code_lengths=np.array([3, 1, 2, 3], dtype=np.uint8),
        payload=payload,
        payload_bit_length=payload_bits,
    )


def _entries_of(stream) -> list:
    """The code table of ``stream`` as (symbol, length) pairs."""
    return list(zip(stream.symbols.tolist(), stream.code_lengths.tolist()))


def _fields(stream) -> list:
    """Every field of ``stream``, an array one as its dtype and values."""
    values = (getattr(stream, f.name) for f in dataclasses.fields(stream))
    return [(v.dtype, v.tolist()) if isinstance(v, np.ndarray) else v for v in values]


def test_round_trip_preserves_every_field():
    stream = _sample_stream()
    data = stream.to_bytes()
    back = CompressedBitstream.from_bytes(data)
    assert _fields(back) == _fields(stream)
    assert back.to_bytes() == data


def test_code_table_reads_as_ascending_int64_symbols_and_uint8_lengths():
    for data in (_sample_stream().to_bytes(), _lossless_container()):
        stream = CompressedBitstream.from_bytes(data)
        assert stream.symbols.dtype == np.int64
        assert stream.code_lengths.dtype == np.uint8
        assert stream.symbols.shape == stream.code_lengths.shape
        assert np.all(stream.symbols[1:] > stream.symbols[:-1])


def test_serialization_is_deterministic():
    a = _sample_stream().to_bytes()
    b = _sample_stream().to_bytes()
    assert a == b


def test_total_bits_count_header_and_payload():
    stream = _sample_stream()
    assert stream.byte_length == len(stream.to_bytes())


def test_magic_and_version():
    data = _sample_stream().to_bytes()
    assert data[:4] == MAGIC
    assert data[4] == 1


def test_bad_magic_rejected():
    with pytest.raises(BitstreamError, match="magic"):
        CompressedBitstream.from_bytes(b"NOPE" + bytes(40))


def test_truncation_rejected_at_every_length():
    data = _sample_stream().to_bytes()
    for cut in range(4, len(data)):
        with pytest.raises(BitstreamError):
            CompressedBitstream.from_bytes(data[:cut])


def test_trailing_garbage_rejected():
    data = _sample_stream().to_bytes()
    with pytest.raises(BitstreamError, match="trailing"):
        CompressedBitstream.from_bytes(data + b"\x00")


def test_step_count_must_match_levels():
    data = bytearray(_sample_stream().to_bytes())
    data[14] = 3  # levels field no longer matches the step table
    with pytest.raises(BitstreamError, match="step count"):
        CompressedBitstream.from_bytes(bytes(data))


def _with_levels(data: bytes, levels: int) -> bytes:
    """The container with its level count and a unit step table for it."""
    count = 1 + 3 * levels
    steps = struct.pack("<H", count) + struct.pack("<I", 1) * count
    rest = data[18 + 4 * (1 + 3 * data[14]) :]
    return data[:14] + bytes([levels]) + data[15:16] + steps + rest


@pytest.mark.parametrize("levels", [0, 4, 40])
def test_impossible_level_count_rejected(levels):
    data = _sample_stream().to_bytes()  # 16x8, so at most 3 levels
    assert CompressedBitstream.from_bytes(_with_levels(data, 3)).levels == 3
    with pytest.raises(BitstreamError, match="levels impossible") as err:
        CompressedBitstream.from_bytes(_with_levels(data, levels))
    assert err.value.offset == 14


def test_zero_width_rejected_at_level_count():
    data = bytearray(_sample_stream().to_bytes())
    data[5:9] = bytes(4)
    with pytest.raises(BitstreamError, match="levels impossible") as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert err.value.offset == 14


@pytest.mark.parametrize("flags", [0, 2, 255])
def test_flags_other_than_dead_zone_rejected(flags):
    data = bytearray(_sample_stream().to_bytes())
    assert data[15] == 1
    data[15] = flags
    with pytest.raises(BitstreamError, match="flags") as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert err.value.offset == 15


@pytest.mark.parametrize("index", [0, 6])
def test_zero_quantizer_step_rejected_with_its_offset(index):
    data = bytearray(_sample_stream().to_bytes())
    offset = 18 + 4 * index
    data[offset : offset + 4] = bytes(4)
    with pytest.raises(BitstreamError, match="step") as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "width,height", [(8192, 8193), (50000, 50000), (2**32 - 1, 2**32 - 1)]
)
def test_geometry_above_sample_ceiling_rejected_at_width(width, height):
    data = bytearray(_sample_stream().to_bytes())
    struct.pack_into("<II", data, 5, width, height)
    with pytest.raises(BitstreamError, match="exceeds") as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert err.value.offset == 5


@pytest.mark.parametrize("width,height", [(8192, 8192), (1 << 16, 1 << 10)])
def test_geometry_at_sample_ceiling_parses(width, height):
    assert width * height == MAX_SAMPLES
    data = bytearray(_sample_stream().to_bytes())
    struct.pack_into("<II", data, 5, width, height)
    assert CompressedBitstream.from_bytes(bytes(data)).width == width


def test_payload_length_mismatch_rejected_on_write():
    stream = _sample_stream(payload=b"\x00", payload_bits=42)
    with pytest.raises(BitstreamError):
        stream.to_bytes()


@pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**60])
def test_uvarint_round_trip(value):
    buf = bytearray()
    _write_uvarint(buf, value)
    out, pos = _read_uvarint(bytes(buf), 0)
    assert out == value
    assert pos == len(buf)


@pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 1000, -1000, 2**40, -(2**40)])
def test_zigzag_round_trip(value):
    assert _unzigzag(_zigzag(value)) == value
    assert _zigzag(value) >= 0


# the sample table's entries start at byte 50: symbol -3 takes one varint
# byte, so its length byte is 51, and the last one, 700, is at 58
@pytest.mark.parametrize("offset", [51, 58])
@pytest.mark.parametrize("length", [0, MAX_CODE_LENGTH + 1, 255])
def test_code_length_beyond_cap_rejected_at_its_byte(offset, length):
    data = bytearray(_sample_stream().to_bytes())
    data[offset] = MAX_CODE_LENGTH
    lengths = CompressedBitstream.from_bytes(bytes(data)).code_lengths
    assert MAX_CODE_LENGTH in lengths.tolist()
    data[offset] = length
    with pytest.raises(BitstreamError, match=f"code length {length}") as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert err.value.offset == offset


def test_code_length_beyond_cap_rejected_on_write():
    stream = _sample_stream()
    for length in (0, MAX_CODE_LENGTH + 1, -3):
        stream.code_lengths = np.array([3, 1, 2, length])
        with pytest.raises(BitstreamError, match=f"code length {length} out of range"):
            stream.to_bytes()


@pytest.mark.parametrize("symbols", [[-3, 2, 0, 700], [-3, 0, 0, 700], [700, 2, 0, -3]])
def test_unordered_or_repeated_symbols_rejected_on_write(symbols):
    stream = _sample_stream()
    stream.symbols = np.array(symbols)
    with pytest.raises(BitstreamError, match="do not strictly ascend"):
        stream.to_bytes()
    with pytest.raises(BitstreamError, match="do not strictly ascend"):
        pack_header(8, 8, 16, 1, (1,) * 4, symbols, [1, 2, 3, 3], 0)


@pytest.mark.parametrize("count", [10, 2**32 - 1])
def test_entry_count_beyond_remaining_bytes_rejected(count):
    # 19 bytes follow the count: 9 of entries, 8 of bit length, 2 of payload
    data = bytearray(_sample_stream().to_bytes())
    assert struct.unpack_from("<I", data, 46) == (4,)
    struct.pack_into("<I", data, 46, 9)
    with pytest.raises(BitstreamError) as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert "entry count" not in str(err.value)
    struct.pack_into("<I", data, 46, count)
    with pytest.raises(BitstreamError, match="entry count") as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert err.value.offset == 46


def _with_last_symbol(raw_symbol: int) -> bytes:
    # the sample table's last entry, symbol 700, has its varint at 56-57
    data = bytearray(_sample_stream().to_bytes())
    assert _read_uvarint(bytes(data), 56) == (_zigzag(700), 58)
    varint = bytearray()
    _write_uvarint(varint, raw_symbol)
    data[56:58] = varint
    return bytes(data)


@pytest.mark.parametrize("symbol", [2**31, -(2**31) - 1, 2**63, -(2**68)])
def test_code_table_symbol_outside_int32_rejected_at_its_entry(symbol):
    # zigzag by hand: the writer's shift by 63 covers int64 only
    raw = 2 * symbol if symbol >= 0 else -2 * symbol - 1
    with pytest.raises(BitstreamError, match=f"symbol {symbol} outside int32") as err:
        CompressedBitstream.from_bytes(_with_last_symbol(raw))
    assert err.value.offset == 56


def _with_entries(entries) -> bytes:
    """The sample container with its code table replaced by ``entries``,
    (symbol, length) pairs written in the order given."""
    data = _sample_stream().to_bytes()
    # the sample table's count is at 46 and its entries run to 59
    assert struct.unpack_from("<I", data, 46) == (4,)
    table = bytearray(struct.pack("<I", len(entries)))
    for symbol, length in entries:
        _write_uvarint(table, _zigzag(symbol))
        table.append(length)
    return data[:46] + bytes(table) + data[59:]


@pytest.mark.parametrize("symbol", [2**31 - 1, -(2**31)])
def test_code_table_symbol_at_int32_limit_parses(symbol):
    # the limit replaces the entry at its own end of the table, so the
    # symbols still ascend
    entries = _entries_of(_sample_stream())
    at = -1 if symbol > 0 else 0
    entries[at] = (symbol, entries[at][1])
    stream = CompressedBitstream.from_bytes(_with_entries(entries))
    assert _entries_of(stream) == entries


def test_code_table_with_a_repeated_symbol_rejected_at_the_repeat():
    entries = _entries_of(_sample_stream())
    assert _with_entries(entries) == _sample_stream().to_bytes()
    # the first entry again, after the last: it would override the length
    with pytest.raises(BitstreamError, match="symbol -3 does not follow 700") as err:
        CompressedBitstream.from_bytes(_with_entries(entries + entries[:1]))
    assert err.value.offset == 59


def test_code_table_out_of_order_rejected_at_the_first_late_entry():
    # reversed: 700 (a 2-byte varint and a length byte), then 2 at byte 53
    entries = _entries_of(_sample_stream())[::-1]
    with pytest.raises(BitstreamError, match="symbol 2 does not follow 700") as err:
        CompressedBitstream.from_bytes(_with_entries(entries))
    assert err.value.offset == 53


# symbols whose zigzag value sits on each side of every varint byte
# boundary (2**7, 2**14, 2**21, 2**28), plus 0, +-1 and the int32 limits
_VARINT_EDGE_SYMBOLS = sorted(
    {0, 1, -1, 2**31 - 1, -(2**31)}
    | {_unzigzag(z) for i in range(1, 5) for z in (2 ** (7 * i) - 1, 2 ** (7 * i))}
)


@pytest.mark.parametrize("symbol", _VARINT_EDGE_SYMBOLS)
@pytest.mark.parametrize("levels", [1, 3])
def test_header_size_counts_each_varint_width(symbol, levels):
    steps = (1,) * (1 + 3 * levels)
    header = pack_header(8, 8, 16, levels, steps, [symbol], [1], 5)
    assert header_size(levels, np.array([symbol], dtype=np.int32)) == len(header)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_header_size_counts_a_whole_table(dtype):
    lengths = [7] * len(_VARINT_EDGE_SYMBOLS)
    header = pack_header(4096, 4096, 8, 13, (9,) * 40, _VARINT_EDGE_SYMBOLS, lengths, 2**40)
    assert header_size(13, np.array(_VARINT_EDGE_SYMBOLS, dtype=dtype)) == len(header)
    assert header_size(2, np.zeros(0, dtype=dtype)) == len(
        pack_header(4, 4, 8, 2, (1,) * 7, [], [], 0)
    )


def test_header_follows_fields_changed_after_construction():
    img = synth_image("blobs", 64, 64, bit_depth=16, seed=1)
    stream = compress(img, target_cr=10.0)
    bumped = tuple(step + 1 for step in stream.steps)
    replaced = dataclasses.replace(stream, steps=bumped)
    assert CompressedBitstream.from_bytes(replaced.to_bytes()).steps == bumped
    stream.steps = bumped
    assert CompressedBitstream.from_bytes(stream.to_bytes()).steps == bumped
    # one code table entry fewer: the header shrinks with it
    before = stream.byte_length
    stream.symbols, stream.code_lengths = stream.symbols[1:], stream.code_lengths[1:]
    assert stream.byte_length == len(stream.to_bytes()) < before


def _pack_header_by_entry(levels, steps, entries, payload_bit_length, size=(8, 8)):
    """Reference header writer: one Python step per (symbol, length) entry."""
    buf = bytearray(MAGIC)
    buf.append(1)
    buf += struct.pack("<II", *size)
    buf += bytes([16, levels, 1])
    buf += struct.pack("<H", len(steps)) + struct.pack(f"<{len(steps)}I", *steps)
    buf += struct.pack("<I", len(entries))
    for symbol, length in entries:
        _write_uvarint(buf, _zigzag(symbol))
        buf.append(length)
    return bytes(buf + struct.pack("<Q", payload_bit_length))


def _lossless_container(kind="mixed", side=16) -> bytes:
    return compress(synth_image(kind, side, side, bit_depth=16, seed=3), lossless=True).to_bytes()


def test_pack_header_writes_like_the_per_entry_writer():
    steps = (1,) * 10
    tables = [
        [],
        [(s, 9) for s in _VARINT_EDGE_SYMBOLS],
        # the symbols of 5-byte varints at the int32 limits
        [(-(2**31), 2), (-1, 3), (0, 1), (2**31 - 1, 3)],
        [(s, 1 + s % MAX_CODE_LENGTH) for s in range(-300, 300, 7)],
        _entries_of(CompressedBitstream.from_bytes(_lossless_container())),
    ]
    for entries in tables:
        symbols = np.array([s for s, _ in entries], dtype=np.int64)
        lengths = np.array([n for _, n in entries], dtype=np.uint8)
        expected = _pack_header_by_entry(3, steps, entries, 12345)
        assert pack_header(8, 8, 16, 3, steps, symbols, lengths, 12345) == expected
        assert header_size(3, symbols) == len(expected)
    values = np.array(_VARINT_EDGE_SYMBOLS + [2**40, -(2**62), 2**63 - 1], dtype=np.int64)
    assert bitstream._zigzag(values).tolist() == [_zigzag(v) for v in values.tolist()]


def _parsed(data: bytes):
    """The fields of the stream ``data`` parses to, its code table arrays
    with their dtypes, or the error's type, message and offset."""
    try:
        stream = CompressedBitstream.from_bytes(data)
    except BitstreamError as exc:
        return type(exc), str(exc), exc.offset
    return _fields(stream)


def _assert_reads_like_entry_loop(monkeypatch, cases):
    with monkeypatch.context() as patch:
        patch.setattr(bitstream, "_read_table", bitstream._read_entries)
        expected = [_parsed(data) for data in cases]
    assert [_parsed(data) for data in cases] == expected
    return expected


@pytest.mark.parametrize("chunk", [None, 64])
def test_table_reader_matches_the_entry_loop(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(bitstream, "_TABLE_CHUNK", chunk)
    data = _lossless_container()
    count_at = 18 + 4 * 10
    count = struct.unpack_from("<I", data, count_at)[0]
    table_end = len(data) - len(CompressedBitstream.from_bytes(data).payload) - 8
    table = range(count_at + 4, table_end)
    # symbols of one, two and three varint bytes
    symbols = CompressedBitstream.from_bytes(data).symbols
    assert set(bitstream._varint_bytes(bitstream._zigzag(symbols)).tolist()) == {1, 2, 3}
    assert count > 3 * 64
    rng = np.random.default_rng(71)
    cases = [data[:cut] for cut in range(count_at, len(data))]
    for _ in range(300):
        mutated = bytearray(data)
        for at in rng.choice(table, size=int(rng.integers(1, 4)), replace=False).tolist():
            mutated[at] = int(rng.integers(256))
        cases.append(bytes(mutated))
    outcomes = _assert_reads_like_entry_loop(monkeypatch, cases)
    phrases = ("out of range", "in order", "truncated varint", "truncated code table entry")
    errors = [o for o in outcomes if isinstance(o, tuple)]
    reached = {p for o in errors for p in phrases if p in o[1]}
    # clean reads as well as each kind of entry error
    assert reached == set(phrases)
    assert len(outcomes) - len(errors) >= 5


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_table_reader_checks_the_order_across_chunks(monkeypatch, chunk):
    monkeypatch.setattr(bitstream, "_TABLE_CHUNK", chunk)
    entries = _entries_of(_sample_stream())
    cases = [_with_entries(entries)]
    # each entry repeated right after itself, and one step out of order
    for i in range(len(entries)):
        cases.append(_with_entries(entries[: i + 1] + entries[i:]))
        cases.append(_with_entries(entries[:i] + entries[i + 1 : i + 2] + entries[i : i + 1]))
    outcomes = _assert_reads_like_entry_loop(monkeypatch, cases)
    assert sum("in order" in str(o[1]) for o in outcomes) == 2 * len(entries) - 1


def test_table_reader_reads_non_minimal_varints_like_the_entry_loop(monkeypatch):
    # 1 as two bytes, 0x81 0x00, and a 6-byte varint: valid to the loop
    entries = [(-3, 3), (0, 1), (2, 2), (700, 3)]
    data = bytearray(_with_entries(entries))
    at = 50 + 2  # past -3's one-byte varint and its length byte: symbol 0
    padded = data[:at] + b"\x80\x80\x80\x80\x80\x00" + data[at + 1 :]
    _assert_reads_like_entry_loop(monkeypatch, [bytes(padded)])
    assert _entries_of(CompressedBitstream.from_bytes(bytes(padded))) == entries


def test_hostile_entry_count_reads_in_bounded_memory():
    # 250k valid 4-byte entries, then an entry count that claims twice as
    # many: every remaining byte's worth at 2 bytes an entry
    symbols = np.arange(8192, 8192 + 250_000, dtype=np.int64)
    header = pack_header(2000, 2000, 16, 3, (1,) * 10, symbols, np.full(symbols.size, 20), 0)
    data = bytearray(header[:-8])
    count_at = 18 + 4 * 10
    struct.pack_into("<I", data, count_at, (len(data) - count_at - 4) // 2)
    data = bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(BitstreamError, match="truncated varint") as err:
            CompressedBitstream.from_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.offset == len(data)
    # 3.4 bytes a byte measured: the entries read, and one chunk read by
    # the entry loop, which takes 21 bytes a byte to read them all
    assert peak < 5 * len(data)
