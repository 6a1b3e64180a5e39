import struct

import pytest

from medlink.bitstream import (
    MAGIC,
    BitstreamError,
    CompressedBitstream,
    _read_uvarint,
    _unzigzag,
    _write_uvarint,
    _zigzag,
)
from medlink.huffman import MAX_CODE_LENGTH
from medlink.image_io import MAX_SAMPLES


def _sample_stream(payload=b"\xa5\x80", payload_bits=10):
    return CompressedBitstream(
        width=16,
        height=8,
        bit_depth=16,
        levels=2,
        steps=(1, 2, 2, 3, 5, 5, 9),
        code_lengths={-3: 3, 0: 1, 2: 2, 700: 3},
        payload=payload,
        payload_bit_length=payload_bits,
    )


def test_round_trip_preserves_every_field():
    stream = _sample_stream()
    data = stream.to_bytes()
    back = CompressedBitstream.from_bytes(data)
    assert back == stream
    assert back.to_bytes() == data


def test_serialization_is_deterministic():
    a = _sample_stream().to_bytes()
    b = _sample_stream().to_bytes()
    assert a == b


def test_total_bits_count_header_and_payload():
    stream = _sample_stream()
    assert stream.bit_length == len(stream.to_bytes()) * 8
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
    assert MAX_CODE_LENGTH in lengths.values()
    data[offset] = length
    with pytest.raises(BitstreamError, match=f"code length {length}") as err:
        CompressedBitstream.from_bytes(bytes(data))
    assert err.value.offset == offset


def test_code_length_beyond_cap_rejected_on_write():
    stream = _sample_stream()
    stream.code_lengths = {**stream.code_lengths, 700: MAX_CODE_LENGTH + 1}
    with pytest.raises(BitstreamError, match="code length"):
        stream.to_bytes()


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
