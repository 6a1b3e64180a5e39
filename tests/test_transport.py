import pytest

from medlink.transport import (
    BLOCKSIZES,
    PACKET_OVERHEAD,
    bits_to_kbit,
    bits_to_mbit,
    fragment,
    nominal_compressed_bytes,
    required_throughput,
)


def test_per_packet_overhead_is_40_bytes():
    # TFTP 4 + UDP 8 + IPv4 20 + LLC/SNAP 8
    assert PACKET_OVERHEAD == 40


def test_fragment_splits_and_pads_msdus():
    plan = fragment(1300, 512)
    assert plan.data_blocks == (512, 512, 276)
    assert plan.packet_payloads == (552, 552, 316)
    assert plan.data_packet_count == 3
    assert plan.total_payload_bytes == 1300


def test_exact_multiple_gets_zero_length_terminator():
    plan = fragment(1024, 512)
    assert plan.data_blocks == (512, 512, 0)
    assert plan.data_packet_count == 3
    plan = fragment(1025, 512)
    assert plan.data_blocks == (512, 512, 1)


def test_single_byte_transfer():
    plan = fragment(1, 2048)
    assert plan.data_blocks == (1,)


def test_reassembled_size_matches_for_random_sizes():
    import numpy as np

    rng = np.random.default_rng(2)
    for _ in range(200):
        size = int(rng.integers(1, 200_000))
        blocksize = int(rng.choice(BLOCKSIZES))
        plan = fragment(size, blocksize)
        assert sum(plan.data_blocks) == size
        full, rem = divmod(size, blocksize)
        expected = full + 1  # final short block, or the zero-length terminator
        assert plan.data_packet_count == expected
        assert all(b == blocksize for b in plan.data_blocks[:-1])
        assert plan.data_blocks[-1] == (rem if rem else 0)


def test_unsupported_blocksize_rejected():
    with pytest.raises(ValueError, match="blocksize"):
        fragment(1000, 700)
    with pytest.raises(ValueError):
        fragment(0, 512)


def test_tftp_ack_flag_counts_reverse_overhead():
    quiet = fragment(5000, 512)
    chatty = fragment(5000, 512, tftp_ack=True)
    assert quiet.data_packet_count == 10
    # the ACKs are the MAC model's to time; the data blocks stay the same
    assert chatty.tftp_ack and not quiet.tftp_ack
    assert chatty.data_blocks == quiet.data_blocks


def test_required_throughput_reference_chain():
    # 16-bit images at ratio 20, ten per second, binary prefixes
    assert required_throughput(256 * 256 * 16 / 20, 10) == 512 * 1024
    assert required_throughput(512 * 512 * 16 / 20, 10) == 2 * 1024 * 1024
    assert required_throughput(2000 * 2000 * 16 / 20, 10) == 32_000_000
    assert bits_to_mbit(32_000_000) == pytest.approx(30.5176, abs=5e-5)


def test_throughput_unit_helpers():
    assert bits_to_kbit(1024) == 1.0
    assert bits_to_mbit(1024 * 1024) == 1.0


def test_required_throughput_validates_inputs():
    with pytest.raises(ValueError):
        required_throughput(1000, 0)
    with pytest.raises(ValueError):
        required_throughput(0, 10)


def test_nominal_sizes_of_reference_geometries():
    assert nominal_compressed_bytes(256, 256, 16) == 6400
    assert nominal_compressed_bytes(512, 512, 16) == 25_600
    assert nominal_compressed_bytes(2000, 2000, 16) == 390_625
