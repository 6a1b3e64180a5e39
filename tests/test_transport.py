import pytest

from medlink.transport import (
    BLOCKSIZES,
    PACKET_OVERHEAD,
    FragmentationPlan,
    fragment,
    nominal_compressed_bytes,
)


def test_per_packet_overhead_is_40_bytes():
    # TFTP 4 + UDP 8 + IPv4 20 + LLC/SNAP 8
    assert PACKET_OVERHEAD == 40


def test_fragment_splits_and_pads_msdus():
    plan = fragment(1300, 512)
    assert plan.runs == ((512, 2), (276, 1))
    assert plan.data_packet_count == 3
    assert plan.size == 1300


def test_exact_multiple_gets_zero_length_terminator():
    plan = fragment(1024, 512)
    assert plan.runs == ((512, 2), (0, 1))
    assert plan.data_packet_count == 3
    plan = fragment(1025, 512)
    assert plan.runs == ((512, 2), (1, 1))


def test_single_byte_transfer():
    plan = fragment(1, 2048)
    assert plan.runs == ((1, 1),)


def test_reassembled_size_matches_for_random_sizes():
    import numpy as np

    rng = np.random.default_rng(2)
    for _ in range(200):
        size = int(rng.integers(1, 200_000))
        blocksize = int(rng.choice(BLOCKSIZES))
        plan = fragment(size, blocksize)
        assert sum(block * count for block, count in plan.runs) == size
        full, rem = divmod(size, blocksize)
        expected = full + 1  # final short block, or the zero-length terminator
        assert plan.data_packet_count == expected
        assert sum(count for _, count in plan.runs) == expected
        assert all(block == blocksize for block, _ in plan.runs[:-1])
        assert plan.runs[-1] == (rem, 1)


def test_unsupported_blocksize_rejected():
    # a plan built directly is checked as fragment checks it
    for make in (fragment, lambda size, bs: FragmentationPlan(bs, size)):
        with pytest.raises(ValueError) as bad_blocksize:
            make(1000, 700)
        assert str(bad_blocksize.value) == (
            "unsupported blocksize 700, expected one of (512, 1024, 2048)"
        )
        with pytest.raises(ValueError, match="^bitstream must be at least one byte$"):
            make(0, 512)


def test_tftp_ack_flag_counts_reverse_overhead():
    quiet = fragment(5000, 512)
    chatty = fragment(5000, 512, tftp_ack=True)
    assert quiet.data_packet_count == 10
    # the ACKs are the MAC model's to time; the data blocks stay the same
    assert chatty.tftp_ack and not quiet.tftp_ack
    assert chatty.runs == quiet.runs


def test_nominal_sizes_of_reference_geometries():
    assert nominal_compressed_bytes(256, 256, 16) == 6400
    assert nominal_compressed_bytes(512, 512, 16) == 25_600
    assert nominal_compressed_bytes(2000, 2000, 16) == 390_625
