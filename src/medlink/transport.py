"""Transfer-layer modeling: fragmentation and throughput bookkeeping.

A compressed image travels as TFTP blocks over UDP/IPv4, with LLC/SNAP
framing at the link layer. Every data packet therefore carries 40 bytes
of protocol overhead on top of its block:

    TFTP data header   4
    UDP header         8
    IPv4 header       20
    LLC/SNAP           8

A transfer whose size is an exact multiple of the blocksize ends with an
explicit zero-length data block, as TFTP requires, so the receiver can
tell the transfer is over.

Size bookkeeping uses binary prefixes throughout this module: 1 kbit is
1024 bit and 1 Mbit is 1024 kbit. That convention is what makes the
reference rate chain come out exact (a 16-bit 256x256-px image at
ratio 20 is 51.2 kbit, ten of those per second is 512 kbit/s).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TFTP_DATA_HEADER",
    "TFTP_ACK_SIZE",
    "UDP_HEADER",
    "IPV4_HEADER",
    "LLC_SNAP_HEADER",
    "PACKET_OVERHEAD",
    "BLOCKSIZES",
    "FragmentationPlan",
    "fragment",
    "required_throughput",
    "bits_to_kbit",
    "bits_to_mbit",
    "nominal_compressed_bytes",
]

TFTP_DATA_HEADER = 4
TFTP_ACK_SIZE = 4
UDP_HEADER = 8
IPV4_HEADER = 20
LLC_SNAP_HEADER = 8
PACKET_OVERHEAD = TFTP_DATA_HEADER + UDP_HEADER + IPV4_HEADER + LLC_SNAP_HEADER

# TFTP block sizes the transfer profile supports
BLOCKSIZES = (512, 1024, 2048)

# a TFTP acknowledgment rides the same stack: 4-byte ACK + UDP/IP/LLC
ACK_MSDU = TFTP_ACK_SIZE + UDP_HEADER + IPV4_HEADER + LLC_SNAP_HEADER


@dataclass(frozen=True)
class FragmentationPlan:
    """How one compressed bitstream splits into link-layer packets.

    ``data_blocks`` holds the TFTP block payload of every data packet in
    order; a trailing 0 is the explicit end-of-transfer block. When
    ``tftp_ack`` is set the receiver answers every data packet with a
    lock-step TFTP acknowledgment (its own 40-byte MSDU), which the MAC
    simulator accounts for.
    """

    blocksize: int
    data_blocks: tuple[int, ...]
    tftp_ack: bool = False

    @property
    def packet_payloads(self) -> tuple[int, ...]:
        """MSDU size of each data packet (block plus protocol overhead)."""
        return tuple(b + PACKET_OVERHEAD for b in self.data_blocks)

    @property
    def data_packet_count(self) -> int:
        return len(self.data_blocks)

    @property
    def total_payload_bytes(self) -> int:
        return sum(self.data_blocks)


def fragment(bitstream_bytes: int, blocksize: int, tftp_ack: bool = False) -> FragmentationPlan:
    """Split a bitstream of the given byte size into TFTP data blocks.

    Block sizes outside the supported set are rejected. The packet count
    is ceil(size / blocksize), plus the zero-length terminator when the
    size is an exact multiple.
    """
    if blocksize not in BLOCKSIZES:
        raise ValueError(
            f"unsupported blocksize {blocksize}, expected one of {BLOCKSIZES}"
        )
    if bitstream_bytes < 1:
        raise ValueError("bitstream must be at least one byte")
    full, rem = divmod(bitstream_bytes, blocksize)
    blocks = [blocksize] * full
    blocks.append(rem if rem else 0)
    return FragmentationPlan(
        blocksize=blocksize, data_blocks=tuple(blocks), tftp_ack=tftp_ack
    )


def required_throughput(compressed_bits: float, images_per_second: float) -> float:
    """Sustained link rate, in bits per second, for a given image cadence."""
    if images_per_second <= 0:
        raise ValueError("images per second must be positive")
    if compressed_bits <= 0:
        raise ValueError("compressed size must be positive")
    return compressed_bits * images_per_second


def bits_to_kbit(bits: float) -> float:
    """Bits to kbit under the binary convention (1 kbit = 1024 bit)."""
    return bits / 1024.0


def bits_to_mbit(bits: float) -> float:
    """Bits to Mbit under the binary convention (1 Mbit = 1024 kbit)."""
    return bits / (1024.0 * 1024.0)


def nominal_compressed_bytes(width: int, height: int, bit_depth: int, cr: float = 20.0) -> int:
    """Byte budget of an image at a given ratio, via the kbit bookkeeping.

    The size is first expressed in binary kbit (raw bits / 1024 / ratio)
    and then converted at 1000 bits per kbit-figure to bytes, matching
    how transfer budgets are conventionally tabulated (51.2 kbit -> 6400
    bytes). Use real container sizes when an actual bitstream exists.
    """
    kbit = width * height * bit_depth / 1024.0 / cr
    return round(kbit * 1000.0 / 8.0)
