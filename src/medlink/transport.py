"""Transfer-layer modeling: fragmentation and nominal transfer sizes.

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

A fragmentation plan is just the transfer size, the blocksize and the
ACK flag. Every data block but the last is full, so the blocks form at
most two runs of equal packets; the runs are derived from the size on
demand, and the MAC model prices each run once.

``nominal_compressed_bytes`` budgets a transfer before any bitstream
exists, in binary kbit (1 kbit = 1024 bit): a 16-bit 256x256-px image at
ratio 20 is 51.2 kbit, tabulated as 6400 bytes.
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
    """How one compressed bitstream of ``size`` bytes splits into TFTP
    data packets of ``blocksize`` bytes.

    The blocks are derived, not stored: ``runs`` gives the TFTP block
    payloads of the data packets in order as (payload, packet count) runs,
    and a trailing 0 is the explicit end-of-transfer block. When
    ``tftp_ack`` is set the receiver answers every data packet with a
    lock-step TFTP acknowledgment (its own 40-byte MSDU), which the MAC
    simulator accounts for.
    """

    blocksize: int
    size: int
    tftp_ack: bool = False

    def __post_init__(self):
        if self.blocksize not in BLOCKSIZES:
            raise ValueError(
                f"unsupported blocksize {self.blocksize}, expected one of {BLOCKSIZES}"
            )
        if self.size < 1:
            raise ValueError("bitstream must be at least one byte")

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(block payload, packet count) of each run of equal data packets,
        in order: the full blocks, then the short or zero-length last one."""
        full, last = divmod(self.size, self.blocksize)
        return ((self.blocksize, full), (last, 1)) if full else ((last, 1),)

    @property
    def data_packet_count(self) -> int:
        return self.size // self.blocksize + 1


def fragment(bitstream_bytes: int, blocksize: int, tftp_ack: bool = False) -> FragmentationPlan:
    """Split a bitstream of the given byte size into TFTP data blocks.

    Block sizes outside the supported set are rejected. The packet count
    is ceil(size / blocksize), plus the zero-length terminator when the
    size is an exact multiple.
    """
    return FragmentationPlan(blocksize, bitstream_bytes, tftp_ack)


def nominal_compressed_bytes(width: int, height: int, bit_depth: int, cr: float = 20.0) -> int:
    """Byte budget of an image at a given ratio, via the kbit bookkeeping.

    The size is first expressed in binary kbit (raw bits / 1024 / ratio)
    and then converted at 1000 bits per kbit-figure to bytes, matching
    how transfer budgets are conventionally tabulated (51.2 kbit -> 6400
    bytes). Use real container sizes when an actual bitstream exists.
    """
    kbit = width * height * bit_depth / 1024.0 / cr
    return round(kbit * 1000.0 / 8.0)
