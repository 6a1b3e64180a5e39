"""Canonical Huffman coding over integer symbol alphabets.

``code_lengths`` is the one length builder, a two-queue merge (van
Leeuwen, "On the construction of Huffman trees", ICALP 1976): rate-control
probes price a code as ``lengths @ counts`` from it alone, and
``huffman_build`` turns its lengths into a code. Codewords are assigned
canonically, in (length, symbol) order, so a code is fully described by
its symbol-to-length table. That is what the bitstream container stores.
A single-symbol alphabet gets a 1-bit code by convention, so every
encoded stream has positive length.

A ``HuffmanCode`` builds its per-length tables once (Moffat and Turpin,
"On the implementation of minimum redundancy prefix codes", IEEE Trans.
Commun. 45(10), 1997), with one exact Kraft check per length; the
codewords and the decoder read them. Decoding needs no codeword table.
Read as an L-bit number, L the longest code length, the window at a
codeword's start lies below the left-justified limit ``(first code +
count) << (L - length)`` of its own length and of no shorter one, so
``np.searchsorted`` over the L limits gives the length of the codeword
starting at every bit position. The payload is handled in chunks of
``_CHUNK_BITS`` positions to bound the temporaries. One Python step per
symbol then walks the starts, each length pointing to the next, and the
symbols follow from the windows at the starts alone: index
``base + code - first`` in (length, symbol) order.

Code lengths are capped at ``MAX_CODE_LENGTH`` = 57 bits, the widest
window an 8-byte word holds after a shift of up to 7 bits. No encoder
output is lost to the cap: a Huffman codeword of length d needs a total
frequency of at least the Fibonacci number F(d + 2), so a 58-bit
codeword needs F(60), about 1.5e12 tokens.
"""

from __future__ import annotations

from array import array
from functools import cached_property

import numpy as np

__all__ = [
    "MAX_CODE_LENGTH",
    "HuffmanCode",
    "HuffmanError",
    "HuffmanDecodeError",
    "code_lengths",
    "huffman_build",
    "huffman_encode",
    "huffman_decode",
]

# the widest window an 8-byte word holds after a shift of up to 7 bits
MAX_CODE_LENGTH = 57
# bit positions whose codeword lengths one numpy pass computes
_CHUNK_BITS = 1 << 16
_BYTE_SHIFTS = np.arange(8, dtype=np.uint64)


class HuffmanError(ValueError):
    pass


class HuffmanDecodeError(HuffmanError):
    """Corrupt entropy-coded data. ``bit_offset`` points at the bad codeword."""

    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset


class HuffmanCode:
    """A canonical prefix code, constructed from a symbol -> length table;
    its per-length tables are built here, once. The codeword dicts the
    encoder reads are derived from them on first use, so a decoder never
    builds them."""

    def __init__(self, lengths: dict[int, int]):
        if not lengths:
            raise HuffmanError("empty code table")
        for sym, length in lengths.items():
            if not 1 <= length <= MAX_CODE_LENGTH:
                raise HuffmanError(f"code length {length} for symbol {sym}")
        self.lengths = dict(sorted(lengths.items()))
        self.max_length = longest = max(lengths.values())
        counts = np.bincount(list(lengths.values()), minlength=longest + 1).tolist()
        limits, first, base = [], [0], [0]
        next_code = 0
        for length in range(1, longest + 1):
            first.append(next_code)
            base.append(base[-1] + counts[length - 1])
            next_code += counts[length]
            if next_code > 1 << length:  # the Kraft sum in units of 2**-length
                raise HuffmanError("code lengths violate the Kraft inequality")
            limits.append(next_code << (longest - length))
            next_code <<= 1
        # a stable sort of the symbol-ordered table: (length, symbol) order
        ordered = sorted(self.lengths.items(), key=lambda item: item[1])
        self._limits = np.array(limits, dtype=np.uint64)
        self._first = np.array(first, dtype=np.uint64)
        self._base = np.array(base, dtype=np.uint64)
        self._ordered = np.array([s for s, _ in ordered], dtype=np.int64)

    @cached_property
    def codes(self) -> dict[int, int]:
        """Canonical codeword of every symbol, in (length, symbol) order."""
        widths = np.sort(np.fromiter(self.lengths.values(), np.int64, len(self.lengths)))
        codes = self._first[widths] + np.arange(widths.size, dtype=np.uint64)
        codes -= self._base[widths]
        return dict(zip(self._ordered.tolist(), codes.tolist()))

    @cached_property
    def _bitstrings(self) -> dict[int, str]:
        lengths = self.lengths
        return {s: format(c, f"0{lengths[s]}b") for s, c in self.codes.items()}

    def __len__(self) -> int:
        return len(self.lengths)

    def mean_length(self, frequencies: dict[int, int]) -> float:
        """Frequency-weighted mean codeword length in bits."""
        total = sum(frequencies.values())
        if total == 0:
            raise HuffmanError("no symbols")
        weighted = sum(self.lengths[s] * f for s, f in frequencies.items() if f > 0)
        return weighted / total


def code_lengths(counts) -> np.ndarray:
    """Huffman code lengths (int64) of positive ``counts`` given in
    ascending symbol order; a single symbol gets length 1.

    The leaves are sorted stably by count and the merged nodes queue in
    creation order, which is ascending weight; each merge takes the
    lighter front twice, the leaf on a tie. That is a heap merge seeded in
    symbol order with sequence-numbered merges, tie for tie.
    """
    counts = np.asarray(counts)
    n = counts.size
    if n == 0:
        raise HuffmanError("empty alphabet")
    if n == 1:
        return np.ones(1, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    leaves = counts[order].tolist()
    # nodes 0..n-1 are the sorted leaves, n + m is the m-th merged node
    weights = [0] * (n - 1)
    parents = [0] * (2 * n - 2)
    leaf = merged = 0
    for m in range(n - 1):
        for _ in range(2):
            if leaf < n and (merged == m or leaves[leaf] <= weights[merged]):
                weights[m] += leaves[leaf]
                parents[leaf] = m
                leaf += 1
            else:
                weights[m] += weights[merged]
                parents[n + merged] = m
                merged += 1
    # a merged node's parent is created after it: fill depths root first
    depths = [0] * (n - 1)
    for m in range(n - 3, -1, -1):
        depths[m] = depths[parents[n + m]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = np.array(depths)[parents[:n]] + 1
    return lengths


def huffman_build(frequencies: dict[int, int]) -> HuffmanCode:
    """Build a canonical code from symbol frequencies.

    Zero-frequency entries are dropped; an empty (or all-zero) table is an
    error.
    """
    items = sorted((s, f) for s, f in frequencies.items() if f > 0)
    lengths = code_lengths([f for _, f in items]).tolist()
    return HuffmanCode({s: n for (s, _), n in zip(items, lengths)})


def huffman_encode(symbols, code: HuffmanCode) -> tuple[bytes, int]:
    """Encode symbols with a code; returns (payload bytes, exact bit length).

    The final byte is zero-padded. Symbols outside the code table raise
    HuffmanError.
    """
    if isinstance(symbols, np.ndarray):
        symbols = symbols.tolist()
    table = code._bitstrings
    try:
        bits = "".join([table[s] for s in symbols])
    except KeyError as exc:
        raise HuffmanError(f"symbol {exc.args[0]} not in code table") from None
    if not bits:
        return b"", 0
    arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    return np.packbits(arr).tobytes(), len(bits)


def huffman_decode(data: bytes, bit_length: int, code: HuffmanCode) -> np.ndarray:
    """Decode ``bit_length`` bits of payload back into an int64 symbol array.

    Raises HuffmanDecodeError (with the bit offset of the offending
    codeword) when the bits do not parse: "no codeword matches" when more
    than the longest code length of bits remain at that offset, otherwise
    "truncated codeword", also when the last codeword runs past
    ``bit_length``.
    """
    if bit_length < 0 or bit_length > len(data) * 8:
        raise HuffmanDecodeError("bit length exceeds payload", len(data) * 8)
    if bit_length == 0:
        return np.empty(0, dtype=np.int64)
    longest = code.max_length
    # the big-endian 8-byte word at every byte offset, over zero padding
    padded = bytes(data) + bytes(8)
    words = np.ndarray((len(data) + 1,), dtype=">u8", buffer=padded, strides=(1,))
    # searchsorted index i < longest: the window starts a codeword of i + 1
    # bits; i == longest: it starts none
    length_at = np.append(np.arange(1, longest + 1), 0).astype(np.uint8)
    lengths = bytearray(bit_length)
    lengths_view = np.frombuffer(lengths, dtype=np.uint8)
    for lo in range(0, bit_length, _CHUNK_BITS):
        hi = min(lo + _CHUNK_BITS, bit_length)
        chunk = words[lo >> 3 : (hi + 7) >> 3, None]
        windows = ((chunk << _BYTE_SHIFTS) >> np.uint64(64 - longest)).ravel()
        found = np.searchsorted(code._limits, windows[: hi - lo], "right")
        lengths_view[lo:hi] = length_at[found]
    starts = array("q")
    append = starts.append
    pos = 0
    while pos < bit_length:
        step = lengths[pos]
        if not step:
            break
        append(pos)
        pos += step
    if pos < bit_length:
        dead = bit_length - pos > longest
        raise HuffmanDecodeError(
            "no codeword matches" if dead else "truncated codeword", pos
        )
    if pos > bit_length:
        raise HuffmanDecodeError("truncated codeword", starts[-1])
    at = np.frombuffer(starts, dtype=np.uint64)
    width = lengths_view[at]
    codes = np.left_shift(words[at >> 3], at & 7)
    codes >>= np.uint64(64) - width
    codes -= code._first[width]
    codes += code._base[width]
    return code._ordered[codes]
