"""Canonical Huffman coding over integer symbol alphabets.

Code lengths come from the usual two-least-frequent merge; codewords are
then reassigned canonically, in (length, symbol) order, so a code is fully
described by its symbol-to-length table. That is what the bitstream
container stores. A single-symbol alphabet gets a 1-bit code by
convention, so every encoded stream has positive length.

Decoding needs no codeword table (Moffat and Turpin, "On the
implementation of minimum redundancy prefix codes", IEEE Trans. Commun.
45(10), 1997). Read as an L-bit number, L the longest code length, the
window at a codeword's start lies below the left-justified limit
``(first code + count) << (L - length)`` of its own length and of no
shorter one, so ``np.searchsorted`` over the L limits gives the length
of the codeword starting at every bit position. The payload is handled
in chunks of ``_CHUNK_BITS`` positions to bound the temporaries. One
Python step per symbol then walks the starts, each length pointing to
the next, and the symbols follow from the windows at the starts
alone: index ``base + code - first`` in (length, symbol) order.

Code lengths are capped at ``MAX_CODE_LENGTH`` = 57 bits, the widest
window an 8-byte word holds after a shift of up to 7 bits. No encoder
output is lost to the cap: a Huffman codeword of length d needs a total
frequency of at least the Fibonacci number F(d + 2), so a 58-bit
codeword needs F(60), about 1.5e12 tokens.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

__all__ = [
    "MAX_CODE_LENGTH",
    "HuffmanCode",
    "HuffmanError",
    "HuffmanDecodeError",
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
    """A canonical prefix code, constructed from a symbol -> length table."""

    def __init__(self, lengths: dict[int, int]):
        if not lengths:
            raise HuffmanError("empty code table")
        for sym, length in lengths.items():
            if not 1 <= length <= MAX_CODE_LENGTH:
                raise HuffmanError(f"code length {length} for symbol {sym}")
        kraft = sum(2.0 ** -length for length in lengths.values())
        if kraft > 1.0 + 1e-9:
            raise HuffmanError("code lengths violate the Kraft inequality")
        self.lengths = dict(sorted(lengths.items()))
        self.max_length = max(lengths.values())
        self.codes: dict[int, int] = {}
        code = 0
        prev = 0
        for sym, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
            code <<= length - prev
            if code >> length:
                raise HuffmanError("code lengths do not form a prefix code")
            self.codes[sym] = code
            code += 1
            prev = length
        self._bitstrings = {
            sym: format(c, f"0{self.lengths[sym]}b") for sym, c in self.codes.items()
        }

    def __len__(self) -> int:
        return len(self.lengths)

    def mean_length(self, frequencies: dict[int, int]) -> float:
        """Frequency-weighted mean codeword length in bits."""
        total = sum(frequencies.values())
        if total == 0:
            raise HuffmanError("no symbols")
        weighted = sum(self.lengths[s] * f for s, f in frequencies.items() if f > 0)
        return weighted / total


def huffman_build(frequencies: dict[int, int]) -> HuffmanCode:
    """Build a canonical code from symbol frequencies.

    Zero-frequency entries are dropped; an empty (or all-zero) table is an
    error. Tie-breaking is deterministic: the heap is seeded in symbol
    order and merges are sequence-numbered.
    """
    items = sorted((s, f) for s, f in frequencies.items() if f > 0)
    if not items:
        raise HuffmanError("empty alphabet")
    if len(items) == 1:
        return HuffmanCode({items[0][0]: 1})
    heap = []
    for order, (sym, freq) in enumerate(items):
        heap.append((freq, order, sym, None, None))
    heapq.heapify(heap)
    order = len(heap)
    while len(heap) > 1:
        f1, _, s1, l1, r1 = heapq.heappop(heap)
        f2, _, s2, l2, r2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, order, None, (s1, l1, r1), (s2, l2, r2)))
        order += 1
    lengths: dict[int, int] = {}
    stack = [(heap[0][2:5], 0)]
    while stack:
        (sym, left, right), depth = stack.pop()
        if sym is not None:
            lengths[sym] = depth
        else:
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
    return HuffmanCode(lengths)


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


def _canonical_tables(code: HuffmanCode):
    """Per-length tables of a canonical code, for lengths 1..L.

    Returns the left-justified exclusive limit of each length as an L-bit
    number, and, indexed by length, the first code and the index of the
    first symbol in (length, symbol) order; then the symbols in that order.
    """
    longest = code.max_length
    counts = [0] * (longest + 1)
    for length in code.lengths.values():
        counts[length] += 1
    limits, first, base = [], [0], [0]
    next_code = index = 0
    for length in range(1, longest + 1):
        first.append(next_code)
        base.append(index)
        next_code += counts[length]
        index += counts[length]
        limits.append(next_code << (longest - length))
        next_code <<= 1
    ordered = sorted(code.lengths, key=lambda sym: (code.lengths[sym], sym))
    return (
        np.array(limits, dtype=np.uint64),
        np.array(first, dtype=np.uint64),
        np.array(base, dtype=np.uint64),
        np.array(ordered, dtype=np.int64),
    )


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
    limits, first, base, ordered = _canonical_tables(code)
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
        found = np.searchsorted(limits, windows[: hi - lo], "right")
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
    codes -= first[width]
    codes += base[width]
    return ordered[codes]
