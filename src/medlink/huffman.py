"""Canonical Huffman coding over integer symbol alphabets.

``code_lengths`` is the one length builder, a two-queue merge (van
Leeuwen, "On the construction of Huffman trees", ICALP 1976), and
``huffman_build`` turns its lengths into a code. Rate-control probes need
only a payload's size, ``lengths @ counts``, which ``payload_bits`` sums
from the same merge's weights without the lengths. Codewords are assigned
canonically, in (length, symbol) order, so a code is fully described by
its code table: the symbols, strictly ascending, and their lengths, two
arrays from the token counts to the bitstream container and back. A
single-symbol alphabet gets a 1-bit code by convention, so every encoded
stream has positive length.

A ``HuffmanCode`` builds its per-length tables once (Moffat and Turpin,
"On the implementation of minimum redundancy prefix codes", IEEE Trans.
Commun. 45(10), 1997), with one exact Kraft check per length; the
encoder and the decoder read them. No Python step runs per symbol.

The encoder makes no Python step per codeword. Its table, built from the
per-length tables on first use, holds each symbol's codeword left-justified
in 64 bits with the length in the low 6 bits: one entry per integer of
the symbol span where that span is narrow, else one per symbol, found by
``np.searchsorted``. A prefix sum of the lengths gives each codeword's bit
offset (Blelloch, "Prefix sums and their applications", CMU-CS-90-190,
1990). Shifted right by its offset within its uint64 word, each codeword
is ORed into that word, one reduction per run of codewords that start in
the same word, and the rest of a codeword that crosses into the next
word is ORed into that one. This runs in chunks of ``_ENCODE_TOKENS``
tokens, the partial last word carried from one chunk to the next.

Decoding needs no codeword table. Read as an L-bit number, L the longest
code length, the window at a codeword's start lies below the
left-justified limit ``(first code + count) << (L - length)`` of its own
length and of no shorter one. So the decoder first finds the length of
the codeword starting at every bit position, 0 where none does. A table
over the top T bits of the window gives it wherever those bits lie below
the limit of length T; only the windows above, which start a longer
codeword or none, go through ``np.searchsorted`` over the L limits. The
table is filled from the per-length counts, each length's share of it in
canonical order. T is ``min(L, 12)``, or ``min(L, 18)`` for a code with
more than 1/32 of its code space in codewords longer than 12 bits, which
would send that share of the windows to the search (``_table_bits``).
This runs in chunks of ``_CHUNK_BITS`` positions to bound the
temporaries; each chunk writes only its own positions, so on payloads of
``_split.SPLIT_MIN`` bits or more two threads take half the chunks each.

The lengths chain the codeword starts: each start plus its length is the
next. A payload shorter than ``_LANE_MIN_BITS`` is walked with one
Python step per codeword. A longer one is walked by numpy lanes (Klein
and Wiseman, "Parallel Huffman decoding with applications to JPEG
files", Comput. J. 46(5), 2003): a lane starts at every block, and all
lanes step together until each has run an overrun into the next block,
both sized to the code by ``_lane_geometry``. A lane started off a
codeword boundary almost always falls onto the true boundaries within a
few codewords, and two paths that share a position share every later
one. Lane 0 starts at bit 0 and so is true; the next lane is true from
the first position of the true lane's overrun that lies on its path, and
so on. A true lane that meets no later lane is continued by the
sequential walk from its last position, which stops where it lands on a
later lane's path near the start of that lane's block, and the lanes
resume from there. Either way the decode ends where the path from bit 0
ends: on a position with no codeword, or at or past ``bit_length``,
which is where the walk alone would stop, so errors and their offsets
come from that one position and the start before it. The symbols follow
from the windows at the starts alone: index ``base + code - first`` in
(length, symbol) order, gathered ``_GATHER_STARTS`` starts at a time into
one array, half the gathers on each of two threads where there are
``_split.SPLIT_MIN`` starts or more. That array is int32 when every
symbol of the code lies in int32, as every container's does, and int64
otherwise.

Code lengths are capped at ``MAX_CODE_LENGTH`` = 57 bits, the widest
window an 8-byte word holds after a shift of up to 7 bits. No encoder
output is lost to the cap: a Huffman codeword of length d needs a total
frequency of at least the Fibonacci number F(d + 2), so a 58-bit
codeword needs F(60), about 1.5e12 tokens.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property

import numpy as np

from ._split import split

__all__ = [
    "MAX_CODE_LENGTH",
    "HuffmanCode",
    "HuffmanError",
    "HuffmanDecodeError",
    "code_lengths",
    "payload_bits",
    "huffman_build",
    "huffman_encode",
    "huffman_decode",
]

# the widest window an 8-byte word holds after a shift of up to 7 bits
MAX_CODE_LENGTH = 57
# bit positions whose codeword lengths one numpy pass computes
_CHUNK_BITS = 1 << 16
_BYTE_SHIFTS = np.arange(8, dtype=np.uint32)
# tokens one numpy pass of the encoder packs; larger chunks raise the
# peak memory of a small image's compress
_ENCODE_TOKENS = 1 << 15
# codewords up to this long get their length from one table lookup, or up
# to the wider length where more than the share of the code space lies
# beyond it; see _table_bits
_TABLE_BITS = 12
_WIDE_TABLE_BITS = 18
_WIDE_SHARE = 1 / 32
# payloads this long or longer are walked by lanes; on shorter ones the
# lane pass costs more than the sequential walk it replaces
_LANE_MIN_BITS = 1 << 16
# bits a lane runs into the next block, where it looks for that lane's
# path, per squared mean codeword length; see _lane_geometry
_LANE_SYNC_FACTOR = 16
# lane steps per table allocation; whether every lane is done is checked
# once per table
_LANE_ROWS = 32
# overrun steps searched for a meeting point in the first, vectorized pass
_MEET_ROWS = 32
# codeword starts whose symbols one numpy pass of the decoder gathers
_GATHER_STARTS = 1 << 16
_INT32 = np.iinfo(np.int32)


class HuffmanError(ValueError):
    pass


class HuffmanDecodeError(HuffmanError):
    """Corrupt entropy-coded data. ``bit_offset`` points at the bad codeword."""

    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset


class HuffmanCode:
    """A canonical prefix code, constructed from its code table: the
    symbols, strictly ascending, and their code lengths. It keeps them as
    ``symbols`` (int64) and ``lengths`` (uint8), and builds its per-length
    tables here, once, with the symbols in (length, symbol) order in the
    decoder's output dtype. The encoder's table is derived from them on
    first use, so a decoder never builds it."""

    def __init__(self, symbols, lengths):
        self.symbols = symbols = np.asarray(symbols, dtype=np.int64)
        # uint8 is for storage: arithmetic runs on the int64 widths
        widths = np.asarray(lengths, dtype=np.int64)
        if not symbols.size:
            raise HuffmanError("empty code table")
        if symbols.ndim != 1 or widths.shape != symbols.shape:
            raise HuffmanError(f"{symbols.size} symbols, {widths.size} code lengths")
        if np.any(symbols[1:] <= symbols[:-1]):
            raise HuffmanError("code table symbols do not strictly ascend")
        bad = np.flatnonzero((widths < 1) | (widths > MAX_CODE_LENGTH))
        if bad.size:
            raise HuffmanError(f"code length {widths[bad[0]]} for symbol {symbols[bad[0]]}")
        self.lengths = widths.astype(np.uint8)
        self.max_length = longest = int(widths.max())
        counts = np.bincount(widths, minlength=longest + 1).tolist()
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
        self._limits = np.array(limits, dtype=np.uint64)
        # a codeword of each length plus this is its (length, symbol)
        # index, base - first, mod 2**64
        self._offset = np.array(base, dtype=np.uint64) - np.array(first, dtype=np.uint64)
        # a stable sort of symbol order by length: (length, symbol)
        self._order = np.argsort(self.lengths, kind="stable")
        # the decoder's output dtype: int32 where every symbol fits
        fits = _INT32.min <= symbols[0] and symbols[-1] <= _INT32.max
        self._ordered = symbols[self._order].astype(np.int32 if fits else np.int64)
        self._counts = counts
        self._gcd = math.gcd(*np.flatnonzero(counts).tolist())
        # the share of code space each length takes, count * 2**-length
        self._space = [count / 2.0**length for length, count in enumerate(counts)]

    @cached_property
    def _entries(self) -> tuple[int, np.ndarray, np.ndarray | None]:
        """The encoder's table: (lowest symbol, entries, symbols). An entry
        is a codeword left-justified in 64 bits with its length in the low
        6 bits, 0 for no symbol. A narrow symbol span gets one entry per
        integer from the lowest symbol on, then a 0, and symbols None; a
        wide one gets an entry per symbol, in the order of ``symbols``."""
        symbols, n = self.symbols, self.symbols.size
        widths = self.lengths.astype(np.uint64)
        entries = np.empty(n, dtype=np.uint64)
        entries[self._order] = np.arange(n, dtype=np.uint64) - self._offset[widths[self._order]]
        entries <<= np.uint64(64) - widths
        entries |= widths
        lo = int(symbols[0])
        span = int(symbols[-1]) - lo + 1
        if span > 16 * n + 1024:
            return lo, entries, symbols
        dense = np.zeros(span + 1, dtype=np.uint64)
        dense[symbols - symbols[0]] = entries
        return lo, dense, None

    def __len__(self) -> int:
        return self.symbols.size


def code_lengths(counts) -> np.ndarray:
    """Huffman code lengths (int64) of positive ``counts`` given in
    ascending symbol order; a single symbol gets length 1. A count that is
    not positive raises HuffmanError.

    The leaves are sorted stably by count and the merged nodes queue in
    creation order, which is ascending weight; each merge takes the
    lighter front twice, the leaf on a tie. That is a heap merge seeded in
    symbol order with sequence-numbered merges, tie for tie. An infinite
    weight ends each queue, and stands for each merged node until it is
    created, so no front needs a bounds check.
    """
    counts = np.asarray(counts)
    n = counts.size
    if n == 0:
        raise HuffmanError("empty alphabet")
    if not counts.min() > 0:
        raise HuffmanError("symbol counts must be positive")
    if n == 1:
        return np.ones(1, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    leaves = counts[order].tolist()
    leaves.append(math.inf)
    weights = [math.inf] * n
    # the merge that takes each sorted leaf, and each merged node
    leaf_parent = [0] * n
    node_parent = [0] * (n - 1)
    leaf = merged = 0
    for m in range(n - 1):
        a, b = leaves[leaf], weights[merged]
        if a <= b:
            leaf_parent[leaf] = m
            leaf += 1
        else:
            node_parent[merged] = m
            merged += 1
            a = b
        b, c = leaves[leaf], weights[merged]
        if b <= c:
            leaf_parent[leaf] = m
            leaf += 1
        else:
            node_parent[merged] = m
            merged += 1
            b = c
        weights[m] = a + b
    # a merged node's parent is created after it: fill depths root first
    depths = [0] * (n - 1)
    for m in range(n - 3, -1, -1):
        depths[m] = depths[node_parent[m]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = np.array(depths)[leaf_parent] + 1
    return lengths


def payload_bits(counts) -> int:
    """The payload bits of a Huffman code for positive ``counts``, equal to
    ``code_lengths(counts) @ counts``, from a merge of the weights alone.

    A leaf at depth d adds its count to the weight of each of the d merged
    nodes above it, so the merged weights sum to the payload. Every Huffman
    tree has that same minimal sum, whichever way its ties fall, so the two
    queues need no tie rule, parents or depths. A single symbol gets a
    1-bit codeword, so its payload is its count.
    """
    counts = np.asarray(counts)
    if counts.size == 0:
        raise HuffmanError("empty alphabet")
    if not counts.min() > 0:
        raise HuffmanError("symbol counts must be positive")
    leaves = np.sort(counts).tolist()
    if len(leaves) == 1:
        return leaves[0]
    leaves.append(math.inf)
    merged = [math.inf] * len(leaves)
    leaf = node = 0
    for m in range(len(leaves) - 2):
        a, b = leaves[leaf], merged[node]
        if a <= b:
            leaf += 1
        else:
            a = b
            node += 1
        b, c = leaves[leaf], merged[node]
        if b <= c:
            leaf += 1
        else:
            b = c
            node += 1
        merged[m] = a + b
    return sum(merged[: len(leaves) - 2])


def huffman_build(symbols, counts) -> HuffmanCode:
    """Build a canonical code over ``symbols``, strictly ascending, from
    their positive ``counts``."""
    return HuffmanCode(symbols, code_lengths(counts))


def huffman_encode(symbols, code: HuffmanCode) -> tuple[bytes, int]:
    """Encode symbols with a code; returns (payload bytes, exact bit length).

    The final byte is zero-padded. The first symbol outside the code table
    raises HuffmanError.
    """
    values = np.asarray(symbols)
    if not np.can_cast(values.dtype, np.int64):
        # floats, objects and integers past int64 are looked up as keys
        known = set(code.symbols.tolist())
        for s in symbols.tolist() if isinstance(symbols, np.ndarray) else symbols:
            if s not in known:
                raise HuffmanError(f"symbol {s} not in code table")
        values = values.astype(np.int64)
    lo, table, keys = code._entries
    parts, nbits = [], 0
    carry, filled = np.uint64(0), 0
    for at in range(0, values.size, _ENCODE_TOKENS):
        chunk = values[at : at + _ENCODE_TOKENS]
        if keys is None:
            # a symbol below the lowest wraps high, so both sides of the
            # span clip to the table's last entry, a 0
            index = np.subtract(chunk, lo, dtype=np.int64).view(np.uint64)
            entries = table[np.minimum(index, np.uint64(table.size - 1), out=index)]
        else:
            index = np.searchsorted(keys, chunk)
            np.minimum(index, keys.size - 1, out=index)
            entries = table[index]
            entries[keys[index] != chunk] = 0
        if not entries.all():
            bad = at + int(np.flatnonzero(entries == 0)[0])
            raise HuffmanError(f"symbol {values[bad].item()} not in code table")
        words, carry, filled = _pack(entries, carry, filled)
        parts.append(words.astype(">u8").tobytes())
        nbits += 64 * words.size
    parts.append(int(carry).to_bytes(8, "big")[: (filled + 7) >> 3])
    return b"".join(parts), nbits + filled


def _pack(
    entries: np.ndarray, carry: np.uint64, filled: int
) -> tuple[np.ndarray, np.uint64, int]:
    """Pack the codewords of ``entries`` (see ``HuffmanCode._entries``,
    overwritten) after the ``filled`` bits of the partial word ``carry``;
    return the complete words, and the new partial word and its bits."""
    width = entries & np.uint64(63)
    entries ^= width
    end = np.cumsum(width)
    end += np.uint64(filled)
    total = int(end[-1])
    start = np.subtract(end, width, out=width)
    word = start >> np.uint64(6)
    start &= np.uint64(63)
    # a run starts wherever the word changes, and at 0: ~w differs from w
    runs = np.flatnonzero(np.diff(word, prepend=~word[:1]))
    words = np.zeros((total + 63) >> 6, dtype=np.uint64)
    words[word[runs]] = np.bitwise_or.reduceat(entries >> start, runs)
    words[0] |= carry
    end -= np.uint64(1)
    end >>= np.uint64(6)
    cross = np.flatnonzero(end != word)
    words[word[cross] + np.uint64(1)] |= entries[cross] << (np.uint64(64) - start[cross])
    full = total >> 6
    filled = total & 63
    return words[:full], words[full] if filled else np.uint64(0), filled


def huffman_decode(data: bytes, bit_length: int, code: HuffmanCode) -> np.ndarray:
    """Decode ``bit_length`` bits of payload back into a symbol array:
    int32 when every symbol of ``code`` lies in int32, else int64.

    Raises HuffmanDecodeError (with the bit offset of the offending
    codeword) when the bits do not parse: "no codeword matches" when more
    than the longest code length of bits remain at that offset, otherwise
    "truncated codeword", also when the last codeword runs past
    ``bit_length``.
    """
    if bit_length < 0 or bit_length > len(data) * 8:
        raise HuffmanDecodeError("bit length exceeds payload", len(data) * 8)
    if bit_length == 0:
        return np.empty(0, dtype=code._ordered.dtype)
    longest = code.max_length
    padded = bytes(data) + bytes(8)
    lengths = _codeword_lengths(padded, bit_length, code)
    if bit_length < _LANE_MIN_BITS:
        walked = array("q")
        end = _walk(lengths, 0, bit_length, walked)
        starts = np.frombuffer(walked, dtype=np.int64)
    else:
        starts, end = _lane_starts(lengths, bit_length, *_lane_geometry(code))
    if end < bit_length:
        dead = bit_length - end > longest
        raise HuffmanDecodeError(
            "no codeword matches" if dead else "truncated codeword", end
        )
    if end > bit_length:
        raise HuffmanDecodeError("truncated codeword", int(starts[-1]))
    view = np.frombuffer(lengths, dtype=np.uint8)
    words = _byte_words(padded, ">u8")
    symbols = np.empty(starts.size, dtype=code._ordered.dtype)
    chunks = range(0, starts.size, _GATHER_STARTS)

    def gather(first: int, last: int):
        for lo in chunks[first:last]:
            at = starts[lo : lo + _GATHER_STARTS]
            width = view[at]
            codes = words[at >> 3]
            codes <<= (at & 7).astype(np.uint8)
            codes >>= 64 - width
            codes += code._offset[width]
            symbols[lo : lo + at.size] = code._ordered[codes]

    split(gather, len(chunks), starts.size)
    return symbols


def _byte_words(padded: bytes, dtype: str) -> np.ndarray:
    """The big-endian word at every byte offset of the data before the 8
    zero bytes that end ``padded``."""
    return np.ndarray((len(padded) - 7,), dtype=dtype, buffer=padded, strides=(1,))


def _codeword_lengths(padded: bytes, bit_length: int, code: HuffmanCode) -> bytearray:
    """The length of the codeword starting at each of the ``bit_length``
    positions, 0 where none does, then ``code.max_length`` zero bytes, so
    that a step from any position lands inside."""
    longest = code.max_length
    top = _table_bits(code)
    limits = code._limits
    # length i + 1 at searchsorted index i < longest; none at longest
    length_at = np.append(np.arange(1, longest + 1), 0).astype(np.uint8)
    # top bits below ``short`` start a codeword of at most ``top`` bits,
    # which the table holds; above it, a longer one or none
    short = int(limits[top - 1]) >> (longest - top)
    table = np.zeros(1 << top, dtype=np.uint8)
    # in canonical order each length's codewords follow the shorter ones'
    spans = np.array(code._counts[1 : top + 1], dtype=np.int64) << np.arange(
        top - 1, -1, -1, dtype=np.int64
    )
    table[:short] = np.repeat(length_at[:top], spans)
    quads = _byte_words(padded, ">u4")
    words = _byte_words(padded, ">u8")
    lengths = bytearray(bit_length + longest)
    lengths_view = np.frombuffer(lengths, dtype=np.uint8)
    chunks = range(0, bit_length, _CHUNK_BITS)

    def fill(first: int, last: int):
        for lo in chunks[first:last]:
            hi = min(lo + _CHUNK_BITS, bit_length)
            chunk = quads[lo >> 3 : (hi + 7) >> 3, None].astype(np.uint32)
            windows = (chunk << _BYTE_SHIFTS).ravel()[: hi - lo]
            windows >>= np.uint32(32 - top)
            lengths_view[lo:hi] = table[windows]
            if top < longest:
                at = np.flatnonzero(windows >= short).astype(np.uint64)
                at += np.uint64(lo)
                full = np.left_shift(words[at >> np.uint64(3)], at & np.uint64(7))
                full >>= np.uint64(64 - longest)
                lengths_view[at] = length_at[np.searchsorted(limits, full, "right")]

    split(fill, len(chunks), bit_length)
    return lengths


def _table_bits(code: HuffmanCode) -> int:
    """Width of the decoder's length table for ``code``: ``_TABLE_BITS``,
    or ``_WIDE_TABLE_BITS`` where more than ``_WIDE_SHARE`` of the code
    space lies in longer codewords, at most the longest code length.

    The share of code space beyond a width is the share of codeword starts
    whose window misses a table of that width. Lossy codes of
    synthetic blobs and mixed images put at most 2.2% of it beyond 12 bits
    (CR 2 to 40, 256^2 to 2000^2); lossless codes of their 16-bit versions
    put 6.5% (blobs) to 27% (mixed) there, and decode about 1.2 to 1.8
    times faster from an 18-bit table."""
    space = code._space
    wide = sum(space[_TABLE_BITS + 1 :]) > _WIDE_SHARE * sum(space)
    return min(code.max_length, _WIDE_TABLE_BITS if wide else _TABLE_BITS)


def _walk(lengths: bytearray, pos: int, stop: int, starts: array) -> int:
    """Append the codeword starts from ``pos`` on to ``starts``, one Python
    step per codeword, until a position with no codeword or one at or past
    ``stop``; return that position."""
    append = starts.append
    while pos < stop:
        step = lengths[pos]
        if not step:
            break
        append(pos)
        pos += step
    return pos


def _run_lanes(view: np.ndarray, first: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Step a lane from each position in ``first`` until every lane is at
    or past its ``target`` or stuck on a zero length; return the visited
    positions, one row per lane."""
    table = np.empty((_LANE_ROWS, first.size), dtype=first.dtype)
    table[0] = first
    tables = [table]
    step = np.empty(first.size, dtype=np.uint8)
    r = 0
    while True:
        row = table[r]
        view.take(row, out=step)
        r += 1
        if r == _LANE_ROWS:
            if np.all((row >= target) | (step == 0)):
                return np.concatenate([t.T for t in tables], axis=1)
            table = np.empty_like(table)
            tables.append(table)
            r = 0
        np.add(row, step, out=table[r])


def _lane_geometry(code: HuffmanCode) -> tuple[int, int]:
    """The bits between lane starts and the bits a lane runs into the next
    block, for ``code``.

    A lane started off the codeword boundaries meets them within a
    distance that grows faster than the mean codeword length m: over 2000
    random starts per payload, the 99th percentile was 3 to 7 m**2 bits on
    the lossy and lossless codes of synthetic blobs, mixed and ramp images
    (m from 2.6 to 12), and 14 m**2 on 16-bit noise coded losslessly (m
    about 15). The mean is taken with each length l at probability 2**-l,
    since the lengths are all a decoder knows. The overrun is
    _LANE_SYNC_FACTOR m**2 bits rounded up to a power of two and clamped to
    [128, 2048], so that nearly every lane meets the next while a short
    payload takes few steps; a block is four overruns, but at most 4096
    bits, since at the longest overrun a longer block only adds steps.
    Blocks are rounded down to a multiple of the gcd of the code lengths,
    so that a fixed-length code starts every lane in step.
    """
    space = code._space
    mean = sum(length * w for length, w in enumerate(space)) / sum(space)
    wanted = math.ceil(math.log2(_LANE_SYNC_FACTOR * mean * mean))
    overrun = 1 << min(max(wanted, 7), 11)
    block = min(4 * overrun, 4096)
    return block - block % code._gcd, overrun


def _lane_starts(
    lengths: bytearray, bit_length: int, block: int, overrun: int
) -> tuple[np.ndarray, int]:
    """The sorted codeword starts of a long payload and the position where
    its path from bit 0 ends, the same as ``_walk`` from 0 finds, by lanes
    ``block`` bits apart that run ``overrun`` bits into the next block."""
    dtype = np.int32 if len(lengths) <= np.iinfo(np.int32).max else np.int64
    first = np.arange(0, bit_length, block, dtype=dtype)
    own_end = np.minimum(first + block, bit_length)
    target = np.minimum(own_end + overrun, bit_length)
    paths = _run_lanes(np.frombuffer(lengths, dtype=np.uint8), first, target)
    # each lane's path over the start of its block, where the previous
    # lane's overrun crosses it
    marks = np.zeros(len(lengths), dtype=bool)
    overlap = np.minimum(first + overrun, own_end)
    marks[paths[paths < overlap[:, None]]] = True
    meet = _meetings(paths, marks, own_end)
    pieces = []
    lane, pos = 0, 0
    while lane is not None:
        path = paths[lane]
        start = path.searchsorted(path.dtype.type(pos))
        if meet[lane] >= 0:
            pieces.append(path[start : meet[lane]])
            pos = int(path[meet[lane]])
            lane = pos // block
        else:
            pieces.append(path[start : path.searchsorted(path[-1])])
            pos, lane = _walk_to_lane(
                lengths, int(path[-1]), bit_length, block, overrun, marks, pieces
            )
    return np.concatenate(pieces), pos


def _meetings(paths: np.ndarray, marks: np.ndarray, own_end: np.ndarray) -> list[int]:
    """The step at which each lane, past the end of its own block, first
    reaches a marked position, or -1 if it does not. The first _MEET_ROWS
    steps are searched for all lanes at once, later ones lane by lane."""
    rows = paths.shape[1]
    over = np.count_nonzero(paths < own_end[:, None], axis=1)
    window = over[:, None] + np.arange(_MEET_ROWS)
    hit = marks[np.take_along_axis(paths, np.minimum(window, rows - 1), axis=1)]
    hit &= window < rows
    meet = np.where(hit.any(axis=1), over + hit.argmax(axis=1), -1)
    for lane in np.flatnonzero(meet < 0).tolist():
        later = over[lane] + _MEET_ROWS
        hits = np.flatnonzero(marks[paths[lane, later:]])
        if hits.size:
            meet[lane] = later + hits[0]
    return meet.tolist()


def _walk_to_lane(
    lengths, pos: int, bit_length: int, block: int, overrun: int, marks, pieces: list
):
    """Walk on from ``pos``, to the end of the next block's marked stretch
    at a time, appending the starts to ``pieces`` in the dtype of the first
    piece, until the walk lands on a marked position; return it and its
    lane, or where the walk ended and None."""
    dtype = pieces[0].dtype
    while pos < bit_length:
        walked = array(dtype.char)
        stop = min((pos // block + 1) * block + overrun, bit_length)
        pos = _walk(lengths, pos, stop, walked)
        steps = np.frombuffer(walked, dtype=dtype)
        landed = np.flatnonzero(marks[steps])
        if landed.size:
            pieces.append(steps[: landed[0]])
            pos = int(steps[landed[0]])
            return pos, pos // block
        pieces.append(steps)
        if pos < stop:
            break
    return pos, None
