"""Entropy coder tests.

Optimality is checked against a brute-force search over all length
assignments satisfying the Kraft inequality, which is the defining
property of an optimal prefix code, independent of how the tree is
built. The decoder is checked against a plain per-bit loop, both on its
sequential walk and with its lane constants made small, so that every
payload spans many lanes and some lanes fall back to the walk.
"""

import functools
import heapq
import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from medlink import huffman
from medlink.codec import _grid_config, _ProbeSizer, compress
from medlink.dwt import dwt_forward
from medlink.huffman import (
    _CHUNK_BITS,
    MAX_CODE_LENGTH,
    HuffmanCode,
    HuffmanDecodeError,
    HuffmanError,
    code_lengths,
    huffman_build,
    huffman_decode,
    huffman_encode,
    payload_bits,
)
from medlink.synth import synth_image


def _build(freqs):
    """``huffman_build`` over a {symbol: count} dict."""
    symbols = sorted(freqs)
    return huffman_build(symbols, [freqs[s] for s in symbols])


def _code(table):
    """``HuffmanCode`` over a {symbol: length} dict."""
    symbols = sorted(table)
    return HuffmanCode(symbols, [table[s] for s in symbols])


def _table(code):
    """The {symbol: length} dict of ``code``."""
    return dict(zip(code.symbols.tolist(), code.lengths.tolist()))


def _without(code, symbol):
    """``code`` with the entry of ``symbol`` dropped: an incomplete code."""
    keep = code.symbols != symbol
    return HuffmanCode(code.symbols[keep], code.lengths[keep])


# the reference coders ask for the same few codes many times in a row
@functools.lru_cache(maxsize=4)
def _codewords(code):
    """{symbol: codeword as a string of bits}, each taken from
    ``huffman_encode`` of the symbol alone."""
    words = {}
    for s in code.symbols.tolist():
        payload, nbits = huffman_encode([s], code)
        words[s] = "".join(format(byte, "08b") for byte in payload)[:nbits]
    return words


def _entropy(freqs):
    total = sum(freqs.values())
    return -sum(f / total * math.log2(f / total) for f in freqs.values() if f)


def _brute_force_optimal_cost(freqs, max_len=8):
    """Minimum weighted length over all Kraft-satisfying length tuples."""
    syms = sorted(freqs)
    best = None
    for lengths in itertools.product(range(1, max_len + 1), repeat=len(syms)):
        if sum(2.0**-l for l in lengths) <= 1.0 + 1e-12:
            cost = sum(freqs[s] * l for s, l in zip(syms, lengths))
            best = cost if best is None else min(best, cost)
    return best


def test_single_symbol_gets_one_bit():
    code = huffman_build([42], [10])
    assert _table(code) == {42: 1}
    payload, nbits = huffman_encode([42, 42, 42], code)
    assert nbits == 3
    assert huffman_decode(payload, nbits, code).tolist() == [42, 42, 42]


def test_three_symbol_example_is_optimal():
    freqs = {0: 1, 1: 1, 2: 2}
    lengths = _table(_build(freqs))
    assert lengths == {0: 2, 1: 2, 2: 1}
    cost = sum(freqs[s] * lengths[s] for s in freqs)
    assert cost == 6
    assert cost == _brute_force_optimal_cost(freqs)


def test_weighted_cost_matches_brute_force_on_random_alphabets():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        freqs = {int(s): int(rng.integers(1, 50)) for s in range(n)}
        lengths = _table(_build(freqs))
        cost = sum(freqs[s] * lengths[s] for s in freqs)
        assert cost == _brute_force_optimal_cost(freqs)


def test_canonical_codes_ordered_by_length_then_symbol():
    code = _build({10: 5, 3: 5, 7: 20, -2: 40})
    ordered = sorted(_table(code).items(), key=lambda kv: (kv[1], kv[0]))
    codes = {s: int(word, 2) for s, word in _codewords(code).items()}
    values = [codes[s] for s, _ in ordered]
    assert values == sorted(values)
    # shorter codes are numerically-left prefixes of the space
    for (s1, l1), (s2, l2) in zip(ordered, ordered[1:]):
        assert codes[s1] << (l2 - l1) < codes[s2] + 1


def test_codes_are_prefix_free():
    rng = np.random.default_rng(3)
    freqs = {int(s): int(f) for s, f in enumerate(rng.integers(1, 100, size=40))}
    code = _build(freqs)
    strings = [_codewords(code)[s] for s in freqs]
    assert [len(word) for word in strings] == code.lengths.tolist()
    for a, b in itertools.permutations(strings, 2):
        assert not a.startswith(b) or a == b


def test_mean_length_within_one_bit_of_entropy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 64))
        freqs = {int(s): int(rng.integers(1, 1000)) for s in range(n)}
        counts = np.array(list(freqs.values()))
        lengths = _build(freqs).lengths.astype(np.int64)
        h0 = _entropy(freqs)
        mean = lengths @ counts / counts.sum()
        assert h0 <= mean + 1e-9
        assert mean < h0 + 1.0


def test_round_trip_random_streams():
    rng = np.random.default_rng(11)
    for _ in range(25):
        alphabet = rng.integers(-500, 500, size=int(rng.integers(2, 30)))
        alphabet = np.unique(alphabet)
        symbols = rng.choice(alphabet, size=int(rng.integers(1, 300))).tolist()
        freqs: dict = {}
        for s in symbols:
            freqs[int(s)] = freqs.get(int(s), 0) + 1
        code = _build(freqs)
        payload, nbits = huffman_encode(symbols, code)
        assert len(payload) == (nbits + 7) // 8
        assert huffman_decode(payload, nbits, code).tolist() == [int(s) for s in symbols]


def test_code_rebuilt_from_lengths_decodes_the_same():
    freqs = {1: 3, 2: 9, 5: 1, -4: 7}
    code = _build(freqs)
    payload, nbits = huffman_encode([1, 2, 5, -4, 2], code)
    rebuilt = HuffmanCode(code.symbols.tolist(), code.lengths.tolist())
    assert _table(rebuilt) == _table(code)
    assert huffman_decode(payload, nbits, rebuilt).tolist() == [1, 2, 5, -4, 2]


def test_empty_alphabet_rejected():
    with pytest.raises(HuffmanError, match="empty"):
        huffman_build([], [])
    with pytest.raises(HuffmanError, match="empty"):
        HuffmanCode([], [])
    for counts in ([0], [5, 0], [3, -1]):
        with pytest.raises(HuffmanError, match="counts must be positive"):
            huffman_build(list(range(len(counts))), counts)


def test_code_table_is_int64_symbols_and_uint8_lengths():
    code = huffman_build(np.array([-5, 0, 9], dtype=np.int32), [3, 1, 1])
    assert code.symbols.dtype == np.int64 and code.symbols.tolist() == [-5, 0, 9]
    assert code.lengths.dtype == np.uint8 and code.lengths.tolist() == [1, 2, 2]
    assert len(code) == 3
    with pytest.raises(HuffmanError, match="3 symbols, 2 code lengths"):
        HuffmanCode([1, 2, 3], [1, 1])


@pytest.mark.parametrize("symbols", [[2, 1, 3], [1, 1, 3], [3, 2, 1]])
def test_unordered_or_repeated_symbols_rejected(symbols):
    with pytest.raises(HuffmanError, match="do not strictly ascend"):
        HuffmanCode(symbols, [1, 2, 2])
    with pytest.raises(HuffmanError, match="do not strictly ascend"):
        huffman_build(symbols, [1, 1, 1])


def test_unknown_symbol_rejected_on_encode():
    code = huffman_build([1, 2], [1, 1])
    with pytest.raises(HuffmanError, match="not in code table"):
        huffman_encode([1, 3], code)


def test_truncated_codeword_reports_bit_offset():
    code = huffman_build([0, 1, 2, 3, 4], [8, 4, 2, 1, 1])
    payload, nbits = huffman_encode([0, 1, 2, 3, 4] * 4, code)
    with pytest.raises(HuffmanDecodeError, match="truncated codeword") as err:
        huffman_decode(payload, nbits - 1, code)  # cuts the last codeword
    assert err.value.bit_offset == nbits - _table(code)[4]


def test_unmatchable_bits_report_offset():
    # an incomplete code (Kraft sum 1/4) cannot decode a run of ones
    sparse = HuffmanCode([5], [2])
    with pytest.raises(HuffmanDecodeError) as err:
        huffman_decode(b"\xe0", 3, sparse)
    assert err.value.bit_offset == 0


def test_bit_length_beyond_payload_rejected():
    code = huffman_build([0, 1], [1, 1])
    with pytest.raises(HuffmanDecodeError):
        huffman_decode(b"\x00", 9, code)


def test_invalid_length_table_rejected():
    with pytest.raises(HuffmanError):
        HuffmanCode([1, 2, 3], [1, 1, 1])  # Kraft sum 1.5
    with pytest.raises(HuffmanError):
        HuffmanCode([1], [0])


def test_kraft_inequality_is_checked_exactly():
    # 2**-1 + 2**-2 + ... + 2**-56 + 2 * 2**-57 == 1
    complete = {sym: sym for sym in range(1, 57)} | {57: 57, 58: 57}
    code = _code(complete)
    assert _codewords(code)[58] == "1" * 57
    payload, nbits = huffman_encode([58, 1, 57], code)
    assert huffman_decode(payload, nbits, code).tolist() == [58, 1, 57]
    with pytest.raises(HuffmanError, match="Kraft"):
        _code({**complete, 59: 57})  # 1 + 2**-57


def test_code_lengths_are_capped():
    assert HuffmanCode([0, 1], [MAX_CODE_LENGTH, 1]).max_length == MAX_CODE_LENGTH
    with pytest.raises(HuffmanError, match="code length"):
        HuffmanCode([0, 1], [MAX_CODE_LENGTH + 1, 1])
    # Fibonacci frequencies build a chain: n symbols reach length n - 1
    assert _build(_fibonacci_frequencies(58)).max_length == 57
    with pytest.raises(HuffmanError, match="code length 58"):
        _build(_fibonacci_frequencies(59))


def _decode_bit_by_bit(data, bit_length, code):
    """Reference decoder: reads one bit at a time and looks the bits read
    so far up in a (length, codeword) -> symbol dict; no numpy."""
    if bit_length < 0 or bit_length > len(data) * 8:
        raise HuffmanDecodeError("bit length exceeds payload", len(data) * 8)
    table = {(len(word), int(word, 2)): sym for sym, word in _codewords(code).items()}
    out = []
    acc = length = start = 0
    for pos in range(bit_length):
        acc = (acc << 1) | (data[pos >> 3] >> (7 - (pos & 7))) & 1
        length += 1
        sym = table.get((length, acc))
        if sym is not None:
            out.append(sym)
            acc = length = 0
            start = pos + 1
        elif length > code.max_length:
            raise HuffmanDecodeError("no codeword matches", start)
    if length:
        raise HuffmanDecodeError("truncated codeword", start)
    return out


def _outcome(decode, data, bit_length, code):
    try:
        return list(decode(data, bit_length, code))
    except HuffmanDecodeError as exc:
        return str(exc), exc.bit_offset


def _assert_decodes_like_reference(data, bit_length, code):
    expected = _outcome(_decode_bit_by_bit, data, bit_length, code)
    assert _outcome(huffman_decode, data, bit_length, code) == expected
    return expected


def _fibonacci_frequencies(n):
    freqs, a, b = {}, 1, 1
    for sym in range(n):
        freqs[sym] = a
        a, b = b, a + b
    return freqs


def _random_codes(rng):
    """Single-symbol, complete, incomplete (Kraft < 1) and 57-bit codes."""
    yield HuffmanCode([7], [1])
    yield HuffmanCode([-3], [4])
    yield _build(_fibonacci_frequencies(58))
    for _ in range(12):
        size = int(rng.integers(2, 40))
        symbols = rng.choice(np.arange(-60, 60), size=size, replace=False)
        weights = rng.integers(1, 1 << int(rng.integers(1, 20)), size=size)
        code = _build(dict(zip(symbols.tolist(), weights.tolist())))
        yield code
        kept = np.isin(code.symbols, rng.permutation(code.symbols)[: max(1, size // 2)])
        yield HuffmanCode(code.symbols[kept], code.lengths[kept])


def test_decoder_matches_reference_on_random_codes():
    _check_random_codes()


def _check_random_codes():
    rng = np.random.default_rng(41)
    # symbols at both ends of int32, and one past it
    int32_edges = [
        HuffmanCode([-(2**31), 5, 2**31 - 1], [1, 2, 2]),
        HuffmanCode([-3, 5, 2**31], [1, 2, 2]),
    ]
    for code in itertools.chain(_random_codes(rng), int32_edges):
        symbols = rng.choice(code.symbols, size=int(rng.integers(1, 400)))
        payload, nbits = huffman_encode(symbols, code)
        decoded = huffman_decode(payload, nbits, code)
        # int32 when every symbol of the code fits it
        fits = -(2**31) <= code.symbols[0] and code.symbols[-1] < 2**31
        assert decoded.dtype == (np.int32 if fits else np.int64)
        assert decoded.tolist() == symbols.tolist()
        assert _assert_decodes_like_reference(payload, nbits, code) == symbols.tolist()
        # random bits hit dead starts and cut codewords in incomplete codes
        noise = rng.integers(0, 256, size=int(rng.integers(1, 40)), dtype=np.uint8)
        for bits in (noise.size * 8, int(rng.integers(0, noise.size * 8))):
            _assert_decodes_like_reference(noise.tobytes(), bits, code)


def test_decoder_matches_reference_across_chunk_boundaries():
    _check_chunk_boundaries()


def _check_chunk_boundaries() -> int:
    """Returns the dead position of the incomplete code's decode."""
    rng = np.random.default_rng(43)
    code = _build(_fibonacci_frequencies(58))
    lengths = _table(code)
    # uniform draws average about 30 bits a codeword: several chunks
    symbols = rng.choice(code.symbols, size=9000)
    payload, nbits = huffman_encode(symbols, code)
    assert nbits > 3 * _CHUNK_BITS
    widths = np.array([lengths[s] for s in symbols.tolist()])
    starts = np.cumsum(widths) - widths
    for boundary in range(_CHUNK_BITS, nbits, _CHUNK_BITS):
        assert np.any((starts < boundary) & (starts + widths > boundary))
    assert _assert_decodes_like_reference(payload, nbits, code) == symbols.tolist()
    # symbol 1 is last in canonical order, so the code without it keeps
    # every other codeword and stops at symbol 1's only occurrence
    symbols[symbols == 1] = 2
    symbols[5000] = 1
    payload, nbits = huffman_encode(symbols, code)
    dead = sum(lengths[s] for s in symbols[:5000].tolist())
    assert dead > 2 * _CHUNK_BITS
    incomplete = _without(code, 1)
    outcome = _assert_decodes_like_reference(payload, nbits, incomplete)
    assert outcome == (f"no codeword matches (bit offset {dead})", dead)
    return dead


def test_decoder_matches_reference_on_every_truncation_and_bit_flip():
    _check_truncations_and_bit_flips()


def _check_truncations_and_bit_flips():
    rng = np.random.default_rng(47)
    code = huffman_build(np.arange(8), [40, 20, 10, 5, 3, 2, 1, 1])
    incomplete = _without(code, 5)
    symbols = rng.choice(np.arange(8), size=60)
    payload, nbits = huffman_encode(symbols, code)
    outcomes = []
    for cut in range(nbits + 1):
        for each in (code, incomplete):
            outcomes.append(_assert_decodes_like_reference(payload, cut, each))
    for pos in rng.integers(0, nbits, size=200).tolist():
        flipped = bytearray(payload)
        flipped[pos >> 3] ^= 0x80 >> (pos & 7)
        for each in (code, incomplete):
            outcomes.append(_assert_decodes_like_reference(bytes(flipped), nbits, each))
    # both kinds of error were reached, not only clean decodes
    errors = {o[0].split(" (")[0] for o in outcomes if isinstance(o, tuple)}
    assert errors == {"no codeword matches", "truncated codeword"}


def _lanes(monkeypatch, block=None, overrun=None):
    """Decode every payload by lanes ``block`` bits apart that run
    ``overrun`` bits on, by default those of ``_lane_geometry``; returns
    the (from, to) positions of the sequential walks the decoder makes,
    which on lanes are its fallbacks."""
    monkeypatch.setattr(huffman, "_LANE_MIN_BITS", 1)
    if block is not None:
        monkeypatch.setattr(huffman, "_lane_geometry", lambda code: (block, overrun))
    walks = []
    monkeypatch.setattr(huffman, "_walk", _recording(huffman._walk, walks))
    return walks


def _recording(walk, walks):
    """``walk`` that appends the (from, to) positions of each call to
    ``walks``."""

    def recorded(lengths, pos, stop, starts):
        end = walk(lengths, pos, stop, starts)
        walks.append((pos, end))
        return end

    return recorded


# blocks short against the suites' payloads; overruns short enough that
# some lanes meet no later lane
SMALL_LANES = pytest.mark.parametrize("block, overrun", [(64, 32), (40, 8)])


@SMALL_LANES
def test_lanes_match_reference_on_random_codes(monkeypatch, block, overrun):
    walks = _lanes(monkeypatch, block, overrun)
    _check_random_codes()
    assert walks


@SMALL_LANES
def test_lanes_match_reference_on_every_truncation_and_bit_flip(monkeypatch, block, overrun):
    walks = _lanes(monkeypatch, block, overrun)
    _check_truncations_and_bit_flips()
    assert walks


@SMALL_LANES
def test_lanes_match_reference_across_chunk_boundaries(monkeypatch, block, overrun):
    walks = _lanes(monkeypatch, block, overrun)
    dead = _check_chunk_boundaries()
    # the walk is what stops at the dead position
    assert walks[-1][1] == dead


def test_lanes_carry_the_path_to_a_dead_position_several_lanes_in(monkeypatch):
    walks = _lanes(monkeypatch, 256, 128)
    rng = np.random.default_rng(53)
    code = huffman_build(np.arange(8), [40, 20, 10, 5, 3, 2, 1, 1])
    # symbol 7 is last in canonical order: the code without it keeps
    # every other codeword
    symbols = rng.choice(np.arange(7), size=20000)
    symbols[3000] = 7
    payload, nbits = huffman_encode(symbols, code)
    dead = sum(_table(code)[s] for s in symbols[:3000].tolist())
    assert dead > 20 * 256
    incomplete = _without(code, 7)
    outcome = _assert_decodes_like_reference(payload, nbits, incomplete)
    assert outcome == (f"no codeword matches (bit offset {dead})", dead)
    # every lane met the next up to the dead position, where the walk
    # resumed and stopped at once
    assert walks == [(dead, dead)]


def test_lanes_fall_back_and_resume_on_a_real_payload(monkeypatch):
    img = synth_image("mixed", 256, 256, bit_depth=16, seed=0)
    stream = compress(img, lossless=True)
    nbits = stream.payload_bit_length
    assert nbits >= huffman._LANE_MIN_BITS
    code = HuffmanCode(stream.symbols, stream.code_lengths)
    walked = _walked(monkeypatch, stream.payload, nbits, code)
    # every lane meets the next within the default overrun
    walks = _lanes(monkeypatch)
    assert huffman_decode(stream.payload, nbits, code).tolist() == walked
    assert walks == []
    # codewords of 11 to 16 bits rarely meet within 128 bits
    block = huffman._lane_geometry(code)[0]
    walks = _lanes(monkeypatch, block, 128)
    assert huffman_decode(stream.payload, nbits, code).tolist() == walked
    assert walks and walks[0][0] > 0
    # each walk covers less than a block, an overrun and a codeword, and
    # lanes resume between walks: they leave most of the payload to the
    # lanes
    most = block + 128 + code.max_length
    assert all(end - pos < most for pos, end in walks)
    assert any(pos > end for (_, end), (pos, _) in zip(walks, walks[1:]))
    assert sum(end - pos for pos, end in walks) < nbits / 2


def _walked(monkeypatch, payload, nbits, code):
    """The decode by the sequential walk from bit 0 alone."""
    with monkeypatch.context() as patch:
        patch.setattr(huffman, "_LANE_MIN_BITS", nbits + 1)
        return huffman_decode(payload, nbits, code).tolist()


def test_lanes_decode_a_medium_lossy_payload_like_the_walk(monkeypatch):
    img = synth_image("blobs", 256, 256, bit_depth=16, seed=1)
    stream = compress(img, target_cr=10.0)
    nbits = stream.payload_bit_length
    # lanes of 2**16 bits on: the old lane threshold was 2**18
    assert huffman._LANE_MIN_BITS <= nbits < 1 << 18
    code = HuffmanCode(stream.symbols, stream.code_lengths)
    assert huffman._lane_geometry(code) == (1024, 256)
    walked = _walked(monkeypatch, stream.payload, nbits, code)
    walks = []
    monkeypatch.setattr(huffman, "_walk", _recording(huffman._walk, walks))
    assert huffman_decode(stream.payload, nbits, code).tolist() == walked
    assert walks == []


def test_lanes_decode_losslessly_coded_noise_like_the_walk(monkeypatch):
    # 13- to 16-bit codewords of near-equal frequency: lanes meet late
    img = synth_image("noise", 256, 256, bit_depth=16, seed=0)
    stream = compress(img, lossless=True)
    nbits = stream.payload_bit_length
    code = HuffmanCode(stream.symbols, stream.code_lengths)
    # the longest overrun, and blocks no longer than for shorter codewords
    assert huffman._lane_geometry(code) == (4096, 2048)
    walked = _walked(monkeypatch, stream.payload, nbits, code)
    walks = []
    monkeypatch.setattr(huffman, "_walk", _recording(huffman._walk, walks))
    assert huffman_decode(stream.payload, nbits, code).tolist() == walked
    # 10 of 244 lanes fell back measured; an overrun of 1024 made 49
    assert 0 < len(walks) <= 25
    assert sum(end - pos for pos, end in walks) < nbits / 10


def test_fixed_length_code_syncs_every_lane(monkeypatch):
    walks = _lanes(monkeypatch)
    rng = np.random.default_rng(59)
    code = HuffmanCode(np.arange(8), np.full(8, 3))
    symbols = rng.integers(0, 8, size=(1 << 19) // 3 + 1)
    payload, nbits = huffman_encode(symbols, code)
    assert nbits >= 1 << 19
    # lanes a multiple of 3 bits apart start on codewords: all meet
    assert huffman_decode(payload, nbits, code).tolist() == symbols.tolist()
    assert walks == []
    # 1024 bits apart, two lanes in three would start off every codeword
    # and never meet the true path; the walk decodes their blocks
    assert huffman._lane_geometry(code) == (1023, 256)
    code._gcd = 1
    assert huffman._lane_geometry(code) == (1024, 256)
    assert huffman_decode(payload, nbits, code).tolist() == symbols.tolist()
    assert walks


def test_decode_peak_memory_per_payload_bit():
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    stream = compress(img, lossless=True)
    code = HuffmanCode(stream.symbols, stream.code_lengths)
    tracemalloc.start()
    try:
        huffman_decode(stream.payload, stream.payload_bit_length, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * stream.payload_bit_length


def _decode_peak_per_bit(payload, nbits, code) -> float:
    tracemalloc.start()
    try:
        huffman_decode(payload, nbits, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / nbits


def test_decode_peak_memory_per_payload_bit_with_short_codewords():
    # CR 5: 2-bit shortest codewords, so many symbols per payload bit
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    stream = compress(img, target_cr=5.0)
    assert stream.code_lengths.min() == 2
    code = HuffmanCode(stream.symbols, stream.code_lengths)
    assert _decode_peak_per_bit(stream.payload, stream.payload_bit_length, code) <= 12.5


def test_decode_peak_memory_per_payload_bit_with_a_one_bit_codeword():
    # the tallest lane table: a step can be a single bit
    rng = np.random.default_rng(61)
    code = huffman_build([0, 1, 2, 3], [8, 4, 2, 2])
    assert _table(code)[0] == 1
    symbols = rng.choice(4, size=600_000, p=[0.5, 0.25, 0.125, 0.125])
    payload, nbits = huffman_encode(symbols, code)
    assert nbits >= 1 << 20
    assert _decode_peak_per_bit(payload, nbits, code) <= 20.5


def test_decoding_builds_no_codeword_dicts():
    img = synth_image("blobs", 64, 64, bit_depth=16, seed=3)
    stream = compress(img, lossless=True)
    code = HuffmanCode(stream.symbols, stream.code_lengths)
    symbols = huffman_decode(stream.payload, stream.payload_bit_length, code)
    assert "_entries" not in code.__dict__
    # the encoder derives its table on first use, and it reproduces the
    # payload from what was decoded
    assert huffman_encode(symbols, code) == (stream.payload, stream.payload_bit_length)
    assert "_entries" in code.__dict__


def _encode_by_join(symbols, code):
    """Reference encoder: joins the codewords as strings of bits and packs
    them; no per-symbol numpy."""
    table = _codewords(code)
    try:
        bits = "".join([table[s] for s in symbols])
    except KeyError as exc:
        raise HuffmanError(f"symbol {exc.args[0]} not in code table") from None
    if not bits:
        return b"", 0
    arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    return np.packbits(arr).tobytes(), len(bits)


def _encoded(encode, symbols, code):
    try:
        return encode(symbols, code)
    except HuffmanError as exc:
        return str(exc)


def _assert_encodes_like_join(symbols, code):
    listed = symbols.tolist() if isinstance(symbols, np.ndarray) else symbols
    expected = _encoded(_encode_by_join, listed, code)
    assert _encoded(huffman_encode, symbols, code) == expected
    return expected


def test_encoder_matches_join_on_random_codes():
    rng = np.random.default_rng(67)
    chunk = huffman._ENCODE_TOKENS
    wide = 0
    for i, code in enumerate(_random_codes(rng)):
        wide += code._entries[2] is not None
        alphabet = code.symbols
        # a partial word carried across one and two chunk edges
        for size in (0, 1, 100) + ((chunk - 1, chunk, 2 * chunk + 7) if i % 5 == 0 else ()):
            symbols = rng.choice(alphabet, size=size)
            assert _assert_encodes_like_join(symbols, code)[1] >= size
            assert _assert_encodes_like_join(symbols.astype(np.int32), code)[1] >= size
    # symbols drawn from [-60, 60): every span is narrow
    assert wide == 0


def test_encoder_packs_across_word_and_chunk_edges():
    rng = np.random.default_rng(71)
    chunk = huffman._ENCODE_TOKENS
    # lengths 1 to 57: symbol s has length s + 1, and 56 and 57 have 57
    code = _build(_fibonacci_frequencies(58))
    lengths = _table(code)
    by_length = {n: s for s, n in sorted(lengths.items(), reverse=True)}
    symbols = rng.choice(code.symbols, size=2 * chunk + 3)
    # 57- and 1-bit codewords on both sides of each chunk edge
    for edge in (chunk, 2 * chunk):
        symbols[edge - 2 : edge + 2] = [by_length[57], by_length[1]] * 2
    # 57 + 7 bits end on the first word boundary; 57 + 57 cross the second
    symbols[:4] = [by_length[57], by_length[7], by_length[57], by_length[57]]
    widths = np.array([lengths[s] for s in symbols.tolist()])
    ends = np.cumsum(widths)
    assert ends[1] == 64 and ends[2] < 128 < ends[3]
    # many codewords end on a word boundary, many cross one
    assert np.count_nonzero(ends % 64 == 0) > 100
    assert np.count_nonzero(ends // 64 != (ends - widths) // 64) > 1000
    payload, nbits = _assert_encodes_like_join(symbols, code)
    assert nbits == ends[-1]
    assert huffman_decode(payload, nbits, code).tolist() == symbols.tolist()


INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


@pytest.mark.parametrize(
    "symbols",
    [
        [INT32_MIN, INT32_MAX, 0],  # a wide span: searched
        list(range(INT32_MIN, INT32_MIN + 40)),  # narrow spans: one table
        list(range(INT32_MAX - 39, INT32_MAX + 1)),
    ],
    ids=["wide", "narrow-low", "narrow-high"],
)
def test_encoder_looks_up_symbols_at_the_int32_limits(symbols):
    rng = np.random.default_rng(73)
    code = _build({s: int(rng.integers(1, 100)) for s in symbols})
    assert (code._entries[2] is not None) == (len(symbols) == 3)
    stream = rng.choice(np.array(symbols, dtype=np.int32), size=5000)
    for each in (stream, stream.astype(np.int64), stream.tolist()):
        payload, nbits = _assert_encodes_like_join(each, code)
        assert huffman_decode(payload, nbits, code).tolist() == stream.tolist()
    # unknown symbols next to and far from the table name the first one
    for unknown in (symbols[0] - 1, symbols[-1] + 1, 2**40, -(2**40)):
        listed = stream.tolist()
        listed[4000:4000] = [unknown, symbols[0] - 1]
        message = _assert_encodes_like_join(np.array(listed), code)
        assert message == f"symbol {unknown} not in code table"


def test_encoder_handles_empty_input_and_names_the_first_unknown_symbol():
    chunk = huffman._ENCODE_TOKENS
    code = huffman_build([1, 2, 4], [5, 3, 1])
    for empty in ([], np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)):
        assert huffman_encode(empty, code) == (b"", 0)
    # a symbol inside the table's span but not in it, in a later chunk
    symbols = np.ones(2 * chunk, dtype=np.int64)
    symbols[chunk + 5] = 3
    symbols[chunk + 9] = 9
    assert _assert_encodes_like_join(symbols, code) == "symbol 3 not in code table"
    # symbols no int64 holds, and floats, are looked up as they are
    for symbols in ([1, 2**64], [1, 2**63, -1], np.array([2**63], dtype=np.uint64), [1.5]):
        message = _assert_encodes_like_join(symbols, code)
        assert message.endswith("not in code table")
    assert _assert_encodes_like_join([1.0, 4.0], code) == huffman_encode([1, 4], code)


def test_encode_peak_memory_is_below_the_joins():
    # CR 5: 277,914 tokens; joining them as strings took 5.15 MiB
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    stream = compress(img, target_cr=5.0)
    code = HuffmanCode(stream.symbols, stream.code_lengths)
    tokens = huffman_decode(stream.payload, stream.payload_bit_length, code)
    tokens = tokens.astype(np.int32)
    tracemalloc.start()
    try:
        encoded = huffman_encode(tokens, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert encoded == (stream.payload, stream.payload_bit_length)
    assert peak <= 5.15 * 2**20


def _heap_lengths(freqs):
    """Reference builder: the heap merge with leaves seeded in symbol order
    and merges sequence-numbered, then a stack walk of the tree."""
    items = sorted(freqs.items())
    if len(items) == 1:
        return {items[0][0]: 1}
    heap = [(f, order, s, None, None) for order, (s, f) in enumerate(items)]
    heapq.heapify(heap)
    order = len(heap)
    while len(heap) > 1:
        f1, _, s1, l1, r1 = heapq.heappop(heap)
        f2, _, s2, l2, r2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, order, None, (s1, l1, r1), (s2, l2, r2)))
        order += 1
    lengths = {}
    stack = [(heap[0][2:5], 0)]
    while stack:
        (sym, left, right), depth = stack.pop()
        if sym is not None:
            lengths[sym] = depth
        else:
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
    return lengths


def _oracle_tables():
    yield {5: 9}
    for n in (2, 3, 7, 64, 1000):
        yield dict.fromkeys(range(-n // 2, n - n // 2), 3)
    # groups of 2**j symbols of one weight: ties within and across groups
    for weights in ([1, 2, 4, 8], [3, 3, 6, 12, 24], [1, 1, 2, 5]):
        counts = [w for j, w in enumerate(weights) for _ in range(1 << (j + 1))]
        yield dict(enumerate(counts))
    for n in range(2, 59):
        yield _fibonacci_frequencies(n)
    rng = np.random.default_rng(61)
    for _ in range(40):
        size = int(rng.integers(2, 3000))
        counts = np.minimum(rng.zipf(float(rng.uniform(1.2, 2.5)), size=size), 10**6)
        symbols = rng.permutation(np.arange(-size, size))[:size]
        yield dict(zip(symbols.tolist(), counts.tolist()))
    for kind, width, height in [("blobs", 64, 64), ("mixed", 255, 257)]:
        img = synth_image(kind, width, height, bit_depth=16, seed=5)
        sizer = _ProbeSizer(dwt_forward(img, 3))
        for k in range(0, 321, 20):
            symbols, counts = sizer.frequencies(_grid_config(k, 3))
            yield dict(zip(symbols.tolist(), counts.tolist()))


def test_code_lengths_equal_the_heap_builders_lengths():
    for freqs in _oracle_tables():
        symbols = sorted(freqs)
        expected = _heap_lengths(freqs)
        lengths = code_lengths([freqs[s] for s in symbols])
        assert lengths.tolist() == [expected[s] for s in symbols]
        assert _table(_build(freqs)) == expected


def _code_lengths_by_loop(counts):
    """Reference two-queue merge: bounds-checked fronts, weights summed in
    place, and depths filled root first one node at a time."""
    counts = np.asarray(counts)
    n = counts.size
    if n == 1:
        return [1]
    order = np.argsort(counts, kind="stable")
    leaves = counts[order].tolist()
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
    depths = [0] * (n - 1)
    for m in range(n - 3, -1, -1):
        depths[m] = depths[parents[n + m]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = np.array(depths)[parents[:n]] + 1
    return lengths.tolist()


def test_code_lengths_equal_the_loop_tie_for_tie():
    rng = np.random.default_rng(67)
    cases = [[5], [1, 1], [3, 1, 1], [2**40, 1, 1]]
    cases += [list(_fibonacci_frequencies(n).values()) for n in (57, 58, 59)]
    for _ in range(60):
        size = int(rng.integers(2, 2000))
        # few distinct counts: ties between leaves, merged nodes and both
        cases.append(rng.integers(1, int(rng.integers(2, 9)), size=size).tolist())
        cases.append(np.repeat(rng.integers(1, 50, size=8), size // 8 + 1).tolist())
    for counts in cases:
        lengths = code_lengths(counts)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == _code_lengths_by_loop(counts)
    assert int(code_lengths(cases[5]).max()) == 57
    assert int(code_lengths(cases[6]).max()) == 58


def test_payload_bits_equal_the_code_lengths_dot_the_counts():
    rng = np.random.default_rng(71)
    cases = [[5], [1, 1], [3, 1, 1], [2**40, 1, 1], [2**62, 2**62]]
    cases += [list(_fibonacci_frequencies(n).values()) for n in (57, 58)]
    for _ in range(60):
        size = int(rng.integers(1, 2000))
        # ties, and counts spread over many orders of magnitude
        cases.append(rng.integers(1, int(rng.integers(2, 9)), size=size).tolist())
        cases.append((2 ** rng.uniform(0, 40, size=size)).astype(np.int64).tolist())
    for counts in cases:
        bits = payload_bits(np.array(counts, dtype=np.int64))
        assert type(bits) is int
        assert bits == sum(map(operator.mul, code_lengths(counts).tolist(), counts))
    for bad in ([], [3, 0, 2], [1, -1]):
        with pytest.raises(HuffmanError):
            payload_bits(np.array(bad, dtype=np.int64))


def _code_tables_by_loop(entries):
    """Reference ``HuffmanCode`` tables from (symbol, length) pairs, built
    with Python loops and a sort: (entries, longest, limits, offset,
    (length, symbol) order, counts per length, gcd), or the HuffmanError
    message."""
    try:
        if not entries:
            raise HuffmanError("empty code table")
        if any(b <= a for (a, _), (b, _) in zip(entries, entries[1:])):
            raise HuffmanError("code table symbols do not strictly ascend")
        for sym, length in entries:
            if not 1 <= length <= MAX_CODE_LENGTH:
                raise HuffmanError(f"code length {length} for symbol {sym}")
        longest = max(length for _, length in entries)
        counts = [0] * (longest + 1)
        for _, length in entries:
            counts[length] += 1
        limits, first, base = [], [0], [0]
        next_code = 0
        for length in range(1, longest + 1):
            first.append(next_code)
            base.append(base[-1] + counts[length - 1])
            next_code += counts[length]
            if next_code > 1 << length:
                raise HuffmanError("code lengths violate the Kraft inequality")
            limits.append(next_code << (longest - length))
            next_code <<= 1
    except HuffmanError as exc:
        return str(exc)
    ordered = [s for s, _ in sorted(entries, key=lambda item: item[1])]
    offset = [(b - f) % 2**64 for b, f in zip(base, first)]
    gcd = math.gcd(*[length for length, count in enumerate(counts) if count])
    return list(entries), longest, limits, offset, ordered, counts, gcd


def _code_tables(entries):
    try:
        code = HuffmanCode([s for s, _ in entries], [n for _, n in entries])
    except HuffmanError as exc:
        return str(exc)
    return (
        list(zip(code.symbols.tolist(), code.lengths.tolist())),
        code.max_length,
        code._limits.tolist(),
        code._offset.tolist(),
        code._ordered.tolist(),
        code._counts,
        code._gcd,
    )


def test_code_tables_equal_the_loop_built_tables():
    rng = np.random.default_rng(71)
    tables = [[], [(3, 0)], [(1, 1), (2, 1), (3, 1)], [(0, MAX_CODE_LENGTH + 1), (1, 1)]]
    # two bad lengths: the first in symbol order is named
    tables.append([(1, 2), (3, 0), (5, MAX_CODE_LENGTH + 1)])
    tables += [list(_table(_build(_fibonacci_frequencies(58))).items())]
    tables += [[(s, 3) for s in range(-4, 4)]]
    for _ in range(40):
        size = int(rng.integers(1, 3000))
        symbols = rng.choice(np.arange(-5 * size, 5 * size), size=size, replace=False)
        weights = rng.zipf(1.5, size=size).clip(max=10**6)
        lengths = _table(_build(dict(zip(symbols.tolist(), weights.tolist()))))
        # the table, one entry dropped (incomplete), one length made too
        # long or too short, and the table in the random order of its
        # symbols
        entries = list(lengths.items())
        tables.append(entries)
        tables.append(entries[1:] or entries)
        bad = list(entries)
        bad[size // 2] = (bad[size // 2][0], int(rng.choice([0, MAX_CODE_LENGTH + 1, -3])))
        tables.append(bad)
        tables.append([(s, lengths[s]) for s in symbols.tolist()])
    outcomes = [_code_tables(t) for t in tables]
    assert outcomes == [_code_tables_by_loop(t) for t in tables]
    assert {o for o in outcomes if isinstance(o, str)} >= {
        "empty code table",
        "code table symbols do not strictly ascend",
        "code lengths violate the Kraft inequality",
        "code length 0 for symbol 3",
    }


# the suites above run at the widths the rule picks for their codes, 12
# bits and less; here at the wide table's, and at 1 and 7 bits, which
# leave most lengths to the limits. The width sets only the lengths,
# which the walk and the lanes read alike.
@pytest.mark.parametrize("bits", [1, 7, huffman._WIDE_TABLE_BITS])
def test_decoder_matches_reference_at_every_table_width(monkeypatch, bits):
    monkeypatch.setattr(huffman, "_table_bits", lambda code: min(code.max_length, bits))
    _check_random_codes()
    _check_truncations_and_bit_flips()
    _check_chunk_boundaries()


def test_table_width_rule_widens_only_for_long_codes():
    def width(kind, w, h, **options):
        img = synth_image(kind, w, h, bit_depth=16, seed=1)
        stream = compress(img, **options)
        return huffman._table_bits(HuffmanCode(stream.symbols, stream.code_lengths))

    # lossy codes of the benchmark's inputs keep the 12-bit table
    assert width("blobs", 256, 256, target_cr=5.0) == 12
    assert width("mixed", 2000, 2000, target_cr=20.0) == 12
    # 27% of the lossless code's space lies beyond 12 bits; its longest
    # codeword has 16
    assert width("mixed", 255, 257, lossless=True) == 16
    # codes no longer than 12 bits get a table of their longest length
    assert huffman._table_bits(huffman_build([0, 1, 2], [5, 2, 1])) == 2
