"""Entropy coder tests.

Optimality is checked against a brute-force search over all length
assignments satisfying the Kraft inequality, which is the defining
property of an optimal prefix code, independent of how the tree is
built. The decoder is checked against a plain per-bit loop.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from medlink.codec import compress
from medlink.huffman import (
    _CHUNK_BITS,
    MAX_CODE_LENGTH,
    HuffmanCode,
    HuffmanDecodeError,
    HuffmanError,
    huffman_build,
    huffman_decode,
    huffman_encode,
)
from medlink.synth import synth_image


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
    code = huffman_build({42: 10})
    assert code.lengths == {42: 1}
    payload, nbits = huffman_encode([42, 42, 42], code)
    assert nbits == 3
    assert huffman_decode(payload, nbits, code).tolist() == [42, 42, 42]


def test_three_symbol_example_is_optimal():
    freqs = {0: 1, 1: 1, 2: 2}
    code = huffman_build(freqs)
    assert code.lengths[0] == 2
    assert code.lengths[1] == 2
    assert code.lengths[2] == 1
    cost = sum(freqs[s] * code.lengths[s] for s in freqs)
    assert cost == 6
    assert cost == _brute_force_optimal_cost(freqs)


def test_weighted_cost_matches_brute_force_on_random_alphabets():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        freqs = {int(s): int(rng.integers(1, 50)) for s in range(n)}
        code = huffman_build(freqs)
        cost = sum(freqs[s] * code.lengths[s] for s in freqs)
        assert cost == _brute_force_optimal_cost(freqs)


def test_canonical_codes_ordered_by_length_then_symbol():
    code = huffman_build({10: 5, 3: 5, 7: 20, -2: 40})
    ordered = sorted(code.lengths.items(), key=lambda kv: (kv[1], kv[0]))
    values = [code.codes[s] for s, _ in ordered]
    assert values == sorted(values)
    # shorter codes are numerically-left prefixes of the space
    for (s1, l1), (s2, l2) in zip(ordered, ordered[1:]):
        assert code.codes[s1] << (l2 - l1) < code.codes[s2] + 1


def test_codes_are_prefix_free():
    rng = np.random.default_rng(3)
    freqs = {int(s): int(f) for s, f in enumerate(rng.integers(1, 100, size=40))}
    code = huffman_build(freqs)
    strings = [format(code.codes[s], f"0{code.lengths[s]}b") for s in freqs]
    for a, b in itertools.permutations(strings, 2):
        assert not a.startswith(b) or a == b


def test_mean_length_within_one_bit_of_entropy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 64))
        freqs = {int(s): int(rng.integers(1, 1000)) for s in range(n)}
        code = huffman_build(freqs)
        h0 = _entropy(freqs)
        mean = code.mean_length(freqs)
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
        code = huffman_build(freqs)
        payload, nbits = huffman_encode(symbols, code)
        assert len(payload) == (nbits + 7) // 8
        assert huffman_decode(payload, nbits, code).tolist() == [int(s) for s in symbols]


def test_code_rebuilt_from_lengths_decodes_the_same():
    freqs = {1: 3, 2: 9, 5: 1, -4: 7}
    code = huffman_build(freqs)
    payload, nbits = huffman_encode([1, 2, 5, -4, 2], code)
    rebuilt = HuffmanCode(dict(code.lengths))
    assert rebuilt == code
    assert huffman_decode(payload, nbits, rebuilt).tolist() == [1, 2, 5, -4, 2]


def test_empty_alphabet_rejected():
    with pytest.raises(HuffmanError, match="empty"):
        huffman_build({})
    with pytest.raises(HuffmanError, match="empty"):
        huffman_build({3: 0})


def test_unknown_symbol_rejected_on_encode():
    code = huffman_build({1: 1, 2: 1})
    with pytest.raises(HuffmanError, match="not in code table"):
        huffman_encode([1, 3], code)


def test_truncated_codeword_reports_bit_offset():
    code = huffman_build({0: 8, 1: 4, 2: 2, 3: 1, 4: 1})
    payload, nbits = huffman_encode([0, 1, 2, 3, 4] * 4, code)
    with pytest.raises(HuffmanDecodeError, match="truncated codeword") as err:
        huffman_decode(payload, nbits - 1, code)  # cuts the last codeword
    assert err.value.bit_offset == nbits - code.lengths[4]


def test_unmatchable_bits_report_offset():
    # an incomplete code (Kraft sum 1/4) cannot decode a run of ones
    sparse = HuffmanCode({5: 2})
    with pytest.raises(HuffmanDecodeError) as err:
        huffman_decode(b"\xe0", 3, sparse)
    assert err.value.bit_offset == 0


def test_bit_length_beyond_payload_rejected():
    code = huffman_build({0: 1, 1: 1})
    with pytest.raises(HuffmanDecodeError):
        huffman_decode(b"\x00", 9, code)


def test_invalid_length_table_rejected():
    with pytest.raises(HuffmanError):
        HuffmanCode({1: 1, 2: 1, 3: 1})  # Kraft sum 1.5
    with pytest.raises(HuffmanError):
        HuffmanCode({1: 0})


def test_code_lengths_are_capped():
    assert HuffmanCode({0: MAX_CODE_LENGTH, 1: 1}).max_length == MAX_CODE_LENGTH
    with pytest.raises(HuffmanError, match="code length"):
        HuffmanCode({0: MAX_CODE_LENGTH + 1, 1: 1})
    # Fibonacci frequencies build a chain: n symbols reach length n - 1
    assert huffman_build(_fibonacci_frequencies(58)).max_length == 57
    with pytest.raises(HuffmanError, match="code length 58"):
        huffman_build(_fibonacci_frequencies(59))


def _decode_bit_by_bit(data, bit_length, code):
    """Reference decoder: reads one bit at a time and looks the bits read
    so far up in a (length, codeword) -> symbol dict; no numpy."""
    if bit_length < 0 or bit_length > len(data) * 8:
        raise HuffmanDecodeError("bit length exceeds payload", len(data) * 8)
    table = {(code.lengths[sym], c): sym for sym, c in code.codes.items()}
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
    yield HuffmanCode({7: 1})
    yield HuffmanCode({-3: 4})
    yield huffman_build(_fibonacci_frequencies(58))
    for _ in range(12):
        size = int(rng.integers(2, 40))
        symbols = rng.choice(np.arange(-60, 60), size=size, replace=False)
        weights = rng.integers(1, 1 << int(rng.integers(1, 20)), size=size)
        lengths = huffman_build(dict(zip(symbols.tolist(), weights.tolist()))).lengths
        yield HuffmanCode(lengths)
        kept = rng.permutation(sorted(lengths))[: max(1, size // 2)]
        yield HuffmanCode({sym: lengths[sym] for sym in kept.tolist()})


def test_decoder_matches_reference_on_random_codes():
    rng = np.random.default_rng(41)
    for code in _random_codes(rng):
        alphabet = np.array(sorted(code.lengths))
        symbols = rng.choice(alphabet, size=int(rng.integers(1, 400)))
        payload, nbits = huffman_encode(symbols, code)
        decoded = huffman_decode(payload, nbits, code)
        assert decoded.dtype == np.int64
        assert decoded.tolist() == symbols.tolist()
        assert _assert_decodes_like_reference(payload, nbits, code) == symbols.tolist()
        # random bits hit dead starts and cut codewords in incomplete codes
        noise = rng.integers(0, 256, size=int(rng.integers(1, 40)), dtype=np.uint8)
        for bits in (noise.size * 8, int(rng.integers(0, noise.size * 8))):
            _assert_decodes_like_reference(noise.tobytes(), bits, code)


def test_decoder_matches_reference_across_chunk_boundaries():
    rng = np.random.default_rng(43)
    code = huffman_build(_fibonacci_frequencies(58))
    alphabet = np.array(sorted(code.lengths))
    # uniform draws average about 30 bits a codeword: several chunks
    symbols = rng.choice(alphabet, size=9000)
    payload, nbits = huffman_encode(symbols, code)
    assert nbits > 3 * _CHUNK_BITS
    widths = np.array([code.lengths[s] for s in symbols.tolist()])
    starts = np.cumsum(widths) - widths
    for boundary in range(_CHUNK_BITS, nbits, _CHUNK_BITS):
        assert np.any((starts < boundary) & (starts + widths > boundary))
    assert _assert_decodes_like_reference(payload, nbits, code) == symbols.tolist()
    # symbol 1 is last in canonical order, so the code without it keeps
    # every other codeword and stops at symbol 1's only occurrence
    symbols[symbols == 1] = 2
    symbols[5000] = 1
    payload, nbits = huffman_encode(symbols, code)
    dead = sum(code.lengths[s] for s in symbols[:5000].tolist())
    assert dead > 2 * _CHUNK_BITS
    incomplete = HuffmanCode({s: n for s, n in code.lengths.items() if s != 1})
    outcome = _assert_decodes_like_reference(payload, nbits, incomplete)
    assert outcome == (f"no codeword matches (bit offset {dead})", dead)


def test_decoder_matches_reference_on_every_truncation_and_bit_flip():
    rng = np.random.default_rng(47)
    code = huffman_build({0: 40, 1: 20, 2: 10, 3: 5, 4: 3, 5: 2, 6: 1, 7: 1})
    incomplete = HuffmanCode({s: n for s, n in code.lengths.items() if s != 5})
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


def test_decode_peak_memory_per_payload_bit():
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    stream = compress(img, lossless=True)
    code = HuffmanCode(stream.code_lengths)
    tracemalloc.start()
    try:
        huffman_decode(stream.payload, stream.payload_bit_length, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * stream.payload_bit_length
