import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import medlink.codec as codec
from medlink import _split, huffman
from medlink.bitstream import BitstreamError, CompressedBitstream
from medlink.codec import (
    DecodeError,
    RateControlError,
    _detokenize,
    _ProbeSizer,
    _tokenize,
    _value_table,
    _zero_runs,
    compress,
    decompress,
)
from medlink.dwt import COEFFICIENT_BOUND, SubbandPyramid, dwt_forward, dwt_inverse
from medlink.huffman import huffman_build, huffman_encode
from medlink.image_io import MAX_SAMPLES, GrayImage
from medlink.quantize import QuantizerConfig, quantize
from medlink.synth import synth_image


def _random_image(rng, w=None, h=None, depth=8):
    w = w or int(rng.integers(4, 48))
    h = h or int(rng.integers(4, 48))
    return GrayImage(w, h, depth, rng.integers(0, 1 << depth, size=(h, w)))


def _tokens_via_pairs(flat):
    """Oracle tokenization: a plain loop that emits the pair [0, run] for
    each zero run and passes nonzero values through; no numpy."""
    tokens = []
    run = 0
    for value in flat.tolist():
        if value == 0:
            run += 1
            continue
        if run:
            tokens.extend([0, run])
            run = 0
        tokens.append(value)
    if run:
        tokens.extend([0, run])
    return tokens


# empty, [0], [5], all zeros, no zeros, zeros at both ends, a long run
# followed by one nonzero
EDGE_STREAMS = [
    [],
    [0],
    [5],
    [0] * 9,
    [3, -1, 8, 2000],
    [0, 0, 4, 0, -2, 0, 0, 0],
    [0] * 300 + [-7],
]


def test_tokenizer_matches_pair_based_oracle():
    rng = np.random.default_rng(31)
    draws = (
        rng.choice([0, 0, 0, 1, -1, 4, -9, 2000], size=int(rng.integers(0, 500)))
        for _ in range(50)
    )
    for flat in [*EDGE_STREAMS, *draws]:
        flat = np.asarray(flat, dtype=np.int64)
        assert _tokenize(flat).tolist() == _tokens_via_pairs(flat)


def test_detokenize_inverts_tokenize():
    rng = np.random.default_rng(37)
    draws = (
        rng.choice([0, 0, 0, 0, 0, 2, -2, 70], size=int(rng.integers(1, 500)))
        for _ in range(50)
    )
    for flat in [*EDGE_STREAMS, *draws]:
        flat = np.asarray(flat, dtype=np.int64)
        tokens = _tokenize(flat)
        assert np.array_equal(_detokenize(tokens, flat.size), flat)


def _expand_via_repeat(tokens):
    """Reference detokenizer: every unit (a value, or a run's 0 marker)
    repeated by its count with np.repeat, as int32."""
    tokens = np.asarray(tokens, dtype=np.int64)
    operands = np.flatnonzero(tokens == 0) + 1
    units = np.delete(tokens, operands)
    counts = np.ones(units.size, dtype=np.int64)
    counts[units == 0] = tokens[operands]
    return np.repeat(units, counts).astype(np.int32)


def _random_tokens(rng, units):
    """A valid token stream of ``units`` units, each a nonzero value (int32
    extremes included) or a zero run, runs next to runs included."""
    values = rng.choice([-(2**31), -9, -1, 1, 4, 2**31 - 1], size=units).tolist()
    runs = rng.integers(-40, 40, size=units).tolist()
    tokens = []
    for value, run in zip(values, runs):
        tokens.extend([0, run] if run > 0 else [value])
    return tokens


@pytest.mark.parametrize("chunk", [5, codec._TOKEN_CHUNK])
def test_int32_tokens_match_the_oracles_across_chunk_edges(monkeypatch, chunk):
    monkeypatch.setattr(codec, "_TOKEN_CHUNK", chunk)
    rng = np.random.default_rng(41)
    # at the default chunk, a few streams of several chunks
    sizes = [int(rng.integers(0, 60)) for _ in range(30)] if chunk < 100 else [3 * chunk] * 3
    for units in sizes:
        tokens = np.array(_random_tokens(rng, units), dtype=np.int32)
        flat = _detokenize(tokens, _expand_via_repeat(tokens).size)
        assert flat.dtype == np.int32
        assert np.array_equal(flat, _expand_via_repeat(tokens))
        assert np.array_equal(_detokenize(tokens.astype(np.int64), flat.size), flat)
        retokenized = _tokenize(flat)
        assert retokenized.dtype == np.int32
        assert retokenized.tolist() == _tokens_via_pairs(flat)


def test_hostile_run_lengths_are_refused_before_allocating():
    big = 2**31 - 1
    # the runs total 2**32 + 10: an int32 sum would wrap to the expected 10
    hostile = [
        ([0, big, 0, big, 0, 12], 10, 2**32 + 10),
        ([0, big, 3, 0, big], 7, 2**32 - 1),
        ([5, 0, big], 100, big + 1),
    ]
    tracemalloc.start()
    try:
        for tokens, expected, total in hostile:
            with pytest.raises(
                DecodeError, match=f"stream expands to {total} coefficients, expected {expected}$"
            ):
                _detokenize(np.array(tokens, dtype=np.int32), expected)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_detokenize_rejects_corrupt_streams():
    with pytest.raises(DecodeError, match="dangling"):
        _detokenize(np.array([5, 0], dtype=np.int64), 6)
    with pytest.raises(DecodeError, match="non-positive"):
        _detokenize(np.array([0, 0, 5], dtype=np.int64), 1)
    with pytest.raises(DecodeError, match="non-positive"):
        _detokenize(np.array([0, -3], dtype=np.int64), 1)
    with pytest.raises(DecodeError, match="expected"):
        _detokenize(np.array([0, 4], dtype=np.int64), 5)


def test_lossless_round_trip_100_random_images():
    rng = np.random.default_rng(1009)
    for i in range(100):
        depth = 8 if i % 2 else 16
        img = _random_image(rng, depth=depth)
        levels = int(rng.integers(1, 3))
        stream = compress(img, levels=levels, lossless=True)
        assert decompress(stream) == img


def test_lossless_via_container_bytes():
    rng = np.random.default_rng(7)
    img = _random_image(rng, 31, 14, 16)
    data = compress(img, lossless=True).to_bytes()
    assert decompress(CompressedBitstream.from_bytes(data)) == img


def test_smooth_image_reaches_target_losslessly():
    img = synth_image("ramp", 128, 128, bit_depth=16, seed=0)
    stream = compress(img, target_cr=2.0)
    assert stream.steps == (1,) * len(stream.steps)
    assert decompress(stream) == img


def test_achieved_ratio_meets_target():
    for kind, seed in [("blobs", 3), ("mixed", 4)]:
        img = synth_image(kind, 256, 256, bit_depth=16, seed=seed)
        stream = compress(img, target_cr=20.0)
        achieved = img.total_bits / (8 * stream.byte_length)
        assert achieved >= 20.0
        recon = decompress(stream)
        assert recon.width == img.width and recon.height == img.height


def test_higher_target_never_yields_more_bits():
    img = synth_image("blobs", 128, 128, bit_depth=16, seed=9)
    sizes = []
    for target in (2.0, 5.0, 10.0, 20.0, 40.0):
        sizes.append(compress(img, target_cr=target).byte_length)
    assert all(b >= a for a, b in zip(sizes[1:], sizes))


def test_unreachable_target_raises_with_best_ratio():
    rng = np.random.default_rng(13)
    img = _random_image(rng, 8, 8, 8)  # 512-bit original, header alone is bigger
    with pytest.raises(RateControlError) as err:
        compress(img, target_cr=50.0)
    assert err.value.best_cr < 50.0


def test_compression_is_deterministic():
    img = synth_image("mixed", 64, 64, bit_depth=16, seed=21)
    a = compress(img, target_cr=10.0).to_bytes()
    b = compress(img, target_cr=10.0).to_bytes()
    assert a == b


def test_decompress_of_truncated_payload_is_an_error():
    img = synth_image("blobs", 64, 64, bit_depth=16, seed=2)
    stream = compress(img, target_cr=10.0)
    clipped = CompressedBitstream(
        width=stream.width,
        height=stream.height,
        bit_depth=stream.bit_depth,
        levels=stream.levels,
        steps=stream.steps,
        symbols=stream.symbols,
        code_lengths=stream.code_lengths,
        payload=stream.payload[: len(stream.payload) // 2],
        payload_bit_length=stream.payload_bit_length // 2,
    )
    with pytest.raises(DecodeError):
        decompress(clipped)


# 79 bytes declaring a 50000x50000 image whose payload is one zero run
# over all of it; decoding would allocate ~18.6 GiB
OVERSIZED_CONTAINER = CompressedBitstream(
    width=50000,
    height=50000,
    bit_depth=16,
    levels=3,
    steps=(1,) * 10,
    symbols=np.array([0, 50000 * 50000]),
    code_lengths=np.array([1, 1], dtype=np.uint8),
    payload=b"\x40",  # tokens 0, 2.5e9
    payload_bit_length=2,
).to_bytes()

_DECODE_UNDER_1_GIB = """
import resource, sys
from medlink.bitstream import BitstreamError, CompressedBitstream
from medlink.codec import decompress
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
try:
    decompress(CompressedBitstream.from_bytes(sys.stdin.buffer.read()))
except BitstreamError as exc:
    print(type(exc).__name__, exc.offset)
"""


def test_oversized_container_is_refused_in_bounded_memory():
    assert len(OVERSIZED_CONTAINER) == 79
    src = str(Path(codec.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _DECODE_UNDER_1_GIB],
        input=OVERSIZED_CONTAINER,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, b"BitstreamError 5\n"), result.stderr


def test_compress_refuses_images_above_the_sample_ceiling():
    width, height = 8192, MAX_SAMPLES // 8192 + 1
    img = GrayImage(width, height, 8, np.broadcast_to(np.uint8(0), (height, width)))
    tracemalloc.start()
    try:
        with pytest.raises(codec.CodecError, match="exceeds"):
            compress(img, target_cr=20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_synth_image_refuses_sizes_above_the_sample_ceiling():
    for width, height in [(8192, 8193), (50000, 50000)]:
        with pytest.raises(ValueError, match="exceeds"):
            synth_image("blobs", width, height)


def test_decompress_of_zero_level_stream_is_an_error():
    # from_bytes rejects such containers (no levels, too deep for the image,
    # a zero step or a step table of the wrong length); a stream built in
    # memory must still fail as a DecodeError
    for levels, steps, message in [
        (0, (1,), "levels must be"),
        (5, (1,) * 16, "5 levels too deep"),
        (3, (1,) * 9 + (0,), "quantizer steps must be >= 1"),
        (3, (1,) * 9, "step table needs 1 \\+ 3\\*levels entries"),
    ]:
        stream = compress(synth_image("blobs", 16, 16, bit_depth=8, seed=1), lossless=True)
        stream.levels, stream.steps = levels, steps
        with pytest.raises(DecodeError, match=message):
            decompress(stream)


@pytest.mark.parametrize("levels", [10, 10**9])
def test_too_deep_levels_are_rejected_before_the_image_is_copied(levels):
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{levels} levels too deep"):
            compress(img, target_cr=20.0, levels=levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * img.pixels.nbytes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hostile_steps_and_indices_decode_to_the_clamped_stream(seed):
    # u32 steps up to 2**32 - 1 and indices at the int32 limits: index *
    # step must neither wrap nor raise, and lands clamped to the bound
    rng = np.random.default_rng(seed)
    width, height, levels = 16, 12, 2
    indices = [2**31 - 1, -(2**31), 2**20, -1, 0, 0, 0, 5, -300]
    flat = rng.choice(indices, size=width * height)
    steps = tuple(int(s) for s in rng.choice([1, 3, 65536, 2**31, 2**32 - 1], size=7))
    tokens = _tokenize(flat)
    code = huffman_build(*_value_table(tokens))
    payload, bits = huffman_encode(tokens, code)
    container = CompressedBitstream(
        width, height, 16, levels, steps, code.symbols, code.lengths, payload, bits
    ).to_bytes()
    decoded = decompress(CompressedBitstream.from_bytes(container))
    # the reference: exact Python-int products, clamped, in an int64 stream
    reference = SubbandPyramid(levels, width, height, 16, flat.astype(np.int64))
    for plane, step in zip(reference.plane_arrays(), steps):
        clamped = [min(max(v * step, -COEFFICIENT_BOUND), COEFFICIENT_BOUND)
                   for v in plane.ravel().tolist()]
        plane[...] = np.reshape(clamped, plane.shape)
    assert decoded == dwt_inverse(reference)
    assert 0 < decoded.pixels.mean() < decoded.max_sample


def test_stream_records_quantizer_and_geometry():
    img = synth_image("blobs", 96, 64, bit_depth=16, seed=5)
    stream = compress(img, target_cr=15.0, levels=2)
    assert (stream.width, stream.height) == (96, 64)
    assert stream.levels == 2
    assert len(stream.steps) == 1 + 3 * 2
    assert stream.to_bytes()[15] == 1  # flags: dead-zone quantization


def test_invalid_target_rejected():
    img = synth_image("ramp", 16, 16, bit_depth=8, seed=0)
    with pytest.raises(codec.CodecError):
        compress(img, target_cr=0.5)


def test_nan_target_rejected():
    # NaN compares false with everything: it once passed the check and
    # bisected to the coarsest grid point
    img = synth_image("blobs", 64, 64, bit_depth=16, seed=1)
    with pytest.raises(codec.CodecError, match="ratio nan must be >= 1"):
        compress(img, target_cr=float("nan"))


def test_rate_search_returns_a_passing_point_whose_predecessor_fails():
    # a ramp's container size does not fall monotonically along the grid:
    # bisection lands on k = 164 while 159, 161 and 162 pass as well
    img = synth_image("ramp", 256, 256, bit_depth=16, seed=1)
    target = 113.8
    sizer = _ProbeSizer(dwt_forward(img, 3))

    def passes(k):
        return img.total_bits / sizer.size(codec._grid_config(k, 3))[0] >= target

    stream = compress(img, target_cr=target, levels=3)
    assert stream.steps == codec._grid_config(164, 3).steps
    assert passes(164) and not passes(163)
    assert [k for k in range(150, 164) if passes(k)] == [159, 161, 162]


def _exact_rate_search(pyramid, raw_bits, target_cr):
    """Reference search: the same bisection, with every probe sized
    exactly."""
    sizer = _ProbeSizer(pyramid)

    def size(k):
        return sizer.size(codec._grid_config(k, pyramid.levels))

    coarsest_cr = raw_bits / size(codec._SCALE_GRID_MAX)[0]
    if coarsest_cr < target_cr:
        raise RateControlError(target_cr, coarsest_cr)
    lo, hi = 0, codec._SCALE_GRID_MAX
    while lo < hi:
        mid = (lo + hi) // 2
        if raw_bits / size(mid)[0] >= target_cr:
            hi = mid
        else:
            lo = mid + 1
    return (codec._grid_config(lo, pyramid.levels), *size(lo)), lo


@pytest.mark.parametrize(
    "kind,width,height,depth,levels,target",
    [
        ("ramp", 256, 256, 16, 3, 113.8),
        ("ramp", 61, 47, 8, 1, 1.0),
        ("blobs", 256, 256, 16, 3, 40.0),
        ("blobs", 83, 129, 8, 3, 5.0),
        ("mixed", 128, 96, 16, 3, 20.0),
        ("mixed", 77, 77, 16, 1, 10.0),
        ("noise", 64, 64, 16, 3, 2.5),
        ("noise", 45, 38, 8, 1, 1.3),
    ],
)
def test_rate_search_matches_a_bisection_that_sizes_every_probe(
    kind, width, height, depth, levels, target
):
    img = synth_image(kind, width, height, bit_depth=depth, seed=7)
    pyramid = dwt_forward(img, levels)
    (*expected, table), k = _exact_rate_search(pyramid, img.total_bits, target)
    *searched, (symbols, counts) = codec._rate_search(pyramid, img.total_bits, target)
    assert searched == expected
    # the chosen probe's token table, which the encode builds its code from
    assert symbols.tolist() == table[0].tolist() and counts.tolist() == table[1].tolist()
    if kind == "ramp" and target == 113.8:
        assert k == 164
    if target == 1.0:
        assert k == 0


def test_unreachable_target_reports_the_exact_coarsest_ratio():
    img = synth_image("noise", 64, 64, bit_depth=8, seed=7)
    pyramid = dwt_forward(img, 3)
    with pytest.raises(RateControlError) as reference:
        _exact_rate_search(pyramid, img.total_bits, 1e6)
    with pytest.raises(RateControlError) as searched:
        codec._rate_search(pyramid, img.total_bits, 1e6)
    assert searched.value.best_cr == reference.value.best_cr


def test_entropy_bound_never_exceeds_the_exact_size():
    # every distinct grid config of each image kind, at odd sizes, both
    # depths and levels 1 and 3; on noise the bound comes within 1e-4 of
    # the exact size
    worst = 0.0
    for seed, (kind, width, height, depth, levels) in enumerate(
        [
            ("ramp", 40, 41, 8, 1),
            ("ramp", 40, 41, 16, 3),
            ("noise", 29, 35, 8, 3),
            ("noise", 29, 35, 16, 1),
            ("blobs", 40, 33, 16, 3),
            ("mixed", 33, 39, 8, 1),
        ]
    ):
        img = synth_image(kind, width, height, bit_depth=depth, seed=seed)
        sizer = _ProbeSizer(dwt_forward(img, levels))
        grid = range(codec._SCALE_GRID_MAX + 1)
        for config in {codec._grid_config(k, levels) for k in grid}:
            bound, exact = sizer.bound(config), sizer.size(config)[0]
            assert bound <= exact, (kind, depth, levels, config.steps)
            worst = max(worst, bound / exact)
    assert worst > 0.9999


def test_bound_spares_the_zero_run_scan_of_hopeless_probes(monkeypatch):
    probes, scans = [], []

    def counting(log, fn):
        def wrapper(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_ProbeSizer, "nonzero", counting(probes, _ProbeSizer.nonzero))
    monkeypatch.setattr(codec, "_zero_runs", counting(scans, _zero_runs))
    img = synth_image("blobs", 256, 256, bit_depth=16, seed=21)
    compress(img, target_cr=40.0)
    # the final encode tokenizes once more
    assert len(scans) - 1 < len(probes)


@pytest.mark.parametrize("offset", [-1, 1])
def test_a_mispriced_header_is_a_codec_error(monkeypatch, offset):
    header_size = codec.header_size
    monkeypatch.setattr(
        codec, "header_size", lambda levels, symbols: header_size(levels, symbols) + offset
    )
    img = synth_image("blobs", 64, 64, bit_depth=16, seed=1)
    with pytest.raises(codec.CodecError, match="size accounting mismatch"):
        compress(img, target_cr=10.0)


def test_scale_grid_is_fine_enough_not_to_overshoot():
    # first grid point at or past the target should stay well below 1.25x
    for kind, seed in [("blobs", 1), ("mixed", 2), ("noise", 3)]:
        img = synth_image(kind, 128, 128, bit_depth=16, seed=seed)
        stream = compress(img, target_cr=20.0)
        achieved = img.total_bits / (8 * stream.byte_length)
        assert 20.0 <= achieved <= 25.0


def _random_pyramid(rng, width, height, levels, kind):
    """A coefficient stream of the given geometry, filled plane by plane
    by ``kind``: "zeros", "nonzero" (no coefficient is 0), "runs" (mostly
    zeros, with whole zero planes so runs cross plane boundaries) or
    "wide" (values spread over +-2**20, so value tables take the sorting
    path)."""

    def plane(shape):
        if kind == "zeros":
            return np.zeros(shape, dtype=np.int64)
        if kind == "wide":
            return rng.integers(-(1 << 20), 1 << 20, size=shape)
        values = rng.integers(1, 9000, size=shape) * rng.choice([-1, 1], size=shape)
        if kind == "runs":
            values[rng.random(shape) < 0.9] = 0
            if rng.random() < 0.3:
                values[...] = 0
        return values

    stream = np.empty(width * height, dtype=np.int64)
    pyramid = SubbandPyramid(levels, width, height, 16, stream)
    for view in pyramid.plane_arrays():
        view[...] = plane(view.shape)
    return pyramid


def test_probe_sizer_frequencies_match_tokenized_stream():
    rng = np.random.default_rng(53)
    geometries = [(2, 2, 1), (4, 4, 2), (3, 5, 1), (9, 8, 3), (33, 17, 2), (64, 40, 3)]
    kinds = ["zeros", "nonzero", "runs", "wide"]
    for trial in range(96):
        width, height, levels = geometries[trial % len(geometries)]
        pyramid = _random_pyramid(rng, width, height, levels, kinds[trial % len(kinds)])
        sizer = _ProbeSizer(pyramid)
        for _ in range(6):
            steps = rng.choice([1, 1, 2, 3, 5, 64, 255, 1000, 4096], size=1 + 3 * levels)
            config = QuantizerConfig(tuple(steps))
            tokens = _tokenize(quantize(pyramid, config).coefficients)
            expected = Counter(tokens.tolist())
            symbols, counts = sizer.frequencies(config)
            assert symbols.tolist() == sorted(expected)
            assert counts.tolist() == [expected[s] for s in sorted(expected)]


def test_compress_builds_one_huffman_code(monkeypatch):
    builds = []

    def counting(*args):
        code = huffman_build(*args)
        builds.append(len(code))
        return code

    monkeypatch.setattr(codec, "huffman_build", counting)
    img = synth_image("blobs", 64, 64, bit_depth=16, seed=1)
    stream = compress(img, target_cr=10.0)
    # the probes are priced from code lengths; only the final encode builds
    assert builds == [stream.symbols.size]


def test_probe_sizer_total_bits_match_container():
    rng = np.random.default_rng(59)
    for i in range(24):
        depth = 8 if i % 2 else 16
        img = _random_image(rng, int(rng.integers(8, 48)), int(rng.integers(8, 48)), depth)
        levels = int(rng.integers(1, 4))
        target = float(rng.choice([1, 1.5, 2, 4]))
        stream = compress(img, target_cr=target, levels=levels)
        sizer = _ProbeSizer(dwt_forward(img, levels))
        config = QuantizerConfig(stream.steps)
        assert sizer.size(config)[:2] == (
            8 * len(stream.to_bytes()),
            stream.payload_bit_length,
        )


# sha256 over the containers of each image (synth seed 5) at ratios
# 1, 2, 5, 20 and 40, recorded before rate control sized probes from
# value tables; CR 1 is decided by the lossless end of the grid
RATE_CONTROL_SHA256 = {
    ("blobs", 64, 64, 8): "d79f5494e8ff315ebc98f3aa81386412ffd5f8ddcdd1984f165d78fa4578242b",
    ("blobs", 64, 64, 16): "36138925039dd996fcb2af6fa3ad8dd60f554edd9c01b3cc94f9bdaab8c619f5",
    ("blobs", 255, 257, 8): "fc59d9de4675ef4527d3e01b5b0b02170a43e6f7b2795f07e3616937a0553fe5",
    ("blobs", 255, 257, 16): "6dd6fbf1c6c74c927e027f9cdda4156a21e08381ed63eda01e91eb379cfe0d24",
    ("mixed", 64, 64, 8): "969b3df164a11d89719fa0107bec0d3776f61c505fa6838f345e854368e2ff24",
    ("mixed", 64, 64, 16): "c305b49e74bfa8d7bf2e8e0bc88e265eef9a1508c9e3caf1550b31c9967f5e73",
    ("mixed", 255, 257, 8): "fa017222ef2676af985de878ba252b2bb96509e3c1e7f1816897eea986aea1fe",
    ("mixed", 255, 257, 16): "e9b491ba34473fb669e577f52a4338565218a17f438bdf8e50322f6c2c10e796",
    ("ramp", 64, 64, 8): "387713e8168b892f76c3583d389f23dcc0fad42c76c78fd2263529ec308013fd",
    ("ramp", 64, 64, 16): "deb596892532936d1c90657488aa8e91d74ffe9d3637cbcd790a4e0b6cfc18bc",
    ("ramp", 255, 257, 8): "5a5d3461d77b991e31818d548439e9b2a37e9859b060fe008942b181b097caa5",
    ("ramp", 255, 257, 16): "04e582816f5295728dcbbdb53b1af04195f47697cb4288f733534b014ac79efc",
    ("noise", 64, 64, 8): "5e70e2d9da8486aacaf305c778c2d4c36e6350392aea168474481f32678a87ed",
    ("noise", 64, 64, 16): "24b49b2393c332fb6c18b082a73afb0f0ed0bd9cf1df5d4bbba8c07267df6112",
    ("noise", 255, 257, 8): "1ed62b9e5d122375040e4682155cff697cb38976774fb287b2fe7a9fdc6916d5",
    ("noise", 255, 257, 16): "473b69b2e8c95b4c11f5dbecefb8f86c03ea6f808bc1c68c29007aa82c62641d",
}
# lossless containers of blobs 255x257x16 and noise 64x64x8
LOSSLESS_SHA256 = (
    "fec9f9aa03a4a0c4955f711b9ed8969b3d2eed9a8427cfda792faa480abecb49",
    "72ae483394a7d2dd7f60cfda106508eff6d143bc826f1ee80ed4440071cce0b8",
)


def _containers_sha256(kind, width, height, depth, ratios, **options):
    img = synth_image(kind, width, height, bit_depth=depth, seed=5)
    sha = hashlib.sha256()
    for cr in ratios:
        sha.update(compress(img, target_cr=cr, **options).to_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize(
    "image", sorted(RATE_CONTROL_SHA256), ids=lambda image: "-".join(map(str, image))
)
def test_rate_control_bytes_are_pinned(image):
    assert _containers_sha256(*image, (1, 2, 5, 20, 40)) == RATE_CONTROL_SHA256[image]


def test_lossless_bytes_are_pinned():
    lossless = (
        _containers_sha256("blobs", 255, 257, 16, (1,), lossless=True),
        _containers_sha256("noise", 64, 64, 8, (1,), lossless=True),
    )
    assert lossless == LOSSLESS_SHA256


def _peak_memory(fn, *args, **options) -> int:
    tracemalloc.start()
    try:
        fn(*args, **options)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compress_peak_memory_is_bounded():
    # the int32 stream and the sizer's magnitudes take 4x the pixel bytes;
    # a probe's zero mask and run edges sit on top (7.08x measured, 19.5x
    # with int64)
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    assert _peak_memory(compress, img, target_cr=20.0) <= 8 * img.pixels.nbytes


def test_dense_token_path_peak_memory_is_bounded():
    # ~278k tokens from 262k coefficients: each stream and token array is
    # freed after its last read, and no token stage allocates more than a
    # few bytes per token beyond what it returns. Measured 8.34x to
    # compress (the rate search's probes) and 8.78x to decompress (the
    # Huffman decode), against 14.05x and 16.37x with an np.insert
    # tokenizer and an np.repeat detokenizer
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    assert _peak_memory(compress, img, target_cr=5.0) <= 9.4 * img.pixels.nbytes
    stream = compress(img, target_cr=5.0)
    assert _peak_memory(decompress, stream) <= 9.9 * img.pixels.nbytes


def test_rate_search_peak_memory_at_1024_is_bounded():
    # a probe finds its zero runs a chunk of the mask at a time, as int32:
    # 7.18x measured, 7.66x with a mask-sized diff and int64 run edges
    img = synth_image("blobs", 1024, 1024, bit_depth=16, seed=1)
    tracemalloc.start()
    try:
        compress(img, target_cr=20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.4 * img.pixels.nbytes


def test_zero_runs_match_a_whole_mask_diff_across_chunks():
    rng = np.random.default_rng(89)
    chunk = codec._RUN_CHUNK
    for size in (0, 1, 7, chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
        for density in (0.0, 0.3, 0.9, 1.0):
            mask = rng.random(size) < density
            # runs open across both chunk edges
            mask[chunk - 3 : chunk + 3] = True
            edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
            starts, lengths = _zero_runs(mask)
            assert starts.dtype == lengths.dtype == np.int32
            assert starts.tolist() == edges[::2].tolist()
            assert lengths.tolist() == (edges[1::2] - edges[::2]).tolist()


def test_decompress_peak_memory_is_bounded():
    # the decoded int32 stream (the pyramid of the quantizer indices) is
    # released before the inverse transform; holding it costs
    # 2 * pixels.nbytes more (7.21x measured, 7.71x while a level's
    # column bands lived on into the next level, 15.4x with int64)
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    stream = compress(img, target_cr=20.0)
    assert _peak_memory(decompress, stream) <= 8.7 * img.pixels.nbytes


def test_split_decompress_peak_memory_at_1024_is_bounded(monkeypatch):
    # at 1024^2 the transform, the dequantizer and the decoder's length
    # pass split between two threads, each into its own slice of one
    # output; the two column passes of a level allocate their bands at
    # once (7.10x measured)
    monkeypatch.setattr(_split, "_CPUS", 2)
    img = synth_image("blobs", 1024, 1024, bit_depth=16, seed=1)
    stream = compress(img, target_cr=20.0)
    assert _peak_memory(decompress, stream) <= 7.6 * img.pixels.nbytes


def _decompressed(container: bytes):
    """The pixels a container decodes to, or the documented error it
    raises as (type name, message); any other exception propagates."""
    try:
        return decompress(CompressedBitstream.from_bytes(container)).pixels.tobytes()
    except (BitstreamError, DecodeError) as exc:
        return type(exc).__name__, str(exc)


def test_mutated_containers_on_the_lane_path_fail_cleanly_or_decode_like_the_walk(
    monkeypatch,
):
    img = synth_image("blobs", 256, 256, bit_depth=16, seed=1)
    stream = compress(img, target_cr=10.0)
    # the payload is decoded by lanes
    assert stream.payload_bit_length >= huffman._LANE_MIN_BITS
    container = stream.to_bytes()
    rng = np.random.default_rng(88)
    cases = []
    # about 5 ms a case once the payload is decoded, so 60 keep the test
    # under half a second
    for _ in range(60):
        mutated = bytearray(container)
        for _ in range(int(rng.integers(1, 4))):
            mutated[int(rng.integers(len(mutated)))] = int(rng.integers(256))
        cases.append(bytes(mutated))
    cases += [container[:cut] for cut in range(0, len(container), 211)]
    kinds = Counter()
    for case in cases:
        start = time.perf_counter()
        outcome = _decompressed(case)
        assert time.perf_counter() - start < 0.25
        kinds[outcome[0] if isinstance(outcome, tuple) else "clean"] += 1
        if not isinstance(outcome, tuple):
            with monkeypatch.context() as patch:
                patch.setattr(huffman, "_LANE_MIN_BITS", 1 << 62)
                assert _decompressed(case) == outcome
    assert set(kinds) == {"BitstreamError", "DecodeError", "clean"}, kinds
