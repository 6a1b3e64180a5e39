import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import medlink.codec as codec
from medlink.bitstream import CompressedBitstream
from medlink.codec import (
    DecodeError,
    RateControlError,
    _detokenize,
    _frequencies,
    _ProbeSizer,
    _tokenize,
    compress,
    decompress,
)
from medlink.dwt import SubbandPyramid, dwt_forward
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
        achieved = img.total_bits / stream.bit_length
        assert achieved >= 20.0
        recon = decompress(stream)
        assert recon.width == img.width and recon.height == img.height


def test_higher_target_never_yields_more_bits():
    img = synth_image("blobs", 128, 128, bit_depth=16, seed=9)
    sizes = []
    for target in (2.0, 5.0, 10.0, 20.0, 40.0):
        sizes.append(compress(img, target_cr=target).bit_length)
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
    code_lengths={0: 1, 50000 * 50000: 1},
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


def test_scale_grid_is_fine_enough_not_to_overshoot():
    # first grid point at or past the target should stay well below 1.25x
    for kind, seed in [("blobs", 1), ("mixed", 2), ("noise", 3)]:
        img = synth_image(kind, 128, 128, bit_depth=16, seed=seed)
        stream = compress(img, target_cr=20.0)
        achieved = img.total_bits / stream.bit_length
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
            expected = _frequencies(_tokenize(quantize(pyramid, config).coefficients))
            assert sizer.frequencies(config) == expected


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
        assert sizer.size(config) == (
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


def test_compress_peak_memory_is_bounded():
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    tracemalloc.start()
    try:
        compress(img, target_cr=20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * img.pixels.nbytes


def test_decompress_peak_memory_is_bounded():
    # the decoded int64 stream (the pyramid of the quantizer indices) is
    # released before the inverse transform; holding it costs
    # 4 * pixels.nbytes more
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    stream = compress(img, target_cr=20.0)
    tracemalloc.start()
    try:
        decompress(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * img.pixels.nbytes
