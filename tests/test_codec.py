import numpy as np
import pytest

import medlink.codec as codec
from medlink.bitstream import CompressedBitstream
from medlink.codec import (
    DecodeError,
    RateControlError,
    _detokenize,
    _flatten,
    _tokenize,
    _unflatten,
    compress,
    decompress,
)
from medlink.dwt import dwt_forward
from medlink.image_io import GrayImage
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


def test_tokenizer_matches_pair_based_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(0, 500))
        flat = rng.choice([0, 0, 0, 1, -1, 4, -9, 2000], size=n).astype(np.int64)
        assert _tokenize(flat).tolist() == _tokens_via_pairs(flat)


def test_detokenize_inverts_tokenize():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(1, 500))
        flat = rng.choice([0, 0, 0, 0, 0, 2, -2, 70], size=n).astype(np.int64)
        tokens = _tokenize(flat)
        assert np.array_equal(_detokenize(tokens, n), flat)


def test_detokenize_rejects_corrupt_streams():
    with pytest.raises(DecodeError, match="dangling"):
        _detokenize(np.array([5, 0], dtype=np.int64), 6)
    with pytest.raises(DecodeError, match="non-positive"):
        _detokenize(np.array([0, 0, 5], dtype=np.int64), 1)
    with pytest.raises(DecodeError, match="non-positive"):
        _detokenize(np.array([0, -3], dtype=np.int64), 1)
    with pytest.raises(DecodeError, match="expected"):
        _detokenize(np.array([0, 4], dtype=np.int64), 5)


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(41)
    img = _random_image(rng, 23, 17, 16)
    pyr = dwt_forward(img, 2)
    flat = _flatten(pyr)
    assert flat.size == 23 * 17
    back = _unflatten(flat, 23, 17, 2, 16)
    for a, b in zip(pyr.plane_arrays(), back.plane_arrays()):
        assert np.array_equal(a, b)


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
        dead_zone=stream.dead_zone,
        steps=stream.steps,
        code_lengths=stream.code_lengths,
        payload=stream.payload[: len(stream.payload) // 2],
        payload_bit_length=stream.payload_bit_length // 2,
    )
    with pytest.raises(DecodeError):
        decompress(clipped)


def test_stream_records_quantizer_and_geometry():
    img = synth_image("blobs", 96, 64, bit_depth=16, seed=5)
    stream = compress(img, target_cr=15.0, levels=2)
    assert (stream.width, stream.height) == (96, 64)
    assert stream.levels == 2
    assert len(stream.steps) == 1 + 3 * 2
    assert stream.dead_zone is True


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
