"""Two-thread passes: the helper, and the same bytes as one thread.

With ``SPLIT_MIN`` at 1 and two CPUs, every pass of two or more chunks
or rows splits, so the pins, the transform's round trip, the zero-run
chunk edges and the decoder's errors are checked on the split path at
sizes where each half is small and odd.
"""

import sys
import threading

import numpy as np
import pytest

import test_codec
from medlink import _split, huffman
from medlink.codec import compress, decompress
from medlink.dwt import dwt_forward, dwt_inverse
from medlink.image_io import GrayImage
from medlink.synth import synth_image


@pytest.fixture
def splits(monkeypatch):
    """Every pass splits; yields the list of hand-offs to the worker."""
    handed = []
    executor = _split._executor
    monkeypatch.setattr(_split, "SPLIT_MIN", 1)
    monkeypatch.setattr(_split, "_CPUS", 2)
    monkeypatch.setattr(_split, "_executor", lambda: handed.append(1) or executor())
    yield handed


def test_halves_run_on_the_caller_and_the_worker(splits):
    calls = []

    def half(lo, hi):
        calls.append((lo, hi, threading.current_thread() is threading.main_thread()))
        return hi - lo

    assert _split.split(half, 7) == [3, 4]
    assert sorted(calls) == [(0, 3, True), (3, 7, False)]
    calls.clear()
    assert _split.split(half, 10, mid=8) == [8, 2]
    assert sorted(calls) == [(0, 8, True), (8, 10, False)]
    # ranges of fewer than two, and empty halves, run as one call
    for stop, mid in ((0, None), (1, None), (5, 0), (5, 5)):
        calls.clear()
        assert _split.split(half, stop, mid=mid) == [stop]
        assert calls == [(0, stop, True)]


def test_passes_below_the_threshold_or_on_one_cpu_run_inline(monkeypatch, splits):
    monkeypatch.setattr(_split, "SPLIT_MIN", 100)
    assert _split.split(lambda lo, hi: (lo, hi), 50) == [(0, 50)]
    assert _split.split(lambda lo, hi: (lo, hi), 2, size=100) == [(0, 1), (1, 2)]
    monkeypatch.setattr(_split, "_CPUS", 1)
    assert _split.split(lambda lo, hi: (lo, hi), 200) == [(0, 200)]
    assert len(splits) == 1


def test_a_split_on_the_worker_runs_inline(splits):
    def outer(lo, hi):
        return _split.split(lambda a, b: (lo + a, lo + b), hi - lo)

    # the worker's nested pass does not wait on the worker itself
    assert _split.split(outer, 8) == [[(0, 2), (2, 4)], [(4, 8)]]


def test_callers_on_many_threads_share_the_worker(splits):
    # more callers than cores, switching often: a half lost or run twice
    # would leave a wrong sum, a wait on a busy worker a live thread
    rounds, sums = 40, {}

    def caller(n: int):
        out = np.zeros(500 + n, dtype=np.int64)

        def half(lo, hi):
            out[lo:hi] += np.arange(lo, hi)

        for _ in range(rounds):
            _split.split(half, out.size)
        sums[n] = np.array_equal(out, rounds * np.arange(out.size))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sums == {n: True for n in range(8)}
    assert len(splits) == 8 * rounds


def test_compresses_on_many_threads_give_the_serial_bytes(monkeypatch, splits):
    images = [synth_image(kind, 96, 80, bit_depth=16, seed=3) for kind in ("blobs", "mixed")]
    with monkeypatch.context() as serial:
        serial.setattr(_split, "SPLIT_MIN", 1 << 62)
        expected = [compress(image, target_cr=10.0).to_bytes() for image in images]
    found = {}

    def caller(n: int):
        found[n] = compress(images[n % 2], target_cr=10.0).to_bytes()

    threads = [threading.Thread(target=caller, args=(n,)) for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert found == {n: expected[n % 2] for n in range(6)}
    assert splits


@pytest.mark.parametrize("failing", [(0, 3), (3, 6), None])
def test_either_half_raises_once_both_have_returned(splits, failing):
    done = []

    def half(lo, hi):
        if failing in ((lo, hi), None):
            raise ValueError(f"half {lo}")
        done.append(lo)

    with pytest.raises(ValueError) as raised:
        _split.split(half, 6)
    # both halves failing raise the lower one's error, as one call would
    assert str(raised.value) == ("half 3" if failing == (3, 6) else "half 0")
    assert sorted(done) == [lo for lo in (0, 3) if failing not in ((lo, lo + 3), None)]


@pytest.mark.parametrize(
    "image",
    sorted(test_codec.RATE_CONTROL_SHA256),
    ids=lambda image: "-".join(map(str, image)),
)
def test_rate_control_pins_hold_with_every_pass_split(splits, image):
    expected = test_codec.RATE_CONTROL_SHA256[image]
    assert test_codec._containers_sha256(*image, (1, 2, 5, 20, 40)) == expected
    assert splits


def test_lossless_pins_hold_with_every_pass_split(splits):
    lossless = (
        test_codec._containers_sha256("blobs", 255, 257, 16, (1,), lossless=True),
        test_codec._containers_sha256("noise", 64, 64, 8, (1,), lossless=True),
    )
    assert lossless == test_codec.LOSSLESS_SHA256
    assert splits


@pytest.mark.parametrize("width,height,levels", [(255, 257, 3), (61, 47, 2), (2, 3, 1)])
def test_transform_round_trip_with_every_pass_split(monkeypatch, splits, width, height, levels):
    rng = np.random.default_rng(width)
    image = GrayImage(width, height, 16, rng.integers(0, 1 << 16, size=(height, width)))
    with monkeypatch.context() as serial:
        serial.setattr(_split, "SPLIT_MIN", 1 << 62)
        expected = dwt_forward(image, levels).coefficients
    pyramid = dwt_forward(image, levels)
    assert np.array_equal(pyramid.coefficients, expected)
    assert dwt_inverse(pyramid) == image
    assert splits


def test_zero_runs_chunk_edges_with_every_pass_split(splits):
    test_codec.test_zero_runs_match_a_whole_mask_diff_across_chunks()
    assert splits


def test_lane_path_errors_and_offsets_with_every_pass_split(monkeypatch, splits):
    # small gathers, so that the symbol gather splits as well
    monkeypatch.setattr(huffman, "_GATHER_STARTS", 1 << 12)
    image = synth_image("blobs", 256, 256, bit_depth=16, seed=1)
    stream = compress(image, target_cr=10.0)
    container = stream.to_bytes()
    code = huffman.HuffmanCode(stream.symbols, stream.code_lengths)
    rng = np.random.default_rng(88)
    cases = []
    for _ in range(60):
        mutated = bytearray(container)
        for _ in range(int(rng.integers(1, 4))):
            mutated[int(rng.integers(len(mutated)))] = int(rng.integers(256))
        cases.append(bytes(mutated))
    cases += [container[:cut] for cut in range(0, len(container), 211)]
    # payloads cut short inside a codeword fail with its bit offset
    bit_lengths = range(stream.payload_bit_length - 1, stream.payload_bit_length - 1500, -71)

    def outcomes():
        found = [test_codec._decompressed(case) for case in cases]
        for bits in bit_lengths:
            try:
                found.append(huffman.huffman_decode(stream.payload, bits, code).tobytes())
            except huffman.HuffmanDecodeError as exc:
                found.append((exc.bit_offset, str(exc)))
        return found

    split_outcomes = outcomes()
    assert splits
    assert any(type(outcome[0]) is int for outcome in split_outcomes)
    monkeypatch.setattr(_split, "SPLIT_MIN", 1 << 62)
    assert split_outcomes == outcomes()


def test_a_1024_round_trip_gives_the_same_bytes_split_and_not(monkeypatch):
    handed = []
    executor = _split._executor
    monkeypatch.setattr(_split, "_CPUS", 2)
    monkeypatch.setattr(_split, "_executor", lambda: handed.append(1) or executor())
    image = synth_image("mixed", 1024, 1024, bit_depth=16, seed=1)
    stream = compress(image, target_cr=20.0)
    container, pixels = stream.to_bytes(), decompress(stream).pixels.tobytes()
    assert handed  # the default threshold splits at this size
    monkeypatch.setattr(_split, "SPLIT_MIN", 1 << 62)
    handed.clear()
    stream = compress(image, target_cr=20.0)
    assert stream.to_bytes() == container
    assert decompress(stream).pixels.tobytes() == pixels
    assert not handed
