"""Acceptance gate: every headline capability, one test per criterion.

Each test asserts a documented target at its stated tolerance; the
conftest summary prints one PASS/FAIL line per criterion at the end of
the run. Targets and tolerances live in the constants below so the gate
is auditable in one place.
"""

import math
import time

import numpy as np
import pytest

from medlink import codec, metrics, synth, transport
from medlink.dwt import dwt_forward, dwt_inverse
from medlink.huffman import huffman_build
from medlink.image_io import GrayImage
from medlink.macsim import (
    PROFILE_11B,
    SCENARIOS,
    MacParameters,
    budget_superframe,
    simulate,
)

# achieved ratio window at the reference target
TARGET_CR = 20.0
CR_WINDOW = (20.0, 25.0)
COMPRESS_BUDGET_S = 5.0

# transfer times in ms at 11 Mb/s, blocksize 512, for the nominal
# compressed sizes of the three reference geometries; None = no target
TIMING_TARGETS_MS = {
    "dcf": (16.6, 66.4, 1006.3),
    "dcf-rts": (None, 65.6, 991.0),
    "pcf": (16.5, 65.5, 990.9),
}
EFFECTIVE_DCF_512_TARGET = 3.16e6  # bit/s, decimal
TIMING_TOLERANCE = 0.15

GEOMETRIES = (256, 512, 2000)

# regression pin: blobs 256x256, 16 bit, seed 3, target ratio 20
GOLDEN_BYTES = 5982
GOLDEN_PSNR_DB = 48.520109
GOLDEN_TOLERANCE_DB = 1e-3

CORPUS = (
    ("blobs", 256, 3),
    ("blobs", 512, 5),
    ("mixed", 512, 7),
    ("blobs", 2000, 11),
    ("mixed", 2000, 13),
)


def _nominal_plan(side):
    nbytes = transport.nominal_compressed_bytes(side, side, 16, TARGET_CR)
    return transport.fragment(nbytes, 512)


def test_ratio_twenty_size_budget_and_runtime():
    for kind, side, seed in CORPUS:
        image = synth.synth_image(kind, side, side, bit_depth=16, seed=seed)
        start = time.perf_counter()
        stream = codec.compress(image, target_cr=TARGET_CR)
        elapsed = time.perf_counter() - start
        bits = 8 * stream.byte_length
        cr = image.total_bits / bits
        assert bits * TARGET_CR <= image.total_bits, (kind, side)
        assert CR_WINDOW[0] <= cr <= CR_WINDOW[1], (kind, side, cr)
        assert elapsed < COMPRESS_BUDGET_S, (kind, side, elapsed)


def test_reference_throughput_chain_is_exact():
    # 16-bit pixels at ratio 20, binary prefixes
    assert transport.nominal_compressed_bytes(256, 256, 16) == 6_400
    assert transport.nominal_compressed_bytes(512, 512, 16) == 25_600
    assert transport.nominal_compressed_bytes(2000, 2000, 16) == 390_625


def test_mac_timing_matches_reference_profile():
    start = time.perf_counter()
    for scenario, targets in TIMING_TARGETS_MS.items():
        for side, target_ms in zip(GEOMETRIES, targets):
            if target_ms is None:
                continue
            res = simulate(scenario, _nominal_plan(side), PROFILE_11B)
            assert res.total_ms == pytest.approx(
                target_ms, rel=TIMING_TOLERANCE
            ), (scenario, side, res.total_ms)
    eff = simulate("dcf", _nominal_plan(512), PROFILE_11B).effective_throughput
    assert eff == pytest.approx(EFFECTIVE_DCF_512_TARGET, rel=TIMING_TOLERANCE)
    assert time.perf_counter() - start < 1.0


def test_ten_images_per_second_feasibility():
    for scenario in SCENARIOS:
        assert simulate(scenario, _nominal_plan(256), PROFILE_11B).supports_fps(10.0)
        assert simulate(scenario, _nominal_plan(512), PROFILE_11B).supports_fps(10.0)
        assert not simulate(scenario, _nominal_plan(2000), PROFILE_11B).supports_fps(10.0)


def test_superframe_accommodates_polled_image():
    res = simulate("pcf", _nominal_plan(512), PROFILE_11B)
    budget = budget_superframe(res.total_time, 100_000.0)
    assert budget.feasible
    assert 60_000.0 <= budget.cfp_duration <= 75_000.0
    assert budget.dcf_remainder >= 30_000.0


def test_lossless_round_trip_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = int(rng.integers(8, 49))
        h = int(rng.integers(8, 49))
        depth = int(rng.choice([8, 16]))
        pixels = rng.integers(0, 1 << depth, size=(h, w))
        image = GrayImage(w, h, depth, pixels)
        stream = codec.compress(image, lossless=True)
        assert codec.decompress(stream) == image


def test_entropy_code_is_near_optimal():
    rng = np.random.default_rng(12)
    for _ in range(100):
        nsym = int(rng.integers(2, 41))
        counts = rng.integers(1, 1000, size=nsym)
        total = counts.sum()
        p = counts / total
        h0 = float(-(p * np.log2(p)).sum())
        lengths = huffman_build(np.arange(nsym), counts).lengths.astype(np.int64)
        mean = lengths @ counts / total
        assert h0 <= mean < h0 + 1.0


def test_transform_round_trip_is_bit_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        levels = int(rng.integers(1, 5))
        lo = 1 << levels
        w = int(rng.integers(lo, 65))
        h = int(rng.integers(lo, 65))
        depth = int(rng.choice([8, 16]))
        image = GrayImage(w, h, depth, rng.integers(0, 1 << depth, size=(h, w)))
        assert dwt_inverse(dwt_forward(image, levels)) == image


def test_fragmentation_reassembles_exactly():
    rng = np.random.default_rng(14)
    for _ in range(200):
        nbytes = int(rng.integers(1, 1_000_000))
        blocksize = int(rng.choice(transport.BLOCKSIZES))
        plan = transport.fragment(nbytes, blocksize)
        assert plan.size == nbytes
        assert sum(block * count for block, count in plan.runs) == nbytes
        assert all(0 <= block <= blocksize for block, _ in plan.runs)
        assert all(block == blocksize for block, _ in plan.runs[:-1])
        # the last block is short, or an explicit zero-length terminator
        assert plan.runs[-1] == (nbytes % blocksize, 1)


def test_access_scenario_ordering():
    rng = np.random.default_rng(15)
    for _ in range(50):
        slot = float(rng.integers(5, 51))
        sifs = float(rng.integers(5, 31))
        params = MacParameters(
            phy_rate=float(rng.choice([1e6, 2e6, 5.5e6, 11e6, 54e6])),
            control_rate=float(rng.choice([1e6, 2e6, 11e6])),
            slot_time=slot,
            sifs=sifs,
            pifs=sifs + slot,
            difs=sifs + 2 * slot,
            plcp_overhead=float(rng.integers(16, 193)),
            mac_header_bytes=int(rng.integers(24, 41)),
            mean_backoff_slots=float(rng.integers(0, 33)),
            retx_factor=int(rng.integers(1, 5)),
        )
        plan = transport.fragment(
            int(rng.integers(32_768, 500_000)), int(rng.choice([512, 1024, 2048]))
        )
        t_pcf = simulate("pcf", plan, params).total_time
        t_dcf = simulate("dcf", plan, params).total_time
        t_rts = simulate("dcf-rts", plan, params).total_time
        assert t_pcf <= t_dcf <= t_rts


def test_metric_reference_equality():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = GrayImage(8, 8, 8, rng.integers(0, 256, size=(8, 8)))
        b = GrayImage(8, 8, 8, rng.integers(0, 256, size=(8, 8)))
        total = 0
        for y in range(8):
            for x in range(8):
                d = int(a.pixels[y, x]) - int(b.pixels[y, x])
                total += d * d
        assert metrics.mse(a, b) == total / 64
        if total:
            expected = 10.0 * math.log10(255 * 255 / (total / 64))
            assert metrics.psnr(a, b) == pytest.approx(expected, abs=1e-12)
        counts = {}
        for v in a.pixels.ravel().tolist():
            counts[v] = counts.get(v, 0) + 1
        h0 = -sum(c / 64 * math.log2(c / 64) for c in counts.values())
        assert metrics.entropy_h0(a) == pytest.approx(h0, abs=1e-12)


def test_quality_regression_golden():
    image = synth.synth_image("blobs", 256, 256, bit_depth=16, seed=3)
    stream = codec.compress(image, target_cr=TARGET_CR)
    assert stream.byte_length == GOLDEN_BYTES
    recon = codec.decompress(stream)
    assert metrics.psnr(image, recon) == pytest.approx(
        GOLDEN_PSNR_DB, abs=GOLDEN_TOLERANCE_DB
    )
