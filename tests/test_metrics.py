"""Metric tests against per-definition loops on tiny images."""

import math

import dataclasses

import numpy as np
import pytest

import medlink.metrics as metrics
from medlink.codec import compress, decompress
from medlink.image_io import GrayImage
from medlink.metrics import (
    MetricsError,
    compression_ratio,
    entropy_h0,
    mse,
    psnr,
    quality_report,
    rate_distortion_sweep,
)
from medlink.synth import synth_image


def _loop_mse(a, b):
    total = 0
    for y in range(a.height):
        for x in range(a.width):
            d = int(a.pixels[y, x]) - int(b.pixels[y, x])
            total += d * d
    return total / (a.width * a.height)


def _loop_entropy(img):
    counts = {}
    for y in range(img.height):
        for x in range(img.width):
            v = int(img.pixels[y, x])
            counts[v] = counts.get(v, 0) + 1
    n = img.width * img.height
    return -sum(c / n * math.log2(c / n) for c in counts.values())


def test_mse_matches_loop_oracle_on_small_images():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        a = GrayImage(w, h, 8, rng.integers(0, 256, size=(h, w)))
        b = GrayImage(w, h, 8, rng.integers(0, 256, size=(h, w)))
        assert mse(a, b) == _loop_mse(a, b)


def test_entropy_matches_loop_oracle_on_small_images():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        img = GrayImage(w, h, 8, rng.integers(0, 8, size=(h, w)))
        assert entropy_h0(img) == pytest.approx(_loop_entropy(img), abs=1e-12)


def test_entropy_extremes():
    flat = GrayImage(16, 16, 8, np.full((16, 16), 9, dtype=np.uint8))
    assert entropy_h0(flat) == 0.0
    # all 256 values equally often: exactly 8 bits per pixel
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert entropy_h0(GrayImage(16, 16, 8, values)) == pytest.approx(8.0)


def test_compression_ratio():
    assert compression_ratio(1000, 100) == 10.0
    with pytest.raises(MetricsError):
        compression_ratio(1000, 0)


def test_psnr_identical_images_is_infinite():
    img = synth_image("blobs", 32, 32, bit_depth=8, seed=1)
    assert psnr(img, img) == math.inf


def test_psnr_known_value():
    a = GrayImage(2, 2, 8, np.zeros((2, 2), dtype=np.uint8))
    b = GrayImage(2, 2, 8, np.full((2, 2), 255, dtype=np.uint8))
    # mse = 255^2, so psnr over the 8-bit range is exactly 0 dB
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_geometry_mismatch_rejected():
    a = GrayImage(4, 4, 8, np.zeros((4, 4), dtype=np.uint8))
    b = GrayImage(4, 5, 8, np.zeros((5, 4), dtype=np.uint8))
    with pytest.raises(MetricsError):
        mse(a, b)


def test_quality_report_fields_and_csv():
    img = synth_image("mixed", 64, 64, bit_depth=16, seed=8)
    stream = compress(img, target_cr=10.0)
    recon = decompress(stream)
    bits = 8 * stream.byte_length
    report = quality_report(img, recon, bits)
    assert report.cr >= 10.0
    assert report.cr == img.total_bits / bits
    # one error value feeds both figures, as mse and psnr compute them
    assert report.mse == mse(img, recon)
    assert report.psnr_db == psnr(img, recon)
    row = report.csv_row()
    assert row.count(",") == 3
    cr, h0, err, p = row.split(",")
    assert float(cr) == report.cr
    assert float(h0) == report.entropy_h0
    assert float(err) == report.mse
    assert float(p) == report.psnr_db


def test_lossless_report_renders_infinite_psnr():
    img = synth_image("ramp", 32, 32, bit_depth=8, seed=0)
    report = quality_report(img, img, img.total_bits)
    assert report.csv_row().endswith(",inf")


def test_sweep_distortion_rises_with_ratio():
    img = synth_image("blobs", 128, 128, bit_depth=16, seed=6)
    points = rate_distortion_sweep(img, [2, 10, 20, 55])
    assert len(points) == 4
    achieved = [p for p in points if p.error is None]
    assert len(achieved) >= 3
    for a, b in zip(achieved, achieved[1:]):
        assert b.mse >= a.mse - 1e-9
        assert b.achieved_cr > a.achieved_cr
    for p in achieved:
        assert p.achieved_cr >= p.target_cr


def test_sweep_accepts_distortion_that_falls_as_the_ratio_rises():
    # MSE is not monotone along the grid: here it falls from 0.5654 to
    # 0.4907 between the two targets, while the steps only grow
    img = synth_image("ramp", 64, 64, bit_depth=16, seed=1)
    low, high = rate_distortion_sweep(img, [22, 22.5])
    assert high.mse < low.mse
    assert high.achieved_cr > low.achieved_cr >= 22


def test_sweep_rejects_steps_that_fall_as_the_ratio_rises(monkeypatch):
    def finer_at_the_higher_target(image, target_cr, levels):
        stream = compress(image, target_cr=target_cr, levels=levels)
        if target_cr == 20:
            # one plane's step below the CR 10 point's, the others above
            steps = compress(image, target_cr=10, levels=levels).steps
            stream = dataclasses.replace(stream, steps=(steps[0] - 1, *stream.steps[1:]))
        return stream

    monkeypatch.setattr(metrics, "compress", finer_at_the_higher_target)
    img = synth_image("blobs", 64, 64, bit_depth=16, seed=1)
    assert len(rate_distortion_sweep(img, [5, 10])) == 2
    with pytest.raises(MetricsError, match="quantizer steps fell"):
        rate_distortion_sweep(img, [10, 20])


def test_sweep_records_unreachable_points_instead_of_failing():
    img = GrayImage(8, 8, 8, np.arange(64, dtype=np.uint8).reshape(8, 8))
    points = rate_distortion_sweep(img, [1.5, 60], levels=1)
    assert points[1].error is not None
    assert points[1].achieved_cr is None


def test_sweep_validates_points():
    img = synth_image("ramp", 16, 16, bit_depth=8, seed=0)
    with pytest.raises(MetricsError):
        rate_distortion_sweep(img, [])
    with pytest.raises(MetricsError):
        rate_distortion_sweep(img, [10, 5])
    with pytest.raises(MetricsError):
        rate_distortion_sweep(img, [0.5, 2])
