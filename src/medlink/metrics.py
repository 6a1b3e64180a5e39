"""Quality and size metrics for codec evaluation.

Error sums are accumulated in wide integers and divided once, so MSE is
the correctly rounded double of an exact rational. PSNR uses the full
nominal dynamic range (2**bit_depth - 1); the peak variant uses the
actual sample range of the reference image, which is the fairer figure
for modalities that occupy a fraction of their container range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import CodecError, compress, decompress
from .image_io import GrayImage

__all__ = [
    "MetricsError",
    "QualityReport",
    "RatePoint",
    "check_rate_points",
    "compression_ratio",
    "entropy_h0",
    "mse",
    "psnr",
    "peak_psnr",
    "quality_report",
    "rate_distortion_sweep",
]


class MetricsError(ValueError):
    pass


def compression_ratio(original_bits: int, compressed_bits: int) -> float:
    """Plain size ratio; both operands in bits."""
    if compressed_bits <= 0:
        raise MetricsError("compressed size must be positive")
    if original_bits < 0:
        raise MetricsError("original size cannot be negative")
    return original_bits / compressed_bits


def entropy_h0(image: GrayImage) -> float:
    """Order-zero entropy of the sample histogram, bits per pixel."""
    counts = np.bincount(image.pixels.ravel().astype(np.int64))
    counts = counts[counts > 0]
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _check_comparable(a: GrayImage, b: GrayImage):
    if (a.width, a.height, a.bit_depth) != (b.width, b.height, b.bit_depth):
        raise MetricsError("images differ in geometry or bit depth")


def mse(a: GrayImage, b: GrayImage) -> float:
    _check_comparable(a, b)
    diff = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    total = int((diff * diff).sum())
    return total / (a.width * a.height)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """PSNR in dB over the nominal range; infinity for identical images."""
    error = mse(a, b)
    if error == 0.0:
        return math.inf
    peak = (1 << a.bit_depth) - 1
    return 10.0 * math.log10(peak * peak / error)


def peak_psnr(reference: GrayImage, b: GrayImage) -> float:
    """PSNR against the reference image's actual max - min sample range."""
    error = mse(reference, b)
    if error == 0.0:
        return math.inf
    peak = int(reference.pixels.max()) - int(reference.pixels.min())
    if peak == 0:
        return -math.inf
    return 10.0 * math.log10(peak * peak / error)


@dataclass(frozen=True)
class QualityReport:
    """One compression run summarized.

    ``cr`` is measured against the container size (header included), so
    reports line up with what actually goes on the wire.
    """

    bits_original: int
    bits_compressed: int
    cr: float
    entropy_h0: float
    mse: float
    psnr_db: float
    peak_psnr_db: float

    CSV_HEADER = "cr,entropy_h0,mse,psnr_db"

    def csv_row(self) -> str:
        return f"{self.cr},{self.entropy_h0},{self.mse},{self.psnr_db}"


def quality_report(original: GrayImage, reconstructed: GrayImage, compressed_bits: int) -> QualityReport:
    return QualityReport(
        bits_original=original.total_bits,
        bits_compressed=compressed_bits,
        cr=compression_ratio(original.total_bits, compressed_bits),
        entropy_h0=entropy_h0(original),
        mse=mse(original, reconstructed),
        psnr_db=psnr(original, reconstructed),
        peak_psnr_db=peak_psnr(original, reconstructed),
    )


@dataclass(frozen=True)
class RatePoint:
    """One target ratio in a rate-distortion sweep."""

    target_cr: float
    achieved_cr: float | None = None
    mse: float | None = None
    psnr_db: float | None = None
    error: str | None = None

    CSV_HEADER = "target_cr,achieved_cr,mse,psnr_db,error"

    def csv_row(self) -> str:
        def cell(v):
            return "" if v is None else str(v)

        return (
            f"{self.target_cr},{cell(self.achieved_cr)},{cell(self.mse)},"
            f"{cell(self.psnr_db)},{self.error or ''}"
        )


def check_rate_points(points) -> list[float]:
    """Target ratios as floats; there must be at least one, all >= 1 and
    strictly ascending."""
    targets = [float(t) for t in points]
    if not targets:
        raise MetricsError("no rate points given")
    if not all(t >= 1.0 for t in targets):  # also rejects NaN
        raise MetricsError("rate points must be >= 1")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise MetricsError("rate points must be strictly ascending")
    return targets


def rate_distortion_sweep(
    image: GrayImage, cr_points, levels: int = 3
) -> list[RatePoint]:
    """Compress at each target ratio and collect distortion figures.

    Targets must be ascending and >= 1. Unreachable targets produce a
    point with the error recorded instead of aborting the sweep. MSE must
    be non-decreasing along the achieved points; a violation raises
    MetricsError since it means rate control misbehaved.
    """
    targets = check_rate_points(cr_points)
    points: list[RatePoint] = []
    for target in targets:
        try:
            stream = compress(image, target_cr=target, levels=levels)
        except CodecError as exc:
            points.append(RatePoint(target_cr=target, error=str(exc)))
            continue
        recon = decompress(stream)
        points.append(
            RatePoint(
                target_cr=target,
                achieved_cr=compression_ratio(image.total_bits, stream.bit_length),
                mse=mse(image, recon),
                psnr_db=psnr(image, recon),
            )
        )
    achieved = [p for p in points if p.error is None]
    for a, b in zip(achieved, achieved[1:]):
        if b.mse < a.mse - 1e-9:
            raise MetricsError(
                f"distortion fell from {a.mse} to {b.mse} as the target ratio rose"
            )
    return points
