"""Quality and size metrics for codec evaluation.

Error sums are accumulated in wide integers and divided once, so MSE is
the correctly rounded double of an exact rational. PSNR uses the full
nominal dynamic range (2**bit_depth - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import DEFAULT_LEVELS, CodecError, compress, decompress
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


def _psnr_of(error: float, bit_depth: int) -> float:
    if error == 0.0:
        return math.inf
    peak = (1 << bit_depth) - 1
    return 10.0 * math.log10(peak * peak / error)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """PSNR in dB over the nominal range; infinity for identical images."""
    return _psnr_of(mse(a, b), a.bit_depth)


@dataclass(frozen=True)
class QualityReport:
    """One compression run summarized.

    ``cr`` is measured against the container size (header included), so
    reports line up with what actually goes on the wire.
    """

    cr: float
    entropy_h0: float
    mse: float
    psnr_db: float

    CSV_HEADER = "cr,entropy_h0,mse,psnr_db"

    def csv_row(self) -> str:
        return f"{self.cr},{self.entropy_h0},{self.mse},{self.psnr_db}"


def quality_report(original: GrayImage, reconstructed: GrayImage, compressed_bits: int) -> QualityReport:
    error = mse(original, reconstructed)
    return QualityReport(
        cr=compression_ratio(original.total_bits, compressed_bits),
        entropy_h0=entropy_h0(original),
        mse=error,
        psnr_db=_psnr_of(error, original.bit_depth),
    )


@dataclass(frozen=True)
class RatePoint:
    """One target ratio in a rate-distortion sweep. ``byte_length``, the
    container size of an achieved point, is not a CSV column."""

    target_cr: float
    achieved_cr: float | None = None
    mse: float | None = None
    psnr_db: float | None = None
    error: str | None = None
    byte_length: int | None = None

    CSV_HEADER = "target_cr,achieved_cr,mse,psnr_db,error"

    def csv_row(self) -> str:
        def cell(v):
            text = "" if v is None else str(v)
            # RFC 4180: quote only cells that would otherwise split the row
            if any(c in text for c in ',"\r\n'):
                return '"' + text.replace('"', '""') + '"'
            return text

        columns = (self.target_cr, self.achieved_cr, self.mse, self.psnr_db, self.error)
        return ",".join(cell(v) for v in columns)


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
    image: GrayImage, cr_points, levels: int = DEFAULT_LEVELS
) -> list[RatePoint]:
    """Compress at each target ratio and collect distortion figures.

    Targets must be ascending and >= 1. Unreachable targets produce a
    point with the error recorded instead of aborting the sweep. Each
    achieved point's quantizer steps must be, plane by plane, at least
    the previous achieved point's: the rate search's grid point never
    falls as the target rises, and steps grow with it. A violation raises
    MetricsError, since it means rate control misbehaved. MSE is not
    checked: it need not rise along the grid.
    """
    targets = check_rate_points(cr_points)
    points: list[RatePoint] = []
    previous_steps = None
    for target in targets:
        try:
            stream = compress(image, target_cr=target, levels=levels)
        except CodecError as exc:
            points.append(RatePoint(target_cr=target, error=str(exc)))
            continue
        if previous_steps and any(s < p for s, p in zip(stream.steps, previous_steps)):
            raise MetricsError(
                f"quantizer steps fell from {previous_steps} to {stream.steps} "
                "as the target ratio rose"
            )
        previous_steps = stream.steps
        error = mse(image, decompress(stream))
        nbytes = stream.byte_length
        points.append(
            RatePoint(
                target_cr=target,
                achieved_cr=compression_ratio(image.total_bits, 8 * nbytes),
                mse=error,
                psnr_db=_psnr_of(error, image.bit_depth),
                byte_length=nbytes,
            )
        )
    return points
