"""Seeded synthetic grayscale test images.

Clinical image sets cannot ship with the repository, so these stand-ins
cover the cases the pipeline cares about: smooth structure (ramp), soft
anatomy-like structure over a sensor noise floor (blobs), incompressible
content (noise) and a combination (mixed). Everything is derived from
``numpy.random.default_rng(seed)``, so a (kind, size, depth, seed) tuple
always produces the same image.
"""

from __future__ import annotations

import numpy as np

from .image_io import MAX_SAMPLES, GrayImage

__all__ = ["KINDS", "synth_image"]

KINDS = ("ramp", "blobs", "noise", "mixed")


def _ramp(width: int, height: int, maxval: int) -> np.ndarray:
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    span = max(width + height - 2, 1)
    return (x + y) * (maxval / span)


def _blob_field(rng, width: int, height: int, maxval: int) -> np.ndarray:
    """Sum of a dozen anisotropic gaussian bumps, amplitude-normalized."""
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    acc = np.zeros((height, width))
    for _ in range(12):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        sx = rng.uniform(width / 20, width / 4)
        sy = rng.uniform(height / 20, height / 4)
        amp = rng.uniform(0.2, 1.0)
        acc += amp * np.exp(-(((x - cx) / sx) ** 2 + ((y - cy) / sy) ** 2))
    peak = acc.max()
    if peak > 0:
        acc *= 0.75 * maxval / peak
    return acc


def synth_image(
    kind: str, width: int, height: int, bit_depth: int = 16, seed: int = 0
) -> GrayImage:
    """Generate a deterministic test image.

    The blob and mixed kinds carry an additive gaussian noise floor
    (sigma of maxval/256 and maxval/64) so they are neither trivially
    compressible nor pure noise.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown image kind {kind!r}, expected one of {KINDS}")
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be at least 1x1")
    if width * height > MAX_SAMPLES:
        raise ValueError(f"{width}x{height} image exceeds {MAX_SAMPLES} samples")
    maxval = (1 << bit_depth) - 1
    rng = np.random.default_rng(seed)
    if kind == "ramp":
        field = _ramp(width, height, maxval)
    elif kind == "noise":
        field = rng.uniform(0, maxval, size=(height, width))
    elif kind == "blobs":
        field = _blob_field(rng, width, height, maxval)
        field += rng.normal(0, maxval / 256, size=(height, width))
    else:  # mixed
        field = 0.5 * _blob_field(rng, width, height, maxval)
        field += 0.35 * _ramp(width, height, maxval)
        field += rng.normal(0, maxval / 64, size=(height, width))
    pixels = np.clip(np.rint(field), 0, maxval).astype(np.int64)
    return GrayImage(width=width, height=height, bit_depth=bit_depth, pixels=pixels)
