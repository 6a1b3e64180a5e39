"""Uniform scalar quantization of wavelet coefficient planes.

Each plane of a pyramid gets its own integer step. A step of 1 is the
identity, so an all-ones configuration makes the codec lossless. The
quantizer has a dead zone: indices are sign(c) * floor(|c| / step),
which widens the bin around zero and favors long zero runs downstream.
Reconstruction is index * step, clamped to +-``dwt.COEFFICIENT_BOUND``:
a dead-zone index never reconstructs past its coefficient, so the clamp
only acts on streams no encoder writes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._split import split
from .dwt import COEFFICIENT_BOUND, SubbandPyramid

__all__ = ["QuantizerConfig", "quantize", "dequantize", "synthesis_gains"]

# coefficients one numpy pass maps; its temporaries take a few times that
_MAP_CHUNK = 1 << 16
# L2 norms of the one-dimensional 5/3 synthesis basis vectors
_NORM_LOW = 1.224744871391589  # sqrt(3/2)
_NORM_HIGH = 0.8477912478906585  # sqrt(23/32)


@lru_cache(maxsize=None)  # pure, and levels take at most 13 values
def synthesis_gains(levels: int) -> tuple[float, ...]:
    """Per-plane synthesis gains in canonical plane order.

    A unit quantization error on a coefficient perturbs the reconstruction
    by roughly this factor, so steps are chosen inversely proportional to
    it: coarse where errors barely show (fine-level HH), fine where they
    are amplified (the deep LL residual).
    """
    gains = [(_NORM_LOW**2) ** levels]
    for level in range(1, levels + 1):
        carry = (_NORM_LOW**2) ** (level - 1)
        mixed = carry * _NORM_LOW * _NORM_HIGH
        diag = carry * _NORM_HIGH**2
        gains.extend([mixed, mixed, diag])
    return tuple(gains)


@dataclass(frozen=True)
class QuantizerConfig:
    """Steps for every plane (canonical order: ll, then hl/lh/hh per level)."""

    steps: tuple[int, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("empty step table")
        if (len(self.steps) - 1) % 3 != 0:
            raise ValueError("step table needs 1 + 3*levels entries")
        if any(int(s) < 1 for s in self.steps):
            raise ValueError("quantizer steps must be >= 1")
        object.__setattr__(self, "steps", tuple(int(s) for s in self.steps))

    @property
    def levels(self) -> int:
        return (len(self.steps) - 1) // 3

    @classmethod
    def from_scale(cls, scale: float, levels: int) -> "QuantizerConfig":
        """Derive per-plane steps from one global scale.

        step = max(1, round(scale / gain)), so scale 1.0 is lossless and the
        step map is monotone in scale.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        steps = tuple(
            max(1, int(scale / gain + 0.5)) for gain in synthesis_gains(levels)
        )
        return cls(steps=steps)


def _quantize_plane(plane: np.ndarray, step: int) -> np.ndarray:
    if step == 1:
        return plane
    if step > np.iinfo(plane.dtype).max:  # past the dtype, so past every |c|
        return np.zeros_like(plane)
    return np.sign(plane) * (np.abs(plane) // step)


def _dequantize_plane(plane: np.ndarray, step: int) -> np.ndarray:
    # int64 holds index * step for any int32 index and u32 step
    product = np.multiply(plane, step, dtype=np.int64)
    return np.clip(product, -COEFFICIENT_BOUND, COEFFICIENT_BOUND, out=product)


def quantize(pyramid: SubbandPyramid, config: QuantizerConfig) -> SubbandPyramid:
    """Map coefficients to quantizer indices, plane by plane."""
    return _map_planes(pyramid, config, _quantize_plane)


def dequantize(pyramid: SubbandPyramid, config: QuantizerConfig) -> SubbandPyramid:
    """Reconstruct coefficients from indices (index * step, clamped to
    +-COEFFICIENT_BOUND)."""
    return _map_planes(pyramid, config, _dequantize_plane)


def _map_planes(pyramid: SubbandPyramid, config: QuantizerConfig, op) -> SubbandPyramid:
    """A new pyramid whose every plane is ``op(plane, step)``, mapped
    ``_MAP_CHUNK`` coefficients at a time, the two halves of the stream on
    two threads (``_split``)."""
    if config.levels != pyramid.levels:
        raise ValueError(
            f"quantizer has {config.levels} levels, pyramid has {pyramid.levels}"
        )
    stream = pyramid.coefficients
    out = np.empty_like(stream)
    bounds = pyramid.plane_bounds()

    def run(lo: int, hi: int):
        # each plane's part of [lo, hi), a chunk at a time
        for step, start, end in zip(config.steps, bounds, bounds[1:]):
            end = min(end, hi)
            for at in range(max(start, lo), end, _MAP_CHUNK):
                part = slice(at, min(at + _MAP_CHUNK, end))
                out[part] = op(stream[part], step)

    split(run, stream.size)
    return replace(pyramid, coefficients=out)
