"""Uniform scalar quantization of wavelet coefficient planes.

Each plane of a pyramid gets its own integer step. A step of 1 is the
identity, so an all-ones configuration makes the codec lossless. The
quantizer has a dead zone: indices are sign(c) * floor(|c| / step),
which widens the bin around zero and favors long zero runs downstream.
Reconstruction is index * step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dwt import SubbandPyramid

__all__ = ["QuantizerConfig", "quantize", "dequantize", "synthesis_gains"]

# L2 norms of the one-dimensional 5/3 synthesis basis vectors
_NORM_LOW = 1.224744871391589  # sqrt(3/2)
_NORM_HIGH = 0.8477912478906585  # sqrt(23/32)


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
    return np.sign(plane) * (np.abs(plane) // step)


def quantize(pyramid: SubbandPyramid, config: QuantizerConfig) -> SubbandPyramid:
    """Map coefficients to quantizer indices, plane by plane."""
    return _map_planes(pyramid, config, _quantize_plane)


def dequantize(pyramid: SubbandPyramid, config: QuantizerConfig) -> SubbandPyramid:
    """Reconstruct coefficients from indices (index * step)."""
    return _map_planes(pyramid, config, np.multiply)


def _map_planes(pyramid: SubbandPyramid, config: QuantizerConfig, op) -> SubbandPyramid:
    """A new pyramid whose every plane is ``op(plane, step)``."""
    if config.levels != pyramid.levels:
        raise ValueError(
            f"quantizer has {config.levels} levels, pyramid has {pyramid.levels}"
        )
    out = replace(pyramid, coefficients=np.empty_like(pyramid.coefficients))
    for plane, target, step in zip(pyramid.plane_arrays(), out.plane_arrays(), config.steps):
        target[...] = op(plane, step)
    return out
