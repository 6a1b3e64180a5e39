"""Reversible two-dimensional wavelet decomposition.

Integer 5/3 lifting with whole-sample symmetric extension at the borders.
The forward transform maps integers to integers and the inverse undoes it
exactly, so the pyramid supports a lossless pipeline; after quantization
the inverse clamps reconstructed samples to the image's range.

Odd extents split as ceil(n/2) low / floor(n/2) high samples per axis, so
images do not need power-of-two dimensions. A level transforms rows first,
then columns, producing four quadrants; the low-low quadrant feeds the
next level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .image_io import GrayImage

__all__ = [
    "DetailBands",
    "SubbandPyramid",
    "dwt_forward",
    "dwt_inverse",
    "subband_shapes",
]


@dataclass
class DetailBands:
    """The three detail quadrants of one decomposition level."""

    hl: np.ndarray  # horizontally high-pass (top-right quadrant)
    lh: np.ndarray  # vertically high-pass (bottom-left quadrant)
    hh: np.ndarray  # diagonal


@dataclass
class SubbandPyramid:
    """Subband coefficients of an image.

    ``details[0]`` is the finest (first) level; ``ll`` is the low-low
    residual of the deepest level. Plane iteration order is fixed: LL
    first, then hl/lh/hh of level 1, level 2, and so on. That order is
    the coefficient stream order of the codec.
    """

    levels: int
    width: int
    height: int
    bit_depth: int
    ll: np.ndarray
    details: list[DetailBands] = field(default_factory=list)

    def planes(self):
        """Yield (name, array) pairs in canonical stream order."""
        yield "ll", self.ll
        for level, bands in enumerate(self.details, start=1):
            yield f"hl{level}", bands.hl
            yield f"lh{level}", bands.lh
            yield f"hh{level}", bands.hh

    def plane_arrays(self) -> list[np.ndarray]:
        return [arr for _, arr in self.planes()]

    @classmethod
    def from_planes(
        cls, width: int, height: int, bit_depth: int, planes: list[np.ndarray]
    ) -> "SubbandPyramid":
        """Build a pyramid from its planes in canonical stream order."""
        details = [DetailBands(*planes[i : i + 3]) for i in range(1, len(planes), 3)]
        return cls(len(details), width, height, bit_depth, planes[0], details)

    def coefficient_count(self) -> int:
        return sum(arr.size for arr in self.plane_arrays())

    def validate(self):
        """Check the subband tiling against the declared geometry."""
        if self.levels != len(self.details):
            raise ValueError("level count does not match detail band list")
        expected = subband_shapes(self.width, self.height, self.levels)
        if self.ll.shape != expected[0]:
            raise ValueError(
                f"ll shape {self.ll.shape} does not match expected {expected[0]}"
            )
        for level, bands in enumerate(self.details, start=1):
            hl, lh, hh = expected[1][level - 1]
            if bands.hl.shape != hl or bands.lh.shape != lh or bands.hh.shape != hh:
                raise ValueError(f"detail band shape mismatch at level {level}")


def subband_shapes(width: int, height: int, levels: int):
    """Shapes of (ll, [(hl, lh, hh) per level]) for a given geometry.

    Shapes are (rows, cols). Level entries run finest to deepest.
    """
    w, h = width, height
    per_level = []
    for _ in range(levels):
        cw, fw = (w + 1) // 2, w // 2
        ch, fh = (h + 1) // 2, h // 2
        per_level.append(((ch, fw), (fh, cw), (fh, fw)))
        w, h = cw, ch
    return (h, w), per_level


def _analyze(a: np.ndarray):
    """One 5/3 lifting step along the last axis: returns (low, high).

    high[k] = x[2k+1] - floor((x[2k] + x[2k+2]) / 2)
    low[k]  = x[2k]   + floor((high[k-1] + high[k] + 2) / 4)
    with symmetric extension about the first and last sample.
    """
    n = a.shape[-1]
    if n == 1:
        return a.copy(), a[..., :0].copy()
    even = a[..., 0::2]
    odd = a[..., 1::2]
    ne = even.shape[-1]
    no = odd.shape[-1]
    if no == ne:
        # even sample to the right of the last odd one mirrors to itself
        right = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    else:
        right = even[..., 1 : no + 1]
    d = odd - (even[..., :no] + right) // 2
    # symmetric extension on the detail sequence: d[-1] = d[0], d[no] = d[no-1]
    dm1 = np.concatenate([d[..., :1], d[..., : ne - 1]], axis=-1)
    dcur = d if no == ne else np.concatenate([d, d[..., -1:]], axis=-1)
    s = even + (dm1 + dcur[..., :ne] + 2) // 4
    return s, d


def _synthesize(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Invert one lifting step along the last axis."""
    ne = s.shape[-1]
    no = d.shape[-1]
    if no == 0:
        return s.copy()
    dm1 = np.concatenate([d[..., :1], d[..., : ne - 1]], axis=-1)
    dcur = d if no == ne else np.concatenate([d, d[..., -1:]], axis=-1)
    even = s - (dm1 + dcur[..., :ne] + 2) // 4
    if no == ne:
        right = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    else:
        right = even[..., 1 : no + 1]
    odd = d + (even[..., :no] + right) // 2
    out = np.empty(s.shape[:-1] + (ne + no,), dtype=np.int64)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def dwt_forward(image: GrayImage, levels: int) -> SubbandPyramid:
    """Decompose an image into a subband pyramid.

    ``levels`` must satisfy 2**levels <= min(width, height) so every level
    still has at least one low-pass sample per axis.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if 2**levels > min(image.width, image.height):
        raise ValueError(
            f"{levels} levels too deep for a "
            f"{image.width}x{image.height} image"
        )
    cur = image.pixels.astype(np.int64)
    details = []
    for _ in range(levels):
        low, high = _analyze(cur)  # rows: split columns into left/right
        ll, lh = (b.T for b in _analyze(low.T))  # columns of the left half
        hl, hh = (b.T for b in _analyze(high.T))
        details += [hl, lh, hh]
        cur = ll
    return SubbandPyramid.from_planes(
        image.width, image.height, image.bit_depth, [cur, *details]
    )


def dwt_inverse(pyramid: SubbandPyramid) -> GrayImage:
    """Reconstruct an image from a pyramid.

    Exact inverse of dwt_forward for unquantized coefficients; samples are
    clamped to [0, 2**bit_depth - 1] so quantized pyramids still produce a
    valid image.
    """
    pyramid.validate()
    cur = pyramid.ll.astype(np.int64)
    for bands in reversed(pyramid.details):
        low = _synthesize(cur.T, bands.lh.T.astype(np.int64)).T
        high = _synthesize(bands.hl.T.astype(np.int64), bands.hh.T.astype(np.int64)).T
        cur = _synthesize(low, high)
    np.clip(cur, 0, (1 << pyramid.bit_depth) - 1, out=cur)
    return GrayImage(
        width=pyramid.width,
        height=pyramid.height,
        bit_depth=pyramid.bit_depth,
        pixels=cur,
    )
