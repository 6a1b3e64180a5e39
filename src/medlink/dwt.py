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

from dataclasses import dataclass

import numpy as np

from .image_io import GrayImage

__all__ = [
    "SubbandPyramid",
    "dwt_forward",
    "dwt_inverse",
    "subband_shapes",
]


@dataclass
class SubbandPyramid:
    """Subband coefficients of an image, held as one coefficient stream.

    ``coefficients`` is a 1-D array of ``width * height`` values in the
    codec's stream order: the LL residual of the deepest level first, then
    hl/lh/hh of level 1 (the finest), level 2, and so on, each plane in
    row-major order. ``plane_arrays`` returns the planes as views of it.
    """

    levels: int
    width: int
    height: int
    bit_depth: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be at least 1")
        if self.coefficients.shape != (self.width * self.height,):
            raise ValueError(
                f"coefficient stream of shape {self.coefficients.shape}, "
                f"a {self.width}x{self.height} image needs {self.width * self.height}"
            )

    def plane_arrays(self) -> list[np.ndarray]:
        """The planes in stream order, as reshaped views of the stream."""
        ll_shape, per_level = subband_shapes(self.width, self.height, self.levels)
        planes, start = [], 0
        for rows, cols in [ll_shape, *(shape for bands in per_level for shape in bands)]:
            end = start + rows * cols
            planes.append(self.coefficients[start:end].reshape(rows, cols))
            start = end
        return planes


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
    # the image's copy becomes the stream: a level's row pass is the last
    # read of its input, so level 1 writes its detail planes over the image
    stream = image.pixels.astype(np.int64, order="C").reshape(-1)
    pyramid = SubbandPyramid(levels, image.width, image.height, image.bit_depth, stream)
    ll, *details = pyramid.plane_arrays()
    cur = stream.reshape(image.height, image.width)
    for level in range(levels):
        low, high = _analyze(cur)  # rows: split columns into left/right
        cur, lh = (b.T for b in _analyze(low.T))  # columns of the left half
        hl, hh = (b.T for b in _analyze(high.T))
        for view, band in zip(details[3 * level : 3 * level + 3], (hl, lh, hh)):
            view[...] = band
    ll[...] = cur
    return pyramid


def dwt_inverse(pyramid: SubbandPyramid) -> GrayImage:
    """Reconstruct an image from a pyramid.

    Exact inverse of dwt_forward for unquantized coefficients; samples are
    clamped to [0, 2**bit_depth - 1] so quantized pyramids still produce a
    valid image.
    """
    cur, *details = pyramid.plane_arrays()
    for level in reversed(range(pyramid.levels)):
        hl, lh, hh = details[3 * level : 3 * level + 3]
        low = _synthesize(cur.T, lh.T).T
        high = _synthesize(hl.T, hh.T).T
        cur = _synthesize(low, high)
    np.clip(cur, 0, (1 << pyramid.bit_depth) - 1, out=cur)
    return GrayImage(
        width=pyramid.width,
        height=pyramid.height,
        bit_depth=pyramid.bit_depth,
        pixels=cur,
    )
