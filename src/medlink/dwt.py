"""Reversible two-dimensional wavelet decomposition.

Integer 5/3 lifting with whole-sample symmetric extension at the borders.
Both directions lift along axis 0 with one neighbour-sum helper (predict
sums of even samples, update sums of details); the inverse runs the two
steps backwards with the signs flipped, so it undoes the forward
transform exactly and the pyramid supports a lossless pipeline. After
quantization the inverse clamps reconstructed samples to the image's range.

Odd extents split as ceil(n/2) low / floor(n/2) high samples per axis. A
level lifts rows (through the transposed view), then columns, producing
four row-major quadrants; the low-low quadrant feeds the next level.
One geometry check, 1 <= levels and 2**levels <= min(width, height), so
every lifted extent has two samples; ``dwt_forward`` makes it before it
copies the image, ``SubbandPyramid`` on construction.
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
        _check_levels(self.levels, self.width, self.height)
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


def _check_levels(levels: int, width: int, height: int):
    if levels < 1:
        raise ValueError("levels must be at least 1")
    # 2**levels > min(width, height), without computing the power
    if levels >= min(width, height).bit_length():
        raise ValueError(f"{levels} levels too deep for a {width}x{height} image")


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


def _neighbour_sums(x: np.ndarray, lead: int, count: int) -> np.ndarray:
    """x[k - lead] + x[k - lead + 1] for k < count, along axis 0.

    The first and last rows repeat past the ends (whole-sample symmetric
    extension): lead=0 gives the predict sums of the even samples, lead=1
    the update sums of the details. The result keeps ``x``'s layout.
    """
    out = np.empty_like(x, shape=(count, *x.shape[1:]))
    stop = min(count, x.shape[0] - 1 + lead)
    np.add(x[: stop - lead], x[1 : stop - lead + 1], out=out[lead:stop])
    if lead:
        np.add(x[0], x[0], out=out[0])
    if stop < count:
        np.add(x[-1], x[-1], out=out[stop])
    return out


def _analyze(x: np.ndarray):
    """One 5/3 lifting step along axis 0: returns (low, high).

    high[k] = x[2k+1] - floor((x[2k] + x[2k+2]) / 2)
    low[k]  = x[2k]   + floor((high[k-1] + high[k] + 2) / 4)
    """
    even, odd = x[0::2], x[1::2]
    high = odd - _neighbour_sums(even, 0, odd.shape[0]) // 2
    return even + (_neighbour_sums(high, 1, even.shape[0]) + 2) // 4, high


def _synthesize(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Invert ``_analyze``: its two steps in reverse order, signs flipped."""
    out = np.empty_like(low, shape=(low.shape[0] + high.shape[0], *low.shape[1:]))
    even, odd = out[0::2], out[1::2]
    np.subtract(low, (_neighbour_sums(high, 1, low.shape[0]) + 2) // 4, out=even)
    np.add(high, _neighbour_sums(even, 0, high.shape[0]) // 2, out=odd)
    return out


def dwt_forward(image: GrayImage, levels: int) -> SubbandPyramid:
    """Decompose an image into a pyramid of ``levels`` levels."""
    _check_levels(levels, image.width, image.height)  # before the copy
    # the image's copy becomes the stream: a level's row pass is the last
    # read of its input, so level 1 writes its detail planes over the image
    stream = image.pixels.astype(np.int64, order="C").reshape(-1)
    pyramid = SubbandPyramid(levels, image.width, image.height, image.bit_depth, stream)
    ll, *details = pyramid.plane_arrays()
    cur = stream.reshape(image.height, image.width)
    for level in range(levels):
        low, high = (b.T for b in _analyze(cur.T))  # rows: left/right halves
        cur, lh = _analyze(low)  # columns of the left half
        hl, hh = _analyze(high)
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
        low = _synthesize(cur, lh)
        high = _synthesize(hl, hh)
        cur = _synthesize(low.T, high.T).T
    np.clip(cur, 0, (1 << pyramid.bit_depth) - 1, out=cur)
    return GrayImage(
        width=pyramid.width,
        height=pyramid.height,
        bit_depth=pyramid.bit_depth,
        pixels=cur,
    )
