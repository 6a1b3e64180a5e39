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
Every band is lifted in place in its own output, the forward detail
bands in their planes of the stream. On a level of ``_split.SPLIT_MIN``
samples or more, two threads share each pass: the row pass splits along
the rows, the axis outer in memory (splitting along the inner axis of a
contiguous array gains nothing), and the two column passes, of the low
and of the high half, run one on each thread. Each writes its own slice
or band, so the coefficients do not depend on the split.
One geometry check, 1 <= levels and 2**levels <= min(width, height), so
every lifted extent has two samples; ``dwt_forward`` makes it before it
copies the image, ``SubbandPyramid`` on construction.

Coefficients are int32; one bound covers every geometry the codec admits
(Calderbank, Daubechies, Sweldens and Yeo, "Wavelet transforms that map
integers to integers", ACHA 5(3), 1998; the guard bits of Taubman and
Marcellin, *JPEG2000*, 2002). Without its floors a level is linear:
the 1-D analysis low-pass (-1, 2, 6, 2, -1)/8 has L1 norm 1.5 and DC gain
1, the high-pass (-1, 2, -1)/2 L1 norm 2 and DC gain 0. The equivalent
filter of a level-j band cascades j - 1 low-passes, upsampled, with the
last step's; its L1 norm grows with j and stays below 1.7156 (low) and
2.8670 (high) for j <= 13, the deepest level ``image_io.MAX_SAMPLES``
admits (2**levels <= min(w, h) <= 2**13). A 2-D band is a row filter
times a column filter, so its L1 norm is at most 2.867**2 < 8.22. The
symmetric extension folds taps together, which keeps both the DC gain
and the L1 bound. With samples in [0, M], M = 2**d - 1, write them as
M/2 plus a part of magnitude <= M/2: a detail band (DC gain 0) is then
at most 8.22 * M/2 < 4.11 * 2**d in magnitude, the LL band at most
(1 + 2.95) * M/2. The floors of one lifting step move its outputs by at
most 1/2 each; the rest of the transform passes that error on with an
L1 gain below 16, and 4 * 13 steps add under 2**9. Every coefficient of
a d-bit image (d >= 8) thus stays below 2**(d + 3): 2**19 for 16 bits,
``COEFFICIENT_BOUND``.

The inverse is fed dequantized coefficients, which ``dequantize`` clamps
to +-``COEFFICIENT_BOUND`` = C. One synthesis step of a low band bounded
by a and a high band bounded by h gives even samples bounded by
a + h/2 + 1/2 and odd ones by a + 3h/2 + 1; a 2-D level therefore turns
a low-low bound A into A + 5.25 C + 3.5. After 13 levels every sample
stays below 69.25 C + 46 < 2**25.2, and the neighbour sums, twice that,
below 2**26.2: int32 holds the whole inverse with 2**4 to spare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._split import split
from .image_io import GrayImage

__all__ = [
    "COEFFICIENT_BOUND",
    "SubbandPyramid",
    "dwt_forward",
    "dwt_inverse",
    "subband_shapes",
]

# every coefficient of a 16-bit image has |c| < COEFFICIENT_BOUND (module
# docstring); dequantized streams are clamped to it before the inverse
COEFFICIENT_BOUND = 1 << 19


@dataclass
class SubbandPyramid:
    """Subband coefficients of an image, held as one coefficient stream.

    ``coefficients`` is a 1-D array (int32 from ``dwt_forward`` and the
    decoder) of ``width * height`` values in the codec's stream order: the
    LL residual of the deepest level first, then hl/lh/hh of level 1 (the
    finest), level 2, and so on, each plane in row-major order.
    ``plane_arrays`` returns the planes as views of it.
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

    def plane_bounds(self) -> list[int]:
        """The stream offset where each plane starts, in stream order, and
        the stream's length."""
        return np.cumsum([0] + [plane.size for plane in self.plane_arrays()]).tolist()


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


def _neighbour_sums(x: np.ndarray, lead: int, out: np.ndarray) -> np.ndarray:
    """out[k] = x[k - lead] + x[k - lead + 1] along axis 0; returns ``out``.

    The first and last rows repeat past the ends (whole-sample symmetric
    extension): lead=0 gives the predict sums of the even samples, lead=1
    the update sums of the details.
    """
    count = out.shape[0]
    stop = min(count, x.shape[0] - 1 + lead)
    np.add(x[: stop - lead], x[1 : stop - lead + 1], out=out[lead:stop])
    if lead:
        np.add(x[0], x[0], out=out[0])
    if stop < count:
        np.add(x[-1], x[-1], out=out[stop])
    return out


def _analyze(x: np.ndarray, low: np.ndarray, high: np.ndarray):
    """One 5/3 lifting step along axis 0 of ``x``, into ``low`` and ``high``.

    high[k] = x[2k+1] - floor((x[2k] + x[2k+2]) / 2)
    low[k]  = x[2k]   + floor((high[k-1] + high[k] + 2) / 4)

    Each band is built in place in its output.
    """
    even, odd = x[0::2], x[1::2]
    _neighbour_sums(even, 0, high)
    high //= 2
    np.subtract(odd, high, out=high)
    _neighbour_sums(high, 1, low)
    low += 2
    low //= 4
    low += even


def _synthesize(low: np.ndarray, high: np.ndarray, out: np.ndarray | None = None):
    """Invert ``_analyze``: its two steps in reverse order, signs flipped.
    Returns ``out``, a new array laid out like ``low`` where not given.

    Both steps share one buffer of neighbour sums, laid out like ``low``;
    the samples are interleaved only as each step writes its output.
    """
    if out is None:
        out = np.empty_like(low, shape=(low.shape[0] + high.shape[0], *low.shape[1:]))
    even, odd = out[0::2], out[1::2]
    sums = _neighbour_sums(high, 1, np.empty_like(low))
    sums += 2
    sums //= 4
    np.subtract(low, sums, out=even)
    sums = _neighbour_sums(even, 0, sums[: high.shape[0]])
    sums //= 2
    np.add(high, sums, out=odd)
    return out


def _rows(lift, *arrays: np.ndarray):
    """``lift`` (``_analyze`` or ``_synthesize``) along the rows of C-ordered
    ``arrays``, which share their row count, through their transposed
    views; split between threads along the rows, the axis outer in memory,
    so that each thread works on whole, contiguous rows."""
    size = sum(a.size for a in arrays) // 2  # the samples of the level
    split(lambda lo, hi: lift(*(a[lo:hi].T for a in arrays)), arrays[0].shape[0], size)


def _columns(lift, size: int, first: tuple, second: tuple) -> list:
    """``[lift(*first), lift(*second)]``, the two column passes of a level
    of ``size`` samples, on two threads."""
    tasks = (first, second)
    halves = split(lambda lo, hi: [lift(*task) for task in tasks[lo:hi]], 2, size)
    return [result for half in halves for result in half]


def dwt_forward(image: GrayImage, levels: int) -> SubbandPyramid:
    """Decompose an image into a pyramid of ``levels`` levels."""
    _check_levels(levels, image.width, image.height)  # before the copy
    # the image's int32 copy becomes the stream: a level's row pass is the
    # last read of its input, so level 1 writes its detail planes over it
    stream = image.pixels.astype(np.int32, order="C").reshape(-1)
    pyramid = SubbandPyramid(levels, image.width, image.height, image.bit_depth, stream)
    ll, *details = pyramid.plane_arrays()
    cur = stream.reshape(image.height, image.width)
    for level in range(levels):
        hl, lh, hh = details[3 * level : 3 * level + 3]
        rows, cols = cur.shape
        # rows: left/right halves
        low = np.empty((rows, (cols + 1) // 2), dtype=np.int32)
        high = np.empty((rows, cols // 2), dtype=np.int32)
        _rows(_analyze, cur, low, high)
        # columns; the detail bands are lifted in their planes
        cur = np.empty((rows - lh.shape[0], low.shape[1]), dtype=np.int32)
        _columns(_analyze, rows * cols, (low, cur, lh), (high, hl, hh))
        del low, high
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
        size = cur.size + hl.size + lh.size + hh.size
        low, high = _columns(_synthesize, size, (cur, lh), (hl, hh))
        cur = np.empty_like(low, shape=(low.shape[0], low.shape[1] + high.shape[1]))
        _rows(_synthesize, low, high, cur)
        del low, high
    np.clip(cur, 0, (1 << pyramid.bit_depth) - 1, out=cur)
    return GrayImage(
        width=pyramid.width,
        height=pyramid.height,
        bit_depth=pyramid.bit_depth,
        pixels=cur,
    )
