"""Wavelet image codec with compression-ratio control.

``compress`` decomposes the image, then searches a geometric grid of
quantizer scales (sixteenth-octave spacing) for the smallest scale whose
encoded size meets the requested compression ratio. It bisects the
whole grid, scale 1.0 included, so there is no separate lossless probe.
A probe's exact size comes from each plane's table of distinct values
(quantized in place of the plane) and a zero mask from one magnitude
compare per plane; symbol frequencies, the Huffman code lengths and the
header follow from those. No quantized plane, token array or payload
exists until the chosen config is encoded. ``decompress`` inverts the
whole chain; with all quantizer steps at 1 the round trip is bit-exact.

The entropy stage sees the coefficient planes as one stream (LL first,
then detail planes, finest level to deepest). Zero runs become the token
pair (0, run_length); any nonzero coefficient is a token by itself.
"""

from __future__ import annotations

import numpy as np

from .bitstream import CompressedBitstream, pack_header
from .dwt import SubbandPyramid, dwt_forward, dwt_inverse
from .huffman import (
    HuffmanCode,
    HuffmanError,
    huffman_build,
    huffman_decode,
    huffman_encode,
)
from .image_io import MAX_SAMPLES, GrayImage
from .quantize import QuantizerConfig, _quantize_plane, dequantize, quantize

__all__ = [
    "CodecError",
    "RateControlError",
    "DecodeError",
    "DEFAULT_LEVELS",
    "DEFAULT_TARGET_CR",
    "compress",
    "decompress",
]

DEFAULT_LEVELS = 3
DEFAULT_TARGET_CR = 20.0

# quantizer scale grid: 2**(k / 16) for k in [0, _SCALE_GRID_MAX]
_SCALE_STEPS_PER_OCTAVE = 16
_SCALE_GRID_MAX = 20 * _SCALE_STEPS_PER_OCTAVE


class CodecError(Exception):
    pass


class RateControlError(CodecError):
    """The requested ratio is not reachable on the scale grid."""

    def __init__(self, target_cr: float, best_cr: float):
        super().__init__(
            f"target ratio {target_cr:g} unreachable, best achievable {best_cr:.2f}"
        )
        self.target_cr = target_cr
        self.best_cr = best_cr


class DecodeError(CodecError):
    """Compressed data failed to parse back into an image."""


def _zero_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of every run of True in ``mask``."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return edges[::2], edges[1::2] - edges[::2]


def _tokenize(flat: np.ndarray) -> np.ndarray:
    """Coefficient stream -> entropy tokens.

    Each zero run becomes the token pair [0, run_length]; a nonzero
    coefficient is a token by itself.
    """
    zero = flat == 0
    starts, lengths = _zero_runs(zero)
    keep = ~zero
    keep[starts] = True
    # the run's first zero stays; the zeros dropped before it shift its slot
    dropped = np.cumsum(lengths - 1) - (lengths - 1)
    return np.insert(flat[keep], starts - dropped + 1, lengths)


def _detokenize(tokens: np.ndarray, expected: int) -> np.ndarray:
    """Entropy tokens -> coefficient stream; validates counts."""
    zero_pos = np.nonzero(tokens == 0)[0]
    if zero_pos.size:
        if zero_pos[-1] + 1 >= tokens.size:
            raise DecodeError("dangling zero-run marker at end of stream")
        # adjacent zeros mean a run marker with a zero-length operand
        if np.any(np.diff(zero_pos) == 1):
            raise DecodeError("zero-run with non-positive length")
    operand_mask = np.zeros(tokens.size, dtype=bool)
    operand_mask[zero_pos + 1] = True
    units = tokens[~operand_mask]
    unit_is_run = units == 0
    counts = np.ones(units.size, dtype=np.int64)
    counts[unit_is_run] = tokens[zero_pos + 1]
    if np.any(counts < 1):
        raise DecodeError("zero-run with non-positive length")
    total = int(counts.sum())
    if total != expected:
        raise DecodeError(f"stream expands to {total} coefficients, expected {expected}")
    return np.repeat(np.where(unit_is_run, np.int64(0), units), counts)


def _value_table(values: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in ascending order, with how often each occurs
    (or, given ``weights``, the sum of the weights at each value)."""
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if span <= 16 * values.size + 1024:
        counts = np.bincount(values - lo, weights=weights, minlength=span)
        present = np.flatnonzero(counts)
        return present + lo, counts[present].astype(np.int64)
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, np.bincount(inverse, weights=weights).astype(np.int64)


def _frequencies(symbols: np.ndarray, weights=None) -> dict[int, int]:
    """Symbol -> occurrence count (or -> sum of ``weights``)."""
    if symbols.size == 0:
        return {}
    values, counts = _value_table(symbols, weights)
    return dict(zip(values.tolist(), counts.tolist()))


class _ProbeSizer:
    """Exact container size of a pyramid under any quantizer config,
    computed without quantizing the planes or building tokens.

    Each plane is kept as its table of distinct values and counts, and
    the whole stream as coefficient magnitudes. A probe quantizes only the
    tables, which gives the nonzero token counts, and finds the zero runs
    from one magnitude compare per plane. Runs cross plane boundaries, as
    they do in ``_tokenize``.
    """

    def __init__(self, pyramid: SubbandPyramid):
        self.pyramid = pyramid
        planes = pyramid.plane_arrays()
        self.tables = [_value_table(plane.ravel()) for plane in planes]
        self.bounds = np.cumsum([0] + [plane.size for plane in planes]).tolist()
        self.magnitudes = np.abs(pyramid.coefficients)

    def frequencies(self, config: QuantizerConfig) -> dict[int, int]:
        """Token frequencies, equal to ``_frequencies`` of the tokenized,
        quantized stream."""
        zero = np.empty(self.magnitudes.size, dtype=bool)
        symbols, weights = [], []
        for (values, counts), step, lo, hi in zip(
            self.tables, config.steps, self.bounds, self.bounds[1:]
        ):
            indices = _quantize_plane(values, step)
            nonzero = indices != 0
            symbols.append(indices[nonzero])
            weights.append(counts[nonzero])
            # the quantizer is monotone in |c|, so the plane's zeros are
            # exactly the magnitudes below its smallest nonzero-mapped one
            threshold = np.abs(values[nonzero]).min(initial=np.iinfo(np.int64).max)
            np.less(self.magnitudes[lo:hi], threshold, out=zero[lo:hi])
        _, run_lengths = _zero_runs(zero)
        symbols.append(run_lengths)
        weights.append(np.ones(run_lengths.size, dtype=np.int64))
        freqs = _frequencies(np.concatenate(symbols), np.concatenate(weights))
        if run_lengths.size:
            freqs[0] = run_lengths.size
        return freqs

    def size(self, config: QuantizerConfig) -> tuple[int, int]:
        """(total container bits, payload bits) under ``config``."""
        freqs = self.frequencies(config)
        code = huffman_build(freqs)
        payload_bits = sum(code.lengths[s] * f for s, f in freqs.items())
        pyramid = self.pyramid
        header = pack_header(
            pyramid.width,
            pyramid.height,
            pyramid.bit_depth,
            config.levels,
            config.steps,
            code.lengths,
            payload_bits,
        )
        return (len(header) + (payload_bits + 7) // 8) * 8, payload_bits


def _encode(pyramid: SubbandPyramid, config: QuantizerConfig) -> CompressedBitstream:
    tokens = _tokenize(quantize(pyramid, config).coefficients)
    code = huffman_build(_frequencies(tokens))
    payload, payload_bits = huffman_encode(tokens, code)
    return CompressedBitstream(
        width=pyramid.width,
        height=pyramid.height,
        bit_depth=pyramid.bit_depth,
        levels=config.levels,
        steps=config.steps,
        code_lengths=code.lengths,
        payload=payload,
        payload_bit_length=payload_bits,
    )


def _grid_config(k: int, levels: int) -> QuantizerConfig:
    scale = 2.0 ** (k / _SCALE_STEPS_PER_OCTAVE)
    return QuantizerConfig.from_scale(scale, levels)


def _rate_search(
    pyramid: SubbandPyramid, raw_bits: int, target_cr: float
) -> tuple[QuantizerConfig, int]:
    """The smallest grid point whose container reaches ``target_cr``.

    Checks the coarsest point, then bisects the whole grid, scale 1.0
    (lossless) included. Returns the chosen config and its predicted
    payload bits.
    """
    sizer = _ProbeSizer(pyramid)
    sizes: dict[tuple[int, ...], tuple[int, int]] = {}

    def total_bits(k: int) -> int:
        config = _grid_config(k, pyramid.levels)
        if config.steps not in sizes:
            sizes[config.steps] = sizer.size(config)
        return sizes[config.steps][0]

    coarsest_cr = raw_bits / total_bits(_SCALE_GRID_MAX)
    if coarsest_cr < target_cr:
        raise RateControlError(target_cr, coarsest_cr)
    lo, hi = 0, _SCALE_GRID_MAX
    while lo < hi:
        mid = (lo + hi) // 2
        if raw_bits / total_bits(mid) >= target_cr:
            hi = mid
        else:
            lo = mid + 1
    config = _grid_config(lo, pyramid.levels)
    return config, sizes[config.steps][1]


def compress(
    image: GrayImage,
    target_cr: float = DEFAULT_TARGET_CR,
    levels: int = DEFAULT_LEVELS,
    lossless: bool = False,
) -> CompressedBitstream:
    """Compress an image to at least the requested compression ratio.

    The search keeps the smallest quantizer scale that reaches the target,
    so quality is the best the grid offers at that ratio. Probes are sized
    from per-plane value tables and the zero mask, so no token array
    exists until the chosen config is quantized and encoded; there is no
    separate lossless probe. ``lossless`` skips rate control entirely and
    encodes with unit steps. Raises RateControlError when even the
    coarsest grid point cannot reach the target.
    """
    if target_cr < 1.0:
        raise CodecError(f"target compression ratio {target_cr:g} must be >= 1")
    if image.width * image.height > MAX_SAMPLES:
        raise CodecError(
            f"{image.width}x{image.height} image exceeds {MAX_SAMPLES} samples"
        )
    pyramid = dwt_forward(image, levels)
    if lossless:
        return _encode(pyramid, _grid_config(0, levels))
    config, payload_bits = _rate_search(pyramid, image.total_bits, target_cr)
    stream = _encode(pyramid, config)
    if stream.payload_bit_length != payload_bits:
        raise CodecError("size accounting mismatch during encode")
    return stream


def decompress(stream: CompressedBitstream) -> GrayImage:
    """Reconstruct the image a stream describes.

    Corrupt payloads raise DecodeError rather than crashing; container
    parse errors surface as BitstreamError from ``from_bytes`` before this
    point.
    """
    try:
        code = HuffmanCode(stream.code_lengths)
        tokens = huffman_decode(stream.payload, stream.payload_bit_length, code)
    except HuffmanError as exc:
        raise DecodeError(f"payload does not decode: {exc}") from exc
    flat = _detokenize(tokens, stream.width * stream.height)
    del tokens
    try:
        config = QuantizerConfig(steps=stream.steps)
        pyramid = SubbandPyramid(
            stream.levels, stream.width, stream.height, stream.bit_depth, flat
        )
        del flat  # the pyramid holds the decoded stream
        coefficients = dequantize(pyramid, config)
        del pyramid  # frees the decoded stream before the inverse transform
        return dwt_inverse(coefficients)
    except ValueError as exc:
        raise DecodeError(f"inconsistent stream header: {exc}") from exc
