"""Wavelet image codec with compression-ratio control.

``compress`` decomposes the image, then searches a geometric grid of
quantizer scales (sixteenth-octave spacing) for the smallest scale whose
encoded size meets the requested compression ratio. Sizes during the
search are computed from code-length tables and symbol frequencies, so
no payload bits are materialized until the final encode. ``decompress``
inverts the whole chain; with all quantizer steps at 1 the round trip is
bit-exact.

The entropy stage sees the coefficient planes as one stream (LL first,
then detail planes, finest level to deepest). Zero runs become the token
pair (0, run_length); any nonzero coefficient is a token by itself.
"""

from __future__ import annotations

import numpy as np

from .bitstream import CompressedBitstream, pack_header
from .dwt import DetailBands, SubbandPyramid, dwt_forward, dwt_inverse, subband_shapes
from .huffman import (
    HuffmanCode,
    HuffmanError,
    huffman_build,
    huffman_decode,
    huffman_encode,
)
from .image_io import GrayImage
from .quantize import QuantizerConfig, dequantize, quantize

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


def _flatten(pyramid: SubbandPyramid) -> np.ndarray:
    return np.concatenate([arr.ravel() for arr in pyramid.plane_arrays()])


def _unflatten(
    flat: np.ndarray, width: int, height: int, levels: int, bit_depth: int
) -> SubbandPyramid:
    ll_shape, per_level = subband_shapes(width, height, levels)
    pos = ll_shape[0] * ll_shape[1]
    ll = flat[:pos].reshape(ll_shape)
    details = []
    for hl_shape, lh_shape, hh_shape in per_level:
        planes = []
        for shape in (hl_shape, lh_shape, hh_shape):
            size = shape[0] * shape[1]
            planes.append(flat[pos : pos + size].reshape(shape))
            pos += size
        details.append(DetailBands(hl=planes[0], lh=planes[1], hh=planes[2]))
    if pos != flat.size:
        raise DecodeError(f"coefficient count {flat.size}, geometry implies {pos}")
    return SubbandPyramid(
        levels=levels,
        width=width,
        height=height,
        bit_depth=bit_depth,
        ll=ll,
        details=details,
    )


def _tokenize(flat: np.ndarray) -> np.ndarray:
    """Coefficient stream -> entropy tokens.

    Equivalent to run-length coding followed by mapping (k, 0) pairs to
    the two tokens [0, k] and (1, v) pairs to [v], but vectorized.
    """
    if flat.size == 0:
        return np.empty(0, dtype=np.int64)
    boundaries = np.nonzero(flat[1:] != flat[:-1])[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [flat.size]])
    values = flat[starts]
    lengths = ends - starts
    counts = np.where(values == 0, 2, lengths)
    out = np.repeat(values, counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    zero_runs = values == 0
    out[offsets[zero_runs] + 1] = lengths[zero_runs]
    return out


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


def _frequencies(tokens: np.ndarray) -> dict[int, int]:
    if tokens.size == 0:
        return {}
    lo = int(tokens.min())
    hi = int(tokens.max())
    span = hi - lo + 1
    if span <= 16 * tokens.size + 1024:
        counts = np.bincount(tokens - lo, minlength=span)
        present = np.nonzero(counts)[0]
        return {int(s + lo): int(counts[s]) for s in present}
    symbols, counts = np.unique(tokens, return_counts=True)
    return dict(zip(symbols.tolist(), counts.tolist()))


def _sized_encode_plan(
    image: GrayImage, pyramid: SubbandPyramid, config: QuantizerConfig
):
    """Quantize and size the stream without producing payload bits.

    Returns (total container bits, tokens, code, payload bits).
    """
    qpyr = quantize(pyramid, config)
    tokens = _tokenize(_flatten(qpyr))
    freqs = _frequencies(tokens)
    code = huffman_build(freqs)
    payload_bits = sum(code.lengths[s] * f for s, f in freqs.items())
    header = pack_header(
        image.width,
        image.height,
        image.bit_depth,
        config.levels,
        config.dead_zone,
        config.steps,
        code.lengths,
        payload_bits,
    )
    total_bits = (len(header) + (payload_bits + 7) // 8) * 8
    return total_bits, tokens, code, payload_bits


def compress(
    image: GrayImage,
    target_cr: float = DEFAULT_TARGET_CR,
    levels: int = DEFAULT_LEVELS,
    dead_zone: bool = True,
    lossless: bool = False,
) -> CompressedBitstream:
    """Compress an image to at least the requested compression ratio.

    The search keeps the smallest quantizer scale that reaches the target,
    so quality is the best the grid offers at that ratio. ``lossless``
    skips rate control entirely and encodes with unit steps. Raises
    RateControlError when even the coarsest grid point cannot reach the
    target.
    """
    if target_cr < 1.0:
        raise CodecError(f"target compression ratio {target_cr:g} must be >= 1")
    raw_bits = image.total_bits
    pyramid = dwt_forward(image, levels)
    plans: dict[tuple[int, ...], tuple] = {}

    def evaluate(k: int):
        config = QuantizerConfig.from_scale(
            2.0 ** (k / _SCALE_STEPS_PER_OCTAVE), levels, dead_zone
        )
        plan = plans.get(config.steps)
        if plan is None:
            plan = (*_sized_encode_plan(image, pyramid, config), config)
            plans[config.steps] = plan
        return plan

    if lossless:
        chosen = evaluate(0)
    else:
        total_bits = evaluate(0)[0]
        if raw_bits / total_bits >= target_cr:
            chosen = evaluate(0)
        else:
            coarsest = evaluate(_SCALE_GRID_MAX)
            if raw_bits / coarsest[0] < target_cr:
                raise RateControlError(target_cr, raw_bits / coarsest[0])
            lo, hi = 1, _SCALE_GRID_MAX
            while lo < hi:
                mid = (lo + hi) // 2
                if raw_bits / evaluate(mid)[0] >= target_cr:
                    hi = mid
                else:
                    lo = mid + 1
            chosen = evaluate(lo)
    total_bits, tokens, code, payload_bits, config = chosen
    payload, encoded_bits = huffman_encode(tokens, code)
    if encoded_bits != payload_bits:
        raise CodecError("size accounting mismatch during encode")
    return CompressedBitstream(
        width=image.width,
        height=image.height,
        bit_depth=image.bit_depth,
        levels=config.levels,
        dead_zone=config.dead_zone,
        steps=config.steps,
        code_lengths=code.lengths,
        payload=payload,
        payload_bit_length=payload_bits,
    )


def decompress(stream: CompressedBitstream) -> GrayImage:
    """Reconstruct the image a stream describes.

    Corrupt payloads raise DecodeError rather than crashing; container
    parse errors surface as BitstreamError from ``from_bytes`` before this
    point.
    """
    try:
        code = HuffmanCode(stream.code_lengths)
        symbols = huffman_decode(stream.payload, stream.payload_bit_length, code)
    except HuffmanError as exc:
        raise DecodeError(f"payload does not decode: {exc}") from exc
    tokens = np.asarray(symbols, dtype=np.int64)
    expected = stream.width * stream.height
    flat = _detokenize(tokens, expected)
    pyramid = _unflatten(
        flat, stream.width, stream.height, stream.levels, stream.bit_depth
    )
    config = QuantizerConfig(steps=stream.steps, dead_zone=stream.dead_zone)
    try:
        return dwt_inverse(dequantize(pyramid, config))
    except ValueError as exc:
        raise DecodeError(f"inconsistent subband geometry: {exc}") from exc
