"""Wavelet image codec with compression-ratio control.

``compress`` decomposes the image, then bisects a geometric grid of
quantizer scales (sixteenth-octave spacing) for a scale whose encoded
size meets the requested compression ratio while the next finer scale's
does not, or that is scale 1.0. The encoded size need not fall
monotonically along the grid, so a finer scale can meet the ratio too.
The search covers the whole grid, scale 1.0 included, so there is no
separate lossless probe. A probe first quantizes the nonzero part of
each plane's table of distinct values (the values at least a step from
zero) in place of the plane. The empirical entropy of those nonzero
tokens plus the header entries they force is a lower bound on the
container (Shannon's source-coding bound), and a probe whose bound
already misses the ratio fails there. Any other probe is sized exactly:
the dead-zone quantizer zeroes exactly the coefficients with |c| < step,
so one magnitude compare per plane gives the zero mask and its runs, and
the token counts, the payload bits (the merged weights of a Huffman
merge, ``huffman.payload_bits``) and the header bytes (counted in numpy
by ``bitstream.header_size``) follow. No quantized plane, token array,
Huffman code, header or payload exists until the chosen config is
encoded, once per ``compress``, with a code built from the counts its
probe found. ``decompress`` inverts the whole chain;
with all quantizer steps at 1 the round trip is bit-exact. Coefficients
travel as int32 from ``dwt_forward`` to the inverse; the decoder clamps
dequantized values to ``dwt.COEFFICIENT_BOUND``, which no coefficient of
an encoded image reaches, so a hostile container cannot overflow the
inverse transform.

The entropy stage sees the coefficient planes as one stream (LL first,
then detail planes, finest level to deepest). Zero runs become the token
pair (0, run_length); any nonzero coefficient is a token by itself.
Tokens are int32 too, from ``_tokenize`` through ``huffman_decode`` to
``_detokenize``, and take O(tokens) memory: ``compress`` drops each
stream after its last read (the unquantized one once quantized, the
quantized one once tokenized), and neither token stage allocates more
than a few bytes per token beyond the array it returns.
"""

from __future__ import annotations

import numpy as np

from ._split import split
from .bitstream import CompressedBitstream, header_size, pack_header
from .dwt import SubbandPyramid, dwt_forward, dwt_inverse
from .huffman import (
    HuffmanCode,
    HuffmanError,
    huffman_build,
    huffman_decode,
    huffman_encode,
    payload_bits,
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

# mask elements whose zero runs one numpy pass finds
_RUN_CHUNK = 1 << 18
# elements whose nonzero values one numpy pass of the tokenizer or the
# detokenizer moves; the pass's index array takes 8 bytes per element
_TOKEN_CHUNK = 1 << 15
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
    """Start index and length (int32) of every run of True in ``mask``.

    The run edges are found a chunk of ``_RUN_CHUNK`` elements at a time,
    so that no temporary is the size of the mask. A chunk's edges depend
    only on the element before it, so the chunks are split between
    threads; together the edges alternate between run starts and ends,
    once the end of a run still open at the end of the mask is put after
    them.
    """
    chunks = range(0, mask.size, _RUN_CHUNK)

    def edges(first: int, last: int) -> list[np.ndarray]:
        found = []
        for lo in chunks[first:last]:
            chunk = mask[lo : lo + _RUN_CHUNK]
            edge = np.flatnonzero(np.diff(chunk, prepend=lo > 0 and mask[lo - 1]))
            found.append(edge.astype(np.int32))
            found[-1] += np.int32(lo)
        return found

    parts = [part for half in split(edges, len(chunks), mask.size) for part in half]
    if sum(part.size for part in parts) % 2:
        parts.append(np.array([mask.size], dtype=np.int32))
    found = np.concatenate([np.empty(0, dtype=np.int32), *parts])
    del parts
    starts = found[0::2]
    return starts, found[1::2] - starts


def _tokenize(flat: np.ndarray) -> np.ndarray:
    """Coefficient stream -> entropy tokens, in the stream's dtype.

    Each zero run becomes the token pair [0, run_length]; a nonzero
    coefficient is a token by itself. Beyond the zero mask, the nonzero
    values, the tokens and a mask over their slots, it takes O(runs)
    memory, and O(``_TOKEN_CHUNK``) for the index arrays of the gather
    and the scatter, which run a chunk at a time.
    """
    mask = flat == 0
    starts, lengths = _zero_runs(mask)
    np.logical_not(mask, out=mask)
    values = np.empty(flat.size - int(lengths.sum(dtype=np.int64)), dtype=flat.dtype)
    _take_masked(values, flat, mask)
    del mask
    # run j's marker slot: its start less the zeros the runs before it
    # shed, L_i - 2 each, summed in int64
    shed = lengths.astype(np.int64)
    shed -= 2
    markers = starts - np.cumsum(shed, out=shed)
    markers += lengths
    markers -= 2
    del starts, shed
    tokens = np.empty(values.size + 2 * lengths.size, dtype=flat.dtype)
    is_value = np.ones(tokens.size, dtype=bool)
    is_value[markers] = False
    tokens[markers] = 0
    markers += 1
    is_value[markers] = False
    tokens[markers] = lengths
    _put_masked(tokens, is_value, values)
    return tokens


def _take_masked(out: np.ndarray, source: np.ndarray, mask: np.ndarray) -> None:
    """``out[:] = source[mask]``, a chunk of the mask at a time."""
    done = 0
    for lo in range(0, mask.size, _TOKEN_CHUNK):
        at = np.flatnonzero(mask[lo : lo + _TOKEN_CHUNK])
        np.take(source[lo : lo + _TOKEN_CHUNK], at, out=out[done : done + at.size])
        done += at.size


def _put_masked(out: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
    """``out[mask] = values``, a chunk of the mask at a time."""
    done = 0
    for lo in range(0, mask.size, _TOKEN_CHUNK):
        at = np.flatnonzero(mask[lo : lo + _TOKEN_CHUNK])
        out[lo : lo + _TOKEN_CHUNK][at] = values[done : done + at.size]
        done += at.size


def _detokenize(tokens: np.ndarray, expected: int) -> np.ndarray:
    """Entropy tokens -> int32 coefficient stream; validates counts.

    The expanded length is checked, in int64, before anything of that
    length is allocated. The values are then scattered into a zeroed
    stream a chunk of ``_TOKEN_CHUNK`` tokens at a time: a token's place
    is the int32 prefix sum of the advances before it (1 for a value,
    the run length for a marker, 0 for its operand).
    """
    zero_pos = np.flatnonzero(tokens == 0)
    if zero_pos.size:
        if zero_pos[-1] + 1 >= tokens.size:
            raise DecodeError("dangling zero-run marker at end of stream")
        # adjacent zeros mean a run marker with a zero-length operand
        if np.any(np.diff(zero_pos) == 1):
            raise DecodeError("zero-run with non-positive length")
    runs = tokens[zero_pos + 1]
    if np.any(runs < 1):
        raise DecodeError("zero-run with non-positive length")
    total = tokens.size - 2 * runs.size + int(runs.sum(dtype=np.int64))
    if total != expected:
        raise DecodeError(f"stream expands to {total} coefficients, expected {expected}")
    # every prefix sum is at most ``expected``, which fits int32
    runs = runs.astype(np.int32, copy=False)
    flat = np.zeros(expected, dtype=np.int32)
    placed = 0  # the stream position of the chunk's first token
    for lo in range(0, tokens.size, _TOKEN_CHUNK):
        chunk = tokens[lo : lo + _TOKEN_CHUNK]
        hi = lo + chunk.size
        # the operands (one past a marker) and the markers in this chunk
        bounds = np.searchsorted(zero_pos, [lo - 1, lo, hi - 1, hi]).tolist()
        op_lo, run_lo, op_hi, run_hi = bounds
        is_value = chunk != 0
        is_value[zero_pos[op_lo:op_hi] + (1 - lo)] = False
        advance = is_value.astype(np.int32)
        advance[zero_pos[run_lo:run_hi] - lo] = runs[run_lo:run_hi]
        np.cumsum(advance, out=advance)
        at = np.flatnonzero(is_value)
        # a value's place is the sum of the advances before its own 1
        flat[advance[at] + (placed - 1)] = chunk[at]
        placed += int(advance[-1])
    return flat


def _value_table(values: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in ascending order and in ``values``' dtype, with
    how often each occurs (or, given ``weights``, the sum of the weights
    at each value)."""
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if span <= 16 * values.size + 1024:
        # straight into intp, so that bincount makes no copy of its own
        index = np.subtract(values, lo, dtype=np.intp)
        counts = np.bincount(index, weights=weights, minlength=span)
        del index
        present = np.flatnonzero(counts)
        return (present + lo).astype(values.dtype), counts[present].astype(np.int64)
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, np.bincount(inverse, weights=weights).astype(np.int64)


class _ProbeSizer:
    """Exact container size of a pyramid under any quantizer config,
    computed without quantizing the planes or building tokens.

    Each plane is kept as its table of distinct values and counts, and
    the whole stream as coefficient magnitudes. A probe quantizes only the
    part of each table that maps to a nonzero index, which gives the
    nonzero token counts. The dead-zone quantizer maps c to 0 exactly when
    |c| < step, so the zero runs come from one magnitude compare per
    plane. Runs cross plane boundaries, as they do in ``_tokenize``.
    """

    def __init__(self, pyramid: SubbandPyramid):
        planes = pyramid.plane_arrays()
        self.bounds = bounds = pyramid.plane_bounds()
        # the planes split where the stream does, so each thread tables half
        tables = split(
            lambda lo, hi: [_value_table(plane.ravel()) for plane in planes[lo:hi]],
            len(planes),
            bounds[-1],
            int(np.searchsorted(bounds, bounds[-1] // 2)),
        )
        self.tables = [table for half in tables for table in half]
        stream = pyramid.coefficients
        self.magnitudes = np.empty_like(stream)
        split(lambda lo, hi: np.abs(stream[lo:hi], out=self.magnitudes[lo:hi]), stream.size)

    def nonzero(self, config: QuantizerConfig) -> tuple[np.ndarray, np.ndarray]:
        """The stream's nonzero quantizer indices in ascending order, with
        their counts."""
        symbols, weights = [], []
        for (values, counts), step in zip(self.tables, config.steps):
            # values ascend, so the nonzero part is those <= -step and >= step
            below, above = np.searchsorted(values, [1 - step, step])
            part = np.concatenate([values[:below], values[above:]])
            symbols.append(_quantize_plane(part, step))
            weights.append(np.concatenate([counts[:below], counts[above:]]))
        symbols = np.concatenate(symbols)
        if not symbols.size:
            return symbols, np.zeros(0, dtype=np.int64)
        return _value_table(symbols, np.concatenate(weights))

    def frequencies(self, config: QuantizerConfig, nonzero=None) -> tuple[np.ndarray, np.ndarray]:
        """Token symbols in ascending order with their counts, equal to
        ``_value_table`` of the tokenized, quantized stream. ``nonzero``
        is ``self.nonzero(config)`` when the caller has it."""
        symbols, counts = self.nonzero(config) if nonzero is None else nonzero
        zero = np.empty(self.magnitudes.size, dtype=bool)

        def compare(lo: int, hi: int):
            # each plane's part of [lo, hi)
            for step, start, end in zip(config.steps, self.bounds, self.bounds[1:]):
                start, end = max(start, lo), min(end, hi)
                np.less(self.magnitudes[start:end], step, out=zero[start:end])

        split(compare, zero.size)
        run_lengths = _zero_runs(zero)[1]  # frees the run starts here
        if not run_lengths.size:
            return symbols, counts
        # each run is the pair (0, length): the lengths come from their own
        # table, and the 0 marker counts every run
        lengths, runs = _value_table(run_lengths)
        return _value_table(
            np.concatenate([symbols, lengths, np.zeros(1, lengths.dtype)]),
            np.concatenate([counts, runs, [run_lengths.size]]),
        )

    def size(self, config: QuantizerConfig, nonzero=None) -> tuple[int, int, tuple]:
        """(total container bits, payload bits, ``frequencies(config)``)
        under ``config``."""
        table = self.frequencies(config, nonzero)
        payload = payload_bits(table[1])
        header = header_size(config.levels, table[0])
        return (header + (payload + 7) // 8) * 8, payload, table

    def bound(self, config: QuantizerConfig, nonzero=None) -> float:
        """A lower bound on the total container bits under ``config``,
        from the nonzero tokens alone: their empirical entropy plus the
        header entries they force. Their codewords form a prefix code of
        their own and their counts are at most the real ones, so by the
        Gibbs inequality no container under ``config`` is smaller."""
        symbols, counts = self.nonzero(config) if nonzero is None else nonzero
        entropy_bits = float(counts @ np.log2(counts.sum() / counts))
        return entropy_bits + 8 * header_size(config.levels, symbols)


def _encode(
    tokens: np.ndarray, geometry: tuple[int, int, int], config: QuantizerConfig, table=None
) -> tuple[CompressedBitstream, int]:
    """The container of ``tokens`` of an image of ``geometry`` (width,
    height, bit depth) quantized under ``config``, and its size in bits.
    ``table`` is ``_value_table(tokens)`` when the caller has it."""
    code = huffman_build(*(_value_table(tokens) if table is None else table))
    payload, payload_bits = huffman_encode(tokens, code)
    width, height, bit_depth = geometry
    header = pack_header(
        width,
        height,
        bit_depth,
        config.levels,
        config.steps,
        code.symbols,
        code.lengths,
        payload_bits,
    )
    stream = CompressedBitstream(
        width=width,
        height=height,
        bit_depth=bit_depth,
        levels=config.levels,
        steps=config.steps,
        symbols=code.symbols,
        code_lengths=code.lengths,
        payload=payload,
        payload_bit_length=payload_bits,
    )
    return stream, 8 * (len(header) + len(payload))


def _grid_config(k: int, levels: int) -> QuantizerConfig:
    scale = 2.0 ** (k / _SCALE_STEPS_PER_OCTAVE)
    return QuantizerConfig.from_scale(scale, levels)


def _rate_search(
    pyramid: SubbandPyramid, raw_bits: int, target_cr: float
) -> tuple[QuantizerConfig, int, int, tuple[np.ndarray, np.ndarray]]:
    """A grid point k whose container reaches ``target_cr``, where k = 0
    or point k - 1 does not reach it.

    Checks the coarsest point, then bisects the whole grid, scale 1.0
    (lossless) included. The point is the smallest passing one only where
    the container size falls monotonically along the grid, and it need
    not: on a 256x256 ramp at target 113.8 the search returns k = 164,
    while 159, 161 and 162 pass. A bisection probe whose lower bound
    (``_ProbeSizer.bound``) already exceeds ``raw_bits / target_cr``
    fails without its zero-run scan, payload or header; the coarsest
    probe is always sized, since its ratio is what RateControlError
    reports.
    Returns the chosen config with its container bits, payload bits and
    token table (``_ProbeSizer.frequencies``).
    """
    sizer = _ProbeSizer(pyramid)
    budget = raw_bits / target_cr
    coarsest = _grid_config(_SCALE_GRID_MAX, pyramid.levels)
    total, payload, table = sizer.size(coarsest)
    if raw_bits / total < target_cr:
        raise RateControlError(target_cr, raw_bits / total)
    # steps -> (total bits, payload bits), or None where the bound failed
    sizes = {coarsest.steps: (total, payload)}

    def passes(k: int) -> bool:
        # ``table`` is that of the last point sized that passed, which
        # bisection keeps as hi; a point that passes from the cache has
        # hi's steps, since the steps grow with k
        nonlocal table
        config = _grid_config(k, pyramid.levels)
        if config.steps not in sizes:
            nonzero = sizer.nonzero(config)
            # the margin absorbs float rounding in the bound's entropy
            if sizer.bound(config, nonzero) > budget * (1 + 1e-9):
                sizes[config.steps] = None
            else:
                total, payload, probed = sizer.size(config, nonzero)
                sizes[config.steps] = (total, payload)
                if raw_bits / total >= target_cr:
                    table = probed
        size = sizes[config.steps]
        return size is not None and raw_bits / size[0] >= target_cr

    lo, hi = 0, _SCALE_GRID_MAX
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    config = _grid_config(lo, pyramid.levels)
    return (config, *sizes[config.steps], table)


def compress(
    image: GrayImage,
    target_cr: float = DEFAULT_TARGET_CR,
    levels: int = DEFAULT_LEVELS,
    lossless: bool = False,
) -> CompressedBitstream:
    """Compress an image to at least the requested compression ratio.

    The search returns a quantizer scale that reaches the target while
    the next finer grid scale does not (or scale 1.0). Where the size
    falls monotonically along the grid, that is the smallest scale
    reaching the target, the best quality the grid offers at that ratio;
    elsewhere a finer scale can reach it too (see ``_rate_search``).
    Probes are bounded from per-plane value tables and, where the bound
    does not fail them, sized exactly from those tables and the zero
    mask, so no token array exists until the chosen config is quantized
    and encoded; there is no separate lossless probe. An encoded
    container of another size than its probe priced raises CodecError.
    ``lossless`` skips rate control entirely and encodes with unit steps.
    Raises RateControlError when even the coarsest grid point cannot
    reach the target.
    """
    if not target_cr >= 1.0:
        raise CodecError(f"target compression ratio {target_cr:g} must be >= 1")
    if image.width * image.height > MAX_SAMPLES:
        raise CodecError(
            f"{image.width}x{image.height} image exceeds {MAX_SAMPLES} samples"
        )
    pyramid = dwt_forward(image, levels)
    priced = table = None
    if lossless:
        config = _grid_config(0, levels)
    else:
        config, *priced, table = _rate_search(pyramid, image.total_bits, target_cr)
    # each stream dies once read: the unquantized one here, the quantized
    # one before the code is built
    pyramid = quantize(pyramid, config)
    geometry = (pyramid.width, pyramid.height, pyramid.bit_depth)
    tokens = _tokenize(pyramid.coefficients)
    del pyramid
    stream, bits = _encode(tokens, geometry, config, table)
    if priced is not None and [bits, stream.payload_bit_length] != priced:
        raise CodecError("size accounting mismatch during encode")
    return stream


def decompress(stream: CompressedBitstream) -> GrayImage:
    """Reconstruct the image a stream describes.

    Corrupt payloads raise DecodeError rather than crashing; container
    parse errors surface as BitstreamError from ``from_bytes`` before this
    point.
    """
    try:
        code = HuffmanCode(stream.symbols, stream.code_lengths)
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
