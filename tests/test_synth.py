import numpy as np
import pytest

from medlink.synth import KINDS, _ramp, synth_image


def _blob_field_on_grid(rng, width, height, maxval):
    """Reference: every bump evaluated over a 2-D coordinate grid."""
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


def _synth_on_grid(kind, width, height, bit_depth, seed):
    maxval = (1 << bit_depth) - 1
    rng = np.random.default_rng(seed)
    if kind == "ramp":
        field = _ramp(width, height, maxval)
    elif kind == "noise":
        field = rng.uniform(0, maxval, size=(height, width))
    elif kind == "blobs":
        field = _blob_field_on_grid(rng, width, height, maxval)
        field += rng.normal(0, maxval / 256, size=(height, width))
    else:
        field = 0.5 * _blob_field_on_grid(rng, width, height, maxval)
        field += 0.35 * _ramp(width, height, maxval)
        field += rng.normal(0, maxval / 64, size=(height, width))
    return np.clip(np.rint(field), 0, maxval).astype(np.int64)


@pytest.mark.parametrize("kind", KINDS)
def test_images_equal_the_grid_evaluation_bit_for_bit(kind):
    for (width, height), depth, seed in [
        ((1, 1), 16, 0),
        ((64, 97), 16, 1),
        ((97, 64), 8, 2),
        ((255, 257), 16, 3),
        ((7, 300), 16, 4),
    ]:
        image = synth_image(kind, width, height, depth, seed=seed)
        expected = _synth_on_grid(kind, width, height, depth, seed)
        assert image.pixels.shape == (height, width)
        assert np.array_equal(image.pixels, expected), (kind, width, height, seed)
