"""Transform tests, checked against a direct per-definition implementation.

The oracle below evaluates the lifting equations sample by sample on a
symmetrically extended signal, with no slicing shortcuts, so agreement
with the vectorized transform is meaningful.
"""

import numpy as np
import pytest

from medlink.dwt import dwt_forward, dwt_inverse, subband_shapes
from medlink.image_io import GrayImage


def _reflect(i, n):
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i %= period
    return period - i if i >= n else i


def _ref_analyze_1d(x):
    n = len(x)
    if n == 1:
        return list(x), []

    def xe(i):
        return x[_reflect(i, n)]

    def detail(k):
        return xe(2 * k + 1) - (xe(2 * k) + xe(2 * k + 2)) // 2

    n_odd = n // 2
    n_even = (n + 1) // 2
    d = [detail(k) for k in range(n_odd)]
    s = [xe(2 * k) + (detail(k - 1) + detail(k) + 2) // 4 for k in range(n_even)]
    return s, d


def _ref_forward(pixels, levels):
    cur = [[int(v) for v in row] for row in pixels]
    out = []
    for _ in range(levels):
        rows = [_ref_analyze_1d(row) for row in cur]
        left = [s for s, _ in rows]
        right = [d for _, d in rows]

        def cols(mat):
            if not mat or not mat[0]:
                return [], []
            transposed = list(map(list, zip(*mat)))
            done = [_ref_analyze_1d(col) for col in transposed]
            top = list(map(list, zip(*[s for s, _ in done])))
            bottom_halves = [d for _, d in done]
            bottom = list(map(list, zip(*bottom_halves))) if bottom_halves[0] else []
            return top, bottom

        ll, lh = cols(left)
        hl, hh = cols(right)
        out.append((hl, lh, hh))
        cur = ll
    return cur, out


def _random_image(rng, w, h, depth=8):
    return GrayImage(w, h, depth, rng.integers(0, 1 << depth, size=(h, w)))


def test_matches_reference_on_8x8_ramp():
    pixels = np.arange(64).reshape(8, 8)
    img = GrayImage(8, 8, 8, pixels)
    pyr = dwt_forward(img, 1)
    ref_ll, ref_details = _ref_forward(pixels, 1)
    assert pyr.ll.tolist() == ref_ll
    hl, lh, hh = ref_details[0]
    assert pyr.details[0].hl.tolist() == hl
    assert pyr.details[0].lh.tolist() == lh
    assert pyr.details[0].hh.tolist() == hh


@pytest.mark.parametrize("w,h,levels", [(8, 8, 2), (7, 5, 1), (12, 9, 2), (16, 11, 3)])
def test_matches_reference_on_random_images(w, h, levels):
    rng = np.random.default_rng(w * 100 + h)
    img = _random_image(rng, w, h)
    pyr = dwt_forward(img, levels)
    ref_ll, ref_details = _ref_forward(img.pixels, levels)
    assert pyr.ll.tolist() == ref_ll
    for bands, (hl, lh, hh) in zip(pyr.details, ref_details):
        assert bands.hl.tolist() == hl
        assert bands.lh.tolist() == lh
        assert bands.hh.tolist() == hh


def test_constant_image_has_zero_details():
    img = GrayImage(16, 16, 8, np.full((16, 16), 77, dtype=np.uint8))
    pyr = dwt_forward(img, 3)
    for bands in pyr.details:
        assert not bands.hl.any()
        assert not bands.lh.any()
        assert not bands.hh.any()
    assert (pyr.ll == 77).all()


@pytest.mark.parametrize("depth", [8, 16])
def test_round_trip_is_bit_exact(depth):
    rng = np.random.default_rng(depth)
    for _ in range(30):
        w = int(rng.integers(4, 40))
        h = int(rng.integers(4, 40))
        levels = int(rng.integers(1, 3))
        if 2**levels > min(w, h):
            levels = 1
        img = _random_image(rng, w, h, depth)
        assert dwt_inverse(dwt_forward(img, levels)) == img


def test_round_trip_odd_dimensions_three_levels():
    rng = np.random.default_rng(99)
    img = _random_image(rng, 13, 21, 16)
    assert dwt_inverse(dwt_forward(img, 3)) == img


def test_subband_tiling_covers_the_image():
    for w, h, levels in [(256, 256, 3), (7, 5, 2), (2000, 1000, 4)]:
        ll, per_level = subband_shapes(w, h, levels)
        area = ll[0] * ll[1]
        for shapes in per_level:
            area += sum(r * c for r, c in shapes)
        assert area == w * h


def test_plane_order_is_ll_then_finest_to_deepest():
    rng = np.random.default_rng(1)
    pyr = dwt_forward(_random_image(rng, 16, 16), 2)
    fine, deep = pyr.details
    expected = [pyr.ll, fine.hl, fine.lh, fine.hh, deep.hl, deep.lh, deep.hh]
    planes = pyr.plane_arrays()
    assert len(planes) == len(expected)
    assert all(plane is want for plane, want in zip(planes, expected))
    assert fine.hh.shape == (8, 8) and deep.hh.shape == (4, 4)


def test_levels_too_deep_rejected():
    rng = np.random.default_rng(2)
    img = _random_image(rng, 8, 8)
    with pytest.raises(ValueError, match="too deep"):
        dwt_forward(img, 4)
    dwt_forward(img, 3)  # boundary case is allowed


def test_inverse_rejects_mismatched_tiling():
    rng = np.random.default_rng(3)
    pyr = dwt_forward(_random_image(rng, 16, 16), 2)
    pyr.details[0].hl = pyr.details[0].hl[:-1]
    with pytest.raises(ValueError):
        dwt_inverse(pyr)
