"""Transform tests, checked against a direct per-definition implementation.

The oracle below evaluates the lifting equations sample by sample on a
symmetrically extended signal, with no slicing shortcuts, so agreement
with the vectorized transform is meaningful.
"""

import tracemalloc

import numpy as np
import pytest

from medlink.dwt import SubbandPyramid, dwt_forward, dwt_inverse, subband_shapes
from medlink.image_io import GrayImage
from medlink.synth import synth_image


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
    ll, hl, lh, hh = pyr.plane_arrays()
    assert ll.tolist() == ref_ll
    assert [hl.tolist(), lh.tolist(), hh.tolist()] == list(ref_details[0])


@pytest.mark.parametrize("w,h,levels", [(8, 8, 2), (7, 5, 1), (12, 9, 2), (16, 11, 3)])
def test_matches_reference_on_random_images(w, h, levels):
    rng = np.random.default_rng(w * 100 + h)
    img = _random_image(rng, w, h)
    pyr = dwt_forward(img, levels)
    ref_ll, ref_details = _ref_forward(img.pixels, levels)
    ll, *details = pyr.plane_arrays()
    assert ll.tolist() == ref_ll
    assert [plane.tolist() for plane in details] == [
        plane for bands in ref_details for plane in bands
    ]


def test_constant_image_has_zero_details():
    img = GrayImage(16, 16, 8, np.full((16, 16), 77, dtype=np.uint8))
    pyr = dwt_forward(img, 3)
    ll, *details = pyr.plane_arrays()
    assert not any(plane.any() for plane in details)
    assert (ll == 77).all()


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
    ll, per_level = subband_shapes(16, 16, 2)
    expected = [ll, *(shape for bands in per_level for shape in bands)]
    assert expected == [(4, 4), (8, 8), (8, 8), (8, 8), (4, 4), (4, 4), (4, 4)]
    rng = np.random.default_rng(1)
    pyr = dwt_forward(_random_image(rng, 16, 16), 2)
    assert [plane.shape for plane in pyr.plane_arrays()] == expected


def test_plane_views_share_the_stream():
    rng = np.random.default_rng(41)
    pyr = dwt_forward(_random_image(rng, 23, 17, 16), 2)
    assert pyr.coefficients.shape == (23 * 17,)
    planes = pyr.plane_arrays()
    assert all(np.shares_memory(plane, pyr.coefficients) for plane in planes)
    # the views tile the stream in order, each plane row-major
    assert np.array_equal(
        np.concatenate([plane.ravel() for plane in planes]), pyr.coefficients
    )
    planes[2][0, 0] = 12345
    assert pyr.coefficients[planes[0].size + planes[1].size] == 12345


def test_levels_too_deep_rejected():
    rng = np.random.default_rng(2)
    img = _random_image(rng, 8, 8)
    with pytest.raises(ValueError, match="too deep"):
        dwt_forward(img, 4)
    dwt_forward(img, 3)  # boundary case is allowed


def test_pyramid_rejects_wrong_size_stream():
    for shape in [(16 * 16 - 1,), (16 * 16 + 1,), (16, 16), (0,)]:
        with pytest.raises(ValueError, match="coefficient stream"):
            SubbandPyramid(2, 16, 16, 8, np.zeros(shape, dtype=np.int64))


def test_pyramid_rejects_zero_levels():
    # dwt_inverse would otherwise clamp the caller's stream in place
    with pytest.raises(ValueError, match="levels"):
        SubbandPyramid(0, 2, 2, 8, np.array([-5, 300, 7, 9]))


def test_forward_peak_memory_is_bounded():
    # the image's int64 copy is the coefficient stream; a separately
    # allocated stream would peak near 18x the pixel bytes
    img = synth_image("mixed", 512, 512, bit_depth=16, seed=0)
    tracemalloc.start()
    try:
        dwt_forward(img, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * img.pixels.nbytes
