import tracemalloc

import numpy as np
import pytest

from medlink.image_io import GrayImage, PgmError, load_pgm, save_pgm


def test_parse_minimal_binary():
    data = b"P5 2 2 255\n" + bytes([0, 1, 2, 3])
    img = load_pgm(data)
    assert (img.width, img.height, img.bit_depth) == (2, 2, 8)
    assert img.pixels.tolist() == [[0, 1], [2, 3]]


def test_parse_minimal_ascii_matches_binary():
    ascii_img = load_pgm(b"P2\n2 2\n255\n0 1\n2 3\n")
    binary_img = load_pgm(b"P5 2 2 255\n" + bytes([0, 1, 2, 3]))
    assert ascii_img == binary_img


def test_header_comments_are_skipped():
    data = b"P5\n# made by hand\n2 1\n# another note\n255\n" + bytes([7, 9])
    img = load_pgm(data)
    assert img.pixels.tolist() == [[7, 9]]


def test_sixteen_bit_samples_are_big_endian():
    # reference decode straight from the raster bytes, independent of the loader
    rng = np.random.default_rng(42)
    pixels = rng.integers(0, 65536, size=(5, 4))
    img = GrayImage(width=4, height=5, bit_depth=16, pixels=pixels)
    data = save_pgm(img)
    raster = data.split(b"65535\n", 1)[1]
    assert len(raster) == 5 * 4 * 2
    for i in range(5 * 4):
        hi, lo = raster[2 * i], raster[2 * i + 1]
        assert hi * 256 + lo == int(pixels[i // 4, i % 4])
    assert load_pgm(data) == img


def test_stream_size_is_header_plus_raster():
    img = GrayImage(512, 512, 16, np.zeros((512, 512), dtype=np.uint16))
    data = save_pgm(img)
    header = b"P5\n512 512\n65535\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 512 * 512 * 2


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("ascii_format", [False, True])
def test_random_round_trips(depth, ascii_format):
    rng = np.random.default_rng(depth)
    for _ in range(20):
        w = int(rng.integers(1, 33))
        h = int(rng.integers(1, 33))
        pixels = rng.integers(0, 1 << depth, size=(h, w))
        img = GrayImage(width=w, height=h, bit_depth=depth, pixels=pixels)
        assert load_pgm(save_pgm(img, ascii_format=ascii_format)) == img


def test_save_is_deterministic():
    rng = np.random.default_rng(0)
    img = GrayImage(9, 7, 8, rng.integers(0, 256, size=(7, 9)))
    assert save_pgm(img) == save_pgm(img)
    assert save_pgm(img, ascii_format=True) == save_pgm(img, ascii_format=True)


def test_bad_magic_reports_offset_zero():
    with pytest.raises(PgmError) as err:
        load_pgm(b"P6 2 2 255\n\x00\x00\x00\x00")
    assert err.value.offset == 0


def test_unsupported_maxval_rejected():
    with pytest.raises(PgmError, match="maxval"):
        load_pgm(b"P5 2 2 100\n" + bytes(4))


def test_truncated_raster_reports_offset():
    data = b"P5 4 4 255\n" + bytes(10)
    with pytest.raises(PgmError, match="truncated") as err:
        load_pgm(data)
    assert err.value.offset == len(data)


def test_huge_ascii_header_fails_before_allocating():
    data = b"P2 60000 60000 255\n1 2"  # 13.4 GiB of uint32 samples if allocated
    tracemalloc.start()
    try:
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ascii_sample_above_maxval_rejected():
    with pytest.raises(PgmError, match="exceeds maxval"):
        load_pgm(b"P2\n2 1\n255\n12 300\n")


def test_out_of_range_pixels_rejected_on_construction():
    with pytest.raises(ValueError):
        GrayImage(2, 1, 8, np.array([[0, 300]]))
    with pytest.raises(ValueError):
        GrayImage(2, 1, 8, np.array([[-1, 0]]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GrayImage(3, 2, 8, np.zeros((3, 3), dtype=np.uint8))


def test_total_bits():
    img = GrayImage(10, 4, 16, np.zeros((4, 10), dtype=np.uint16))
    assert img.total_bits == 10 * 4 * 16
