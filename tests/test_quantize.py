import numpy as np
import pytest

from medlink.dwt import dwt_forward
from medlink.image_io import GrayImage
from medlink.quantize import QuantizerConfig, dequantize, quantize, synthesis_gains


def _pyramid(seed=0, w=16, h=16, levels=2):
    rng = np.random.default_rng(seed)
    img = GrayImage(w, h, 8, rng.integers(0, 256, size=(h, w)))
    return dwt_forward(img, levels)


def test_dead_zone_index_and_reconstruction():
    pyr = _pyramid()
    pyr.plane_arrays()[0][0, 0] = 7
    config = QuantizerConfig(steps=(4,) * 7)
    q = quantize(pyr, config)
    assert q.plane_arrays()[0][0, 0] == 1  # floor(7 / 4)
    assert dequantize(q, config).plane_arrays()[0][0, 0] == 4


def test_dead_zone_is_symmetric_in_sign():
    values = np.array([-9, -4, -1, 0, 1, 4, 9])
    pyr = _pyramid(w=16, h=16, levels=1)
    pyr.plane_arrays()[0][0, :7] = values
    config = QuantizerConfig(steps=(4,) * 4)
    q = quantize(pyr, config)
    assert q.plane_arrays()[0][0, :7].tolist() == [-2, -1, 0, 0, 0, 1, 2]


def test_step_one_is_identity():
    pyr = _pyramid(seed=5)
    config = QuantizerConfig(steps=(1,) * 7)
    q = quantize(pyr, config)
    for orig, quant in zip(pyr.plane_arrays(), q.plane_arrays()):
        assert np.array_equal(orig, quant)


def test_each_plane_gets_its_own_step():
    pyr = _pyramid(seed=8)
    config = QuantizerConfig(steps=(1, 2, 3, 5, 7, 11, 13))
    q = quantize(pyr, config)
    for orig, quant, step in zip(pyr.plane_arrays(), q.plane_arrays(), config.steps):
        assert np.array_equal(quant, np.sign(orig) * (np.abs(orig) // step))
    recon = dequantize(q, config)
    for quant, rec, step in zip(q.plane_arrays(), recon.plane_arrays(), config.steps):
        assert np.array_equal(rec, quant * step)


def test_everything_below_step_becomes_zero():
    pyr = _pyramid(seed=6)
    big = 1 << 20
    config = QuantizerConfig(steps=(big,) * 7)
    q = quantize(pyr, config)
    for plane in q.plane_arrays():
        assert not plane.any()


def test_quantize_dequantize_error_bounded_by_step():
    pyr = _pyramid(seed=7, levels=2)
    config = QuantizerConfig(steps=(6,) * 7)
    recon = dequantize(quantize(pyr, config), config)
    for orig, rec in zip(pyr.plane_arrays(), recon.plane_arrays()):
        assert np.abs(orig - rec).max() < 6


def test_gains_favor_deep_planes():
    gains = synthesis_gains(3)
    assert len(gains) == 10
    # LL amplifies errors the most, the finest diagonal band the least
    assert gains[0] == max(gains)
    assert gains[3] == min(gains)
    config = QuantizerConfig.from_scale(8.0, 3)
    assert config.steps[0] < config.steps[3]  # finer step where gain is higher
    hl1, lh1, hh1 = config.steps[1], config.steps[2], config.steps[3]
    assert hl1 == lh1 <= hh1


def test_scale_one_is_lossless_and_steps_grow_with_scale():
    assert QuantizerConfig.from_scale(1.0, 3).steps == (1,) * 10
    prev = None
    for k in range(0, 161, 8):
        steps = QuantizerConfig.from_scale(2.0 ** (k / 16), 3).steps
        if prev is not None:
            assert all(b >= a for a, b in zip(prev, steps))
        prev = steps


def test_config_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(steps=())
    with pytest.raises(ValueError):
        QuantizerConfig(steps=(1, 1))  # not 1 + 3k entries
    with pytest.raises(ValueError):
        QuantizerConfig(steps=(1, 1, 0, 1))
    with pytest.raises(ValueError):
        QuantizerConfig.from_scale(0.0, 1)


def test_level_mismatch_rejected():
    pyr = _pyramid(levels=2)
    with pytest.raises(ValueError, match="levels"):
        quantize(pyr, QuantizerConfig(steps=(1,) * 10))
