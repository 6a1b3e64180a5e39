"""Seeded fuzzing of the untrusted text and image inputs: PGM files and
``--mac-config`` files raise only their documented errors, each case
within a wall-time bound."""

import time
from dataclasses import fields

import numpy as np
import pytest

from medlink import macsim, transport
from medlink.image_io import GrayImage, PgmError, load_pgm, save_pgm

# far above the few milliseconds the slowest case takes, so that only a
# runaway parse or allocation trips it
CASE_SECONDS = 0.25


def _timed(fn, case, allowed):
    """Call ``fn(case)``; True when it returns, False when it raises one
    of ``allowed``. Any other exception propagates."""
    start = time.perf_counter()
    try:
        fn(case)
        ok = True
    except allowed:
        ok = False
    elapsed = time.perf_counter() - start
    assert elapsed < CASE_SECONDS, (elapsed, case)
    return ok


# bytes that reshape a header: digits, separators, comments, signs
_PGM_BYTES = list(b"0123456789 \n\t#-+P") + [0, 0x80, 0xFF]


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize("ascii_format", [False, True])
def test_truncated_and_mutated_pgms_raise_only_pgm_errors(depth, ascii_format):
    rng = np.random.default_rng(depth + ascii_format)
    image = GrayImage(7, 5, depth, rng.integers(0, 1 << depth, size=(5, 7)))
    data = save_pgm(image, ascii_format=ascii_format)
    cases = [data[:n] for n in range(len(data))]
    header = len(b"P5\n7 5\n%d\n" % image.max_sample)
    for _ in range(300):
        mutated = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            # half of the bytes hit the header, where the parser branches
            pos = int(rng.integers(header if rng.random() < 0.5 else len(data)))
            if rng.random() < 0.7:
                mutated[pos] = int(rng.choice(_PGM_BYTES))
            else:
                mutated[pos] = int(rng.integers(256))
        cases.append(bytes(mutated))
    outcomes = [_timed(load_pgm, case, PgmError) for case in cases]
    # a binary raster has no slack; an ASCII one can lose its final
    # newline or a sample's last digit and still parse
    assert ascii_format or not any(outcomes[: len(data)])
    assert 0 < sum(outcomes) < len(outcomes)
    assert load_pgm(data) == image


# values that overflow, vanish, are not numbers or are out of range
_HOSTILE_VALUES = [
    "0", "-1", "-0.5", "-1e9", "1e400", "-1e400", "inf", "-inf", "nan",
    "1e308", "1e-300", "9" * 30, "1" + "0" * 400, "", "x", "1e", "0x10", "2.5",
]
_PROFILES = ["11b", "11g", "11n", "", "11B"]
# one, a mid-sized and the largest default container, in 512-byte blocks
_PLANS = [transport.fragment(size, 512) for size in (1, 40_000, 2_000_000)]


def _simulate_all(text: str):
    params = macsim.load_mac_config(text)
    for plan in _PLANS:
        for scenario in macsim.SCENARIOS:
            macsim.simulate(scenario, plan, params)


def test_mutated_mac_configs_raise_only_value_errors():
    rng = np.random.default_rng(17)
    names = [f.name for f in fields(macsim.MacParameters)]
    lines = [f"{name} = {getattr(macsim.PROFILE_11B, name)}" for name in names]
    base = ["profile = 11b", *lines]
    assert _timed(_simulate_all, "\n".join(base), ValueError)
    outcomes = []
    for _ in range(400):
        mutated = list(base)
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(len(mutated)))
            key = mutated[i].split(" = ")[0]
            if key == "profile":
                mutated[i] = f"profile = {rng.choice(_PROFILES)}"
            elif rng.random() < 0.9:
                mutated[i] = f"{key} = {rng.choice(_HOSTILE_VALUES)}"
            else:
                mutated[i] = f"{key}x = 1"  # an unknown key
        text = "\n".join(mutated[i] for i in rng.permutation(len(mutated)))
        outcomes.append(_timed(_simulate_all, text, ValueError))
    assert 0 < sum(outcomes) < len(outcomes)
