"""End-to-end command-line tests, run in process via main()."""

import hashlib
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import medlink
from medlink.cli import main
from medlink.image_io import load_pgm
from medlink.synth import synth_image

SPEC_SMALL = "synth:blobs:64x64x8:seed=1"
NAME_SMALL = "blobs-64x64-s1"


def _rows(path):
    header, *rows = path.read_text().strip().split("\n")
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def test_compress_then_decompress_round_trip(tmp_path):
    rc = main(["compress", "--input", SPEC_SMALL, "--out", str(tmp_path)])
    assert rc == 0
    wbc = tmp_path / f"{NAME_SMALL}.wbc"
    quality = tmp_path / f"{NAME_SMALL}_quality.csv"
    assert wbc.is_file() and quality.is_file()

    (row,) = _rows(quality)
    assert set(row) == {"cr", "entropy_h0", "mse", "psnr_db"}
    assert float(row["cr"]) >= 1.0
    assert float(row["psnr_db"]) > 20.0

    out2 = tmp_path / "decoded"
    rc = main(["decompress", "--input", str(wbc), "--out", str(out2)])
    assert rc == 0
    recon = load_pgm((out2 / f"{NAME_SMALL}.pgm").read_bytes())
    assert (recon.width, recon.height, recon.bit_depth) == (64, 64, 8)


def test_lossless_flag_reports_infinite_psnr(tmp_path):
    rc = main(["compress", "--input", SPEC_SMALL, "--lossless", "--out", str(tmp_path)])
    assert rc == 0
    (row,) = _rows(tmp_path / f"{NAME_SMALL}_quality.csv")
    assert float(row["mse"]) == 0.0
    assert math.isinf(float(row["psnr_db"]))

    rc = main([
        "decompress", "--input", str(tmp_path / f"{NAME_SMALL}.wbc"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    recon = load_pgm((tmp_path / f"{NAME_SMALL}.pgm").read_bytes())
    assert recon == synth_image("blobs", 64, 64, bit_depth=8, seed=1)


def test_compressed_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["compress", "--input", SPEC_SMALL, "--out", str(out)]) == 0
    assert (a / f"{NAME_SMALL}.wbc").read_bytes() == (b / f"{NAME_SMALL}.wbc").read_bytes()
    assert (a / f"{NAME_SMALL}_quality.csv").read_text() == (
        b / f"{NAME_SMALL}_quality.csv"
    ).read_text()


def test_simulate_default_covers_reference_geometries(tmp_path, monkeypatch):
    monkeypatch.delenv("MEDLINK_PROFILE", raising=False)
    rc = main(["simulate", "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path / "timing.csv")
    assert len(rows) == 18  # 3 geometries x 2 profiles x 3 scenarios
    assert {r["image"] for r in rows} == {"256x256", "512x512", "2000x2000"}
    assert {r["phy"] for r in rows} == {"11b", "11g"}
    assert {r["scenario"] for r in rows} == {"dcf", "dcf-rts", "pcf"}
    for r in rows:
        assert int(r["packets"]) > 0
        assert float(r["total_ms"]) > 0
        assert r["meets_fps"] in {"true", "false"}


def test_simulate_csv_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv("MEDLINK_PROFILE", raising=False)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--out", str(out)]) == 0
    assert (a / "timing.csv").read_bytes() == (b / "timing.csv").read_bytes()


def test_simulate_filters_reduce_rows(tmp_path, monkeypatch):
    monkeypatch.delenv("MEDLINK_PROFILE", raising=False)
    assert main(["simulate", "--scenario", "dcf", "--out", str(tmp_path)]) == 0
    assert len(_rows(tmp_path / "timing.csv")) == 6
    assert main(["simulate", "--phy", "11b", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "timing.csv")
    assert len(rows) == 9 and all(r["phy"] == "11b" for r in rows)
    assert main([
        "simulate", "--phy", "11g", "--scenario", "pcf", "--out", str(tmp_path),
    ]) == 0
    assert len(_rows(tmp_path / "timing.csv")) == 3


def test_simulate_feasibility_gate(tmp_path):
    # the largest geometry cannot sustain ten transfers per second
    rc = main([
        "simulate", "--phy", "11b", "--require-feasible", "--out", str(tmp_path),
    ])
    assert rc == 1
    rc = main([
        "simulate", "--phy", "11b", "--require-feasible", "--fps", "0.9",
        "--out", str(tmp_path),
    ])
    assert rc == 0


@pytest.mark.parametrize("fps", ["0", "-5"])
def test_simulate_rejects_non_positive_fps(tmp_path, fps):
    rc = main([
        "simulate", "--require-feasible", "--fps", fps, "--out", str(tmp_path),
    ])
    assert rc == 2
    assert not (tmp_path / "timing.csv").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--cr", "0"],
    ["simulate", "--cr", "0.5"],
    ["simulate", "--cr", "nan"],
    ["compress", "--input", SPEC_SMALL, "--cr", "0.5"],
    ["sweep", "--input", SPEC_SMALL, "--cr-points", "2", "--cr", "0"],
])
def test_ratio_below_one_is_a_usage_error(tmp_path, command):
    assert main([*command, "--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate", "--blocksize", "999"],
    ["simulate", "--scenario", "warp"],
    ["compress"],
])
def test_argparse_usage_error_is_a_return_value(tmp_path, capsys, command):
    assert main([*command, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage: medlink")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,message", [
    (["simulate", "--fps", "0"], "argument --fps: 0 must be positive"),
    (["simulate", "--cr", "abc"], "argument --cr: 'abc' is not a number"),
    (["compress", "--input", SPEC_SMALL, "--cr", "nan"], "argument --cr: nan must be >= 1"),
    (["sweep", "--input", SPEC_SMALL, "--cr-points", "20,10"],
     "argument --cr-points: rate points must be strictly ascending"),
])
def test_option_check_names_the_option_once(tmp_path, capsys, command, message):
    assert main([*command, "--out", str(tmp_path)]) == 2
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == f"medlink {command[0]}: error: {message}"


@pytest.mark.parametrize("cr", ["inf", "1e300"])
def test_simulate_ratio_too_high_for_any_byte_is_a_usage_error(tmp_path, capsys, cr):
    assert main(["simulate", "--cr", cr, "--out", str(tmp_path)]) == 2
    assert f"--cr {float(cr):g}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_profile_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("MEDLINK_PROFILE", "11g")
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "timing.csv")
    assert len(rows) == 9 and all(r["phy"] == "11g" for r in rows)

    monkeypatch.setenv("MEDLINK_PROFILE", "11ac")
    assert main(["simulate", "--out", str(tmp_path)]) == 2


def test_simulate_custom_mac_config(tmp_path):
    cfg = tmp_path / "lab.mac"
    cfg.write_text("profile = 11b\nretx_factor = 1\n")
    assert main([
        "simulate", "--mac-config", str(cfg), "--scenario", "dcf",
        "--out", str(tmp_path / "custom"),
    ]) == 0
    custom = _rows(tmp_path / "custom" / "timing.csv")
    assert len(custom) == 3 and all(r["phy"] == "custom" for r in custom)

    assert main([
        "simulate", "--phy", "11b", "--scenario", "dcf",
        "--out", str(tmp_path / "stock"),
    ]) == 0
    stock = _rows(tmp_path / "stock" / "timing.csv")
    # one transmission per packet instead of two must be faster
    for one, two in zip(custom, stock):
        assert float(one["total_ms"]) < float(two["total_ms"])

    bad = tmp_path / "bad.mac"
    bad.write_text("warp_factor = 9\n")
    assert main(["simulate", "--mac-config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "config,message",
    [
        ("phy_rate = 1e-300", "duration of inf us is out of range"),
        ("control_rate = 1e-300", "us is out of range"),
        ("mean_backoff_slots = inf", "mean_backoff_slots must be finite"),
        ("phy_rate = nan", "phy_rate must be finite"),
        ("plcp_overhead = nan", "plcp_overhead must be finite"),
        ("slot_time = inf", "slot_time must be finite"),
        ("mac_header_bytes = -1000", "mac_header_bytes cannot be negative"),
        pytest.param("mac_header_bytes = 1" + "0" * 400,
                     "mac_header_bytes must be finite", id="mac_header_bytes=1e400"),
        pytest.param("retx_factor = 1" + "0" * 306, "us is out of range",
                     id="retx_factor=1e306"),
    ],
)
def test_hostile_mac_config_is_a_usage_error(tmp_path, capsys, config, message):
    # these raised OverflowError, named no field, or printed negative times
    mac = tmp_path / "hostile.mac"
    mac.write_text(config + "\n")
    assert main(["simulate", "--mac-config", str(mac), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_simulate_accepts_compressed_file(tmp_path):
    assert main(["compress", "--input", SPEC_SMALL, "--out", str(tmp_path)]) == 0
    wbc = tmp_path / f"{NAME_SMALL}.wbc"
    assert main([
        "simulate", "--input", str(wbc), "--phy", "11b", "--scenario", "dcf",
        "--out", str(tmp_path),
    ]) == 0
    (row,) = _rows(tmp_path / "timing.csv")
    assert (row["width"], row["height"]) == ("64", "64")
    nbytes = wbc.stat().st_size
    expected_packets = nbytes // 512 + 1  # final short or terminator block
    assert int(row["packets"]) == expected_packets


def test_missing_input_is_a_usage_error(tmp_path):
    assert main(["compress", "--input", str(tmp_path / "nope.pgm")]) == 2
    assert main(["decompress", "--input", str(tmp_path / "nope.wbc")]) == 2


def test_bad_synth_spec_is_a_usage_error(tmp_path):
    out = ["--out", str(tmp_path)]
    assert main(["compress", "--input", "synth:wat", *out]) == 2
    assert main(["compress", "--input", "synth:blobs:64x64", *out]) == 2
    assert main(["compress", "--input", "synth:swirl:64x64x8", *out]) == 2


def test_corrupt_container_is_a_codec_error(tmp_path):
    garbage = tmp_path / "garbage.wbc"
    garbage.write_bytes(b"definitely not a container")
    assert main(["decompress", "--input", str(garbage), "--out", str(tmp_path)]) == 3

    assert main(["compress", "--input", SPEC_SMALL, "--out", str(tmp_path)]) == 0
    valid = (tmp_path / f"{NAME_SMALL}.wbc").read_bytes()
    truncated = tmp_path / "truncated.wbc"
    truncated.write_bytes(valid[:-3])
    assert main(["decompress", "--input", str(truncated), "--out", str(tmp_path)]) == 3


def test_zero_quantizer_step_is_a_codec_error(tmp_path):
    assert main(["compress", "--input", SPEC_SMALL, "--out", str(tmp_path)]) == 0
    data = bytearray((tmp_path / f"{NAME_SMALL}.wbc").read_bytes())
    struct.pack_into("<I", data, 18, 0)  # first quantizer step
    bad = tmp_path / "zero_step.wbc"
    bad.write_bytes(bytes(data))
    assert main(["decompress", "--input", str(bad), "--out", str(tmp_path)]) == 3


def test_impossible_level_count_is_a_codec_error(tmp_path):
    assert main(["compress", "--input", SPEC_SMALL, "--out", str(tmp_path)]) == 0
    data = bytearray((tmp_path / f"{NAME_SMALL}.wbc").read_bytes())
    # 7 levels with a matching step table of 22 entries; 2**7 > 64
    steps_end = 18 + 4 * (1 + 3 * data[14])
    data[steps_end:steps_end] = struct.pack("<I", 1) * (3 * (7 - data[14]))
    data[14] = 7
    struct.pack_into("<H", data, 16, 1 + 3 * 7)
    bad = tmp_path / "deep.wbc"
    bad.write_bytes(bytes(data))
    assert main(["decompress", "--input", str(bad), "--out", str(tmp_path)]) == 3


def test_code_length_beyond_cap_is_a_codec_error(tmp_path, capsys):
    assert main(["compress", "--input", SPEC_SMALL, "--out", str(tmp_path)]) == 0
    data = bytearray((tmp_path / f"{NAME_SMALL}.wbc").read_bytes())
    pos = 18 + 4 * (1 + 3 * data[14]) + 4  # first code table entry
    while data[pos] & 0x80:  # its symbol varint
        pos += 1
    data[pos + 1] = 58
    bad = tmp_path / "long_code.wbc"
    bad.write_bytes(bytes(data))
    assert main(["decompress", "--input", str(bad), "--out", str(tmp_path)]) == 3
    message = f"code length 58 out of range (byte offset {pos + 1})"
    assert message in capsys.readouterr().err


_CLI_UNDER_1_GIB = """
import resource, sys
from medlink.cli import main
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.exit(main(sys.argv[1:]))
"""


def test_synth_spec_above_sample_ceiling_is_a_usage_error(tmp_path):
    src = str(Path(medlink.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _CLI_UNDER_1_GIB, "compress",
         "--input", "synth:blobs:50000x50000x16", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert "50000x50000 image exceeds" in result.stderr


def test_container_above_sample_ceiling_is_a_codec_error(tmp_path, capsys):
    assert main(["compress", "--input", SPEC_SMALL, "--out", str(tmp_path)]) == 0
    data = bytearray((tmp_path / f"{NAME_SMALL}.wbc").read_bytes())
    struct.pack_into("<II", data, 5, 50000, 50000)
    bad = tmp_path / "huge.wbc"
    bad.write_bytes(bytes(data))
    assert main(["decompress", "--input", str(bad), "--out", str(tmp_path)]) == 3
    assert "exceeds 67108864 samples (byte offset 5)" in capsys.readouterr().err


def test_unreachable_ratio_is_a_codec_error(tmp_path):
    rc = main([
        "compress", "--input", "synth:noise:64x64x8:seed=0", "--cr", "500",
        "--out", str(tmp_path),
    ])
    assert rc == 3


def test_sweep_writes_rate_and_fragmentation_tables(tmp_path):
    spec = "synth:blobs:128x128x16:seed=2"
    rc = main([
        "sweep", "--input", spec, "--cr-points", "2,5,10,20", "--out", str(tmp_path),
    ])
    assert rc == 0
    name = "blobs-128x128-s2"

    rd = _rows(tmp_path / f"{name}_rd.csv")
    assert [float(r["target_cr"]) for r in rd] == [2.0, 5.0, 10.0, 20.0]
    assert all(r["error"] == "" for r in rd)
    assert all(float(r["achieved_cr"]) >= float(r["target_cr"]) for r in rd)
    mses = [float(r["mse"]) for r in rd]
    assert mses == sorted(mses)

    frag = _rows(tmp_path / f"{name}_frag.csv")
    assert len(frag) == 9  # 3 blocksizes x 3 scenarios
    by_scenario = {}
    for r in frag:
        by_scenario.setdefault(r["scenario"], []).append(
            (int(r["blocksize"]), float(r["effective_mbit_s"]))
        )
    for pairs in by_scenario.values():
        rates = [rate for _, rate in sorted(pairs)]
        # larger blocks mean fewer headers, so throughput cannot drop
        assert rates == sorted(rates)


def test_sweep_rejects_bad_rate_points(tmp_path):
    base = ["sweep", "--input", SPEC_SMALL, "--out", str(tmp_path)]
    assert main([*base, "--cr-points", "20,10"]) == 2
    assert main([*base, "--cr-points", "0.5,2"]) == 2
    assert main([*base, "--cr-points", ","]) == 2
    assert main([*base, "--cr-points", "2,nan"]) == 2


# sha256 of reference outputs: a change to either is a change in the
# numbers the tool reports, so it must be deliberate
DEFAULT_TIMING_SHA256 = "3f93ed4241e54d27031fcae7383b7d88b3f8b503460dd83e4835b65e88a9b371"
SWEEP_FRAG_SHA256 = "7f9fbccb82b3fe6f54bf8c71260345d667f255259424448d1adef94a9febaf8c"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_simulate_timing_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("MEDLINK_PROFILE", raising=False)
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "timing.csv") == DEFAULT_TIMING_SHA256


def test_sweep_fragmentation_bytes_are_pinned(tmp_path):
    rc = main([
        "sweep", "--input", "synth:blobs:128x128x16:seed=2",
        "--cr-points", "2,5,10,20", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert _sha256(tmp_path / "blobs-128x128-s2_frag.csv") == SWEEP_FRAG_SHA256
