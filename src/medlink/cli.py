"""Command-line front end.

Four subcommands: ``compress`` and ``decompress`` move images through the
codec, ``simulate`` times fragmented transfers on the MAC models, and
``sweep`` produces rate-distortion and fragmentation tables for one
image. Inputs are PGM files or generator specs of the form
``synth:kind:WxHxD[:seed=N]``, e.g. ``synth:blobs:512x512x16:seed=3``.

Options are checked as they are parsed (``type=`` converters and
``choices``), before any input is read: a bad option puts argparse's usage
line and message on stderr and ``main`` returns 2.

Exit codes: 0 success, 1 feasibility check requested and failed,
2 usage or input error, 3 codec failure. All CSV output is deterministic
byte for byte for a given input and option set.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import codec, macsim, metrics, synth, transport
from .bitstream import BitstreamError, CompressedBitstream
from .image_io import GrayImage, PgmError, load_pgm, save_pgm

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_CODEC = 3

_TIMING_CSV_HEADER = (
    "image,width,height,phy,scenario,blocksize,packets,payload_bytes,"
    "total_ms,effective_mbit_s,fps_capacity,fps_target,meets_fps"
)
_FRAG_CSV_HEADER = "blocksize,scenario,packets,total_ms,effective_mbit_s"

# the three reference geometries timed by the default simulate run
DEFAULT_MODALITIES = (
    ("256x256", 256, 256, 16),
    ("512x512", 512, 512, 16),
    ("2000x2000", 2000, 2000, 16),
)


def _checked_float(ok, rule: str):
    """A ``type=`` converter: a float for which ``ok`` holds, else a usage error."""

    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
        if not ok(value):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"{value:g} must be {rule}")
        return value

    return convert


_ratio = _checked_float(lambda v: v >= 1.0, ">= 1")
_positive = _checked_float(lambda v: v > 0, "positive")


def _rate_points(text: str) -> list[float]:
    try:
        return metrics.check_rate_points(p for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medlink",
        description="Wavelet image codec and wireless transfer timing tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", type=Path, default=".",
                       help="output directory (default: .)")

    p_comp = sub.add_parser("compress", help="compress a PGM image")
    p_comp.add_argument("--input", required=True, help="PGM file or synth spec")
    p_comp.add_argument("--cr", type=_ratio, default=codec.DEFAULT_TARGET_CR,
                        help="target compression ratio (default 20)")
    p_comp.add_argument("--levels", type=int, default=codec.DEFAULT_LEVELS,
                        help="decomposition levels (default 3)")
    p_comp.add_argument("--lossless", action="store_true",
                        help="unit quantizer steps, ignore the target ratio")
    add_common(p_comp)

    p_dec = sub.add_parser("decompress", help="reconstruct a PGM from a compressed file")
    p_dec.add_argument("--input", required=True, help="compressed (.wbc) file")
    p_dec.add_argument("--ascii", action="store_true",
                       help="write ASCII (P2) instead of binary PGM")
    add_common(p_dec)

    p_sim = sub.add_parser("simulate", help="time image transfers on the MAC models")
    p_sim.add_argument("--input", action="append", default=[],
                       help="image, compressed file or synth spec; repeatable "
                            "(default: the three reference geometries)")
    p_sim.add_argument("--cr", type=_ratio, default=codec.DEFAULT_TARGET_CR,
                       help="ratio used to size images that are not .wbc files")
    p_sim.add_argument("--levels", type=int, default=codec.DEFAULT_LEVELS)
    p_sim.add_argument("--blocksize", type=int, default=512,
                       choices=transport.BLOCKSIZES)
    p_sim.add_argument("--scenario", default="all",
                       choices=list(macsim.SCENARIOS) + ["all"])
    p_sim.add_argument("--phy", default=None, choices=["11b", "11g", "all"],
                       help="parameter profile (default: MEDLINK_PROFILE or all)")
    p_sim.add_argument("--mac-config", default=None,
                       help="key=value file overriding MAC parameters")
    p_sim.add_argument("--fps", type=_positive, default=10.0,
                       help="image cadence the feasibility column checks")
    p_sim.add_argument("--require-feasible", action="store_true",
                       help="exit 1 unless every timed row sustains --fps")
    add_common(p_sim)

    p_swp = sub.add_parser("sweep", help="rate-distortion and fragmentation tables")
    p_swp.add_argument("--input", required=True, help="PGM file or synth spec")
    p_swp.add_argument("--cr-points", type=_rate_points, required=True,
                       help="comma-separated ascending target ratios")
    p_swp.add_argument("--cr", type=_ratio, default=codec.DEFAULT_TARGET_CR,
                       help="ratio for the fragmentation table")
    p_swp.add_argument("--levels", type=int, default=codec.DEFAULT_LEVELS)
    add_common(p_swp)
    return parser


def _parse_synth_spec(spec: str) -> tuple[str, GrayImage]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"bad synth spec {spec!r}")
    _, kind, geometry = parts[:3]
    seed = 0
    if len(parts) == 4:
        if not parts[3].startswith("seed="):
            raise ValueError(f"bad synth spec {spec!r}")
        seed = int(parts[3][5:])
    dims = geometry.lower().split("x")
    if len(dims) != 3:
        raise ValueError(f"bad synth geometry {geometry!r} (want WxHxD)")
    width, height, depth = (int(d) for d in dims)
    name = f"{kind}-{width}x{height}-s{seed}"
    return name, synth.synth_image(kind, width, height, bit_depth=depth, seed=seed)


def _load_image(spec: str) -> tuple[str, GrayImage]:
    if spec.startswith("synth:"):
        return _parse_synth_spec(spec)
    path = Path(spec)
    return path.stem, load_pgm(path.read_bytes())


def _write_file(path: Path, data: bytes | str):
    """Write via a temp file so failures never leave partial output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data)
    else:
        tmp.write_bytes(data)
    os.replace(tmp, path)


def _bool_csv(value: bool) -> str:
    return "true" if value else "false"


def cmd_compress(args: argparse.Namespace) -> int:
    name, image = _load_image(args.input)
    start = time.perf_counter()
    stream = codec.compress(
        image, target_cr=args.cr, levels=args.levels, lossless=args.lossless
    )
    elapsed = time.perf_counter() - start
    recon = codec.decompress(stream)
    container = stream.to_bytes()
    report = metrics.quality_report(image, recon, 8 * len(container))
    _write_file(args.out / f"{name}.wbc", container)
    _write_file(
        args.out / f"{name}_quality.csv",
        f"{metrics.QualityReport.CSV_HEADER}\n{report.csv_row()}\n",
    )
    print(
        f"{name}: {len(container)} bytes, CR {report.cr:.2f}, "
        f"PSNR {report.psnr_db:.2f} dB, {elapsed:.2f} s"
    )
    return EXIT_OK


def cmd_decompress(args: argparse.Namespace) -> int:
    path = Path(args.input)
    stream = CompressedBitstream.from_bytes(path.read_bytes())
    image = codec.decompress(stream)
    out = args.out / f"{path.stem}.pgm"
    _write_file(out, save_pgm(image, ascii_format=args.ascii))
    print(f"{out}: {image.width}x{image.height}, {image.bit_depth} bit")
    return EXIT_OK


def _sized_inputs(args: argparse.Namespace) -> list[tuple[str, int, int, int]]:
    """Resolve simulate inputs to (name, width, height, container bytes)."""
    sized = []
    if not args.input:
        for name, w, h, depth in DEFAULT_MODALITIES:
            nbytes = transport.nominal_compressed_bytes(w, h, depth, args.cr)
            if nbytes < 1:
                raise ValueError(
                    f"--cr {args.cr:g} leaves no bytes for a {w}x{h}x{depth} image"
                )
            sized.append((name, w, h, nbytes))
        return sized
    for spec in args.input:
        if spec.endswith(".wbc"):
            data = Path(spec).read_bytes()
            stream = CompressedBitstream.from_bytes(data)
            sized.append((Path(spec).stem, stream.width, stream.height, len(data)))
        else:
            name, image = _load_image(spec)
            stream = codec.compress(image, target_cr=args.cr, levels=args.levels)
            sized.append((name, image.width, image.height, stream.byte_length))
    return sized


def _mac_parameter_sets(
    args: argparse.Namespace,
) -> list[tuple[str, macsim.MacParameters]]:
    """--phy, else MEDLINK_PROFILE, else both profiles; --mac-config on top."""
    phy = args.phy
    if phy is None:
        env = os.environ.get(macsim.PROFILE_ENV_VAR)
        if env is not None and env not in macsim.PROFILES:
            raise ValueError(f"{macsim.PROFILE_ENV_VAR}={env!r} is not a known profile")
        phy = env or "all"
    if args.mac_config is not None:
        base = None if phy == "all" else macsim.PROFILES[phy]
        params = macsim.load_mac_config(Path(args.mac_config).read_text(), base=base)
        return [("custom", params)]
    names = macsim.PROFILES if phy == "all" else (phy,)
    return [(name, macsim.PROFILES[name]) for name in names]


def cmd_simulate(args: argparse.Namespace) -> int:
    parameter_sets = _mac_parameter_sets(args)
    sized = _sized_inputs(args)
    scenarios = macsim.SCENARIOS if args.scenario == "all" else (args.scenario,)
    rows, results = [], []
    for name, width, height, nbytes in sized:
        plan = transport.fragment(nbytes, args.blocksize)
        for phy_name, params in parameter_sets:
            for scenario in scenarios:
                res = macsim.simulate(scenario, plan, params)
                results.append((name, phy_name, res))
                rows.append(
                    f"{name},{width},{height},{phy_name},{scenario},"
                    f"{args.blocksize},{res.packet_count},{plan.size},"
                    f"{res.total_ms:.3f},{res.effective_throughput / 1e6:.3f},"
                    f"{res.fps_capacity:.3f},{args.fps:g},"
                    f"{_bool_csv(res.supports_fps(args.fps))}"
                )
    _write_file(
        args.out / "timing.csv", _TIMING_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    )
    _print_timing_table(args.blocksize, scenarios, sized, parameter_sets, results)
    if args.require_feasible and any(
        not res.supports_fps(args.fps) for _, _, res in results
    ):
        print(f"infeasible: not every transfer sustains {args.fps:g} images/s",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _print_timing_table(blocksize, scenarios, sized, parameter_sets, results):
    by_key = {(n, p, r.scenario): r for n, p, r in results}
    for phy_name, params in parameter_sets:
        rate_mbit = params.phy_rate / 1e6
        print(
            f"# {phy_name}: {rate_mbit:g} Mb/s, blocksize {blocksize}, "
            f"retx {params.retx_factor}, times in ms"
        )
        print(f"{'image':<14}{'packets':>8}" + "".join(f"{s:>12}" for s in scenarios))
        for name, *_ in sized:
            row = [by_key[(name, phy_name, s)] for s in scenarios]
            cells = "".join(f"{res.total_ms:>12.3f}" for res in row)
            print(f"{name:<14}{row[-1].packet_count:>8}{cells}")


def cmd_sweep(args: argparse.Namespace) -> int:
    name, image = _load_image(args.input)
    points = metrics.rate_distortion_sweep(image, args.cr_points, levels=args.levels)
    rd_rows = "\n".join(p.csv_row() for p in points)
    _write_file(
        args.out / f"{name}_rd.csv",
        f"{metrics.RatePoint.CSV_HEADER}\n{rd_rows}\n",
    )
    achieved = sum(1 for p in points if p.error is None)
    print(f"{name}: {achieved}/{len(points)} rate points achieved")

    # an achieved rate point at --cr already holds the container's size
    sized = {p.target_cr: p.byte_length for p in points if p.error is None}
    nbytes = sized.get(args.cr)
    if nbytes is None:
        stream = codec.compress(image, target_cr=args.cr, levels=args.levels)
        nbytes = stream.byte_length
    frag_rows = []
    for blocksize in transport.BLOCKSIZES:
        plan = transport.fragment(nbytes, blocksize)
        for scenario in macsim.SCENARIOS:
            res = macsim.simulate(scenario, plan, macsim.PROFILE_11B)
            frag_rows.append(
                f"{blocksize},{scenario},{res.packet_count},"
                f"{res.total_ms:.3f},{res.effective_throughput / 1e6:.3f}"
            )
    _write_file(
        args.out / f"{name}_frag.csv",
        _FRAG_CSV_HEADER + "\n" + "\n".join(frag_rows) + "\n",
    )
    return EXIT_OK


_COMMANDS = {
    "compress": cmd_compress,
    "decompress": cmd_decompress,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage line and message already on stderr
        return exc.code
    # BitstreamError and MetricsError subclass ValueError, so codec-side
    # failures must be matched before the generic usage clause
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (codec.CodecError, BitstreamError, metrics.MetricsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODEC
    except (PgmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
