"""medlink benchmark: codec round trips and link verdicts, closed loop.

    python3 medbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and from nowhere else. One process, one thread, one
caller: each operation starts only after the previous one returned.

Workloads (see ``BENCHMARK.json`` and ``medbench/METRICS.md``):

    cr20-2000       2000x2000x16 blobs and mixed at target ratio 20
    cr-sweep-small  256^2x16 blobs and 512^2x16 mixed at ratios 5/10/20/40,
                    and an odd-sized 255x257x16 mixed image lossless
    link-budget     container sizes from 1 B to 6 MB, no codec

A codec operation is a compress op (``load_pgm`` -> ``compress`` ->
``to_bytes``) followed by a decompress op (``from_bytes`` ->
``decompress`` -> ``save_pgm``). A link operation is a verdict op: one
container size fragmented at every TFTP blocksize with and without
lock-step ACKs, each plan timed under every scenario and PHY profile
(36 timings), and the ten-images-per-second verdict.

Every time is scaled to the reference machine speed by ``SpeedProbe``
(``medbench/speed.py``), which times a fixed kernel between stages, so
that the host's changes of speed between runs do not read as changes of
the code.

With ``--trace 0`` the timed loop runs unwrapped and the last line of
output carries the end-to-end metrics. With ``--trace 1`` the loop runs
once unwrapped and once with every layer wrapped in spans, and the last
line carries the per-layer metrics. Each run also writes
``medbench/results/<workload>-seed<N>-trace<T>.json`` (machine, commit,
every metric, failures) and, when traced, the spans next to it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "medlink" / "__init__.py").is_file():
    sys.exit(f"medbench: no medlink sources at {SRC / 'medlink'}")
sys.path.insert(0, str(SRC))

_import_start = time.perf_counter()
import numpy as np  # noqa: E402

from medlink import bitstream, codec, image_io, macsim, synth, transport  # noqa: E402

if Path(codec.__file__).resolve().parent != SRC / "medlink":
    sys.exit(f"medbench: medlink imported from {codec.__file__}, not {SRC}")

from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start

LEVELS = 3
SETUP_REPEATS = 3
LINK_STRATA = 160
LINK_MAX_BYTES = 6_000_000
FPS_TARGET = 10.0
SWEEP_TARGETS = [5.0, 10.0, 20.0, 40.0]
# Lowest PSNR (dB over the full 16-bit range) a lossy reconstruction may
# have, by target ratio: the worst of every recorded input (seeds 0-31 of
# both codec workloads) less 2 dB, rounded down. A constant image scores
# about 22 dB, so a wrong decoder fails this on any seed.
PSNR_FLOOR_DB = {5.0: 43.0, 10.0: 36.0, 20.0: 34.0, 40.0: 33.0}
RESULTS_DIR = BENCH_DIR / "results"
DIGESTS_FILE = BENCH_DIR / "digests.json"


@dataclass(frozen=True)
class CodecItem:
    label: str
    pgm: bytes
    raw_bits: int
    target_cr: float | None  # None: lossless


@dataclass(frozen=True)
class LinkItem:
    label: str
    size: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "codec" or "link"
    make: Callable[[int], list]  # seed -> items, in loop order


def synth_pgms(seed: int, specs) -> list[bytes]:
    """PGM bytes of one seeded synthetic image per (kind, w, h, depth)."""
    rng = np.random.default_rng(seed)
    return [
        image_io.save_pgm(
            synth.synth_image(kind, w, h, depth, seed=int(rng.integers(2**31)))
        )
        for kind, w, h, depth in specs
    ]


def codec_items(seed: int, specs) -> list[CodecItem]:
    """Each (kind, w, h, depth) image compressed at each of its targets
    (None: lossless)."""
    images = [spec[:4] for spec in specs]
    items = []
    for (kind, w, h, depth, targets), pgm in zip(specs, synth_pgms(seed, images)):
        for cr in targets:
            tag = "lossless" if cr is None else f"cr{cr:g}"
            items.append(CodecItem(f"{kind}-{w}x{h}x{depth}-{tag}", pgm, w * h * depth, cr))
    return items


def link_items(seed: int) -> list[LinkItem]:
    """One log-uniform size per stratum of [1 B, 6 MB], so every seed covers
    the range evenly, then both ends of the range and the nominal ratio-20
    sizes of the three reference geometries. The 6 MB end comes twice, so
    that the tail (the eleventh-slowest op of a run) falls among
    repeats of one input instead of on the edge between two."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.0, np.log(LINK_MAX_BYTES), LINK_STRATA + 1)
    drawn = np.exp(rng.uniform(edges[:-1], edges[1:])).astype(np.int64)
    fixed = [1, LINK_MAX_BYTES, LINK_MAX_BYTES] + [
        transport.nominal_compressed_bytes(side, side, 16, 20.0) for side in (256, 512, 2000)
    ]
    sizes = [max(1, int(s)) for s in drawn] + fixed
    return [LinkItem(f"{s}B", s) for s in sizes]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cr20-2000",
            "codec",
            lambda seed: codec_items(
                seed, [("blobs", 2000, 2000, 16, [20.0]), ("mixed", 2000, 2000, 16, [20.0])]
            ),
        ),
        Workload(
            # one image kind per size keeps a pass short (about 2.5 s), so a
            # run makes several; the odd size exercises the ceil/floor
            # subband split and the lossless path
            "cr-sweep-small",
            "codec",
            lambda seed: codec_items(
                seed,
                [
                    ("blobs", 256, 256, 16, SWEEP_TARGETS),
                    ("mixed", 512, 512, 16, SWEEP_TARGETS),
                    ("mixed", 255, 257, 16, [None]),
                ],
            ),
        ),
        Workload("link-budget", "link", link_items),
    )
}


# -- operations: every call into medlink goes through a module or class
# attribute, so a Tracer can wrap it

def compress_op(item: CodecItem) -> bytes:
    image = image_io.load_pgm(item.pgm)
    if item.target_cr is None:
        stream = codec.compress(image, levels=LEVELS, lossless=True)
    else:
        stream = codec.compress(image, target_cr=item.target_cr, levels=LEVELS)
    return stream.to_bytes()


def decompress_op(container: bytes) -> bytes:
    stream = bitstream.CompressedBitstream.from_bytes(container)
    return image_io.save_pgm(codec.decompress(stream))


def verdict_op(size: int):
    """36 timings of one container size, and whether any sustains 10 fps."""
    rows = []
    for blocksize in transport.BLOCKSIZES:
        for ack in (False, True):
            plan = transport.fragment(size, blocksize, tftp_ack=ack)
            for phy in ("11b", "11g"):
                for scenario in macsim.SCENARIOS:
                    res = macsim.simulate(scenario, plan, macsim.PROFILES[phy])
                    rows.append((blocksize, ack, phy, scenario, res))
    return rows, any(res.supports_fps(FPS_TARGET) for *_, res in rows)


# -- output checks, run outside the timed interval

def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def pgm_samples(pgm: bytes) -> tuple[np.ndarray, int]:
    """(samples, maxval) of a binary PGM. Parsed here rather than by
    medlink, so the check does not lean on the code it checks, and so it
    adds no span to a traced run."""
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", pgm)
    if header is None:
        raise ValueError("not a binary PGM")
    width, height, maxval = (int(g) for g in header.groups())
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    if len(pgm) != header.end() + width * height * dtype.itemsize:
        raise ValueError("PGM raster has the wrong length")
    return np.frombuffer(pgm, dtype, offset=header.end()).reshape(height, width), maxval


def psnr_db(source: bytes, recon: bytes) -> float:
    """PSNR of ``recon`` against ``source`` over the source's full range."""
    (a, maxval), (b, _) = pgm_samples(source), pgm_samples(recon)
    if a.shape != b.shape:
        return -math.inf
    diff = a.astype(np.int64) - b.astype(np.int64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0 else 10 * math.log10(maxval * maxval / mse)


def codec_check(item: CodecItem, container: bytes, recon: bytes):
    """(digest, problem or None) of one round trip."""
    problem = None
    if item.target_cr is None:
        if recon != item.pgm:
            problem = "lossless reconstruction differs from input"
    elif item.raw_bits < item.target_cr * 8 * len(container):
        problem = "achieved ratio below target"
    elif not psnr_db(item.pgm, recon) >= PSNR_FLOOR_DB[item.target_cr]:
        problem = "reconstruction PSNR below the floor for its ratio"
    return f"{short_hash(container)}:{short_hash(recon)}", problem


def link_check(item: LinkItem, rows, feasible: bool):
    """(digest, problem or None) of one verdict op."""
    problem = None
    lines = []
    for blocksize, ack, phy, scenario, res in rows:
        if res.packet_count != item.size // blocksize + 1 or res.payload_bits != 8 * item.size:
            problem = f"packet accounting wrong at blocksize {blocksize}"
        lines.append(
            f"{blocksize},{int(ack)},{phy},{scenario},{res.packet_count},"
            f"{res.total_time!r},{int(res.supports_fps(FPS_TARGET))}"
        )
    lines.append(f"feasible={int(feasible)}")
    return short_hash("\n".join(lines).encode()), problem


def no_tick():
    pass


def codec_op(item: CodecItem, compress=compress_op, decompress=decompress_op, tick=no_tick):
    """((compress ns, decompress ns), digest, problem). ``tick`` runs
    before each timed stage, outside its interval."""
    clock = time.perf_counter_ns
    tick()
    t0 = clock()
    container = compress(item)
    t1 = clock()
    tick()
    t2 = clock()
    recon = decompress(container)
    t3 = clock()
    return (t1 - t0, t3 - t2), *codec_check(item, container, recon)


def link_op(item: LinkItem, verdict=verdict_op, tick=no_tick):
    """((verdict ns,), digest, problem)."""
    clock = time.perf_counter_ns
    tick()
    t0 = clock()
    rows, feasible = verdict(item.size)
    t1 = clock()
    return (t1 - t0,), *link_check(item, rows, feasible)


OPS = {"codec": codec_op, "link": link_op}


class Gate:
    """Counts attempted and failed ops. An op fails when it raises, when its
    output breaks an invariant, or when its digest differs from the one
    recorded for this seed (or, for a seed with no recording, from the
    digest of the same input earlier in this run)."""

    def __init__(self, expected: list[str] | None = None):
        self.expected = expected
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check(self, index: int, digest: str, problem: str | None) -> bool:
        if problem is None:
            if self.expected is not None:
                if digest != self.expected[index]:
                    problem = "digest differs from the recorded one"
            elif digest != self.seen.setdefault(index, digest):
                problem = "output differs between repeats"
        if problem is not None:
            self.failures[problem] += 1
            return False
        return True


def timed_loop(items, seconds: float, gate: Gate, op, probe: SpeedProbe,
               tracer: Tracer | None = None):
    """Closed loop over whole passes of ``items`` for about ``seconds``:
    it stops once another pass would end more than half a pass past
    ``seconds``, so the pass count, and with it the percentile the tail
    lands on, does not flip with small changes in speed.

    ``probe`` samples the machine's speed before each timed stage of an
    op (when due), and each stage's time is scaled to the reference
    speed. Returns, for each op that passed the gate, its
    timing tuple scaled and as measured, and its pass number."""
    samples = []
    marks: list[int] = []  # probe sample before each stage of the op

    def tick():
        marks.append(probe.tick())

    start = time.perf_counter()
    passes = 0
    while True:
        passes += 1
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.next_op()
            gate.attempted += 1
            marks.clear()
            try:
                times, digest, problem = op(item, tick=tick)
            except Exception as exc:  # any exception is a failed op
                gate.failures[f"{type(exc).__name__}: {exc}"[:160]] += 1
                continue
            if gate.check(index, digest, problem):
                samples.append((times, tuple(marks), passes))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / passes) >= seconds:
            break
    probe.sample()  # the "after" sample of the last stage
    return [
        (tuple(t * probe.scale(mark) for t, mark in zip(times, stage_marks)), times, pass_no)
        for times, stage_marks, pass_no in samples
    ]


def tail(values: list[float], passes: list[int]) -> tuple[float, str]:
    """(value, what it is) of the highest percentile with at least ten
    samples beyond it, when that is p90 or above. Below 100 samples it
    would sit under p90, down to the median at twenty samples, and move
    with every pass the loop adds; the median over passes of each pass's
    slowest op is reported instead, which a single slow op does not
    move. ``passes`` gives the pass number of each value."""
    n = len(values)
    if n < 100:
        slowest: dict[int, float] = {}
        for value, pass_no in zip(values, passes):
            slowest[pass_no] = max(value, slowest.get(pass_no, value))
        return statistics.median(slowest.values()), f"median of {len(slowest)} pass maxima, n={n}"
    return sorted(values)[n - 11], f"p{100.0 * (n - 10) / n:.1f}, n={n}"


def rate(ms: list[float]) -> float:
    """Operations per second of timed op time."""
    return len(ms) / (sum(ms) / 1000.0)


def latency_metrics(prefix: str, ms: list[float], passes: list[int]) -> dict:
    value, note = tail(ms, passes)
    return {
        f"{prefix}_ms_p50": (statistics.median(ms), "ms", f"n={len(ms)}"),
        f"{prefix}_ms_tail": (value, "ms", note),
    }


def peak_mib(items, kind: str) -> float:
    """tracemalloc peak of one op on the workload's largest input."""
    largest = max(items, key=(lambda i: i.raw_bits) if kind == "codec" else (lambda i: i.size))
    tracemalloc.start()
    try:
        OPS[kind](largest)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def trace_targets():
    """(span name, owner, attribute, counter) for every layer boundary."""
    stream_cls = bitstream.CompressedBitstream
    return [
        ("image_io.load", image_io, "load_pgm", None),
        ("image_io.save", image_io, "save_pgm", None),
        ("codec.compress", codec, "compress", None),
        ("codec.decompress", codec, "decompress", None),
        ("dwt.forward", codec, "dwt_forward", None),
        ("dwt.inverse", codec, "dwt_inverse", None),
        ("quantize", codec, "quantize", None),
        ("quantize.dequantize", codec, "dequantize", None),
        ("huffman.build", codec, "huffman_build",
         lambda a, r: [("huffman.alphabet", len(r))]),
        ("huffman.encode", codec, "huffman_encode",
         lambda a, r: [("huffman.encode_symbols", len(a[0]))]),
        ("huffman.decode", codec, "huffman_decode",
         lambda a, r: [("huffman.decode_bits", a[1])]),
        # rate-control probes size headers through the codec's import,
        # the final container through the bitstream module's own name
        ("bitstream.pack_header", codec, "pack_header", None),
        ("bitstream.pack_header", bitstream, "pack_header", None),
        ("bitstream.to_bytes", stream_cls, "to_bytes",
         lambda a, r: [("bitstream.header_bytes", len(a[0].header_bytes())),
                       ("bitstream.payload_bytes", len(a[0].payload))]),
        ("bitstream.from_bytes", stream_cls, "from_bytes", None),
        ("transport.fragment", transport, "fragment",
         lambda a, r: [("transport.packets", r.data_packet_count)]),
        ("macsim.simulate", macsim, "simulate",
         lambda a, r: [("macsim.packets", r.packet_count)]),
    ]


def traced_op(kind: str, tracer: Tracer):
    """The workload's op with its root spans (op.compress, op.decompress or
    op.verdict) recorded by ``tracer``."""
    if kind == "codec":
        return functools.partial(
            codec_op,
            compress=tracer.wrap("op.compress", compress_op),
            decompress=tracer.wrap("op.decompress", decompress_op),
        )
    return functools.partial(link_op, verdict=tracer.wrap("op.verdict", verdict_op))


def layer_metrics(tracer: Tracer, untraced_ms: list[float], traced_ms: list[float],
                  scale: float) -> dict:
    """Per-layer metrics, per operation unless stated otherwise. Times are
    self times: a span's duration minus its children's, multiplied by
    ``scale`` to read at the reference speed."""
    calls, self_ns = tracer.layer_totals()
    counts = tracer.counts
    ops = tracer.op + 1
    compresses = calls["codec.compress"]

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(name):
        return (scale * self_ns[name] / ops / 1e6, "ms", "per op")

    return {
        "dwt.forward_ms": ms("dwt.forward"),
        "dwt.inverse_ms": ms("dwt.inverse"),
        "quantize.calls": (ratio(calls["quantize"], compresses), "count", "per compress"),
        "quantize.ms": ms("quantize"),
        "quantize.dequantize_ms": ms("quantize.dequantize"),
        "codec.probe_yield": (ratio(compresses, calls["quantize"]), "ratio", "1 / probes"),
        "codec.compress_self_ms": ms("codec.compress"),
        "codec.decompress_self_ms": ms("codec.decompress"),
        "huffman.build_ms": ms("huffman.build"),
        "huffman.build_calls": (ratio(calls["huffman.build"], compresses), "count", "per compress"),
        "huffman.alphabet": (
            ratio(counts["huffman.alphabet"], calls["huffman.build"]), "count", "per build"),
        "huffman.encode_ms": ms("huffman.encode"),
        "huffman.encode_symbols": (counts["huffman.encode_symbols"] / ops, "count", "per op"),
        "huffman.decode_ms": ms("huffman.decode"),
        "huffman.decode_bits": (counts["huffman.decode_bits"] / ops, "count", "per op"),
        "huffman.decode_ns_per_bit": (
            scale * ratio(self_ns["huffman.decode"], counts["huffman.decode_bits"]), "ns", ""),
        "bitstream.pack_header_ms": ms("bitstream.pack_header"),
        "bitstream.pack_header_calls": (calls["bitstream.pack_header"] / ops, "count", "per op"),
        "bitstream.to_bytes_ms": ms("bitstream.to_bytes"),
        "bitstream.from_bytes_ms": ms("bitstream.from_bytes"),
        "bitstream.header_bytes": (
            ratio(counts["bitstream.header_bytes"], calls["bitstream.to_bytes"]), "B", "per container"),
        "bitstream.payload_bytes": (
            ratio(counts["bitstream.payload_bytes"], calls["bitstream.to_bytes"]), "B", "per container"),
        "image_io.load_ms": ms("image_io.load"),
        "image_io.save_ms": ms("image_io.save"),
        "transport.fragment_ms": ms("transport.fragment"),
        "transport.packets": (counts["transport.packets"] / ops, "count", "per op"),
        "macsim.simulate_ms": ms("macsim.simulate"),
        "macsim.simulate_calls": (calls["macsim.simulate"] / ops, "count", "per op"),
        "macsim.ns_per_packet": (
            scale * ratio(self_ns["macsim.simulate"], counts["macsim.packets"]), "ns", ""),
        "trace.overhead_frac": (
            statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0, "frac",
            "traced / untraced op p50 - 1"),
    }


def root_accounting(tracer: Tracer, scale: float) -> dict:
    """For each root span (op.compress, ...): p50 of its traced duration,
    scaled to the reference speed, and the share of that time spent in
    the benchmark's own glue, outside every layer span. Layers account
    for the rest."""
    durations: dict[str, list[int]] = {}
    for name, start, end, parent, _ in tracer.spans:
        if parent < 0:
            durations.setdefault(name, []).append(end - start)
    calls, self_ns = tracer.layer_totals()
    return {
        f"{name}_traced_ms_p50": (
            scale * statistics.median(ds) / 1e6, "ms",
            f"outside layers {self_ns[name] / sum(ds):.2%}")
        for name, ds in durations.items()
    }


def load_expected(workload: str, seed: int) -> list[str] | None:
    """Digests recorded for this workload and seed, one per input."""
    if not DIGESTS_FILE.is_file():
        return None
    return json.loads(DIGESTS_FILE.read_text()).get(f"{workload}/{seed}")


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        expected: list[str] | None = None, spans_path: Path | None = None):
    """Set up, measure and check one workload.

    Returns (result, report, failures): ``result`` is the object the last
    output line prints, ``report`` every metric by name as (value, unit,
    note), ``failures`` failed-op counts by reason.
    """
    op = OPS[workload.kind]
    probe = SpeedProbe()
    probe.sample()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = workload.make(seed)
        op(items[0])  # warm-up
        setup_times.append(time.perf_counter() - start)
        probe.sample()
    setup_scale = probe.median_scale()
    if expected is not None and len(expected) != len(items):
        raise ValueError(
            f"{len(expected)} recorded digests for {len(items)} inputs; record them again"
        )
    wall_setup = IMPORT_S + statistics.median(setup_times)
    report = {"setup_s": (setup_scale * wall_setup, "s",
                          f"import + median of {SETUP_REPEATS}, wall {wall_setup:.3f} s")}
    gate = Gate(expected)
    loop_start = len(probe.samples)
    samples = timed_loop(items, seconds, gate, op, probe)
    op_ms = [sum(t) / 1e6 for t, _, _ in samples]
    passes = [pass_no for *_, pass_no in samples]
    if op_ms:
        wall_ms = [sum(w) / 1e6 for _, w, _ in samples]
        report["op_wall_ms_p50"] = (statistics.median(wall_ms), "ms", "unscaled")
        report["speed_scale"] = (probe.median_scale(loop_start), "x",
                                 "reference / measured probe time, median over the loop")
    if trace:
        tracer = Tracer(trace_targets())
        traced_start = len(probe.samples)
        with tracer:
            traced = timed_loop(items, seconds, gate, traced_op(workload.kind, tracer), probe,
                                tracer)
        if spans_path is not None:
            tracer.write(spans_path)
        traced_ms = [sum(t) / 1e6 for t, _, _ in traced]
        traced_scale = probe.median_scale(traced_start)
        metrics = (layer_metrics(tracer, op_ms, traced_ms, traced_scale)
                   if op_ms and traced_ms else {})
        report.update(metrics)
        if traced_ms:
            report.update(root_accounting(tracer, traced_scale))
    elif op_ms:
        metrics = {
            "setup_s": report["setup_s"],
            **latency_metrics("op", op_ms, passes),
            "ops_per_s": (rate(op_ms), "1/s", ""),
            "peak_mib": (peak_mib(items, workload.kind), "MiB", "largest input, one op"),
        }
        report.update(metrics)
    else:
        metrics = {}
    if samples and workload.kind == "codec":
        report.update(latency_metrics("compress", [c / 1e6 for (c, _), *_ in samples], passes))
        report.update(latency_metrics("decompress", [d / 1e6 for (_, d), *_ in samples], passes))
        report["images_per_s"] = (rate(op_ms), "1/s", "round trips")
    elif samples:
        report.update(latency_metrics("verdict", op_ms, passes))
        report["verdicts_per_s"] = (rate(op_ms), "1/s", "")
    report["failed_frac"] = (gate.failed / gate.attempted, "frac",
                             f"{gate.failed}/{gate.attempted}")
    result = {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    return result, report, dict(gate.failures)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "none" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over the package and benchmark sources, which identifies the
    code measured also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "medlink").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    expected = load_expected(workload.name, args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans_path = stem.with_name(stem.name + "-spans.jsonl") if args.trace else None
    result, report, failures = run(
        workload, args.seed, args.seconds, bool(args.trace), expected, spans_path
    )
    info = machine()
    print(f"# medbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# digests: {'recorded for this seed' if expected else 'none recorded, repeats compared'}")
    for name, (value, unit, note) in report.items():
        print(f"{name:28s} {value:14.6g} {unit:6s} {note}")
    for reason, count in failures.items():
        print(f"FAILED x{count}: {reason}")
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "result": result,
        "report": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report.items()},
        "failures": failures,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
