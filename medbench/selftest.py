"""Fast self-test of the benchmark on tiny inputs.

    python3 medbench/selftest.py

Checks that a run emits every metric ``BENCHMARK.json`` names, with its
unit, traced and untraced, and that the correctness gate counts a
corrupted digest and a wrong output as failed operations.
"""

from __future__ import annotations

import json
import math
import unittest

import numpy as np

import speed
from run import (
    OPS,
    ROOT,
    WORKLOADS,
    CodecItem,
    Gate,
    LinkItem,
    Workload,
    codec_check,
    codec_items,
    link_check,
    run,
    tail,
    timed_loop,
    verdict_op,
)

TINY = (
    Workload(
        "tiny-codec",
        "codec",
        lambda seed: codec_items(
            seed, [("blobs", 48, 48, 16, [5.0, None]), ("mixed", 31, 17, 8, [None])]
        ),
    ),
    Workload("tiny-link", "link", lambda seed: [LinkItem(f"{s}B", s) for s in (1, 2048, 70001)]),
)
SECONDS = 0.2


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def digests(workload: Workload, seed: int) -> list[str]:
    return [OPS[workload.kind](item)[1] for item in workload.make(seed)]


class SelfTest(unittest.TestCase):
    def test_benchmark_json_workloads_exist(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            for workload in TINY:
                with self.subTest(workload=workload.name, trace=trace):
                    result, _, failures = run(workload, 7, SECONDS, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], failures)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, declared(section))
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if not trace:
                            self.assertGreater(metric["value"], 0, name)

    def test_recorded_digests_pass(self):
        for workload in TINY:
            with self.subTest(workload=workload.name):
                result, _, failures = run(workload, 3, SECONDS, False, digests(workload, 3))
                self.assertTrue(result["correct"], failures)

    def test_corrupted_digest_counts_as_failure(self):
        for workload in TINY:
            with self.subTest(workload=workload.name):
                expected = digests(workload, 3)
                expected[1] = expected[1][::-1]
                result, _, failures = run(workload, 3, SECONDS, False, expected)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["failed"], result["attempted"])
                self.assertIn("digest differs from the recorded one", failures)

    def test_wrong_outputs_are_caught(self):
        lossless = CodecItem("x", b"P5\n1 1\n255\n\x00", 8, None)
        self.assertIsNotNone(codec_check(lossless, b"", b"P5\n1 1\n255\n\x01")[1])
        source = b"P5\n10 5\n65535\n" + (np.arange(50) * 1000).astype(">u2").tobytes()
        lossy = CodecItem("y", source, 800, 20.0)  # 100 raw bytes: ratio 20 allows 5
        self.assertIsNotNone(codec_check(lossy, bytes(6), source)[1])
        self.assertIsNone(codec_check(lossy, bytes(5), source)[1])
        flat = b"P5\n10 5\n65535\n" + np.full(50, 25000, dtype=">u2").tobytes()
        self.assertIsNotNone(codec_check(lossy, bytes(5), flat)[1])
        rows, feasible = verdict_op(1000)
        self.assertIsNotNone(link_check(LinkItem("z", 999), rows, feasible)[1])

    def test_exceptions_and_repeat_mismatches_count_as_failures(self):
        def op(item, tick):
            if item == "bad":
                raise ValueError("boom")
            return (1,), item, None

        gate = Gate()
        samples = timed_loop(["ok", "bad"], 0.0, gate, op, speed.SpeedProbe())
        self.assertEqual((gate.attempted, gate.failed, len(samples)), (2, 1, 1))
        self.assertFalse(gate.check(0, "changed", None))
        self.assertEqual(gate.failures["output differs between repeats"], 1)

    def test_times_scale_to_reference_speed(self):
        probe = speed.SpeedProbe()
        probe.samples = [speed.REF_NS, 2 * speed.REF_NS, 2 * speed.REF_NS]
        self.assertAlmostEqual(probe.scale(0), 2 / 3)  # mean of before and after
        self.assertAlmostEqual(probe.scale(2), 0.5)  # last: no after sample
        self.assertAlmostEqual(probe.median_scale(), 0.5)
        self.assertAlmostEqual(probe.median_scale(1), 0.5)
        gate = Gate()

        def op(item, tick):
            tick()
            return (1000,), item, None

        samples = timed_loop(["a", "b"], 0.0, gate, op, probe)
        self.assertEqual([wall for _, wall, _ in samples], [(1000,), (1000,)])
        self.assertTrue(all(scaled[0] > 0 for scaled, _, _ in samples))

    def test_tail(self):
        # below 100 samples: median over passes of each pass's slowest op
        self.assertEqual(tail([1, 9, 2, 7, 3, 50], [1, 1, 2, 2, 3, 3])[0], 9)
        # from 100 on: the highest percentile with ten samples beyond it
        value, note = tail(list(range(200)), [1] * 200)
        self.assertEqual((value, note), (189, "p95.0, n=200"))


if __name__ == "__main__":
    unittest.main()
