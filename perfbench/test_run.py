#!/usr/bin/env python3
"""Self-tests for perfbench/run.py: the summariser, the output schema and its
agreement with BENCHMARK.json, the correctness checks (including an injected
digest mismatch) and the host-shape guard of --compare.

    python3 perfbench/test_run.py

The end-to-end mismatch test runs only once the driver has been built (any
earlier run.py invocation builds it).
"""

import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def fake_raw():
    """A minimal driver report that passes every check."""
    counts = {name: 1.0 for name, _, _, source in run.PER_LAYER
              if source == "count"}
    counts["sweep.workers_effective"] = 4
    return {
        "workload": "figure-sweep", "seed": 1, "traced": True,
        "resolution": "960x544", "timed_unit": "sweep",
        "shape": {"nproc": 4, "workers": 4, "build_type": "RelWithDebInfo",
                  "libra_tracing": True, "libra_faults": True,
                  "compiler": "gcc"},
        "samples": {"setup_s": [0.003, 0.001, 0.002],
                    "frames_per_s": [10.0, 12.0, 11.0],
                    "block_frame_s": [],
                    "spans_on_s": [1.1, 1.2], "spans_off_s": [1.0, 1.0]},
        "peak_rss_mb": 20.0,
        "operations": {"attempted": 5, "failed": 0, "errors": []},
        "checks": [{"name": "invariants_armed", "ok": True, "detail": ""}],
        "digests": {"job/CCS/libra": ["ab", "ab", "ab"],
                    "repeat": ["cd", "cd"]},
        "counts": counts,
    }


def span(name, start_ms, end_ms):
    return {"id": 0, "name": name, "start_ns": int(start_ms * 1e6),
            "end_ns": int(end_ms * 1e6), "parent": -1, "run": 0}


class SummarizeTest(unittest.TestCase):
    def test_median_quartiles_and_count(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0]
        s = run.summarize(xs)
        q = statistics.quantiles(sorted(xs), n=4)
        self.assertEqual(s["median"], 5.0)
        self.assertEqual((s["q1"], s["q3"]), (q[0], q[2]))
        self.assertEqual(s["n"], 9)

    def test_tail_percentile_has_ten_samples_beyond(self):
        for n, want in [(9, None), (19, None), (20, 50), (40, 75),
                        (100, 90), (200, 95), (1000, 99), (10000, 99.9)]:
            self.assertEqual(run.summarize(range(n))["tail_pct"], want, n)

    def test_tail_is_on_the_worse_side(self):
        xs = list(range(1, 101))
        self.assertGreater(run.summarize(xs, "lower")["tail"], 85)
        self.assertLess(run.summarize(xs, "higher")["tail"], 15)

    def test_best_is_on_the_better_side(self):
        self.assertEqual(run.summarize([3, 1, 2], "higher")["best"], 3)
        self.assertEqual(run.summarize([3, 1, 2], "lower")["best"], 1)

    def test_fastest_frames_take_each_frame_from_any_block(self):
        blocks = [[1.0, 3.0], [2.0, 1.0], [4.0, 4.0]]
        self.assertEqual(run.fastest_frames_rate(blocks), 1.0)
        raw = fake_raw()
        raw["samples"]["block_frame_s"] = blocks
        result, _ = run.evaluate(raw, [], 0)
        self.assertEqual(result["metrics"]["frames_per_s"]["value"], 1.0)

    def test_single_sample_and_empty(self):
        self.assertEqual(run.summarize([2.5])["q3"], 2.5)
        with self.assertRaises(ValueError):
            run.summarize([])


class SchemaTest(unittest.TestCase):
    def test_end_to_end_result_line(self):
        result, _ = run.evaluate(fake_raw(), [], 0)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m[0] for m in run.END_TO_END])
        for name, unit, _, _ in run.END_TO_END:
            self.assertEqual(result["metrics"][name]["unit"], unit)
        self.assertEqual(result["metrics"]["frames_per_s"]["value"], 12.0)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.001)
        json.dumps(result, allow_nan=False)

    def test_per_layer_result_line(self):
        spans = [span("gpu.render", 0, 2), span("gpu.render", 2, 6),
                 span("gpu.render", 6, 9), span("sweep.wall", 0, 100),
                 span("sweep.serial", 100, 500)]
        result, _ = run.evaluate(fake_raw(), spans, 1)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m[0] for m in run.PER_LAYER])
        self.assertAlmostEqual(metrics["gpu.render_s"]["value"], 0.003)
        self.assertAlmostEqual(metrics["gpu.host_ns_per_event"]["value"],
                               3e6)
        self.assertAlmostEqual(
            metrics["sweep.parallel_efficiency"]["value"], 1.0)
        self.assertEqual(metrics["snapshot.save_s"]["value"], 0.0)
        self.assertAlmostEqual(metrics["trace_overhead_pct"]["value"], 15.0)
        json.dumps(result, allow_nan=False)

    def test_missing_count_is_an_error(self):
        raw = fake_raw()
        del raw["counts"]["dram.reads"]
        with self.assertRaises(KeyError):
            run.evaluate(raw, [], 1)

    def test_benchmark_json_matches(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end",
                                    "per_layer"})
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(doc["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in doc["end_to_end"]], run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            [m[:3] for m in run.PER_LAYER])
        setup_bound = next(m["bound"] for m in doc["end_to_end"]
                           if m["name"] == "setup_s")
        self.assertEqual(setup_bound,
                         max(m["bound"] for m in doc["end_to_end"]))


class ChecksTest(unittest.TestCase):
    def test_clean_report_is_correct(self):
        result, _ = run.evaluate(fake_raw(), [], 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        # 5 operations + 1 driver check + 2 digest lists
        self.assertEqual(result["attempted"], 8)

    def test_injected_digest_mismatch_fails(self):
        raw = fake_raw()
        run.inject_digest_mismatch(raw)
        result, lines = run.evaluate(raw, [], 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any("digest:job/CCS/libra" in line
                            and "FAILED" in line for line in lines))

    def test_single_digest_is_not_a_comparison(self):
        raw = fake_raw()
        raw["digests"]["repeat"] = ["cd"]
        self.assertFalse(run.evaluate(raw, [], 0)[0]["correct"])

    def test_failed_operation_and_check_count(self):
        raw = fake_raw()
        raw["operations"]["failed"] = 1
        raw["operations"]["errors"] = ["frame 2: WatchdogExpired"]
        raw["checks"][0]["ok"] = False
        result, _ = run.evaluate(raw, [], 0)
        self.assertEqual(result["failed"], 2)


class CompareTest(unittest.TestCase):
    def compare(self, shape_b):
        saved = {"workload": "mem-frame", "trace": 0,
                 "shape": fake_raw()["shape"],
                 "metrics": {"frames_per_s": {"value": 4.0, "unit": "1/s"}}}
        other = dict(saved, shape=shape_b)
        with tempfile.TemporaryDirectory() as d:
            a, b = Path(d) / "a.json", Path(d) / "b.json"
            a.write_text(json.dumps(saved))
            b.write_text(json.dumps(other))
            with contextlib.redirect_stdout(io.StringIO()):
                return run.compare(a, b)

    def test_same_shape_compares(self):
        self.assertEqual(self.compare(fake_raw()["shape"]), 0)

    def test_mixed_shapes_are_refused(self):
        shape = dict(fake_raw()["shape"], nproc=1, workers=1)
        self.assertEqual(self.compare(shape), 2)


class EndToEndTest(unittest.TestCase):
    def test_injected_mismatch_exits_nonzero(self):
        if not (run.build_dir() / "perfbench" / "libra_bench").exists():
            self.skipTest("driver not built yet; run run.py once")
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
             "compute-frame", "--seed", "1", "--seconds", "1", "--trace",
             "0", "--inject-digest-mismatch"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(last["correct"])
        self.assertGreaterEqual(last["failed"], 1)


if __name__ == "__main__":
    unittest.main()
