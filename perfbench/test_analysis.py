"""Tests of the benchmark's own arithmetic and output contract.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Nothing here builds or runs the program: the driver document and the span
trace are synthetic.
"""

import io
import json
import re
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import analysis  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, tid, ts, dur, **args):
    return {"name": name, "ph": "X", "pid": 1, "tid": tid, "ts": ts, "dur": dur,
            "args": {k: str(v) for k, v in args.items()}}


def forest(events):
    spans = analysis.spans_from_trace({"traceEvents": events})
    roots = analysis.build_forest(spans)
    analysis.compute_self_times(roots)
    analysis.compute_wall_shares(roots)
    return {(s.name, s.tid): s for s in spans}, roots


class TailPercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            analysis.tail_percentile(list(range(99)), 0.90)
        with self.assertRaises(ValueError):
            analysis.tail_percentile(list(range(999)), 0.99)

    def test_accepts_exactly_ten_beyond(self):
        self.assertEqual(analysis.tail_percentile(list(range(100)), 0.90), 89)
        self.assertEqual(analysis.tail_percentile(list(range(1000)), 0.99), 989)
        self.assertEqual(analysis.samples_beyond(1000, 0.99), 10)

    def test_nearest_rank_median(self):
        self.assertEqual(analysis.percentile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertEqual(analysis.percentile([4, 1, 3, 2], 0.5), 2)


class SelfTimeTest(unittest.TestCase):
    def test_nested_on_one_thread(self):
        by, roots = forest([
            span("bench.op", 1, 0, 100),
            span("bench.decode_image", 1, 10, 40),
            span("lzw.decode", 1, 20, 10),
            span("bench.hw_model", 1, 60, 10),
        ])
        self.assertEqual([r.name for r in roots], ["bench.op"])
        self.assertEqual(by["lzw.decode", 1].parent.name, "bench.decode_image")
        self.assertEqual(by["bench.op", 1].self_us, 50)
        self.assertEqual(by["bench.decode_image", 1].self_us, 30)
        self.assertEqual(by["lzw.decode", 1].self_us, 10)
        self.assertEqual(by["bench.hw_model", 1].self_us, 10)
        # Sequential trees: wall shares are the self times, summing to the root.
        for s in by.values():
            self.assertAlmostEqual(s.wall_us, s.self_us)
        self.assertAlmostEqual(sum(s.wall_us for s in by.values()), 100)

    def test_cross_thread_by_trace_id(self):
        by, roots = forest([
            span("bench.op", 1, 0, 100),
            span("client.call", 1, 5, 90, trace="c0"),
            span("serve.request", 2, 10, 80, trace="c0"),
            span("runner.task", 3, 20, 60),
            span("serve.task", 3, 21, 58, trace="c0"),
            span("lzw.decode", 3, 30, 30),
            # A concurrent request of another client covers the same interval.
            span("bench.op", 4, 0, 100),
            span("client.call", 4, 1, 98, trace="c1"),
            span("serve.request", 5, 2, 96, trace="c1"),
        ])
        self.assertEqual(sorted(r.tid for r in roots), [1, 4])
        self.assertIs(by["serve.request", 2].parent, by["client.call", 1])
        self.assertIs(by["runner.task", 3].parent, by["serve.request", 2])
        self.assertIs(by["serve.request", 5].parent, by["client.call", 4])
        self.assertEqual(by["client.call", 1].self_us, 10)     # transport
        self.assertEqual(by["serve.request", 2].self_us, 20)   # dispatch + wait
        self.assertEqual(by["runner.task", 3].self_us, 2)
        self.assertEqual(by["serve.task", 3].self_us, 28)
        tree = [s for s in by.values() if s.tid in (1, 2, 3)]
        self.assertAlmostEqual(sum(s.wall_us for s in tree), 100)

    def test_parallel_children_share_wall_time(self):
        by, roots = forest([
            span("bench.op", 1, 0, 100),
            span("engine.run", 1, 0, 100),
            span("engine.encode", 2, 10, 50),
            span("engine.encode", 3, 30, 50),
            span("engine.load", 4, 40, 5),
        ])
        self.assertEqual(len(roots), 1)
        run_span = by["engine.run", 1]
        # Untraced worker spans link to the engine.run on the benchmark's
        # lane, never to a stage span of another worker enclosing them.
        self.assertIs(by["engine.load", 4].parent, run_span)
        self.assertEqual(run_span.self_us, 30)  # no stage span open: idle
        self.assertAlmostEqual(run_span.wall_us, 30)
        enc2, enc3, load = by["engine.encode", 2], by["engine.encode", 3], by["engine.load", 4]
        # [10,30) enc2 alone, [30,40) two open, [40,45) three, [45,60) two,
        # [60,80) enc3 alone.
        self.assertAlmostEqual(enc2.wall_us, 20 + 10 / 2 + 5 / 3 + 15 / 2)
        self.assertAlmostEqual(enc3.wall_us, 10 / 2 + 5 / 3 + 15 / 2 + 20)
        self.assertAlmostEqual(load.wall_us, 5 / 3)
        self.assertAlmostEqual(sum(s.wall_us for s in by.values()), 100)
        # Plain self times count parallel work twice: more than the wall.
        self.assertGreater(sum(s.self_us for s in by.values()), 100)

    def test_union_length(self):
        self.assertEqual(analysis.union_length([(0, 10), (5, 20), (30, 40)], 0, 100), 30)
        self.assertEqual(analysis.union_length([(0, 10), (5, 20)], 8, 12), 4)


def synthetic_doc(workload, trace, n_ops=2000, slow_every=0):
    """A driver document shaped like perfbench_driver's output: two lanes
    of n_ops ops of 1000 trits; with slow_every, every slow_every-th op of
    a lane takes ten times as long."""

    def lane(offset):
        lat = [offset + 2.0 + (k % 7) * 0.01 for k in range(n_ops)]
        if slow_every:
            for k in range(0, n_ops, slow_every):
                lat[k] *= 10.0
        return {"wall_s": sum(lat) / 1000.0, "trits": 1000.0 * n_ops, "latency_ms": lat}

    def phase():
        return {"ops": 2 * n_ops, "failed": 0, "user_s": 20.0, "sys_s": 1.0,
                "ctx_switches": 500.0, "errors": [], "lanes": [lane(0.0), lane(0.1)]}

    doc = {"workload": workload, "seed": 1,
           "host": {"nproc": 4, "simd": "avx2", "build_type": "Release"},
           "input_digest": "0123456789abcdef",
           "setup_s": [0.05, 0.06, 0.07], "peak_rss_kb": 20480.0,
           "container_bytes": 100, "container_trits": 2000,
           "layer": {"engine.encode.busy_ms": 3.0, "service.compress.server_us_p50": 900.0},
           "work": {"codec.decode_records": 4000.0},
           "untraced": phase(), "traced": phase() if trace else None}
    lanes_us = 1e6 * sum(lane["wall_s"] for lane in doc["traced"]["lanes"]) if trace else 0
    events = [span("bench.op", 1, 0, lanes_us), span("codec.decode_records", 1, 10, 20)]
    return doc, ({"traceEvents": events} if trace else None)


class OutputContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_tables(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(analysis.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         analysis.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         analysis.PER_LAYER)

    def test_metric_names_and_units_are_well_formed(self):
        for name, unit in {**analysis.END_TO_END, **analysis.PER_LAYER}.items():
            self.assertRegex(name, analysis.NAME_RE)
            self.assertRegex(unit, UNIT_RE)

    def run_report(self, workload, trace):
        doc, trace_doc = synthetic_doc(workload, trace)
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.report(doc, trace_doc)
        lines = out.getvalue().splitlines()
        return code, lines, json.loads(lines[-1])

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in analysis.WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = self.run_report(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK[table]})
                    for m in BENCHMARK[table]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(metrics[m["name"]]["value"], float)
                    self.assertTrue(any(line.startswith("host: nproc=4") for line in lines))

    def test_tail_line_states_the_sample_count(self):
        _, lines, _ = self.run_report("decode_images", 0)
        self.assertTrue(any(re.match(r"latency_tail_ms is p99 of \d+ op latencies \(\d+ beyond",
                                     line) for line in lines))

    def test_rare_slow_ops_reach_the_tail_and_throughput(self):
        steady, _ = analysis.end_to_end_metrics(synthetic_doc("daemon_roundtrip", 0)[0])
        # One op in 50 ten times slower: about 2% of ops, beyond p99.
        slowed, _ = analysis.end_to_end_metrics(
            synthetic_doc("daemon_roundtrip", 0, slow_every=50)[0])
        self.assertLess(steady["latency_tail_ms"], 2.2)
        self.assertGreater(slowed["latency_tail_ms"], 20.0)
        self.assertLess(slowed["latency_p50_ms"], 1.1 * steady["latency_p50_ms"])
        self.assertLess(slowed["throughput_mtrit_s"], 0.9 * steady["throughput_mtrit_s"])

    def test_throughput_and_cpu_cover_every_op(self):
        doc, _ = synthetic_doc("decode_images", 0)
        values, _ = analysis.end_to_end_metrics(doc)
        lanes = doc["untraced"]["lanes"]
        self.assertAlmostEqual(values["throughput_mtrit_s"],
                               sum(1000.0 * 2000 / lane["wall_s"] for lane in lanes) / 1e6)
        self.assertAlmostEqual(values["cpu_ms_per_mtrit"], 1000.0 * 21.0 / 4.0)

    def test_min_ops_leaves_ten_beyond_the_tail(self):
        for workload, q in analysis.TAIL_QUANTILE.items():
            n = analysis.min_ops(workload)
            self.assertEqual(analysis.samples_beyond(n, q), analysis.MIN_BEYOND)
            self.assertLess(analysis.samples_beyond(n - 1, q), analysis.MIN_BEYOND)
            analysis.tail_percentile(list(range(n)), q)
        with self.assertRaises(ValueError):
            analysis.end_to_end_metrics(synthetic_doc("decode_images", 0, n_ops=400)[0])

    def test_setup_is_the_mean_of_all_setups(self):
        self.assertAlmostEqual(analysis.setup_seconds([0.1, 0.06, 0.1, 0.2, 0.04]), 0.1)
        self.assertEqual(analysis.setup_seconds([0.05]), 0.05)

    def test_unreconciled_ledger_is_incorrect(self):
        doc, trace_doc = synthetic_doc("decode_images", 1)
        trace_doc["traceEvents"][0]["dur"] *= 0.9  # 10% of wall time uncovered
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.report(doc, trace_doc)
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().splitlines()[-1])["correct"])


if __name__ == "__main__":
    unittest.main()
