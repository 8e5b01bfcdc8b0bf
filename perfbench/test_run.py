"""Tests for run.py's own logic: statistics, metric names, the SLO
knee and the per-layer cost table. Run: python3 perfbench/test_run.py"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class Summary(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.5, 6.0]
        s = run.summary(values)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]), (q1, q2, q3, 8))

    def test_even_count_median(self):
        s = run.summary([4.0, 1.0, 3.0, 2.0])
        self.assertEqual(s["median"], 2.5)
        self.assertEqual((s["q1"], s["q3"]), (1.25, 3.75))

    def test_single_sample(self):
        self.assertEqual(run.summary([7.0]),
                         {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1})

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.summary([])


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("host_run_s", "apps.memif_hit_ns", "memnode.shard0.reads", "9-x"):
            self.assertTrue(run.NAME_RE.match(good), good)
        for bad in ("", ".x", "a b", "a/b", "p99%", "x" * 65, "é"):
            self.assertFalse(run.NAME_RE.match(bad), bad)
        with self.assertRaises(run.BenchError):
            run.check_names(["ok", "not ok"])

    def test_benchmark_json(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
        run.check_names(names)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in SPEC["end_to_end"]), setup[0]["bound"])
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"]))


def point(rate, p99, first_p50, last_p50, failed=0):
    return {"rate_rps": rate, "failed": failed, "response": {"p99_us": p99},
            "phases": [{"p50_us": first_p50}, {"p50_us": last_p50}]}


class Knee(unittest.TestCase):
    def test_highest_rate_within_slo(self):
        pts = [point(200e3, 10, 2, 2), point(300e3, 40, 3, 3), point(400e3, 80, 3, 3)]
        self.assertEqual(run.sweep_knee(pts), 300.0)

    def test_growing_backlog_fails(self):
        pts = [point(200e3, 10, 2, 2), point(300e3, 40, 3, 7)]
        self.assertEqual(run.sweep_knee(pts), 200.0)

    def test_failures_fail(self):
        self.assertEqual(run.sweep_knee([point(200e3, 10, 2, 2, failed=1)]), 0.0)


def fake_rep(host_run_s, traced):
    rep = {
        "config": {"system": "DiLOS/readahead"},
        "attempted": 100,
        "failed": 0,
        "requests": 1000,
        "host_run_s": host_run_s,
        "gc": {"minor_collections": 10, "major_collections": 1, "top_heap_words": 1 << 20},
        "sim": {
            "phase_ns": 1_000_000,
            "counters": {},
            "phase_counters": {
                "major_faults": 100, "fetch_waits": 20, "prefetch_issued": 800,
                "evictions": 900, "rdma_reads": 900, "rdma_writes": 50,
                "rdma_read_batches": 100, "rdma_read_bytes": 900 * 4096,
                "rdma_write_bytes": 50 * 4096,
            },
            "histos": {"fault_ns": {"p99": 3000}},
            "app": {},
        },
    }
    if traced:
        rep["trace"] = {
            "memif": {"calls": 10_000, "bytes": 40_000, "hit_n": 150, "hit_ns": 150 * 60,
                      "miss_n": 6, "miss_ns": 6 * 5000, "clock_ns": 30.0},
            "attr": {"attr_wire_ns": {"p99": 2798}},
            "obs": {"repl_shard_reads{shard=0}": 900},
        }
    return rep


UNITS = {"sim.event_ns": 20.0, "vmem.pt_set_get_ns": 25.0, "rdma.post_read_ns": 200.0,
         "memnode.page_copy_ns": 400.0, "workload.gen_ns_per_req": 80.0,
         "apps.memif_hit_ns": 10.0}


class PerLayer(unittest.TestCase):
    def setUp(self):
        self.untraced = [fake_rep(1.0, False), fake_rep(1.2, False)]
        self.traced = [fake_rep(1.3, True), fake_rep(1.5, True)]
        self.m = run.per_layer(self.untraced, self.traced, UNITS, [point(200e3, 10, 2, 2)])

    def test_every_per_layer_metric(self):
        self.assertEqual(sorted(self.m), sorted(m["name"] for m in SPEC["per_layer"]))

    def test_estimates_plus_residual_add_up(self):
        parts = [v for k, v in self.m.items() if k.endswith(".est_s")] + [self.m["residual_s"]]
        self.assertAlmostEqual(sum(parts), self.m["trace.host_run_s"], places=12)
        self.assertEqual(self.m["trace.host_run_s"], 1.4)
        self.assertAlmostEqual(self.m["trace.overhead_s"], 1.4 - 1.1)

    def test_counts_times_unit_costs(self):
        # 120 of the 10,000 calls faulted; the rest hit at 10 ns.
        self.assertAlmostEqual(self.m["apps.est_s"], 9_880 * 10e-9)
        self.assertAlmostEqual(self.m["rdma.est_s"], 950 * 200e-9)
        self.assertAlmostEqual(self.m["workload.est_s"], 1000 * 80e-9)
        self.assertAlmostEqual(self.m["apps.memif_miss_us"], (5000 - 30) / 1000)

    def test_other_kernel_reads_zero(self):
        self.assertEqual(self.m["fastswap.major_faults"], 0)
        self.assertEqual(self.m["dilos.major_faults"], 100)


class Identical(unittest.TestCase):
    def test_detects_any_difference(self):
        a, b = fake_rep(1.0, False), fake_rep(2.0, True)
        self.assertEqual(run.check_identical([a, b], "rep"), [])
        b["sim"]["phase_ns"] += 1
        self.assertEqual(len(run.check_identical([a, b], "rep")), 1)


if __name__ == "__main__":
    unittest.main()
