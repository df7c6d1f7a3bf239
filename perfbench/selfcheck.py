"""Self-checks for the benchmark's own code.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

They cover the median and tail-percentile rules, host-speed scaling,
per-layer self time, the entry-point guard, and that a tampered output file
fails its process.  The tampering checks run one small real ``windowlab all``
process.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import unittest
from pathlib import Path

import check
import child
import run


class PercentileRules(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        expected = {19: None, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90,
                    200: 95, 1000: 99, 10000: 99.9}
        for n, p in expected.items():
            self.assertEqual(run.tail_percentile(n), p, n)
            if p is not None:
                beyond = sum(1 for v in range(1, n + 1) if v > run.percentile(range(1, n + 1), p))
                self.assertGreaterEqual(beyond, run.MIN_BEYOND_TAIL, n)

    def test_nearest_rank_percentile(self):
        values = list(range(20, 0, -1))
        self.assertEqual(run.percentile(values, 50), 10)
        self.assertEqual(run.percentile(values, 75), 15)
        self.assertEqual(run.percentile(values, 100), 20)
        self.assertEqual(run.percentile([7.0], 90), 7.0)

    def test_quartiles_match_statistics_and_count_one_sample(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
        q1, median, q3 = run.quartiles(values)
        self.assertEqual([q1, median, q3], statistics.quantiles(values, n=4))
        self.assertEqual(median, statistics.median(values))
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))


class HostScaling(unittest.TestCase):
    REF = child.PROBE_REFERENCE_S

    def test_probe_time_is_removed_and_the_rest_rescaled(self):
        # Two slices inside [10, 20), both at half the reference speed: the
        # interval less their 4 x REF is halved.  Slices outside are ignored.
        probes = [[9.0, self.REF], [12.0, 2 * self.REF], [15.0, 2 * self.REF], [20.0, self.REF]]
        busy = 10.0 - 4 * self.REF
        self.assertAlmostEqual(run.host_scaled(10.0, 20.0, probes), busy * 0.5)

    def test_speed_is_the_mean_over_slices(self):
        probes = [[1.0, self.REF], [2.0, self.REF / 3]]  # speeds 1 and 3
        busy = 4.0 - self.REF - self.REF / 3
        self.assertAlmostEqual(run.host_scaled(0.0, 4.0, probes), busy * 2.0)

    def test_interval_without_a_probe_fails(self):
        with self.assertRaisesRegex(run.BenchmarkError, "no host-speed probe"):
            run.host_scaled(0.0, 1.0, [[5.0, self.REF]])

    def test_setup_is_scaled_by_the_bare_process_before_it(self):
        ref = run.BARE_REFERENCE_S

        def outcome(mode, spawn, seconds):
            key = "end" if mode == "bare" else "experiment_start"
            return run.Outcome(mode, spawn, {key: spawn + seconds})

        setups = [
            outcome("bare", 0.0, 2 * ref), outcome("setup", 1.0, 0.3),  # host at half speed
            outcome("bare", 2.0, ref), run.Outcome("setup", 3.0, None, "exit 1"),  # dropped
            outcome("bare", 4.0, ref), outcome("setup", 5.0, 0.2),
        ]
        values = run.scaled_setups(setups)
        self.assertEqual(len(values), 2)
        self.assertAlmostEqual(values[0], 0.15)
        self.assertAlmostEqual(values[1], 0.2)


def _span(name, start, end, parent, dataset=None, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "dataset": dataset, "counts": counts}


class LayerMetrics(unittest.TestCase):
    SPANS = [
        _span("harness", 0.0, 10.0, -1),
        _span("datagen.suite", 0.0, 0.5, 0, **{"datagen.instances": 8}),
        _span("svm.train", 1.0, 4.0, 0, 0, **{"svm.train_calls": 1}),
        _span("svm.score", 4.0, 4.25, 0, 0),
        _span("dca.run_low", 4.25, 9.0, 0, 1, **{"dca.cell_passes": 400}),
        _span("stats.analyze", 10.0, 12.0, -1),
        _span("stats.test", 10.5, 11.0, 5, **{"stats.tests_run": 1}),
        _span("output.emit", 12.0, 13.0, -1, **{"output.bytes": 99}),
        _span("freq.sweep", 12.5, 13.0, 7),
    ]

    def test_self_time_excludes_children_of_other_layers(self):
        m = run.layer_metrics(self.SPANS)
        self.assertAlmostEqual(m["harness.self_s"], 10.0 - 0.5 - 3.0 - 0.25 - 4.75)
        self.assertAlmostEqual(m["svm.train_s"], 3.0)
        self.assertAlmostEqual(m["stats.analyze_s"], 2.0)  # tests belong to the layer
        self.assertAlmostEqual(m["output.emit_s"], 0.5)
        self.assertAlmostEqual(m["freq.sweep_s"], 0.5)
        self.assertEqual(m["dca.run_high_s"], 0.0)
        self.assertEqual(m["dca.cell_passes"], 400)
        self.assertEqual(m["per_dataset_ms"], [3250.0, 4750.0])

    def test_missing_entry_point_is_named(self):
        spans = [s for s in self.SPANS if s["name"] != "svm.train"]
        with self.assertRaisesRegex(run.BenchmarkError, r"windowlab\.svm\.train was never called"):
            run.check_spans(spans, ("LNC",))

    def test_unattributed_dataset_call_fails(self):
        spans = [dict(s) for s in self.SPANS]
        spans[2]["dataset"] = None
        with self.assertRaisesRegex(run.BenchmarkError, "svm.train: call not traceable"):
            run.check_spans(spans, ("LNC",))


class PatchGuard(unittest.TestCase):
    def test_missing_module_attribute_is_named(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import windowlab.cli  # noqa: F401  (loads every windowlab module)

        with self.assertRaisesRegex(child.EntryPointMissing, r"windowlab\.svm\.no_such_function"):
            child._patch("svm", "no_such_function", lambda fn: fn)


class TamperedOutputs(unittest.TestCase):
    METHODS = ("LNC", "SMOV")
    DATASETS = 4

    @classmethod
    def setUpClass(cls):
        cls.work = run.RUNS_DIR / "selfcheck"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.clean = cls.work / "clean"
        workload = run.Workload(cls.METHODS, cls.DATASETS, split=100)
        args = workload.cli_args(5, cls.DATASETS, cls.clean)
        outcome = run.run_child("plain", args, cls.work / "record.json", run.child_env())
        if outcome.record is None:
            raise RuntimeError(f"windowlab run failed: {outcome.error}")
        cls.reference = check.digests(cls.clean)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        try:
            run.RUNS_DIR.rmdir()
        except OSError:
            pass

    def judge(self, tamper=None):
        out = self.work / "tampered"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(self.clean, out)
        if tamper is not None:
            tamper(out)
        error, _ = run.judge(out, self.DATASETS, self.METHODS, self.reference)
        return error

    @staticmethod
    def edit(name, old, new):
        def tamper(out: Path):
            path = out / name
            text = path.read_text(encoding="utf-8")
            assert old in text, (name, old)
            path.write_text(text.replace(old, new, 1), encoding="utf-8")

        return tamper

    def test_untouched_outputs_pass(self):
        self.assertIsNone(self.judge())

    def test_valid_looking_byte_change_fails_by_digest(self):
        error = self.judge(self.edit("error_rates.csv", ",LNC,0.5,", ",LNC,0.49,"))
        self.assertIn("digest", error)

    def test_error_rate_out_of_range_fails(self):
        self.assertIn("outside [0, 1]", self.judge(self.edit("error_rates.csv", ",LNC,0.5,", ",LNC,1.5,")))

    def test_missing_row_fails(self):
        def drop_last_row(out: Path):
            path = out / "error_rates.csv"
            path.write_text("".join(path.read_text().splitlines(True)[:-1]))

        self.assertIn("rows, expected", self.judge(drop_last_row))

    def test_unparseable_stats_report_fails(self):
        error = self.judge(self.edit("stats_report.csv", "two-sided,all,", "two-sided,all,x,"))
        self.assertIn("stats_report.csv", error)

    def test_missing_file_fails(self):
        self.assertIn("missing output", self.judge(lambda out: (out / "summary.txt").unlink()))


if __name__ == "__main__":
    unittest.main(verbosity=2)
