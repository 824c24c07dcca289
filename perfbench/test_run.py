"""Self-tests of run.py's own logic: result-line shaping, folding the
set-up processes into a run, and the fingerprint gate. Run with `python3 perfbench/run.py --self-test` (which
also runs the C++ self-tests) or `python3 -m unittest test_run` here."""

import unittest

import run

FP = {"cpus": 4, "isa": "avx512", "l1d_bytes": 49152, "l2_bytes": 2097152,
      "llc_bytes": 314572800}


def record(workload="large_transform", fp=FP, value=1.0, correct=True):
    return {"workload": workload, "seed": 1, "trace": 0, "correct": correct,
            "attempted": 10, "failed": 0, "fingerprint": dict(fp),
            "metrics": {"gflops": {"value": value, "unit": "GFLOPS"},
                        "extra": {"value": 2.0, "unit": "count"}}}


class ResultLine(unittest.TestCase):
    def test_exact_keys_and_only_listed_metrics(self):
        line, missing = run.result_line(record(), ["gflops"])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), ["gflops"])
        self.assertEqual(missing, [])
        self.assertTrue(line["correct"])

    def test_missing_metric_is_incorrect(self):
        line, missing = run.result_line(record(), ["gflops", "setup_s"])
        self.assertEqual(missing, ["setup_s"])
        self.assertFalse(line["correct"])

    def test_incorrect_record_stays_incorrect(self):
        line, _ = run.result_line(record(correct=False), ["gflops"])
        self.assertFalse(line["correct"])


class SetupProcesses(unittest.TestCase):
    def setup_record(self, value, correct=True):
        return {"correct": correct, "failures": [] if correct else ["bad"],
                "metrics": {"setup_s": {"value": value, "unit": "s"}}}

    def test_setup_s_is_the_median_of_every_process(self):
        main = record()
        main["metrics"]["setup_s"] = {"value": 9.0, "unit": "s"}
        status = run.merge_setups(main, [(0, self.setup_record(v)) for v in (1.0, 2.0)])
        self.assertEqual(status, 0)
        self.assertEqual(main["metrics"]["setup_s"]["value"], 2.0)
        self.assertTrue(main["correct"])

    def test_failed_setup_process_fails_the_run(self):
        main = record()
        main["metrics"]["setup_s"] = {"value": 1.0, "unit": "s"}
        status = run.merge_setups(main, [(1, self.setup_record(1.0, correct=False))])
        self.assertEqual(status, 1)
        self.assertFalse(main["correct"])
        self.assertIn("set-up process: bad", main["failures"])


class Fingerprints(unittest.TestCase):
    def test_same_host_compares(self):
        rows = run.compare([record(value=2.0)], [record(value=3.0)])
        gflops = [r for r in rows if r[2] == "gflops"][0]
        self.assertAlmostEqual(gflops[6], 1.5)

    def test_mismatched_fingerprints_are_refused(self):
        one_cpu = dict(FP, cpus=1)
        with self.assertRaises(run.BenchError):
            run.compare([record(fp=one_cpu)], [record()])
        other_isa = dict(FP, isa="avx2")
        with self.assertRaises(run.BenchError):
            run.compare([record()], [record(), record(fp=other_isa)])


if __name__ == "__main__":
    unittest.main()
