"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import run

ROOT = os.path.dirname(run.HERE)


def benchmark_json():
    return run.load_benchmark_json(ROOT)


def counts(**overrides):
    base = {
        "query_requests_sent": 100, "query_responses": 100,
        "false_negatives": 0, "protocol_errors": 0,
        "mutation_frames_sent": 10, "mutation_frames_acked": 10,
        "mutation_frames_refused": 0, "mutation_ack_count": 10,
        "missed_members": 0, "recovery_checked": 5,
        "recovery_violations": 0, "transport_ok": True,
    }
    base.update(overrides)
    return base


class PercentileSelectionTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(run.supports(1000, 99))
        self.assertFalse(run.supports(999, 99))
        self.assertTrue(run.supports(20, 50))
        self.assertFalse(run.supports(19, 50))

    def test_highest_supported(self):
        self.assertIsNone(run.highest_supported_percentile(19))
        self.assertEqual(run.highest_supported_percentile(20), 50)
        self.assertEqual(run.highest_supported_percentile(999), 90)
        self.assertEqual(run.highest_supported_percentile(1000), 99)
        self.assertEqual(run.highest_supported_percentile(10000), 99.9)
        self.assertEqual(run.highest_supported_percentile(10 ** 9), 99.999)


class ErrorAccountingTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(run.tally(counts()), (110, 0))

    def test_refused_mutation_counts_as_failed(self):
        attempted, failed = run.tally(
            counts(mutation_frames_acked=9, mutation_frames_refused=1))
        self.assertEqual((attempted, failed), (110, 1))

    def test_unanswered_query_counts_as_failed(self):
        self.assertEqual(run.tally(counts(query_responses=97))[1], 3)

    def test_wrong_answers_and_lost_mutations(self):
        c = counts(false_negatives=2, recovery_violations=1, protocol_errors=1)
        self.assertEqual(run.tally(c)[1], 4)

    def test_transport_failure_fails_the_run(self):
        self.assertEqual(run.tally(counts(transport_ok=False))[1], 1)

    def test_failed_never_exceeds_attempted(self):
        attempted, failed = run.tally(counts(missed_members=10 ** 6))
        self.assertEqual(failed, attempted)


class NamesTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [(n, u, b) for n, (u, b) in run.END_TO_END.items()])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(n, u, b) for n, (u, b, _) in run.PER_LAYER.items()])

    def test_every_name_is_emitted_by_the_program(self):
        with open(os.path.join(run.HERE, "main.cc")) as f:
            source = f.read()
        spec = benchmark_json()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertIn('"%s"' % name, source, name)

    def test_check_names(self):
        spec = benchmark_json()
        e2e = {m["name"]: 1.0 for m in spec["end_to_end"]}
        self.assertTrue(run.check_names(spec, e2e, trace=False))
        self.assertFalse(run.check_names(spec, e2e, trace=True))
        extra = dict(e2e, surprise=1.0)
        self.assertFalse(run.check_names(spec, extra, trace=False))
        missing = dict(e2e)
        missing.pop("setup_s")
        self.assertFalse(run.check_names(spec, missing, trace=False))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = benchmark_json()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        seen = set()
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], name)
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertEqual(run.END_TO_END["setup_s"], ("s", "lower"))
        self.assertLessEqual(len(json.dumps(spec)), 64 * 1024)


if __name__ == "__main__":
    unittest.main()
