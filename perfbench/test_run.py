"""Unit tests of run.py's metric-name, unit and result validation.

    python3 perfbench/run.py --selftest    (or, inside perfbench/: python3 -m unittest test_run)
"""

import json
import os
import unittest

import run


def metric(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


def spec(end_to_end, per_layer):
    return {"end_to_end": end_to_end, "per_layer": per_layer}


class SpecValidation(unittest.TestCase):
    def test_repository_spec_is_valid(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            expected = run.validate_spec(json.load(f))
        self.assertIn("setup_s", expected[0])
        self.assertEqual(expected[0]["setup_s"], "s")

    def test_accepts_contract_names_and_units(self):
        expected = run.validate_spec(spec([metric("step_ms_p50", "ms"), metric("mflups", "MFLUP/s")],
                                          [metric("lbm.collide_ms", "ms"), metric("a-b.c", "1/s")]))
        self.assertEqual(expected[1]["a-b.c"], "1/s")

    def test_rejects_bad_names(self):
        for bad in ("", "_lead", ".lead", "has space", "x" * 65, "semi;colon", 7):
            with self.subTest(name=bad):
                with self.assertRaises(run.BenchError):
                    run.validate_spec(spec([metric(bad, "ms")], [metric("ok", "ms")]))

    def test_rejects_bad_units(self):
        for bad in ("", "m s", "x" * 17, "ms!", None):
            with self.subTest(unit=bad):
                with self.assertRaises(run.BenchError):
                    run.validate_spec(spec([metric("ok", bad)], [metric("ok2", "ms")]))

    def test_rejects_duplicate_names_across_lists(self):
        with self.assertRaises(run.BenchError):
            run.validate_spec(spec([metric("same", "ms")], [metric("same", "ms")]))

    def test_rejects_bad_direction(self):
        with self.assertRaises(run.BenchError):
            run.validate_spec(spec([metric("ok", "ms", better="up")], [metric("ok2", "ms")]))


class ResultValidation(unittest.TestCase):
    expected = {"latency_ms": "ms", "setup_s": "s"}

    def test_accepts_matching_metrics(self):
        run.validate_metrics({"latency_ms": {"value": 1.25, "unit": "ms"},
                              "setup_s": {"value": 0.5, "unit": "s"}}, self.expected)

    def test_rejects_missing_and_extra_metrics(self):
        with self.assertRaises(run.BenchError):
            run.validate_metrics({"latency_ms": {"value": 1.0, "unit": "ms"}}, self.expected)
        with self.assertRaises(run.BenchError):
            run.validate_metrics({"latency_ms": {"value": 1.0, "unit": "ms"},
                                  "setup_s": {"value": 1.0, "unit": "s"},
                                  "extra": {"value": 1.0, "unit": "s"}}, self.expected)

    def test_rejects_wrong_unit(self):
        with self.assertRaises(run.BenchError):
            run.validate_metrics({"latency_ms": {"value": 1.0, "unit": "s"},
                                  "setup_s": {"value": 1.0, "unit": "s"}}, self.expected)

    def test_rejects_non_numbers(self):
        for bad in (None, "1.0", True, float("nan"), float("inf")):
            with self.subTest(value=bad):
                with self.assertRaises(run.BenchError):
                    run.validate_metrics({"latency_ms": {"value": bad, "unit": "ms"},
                                          "setup_s": {"value": 1.0, "unit": "s"}}, self.expected)


if __name__ == "__main__":
    unittest.main()
