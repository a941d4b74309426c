"""Checks BENCHMARK.json against the benchmark binary and run.py.

Run through `python3 netbench/run.py --self-test`, which builds the binary
and passes its path in NETBENCH_BIN.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (netbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_contract_shape(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["query_mix", "dataplane_day", "plan_scale"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


class EmittedNamesTest(unittest.TestCase):
    """The binary emits exactly the names BENCHMARK.json declares."""

    def listed(self):
        binary = os.environ.get("NETBENCH_BIN")
        if not binary:
            self.skipTest("NETBENCH_BIN not set (use run.py --self-test)")
        out = subprocess.run([binary, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        table = {"end_to_end": {}, "per_layer": {}}
        for line in out.splitlines():
            mode, name, unit = line.split()
            table[mode][name] = unit
        return table

    def test_every_declared_metric_is_emitted(self):
        table = self.listed()
        s = spec()
        for mode in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in s[mode]}
            self.assertEqual(table[mode], declared, mode)


class ValidateTest(unittest.TestCase):
    def line(self, trace, drop=None, **extra):
        metrics = {name: {"value": 1.5, "unit": unit}
                   for name, unit in run.expected_metrics(trace).items()
                   if name != drop}
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}
        result.update(extra)
        return json.dumps(result)

    def test_accepts_a_complete_result(self):
        self.assertIsNone(run.validate(self.line(False), False))
        self.assertIsNone(run.validate(self.line(True), True))

    def test_rejects_missing_metric_or_extra_key(self):
        self.assertIsNotNone(run.validate(self.line(False, drop="setup_s"),
                                          False))
        self.assertIsNotNone(run.validate(self.line(False, ops=1), False))
        self.assertIsNotNone(run.validate(self.line(True), False))
        self.assertIsNotNone(run.validate(self.line(False, attempted=0),
                                          False))
        self.assertIsNotNone(run.validate("not json", False))


if __name__ == "__main__":
    unittest.main()
