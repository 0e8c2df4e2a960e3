#!/usr/bin/env python3
"""Unit tests for check_count_rows.py (run by the CI lint job).

The count-row gate fails the job, so these fixtures pin what makes it
pass or fail:

* a clean run whose rows equal the baseline passes,
* a changed row fails and is named, with both values,
* a row missing from the run fails,
* a run that is not correct, or failed operations, fails even when every
  row matches.

Run: python3 scripts/test_check_count_rows.py
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_count_rows as gate


def rows():
    """A baseline value for every gated row."""
    return {name: 1.0 + i / 8 for i, name in enumerate(gate.ROWS)}


def record(values, correct=True, failed=0):
    """A perfbench result record carrying `values` plus an ungated row."""
    metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
    metrics["throughput_mops"] = {"value": 30.0, "unit": "Mops/s"}
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


class GateFixture(unittest.TestCase):
    """Writes a baseline and a run's stdout into a temp dir and runs main()."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.tmp.name, "baseline.json")
        with open(self.baseline, "w") as f:
            json.dump({"run": "fixture", "rows": rows()}, f)

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, run):
        path = os.path.join(self.tmp.name, "run.txt")
        with open(path, "w") as f:
            f.write("# setup line\n# another\n")
            f.write(json.dumps(run) + "\n\n")
        out = io.StringIO()
        with redirect_stdout(out):
            status = gate.main(["check_count_rows.py", self.baseline, path])
        return status, out.getvalue()

    def test_matching_rows_pass(self):
        status, out = self.check(record(rows()))
        self.assertEqual(status, 0, out)
        self.assertIn(f"all {len(gate.ROWS)} match", out)

    def test_changed_row_fails_and_names_it(self):
        values = rows()
        values["keyed.id_table_resizes"] = 15.0
        status, out = self.check(record(values))
        self.assertEqual(status, 1, out)
        self.assertIn("keyed.id_table_resizes: baseline", out)
        self.assertIn("15.0", out)

    def test_missing_row_fails(self):
        values = rows()
        del values["find.online-mix.hops_per_find"]
        status, out = self.check(record(values))
        self.assertEqual(status, 1, out)
        self.assertIn("find.online-mix.hops_per_find: missing from the run", out)

    def test_failed_run_fails_with_matching_rows(self):
        status, out = self.check(record(rows(), failed=3))
        self.assertEqual(status, 1, out)
        self.assertIn("failed operations", out)
        status, out = self.check(record(rows(), correct=False))
        self.assertEqual(status, 1, out)
        self.assertIn("not correct", out)

    def test_checked_in_baseline_holds_the_gated_rows(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "count_rows_baseline.json")
        with open(path) as f:
            baseline = json.load(f)
        self.assertEqual(sorted(baseline["rows"]), sorted(gate.ROWS))


if __name__ == "__main__":
    unittest.main()
