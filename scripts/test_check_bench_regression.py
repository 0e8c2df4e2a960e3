#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (run by the CI lint job).

The gate is the only thing standing between a silently regressed bench
and a merged PR, and it is fail-soft by contract — so a bug in it does
not fail loudly anywhere else. These fixtures pin the four behaviors the
CI wiring depends on:

* a >15% median regression is flagged,
* a >15% A/B speedup-ratio shrink is flagged (even when medians drift),
* ratios are not compared in a row whose arms changed (the base arm of
  the ratio may have moved),
* baselines from a different machine fingerprint are refused (skipped),
* baselines whose `workload` block differs are refused (skipped),
* a missing baseline is a note, not an error,
* `--report` prints the machine fingerprints and the row keys compared
  (including for a cross-machine skip, where the fingerprints are the
  whole story),

and, across all of them, the exit status is 0 — fail-soft means the gate
may warn but must never turn the job red.

Run: python3 scripts/test_check_bench_regression.py
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as gate

MACHINE = {"cpus": 8, "arch": "x86_64", "os": "linux"}


def doc(rows, machine=MACHINE, example="variants_ab", workload=None):
    d = {"example": example, "machine": machine, "results": rows}
    if workload is not None:
        d["workload"] = workload
    return d


def row(threads, n=None, **measures):
    r = {"threads": threads, **measures}
    if n is not None:
        r["n"] = n
    return r


class GateFixture(unittest.TestCase):
    """Writes baseline/current JSON pairs into temp dirs and runs main()."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.tmp.name, "baseline")
        self.cur_dir = os.path.join(self.tmp.name, "current")
        os.makedirs(self.base_dir)
        os.makedirs(self.cur_dir)
        # The report must not leak into a real job summary during tests.
        os.environ.pop("GITHUB_STEP_SUMMARY", None)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, directory, name, document):
        with open(os.path.join(directory, name), "w") as f:
            json.dump(document, f)

    def run_gate(self, *names, report=False):
        out = io.StringIO()
        flags = ["--report"] if report else []
        with redirect_stdout(out):
            status = gate.main(["gate", *flags, self.base_dir, self.cur_dir, *names])
        return status, out.getvalue()

    def test_median_regression_is_flagged(self):
        self.write(self.base_dir, "a.json", doc([row(2, two_try_median_ns=100.0)]))
        self.write(self.cur_dir, "a.json", doc([row(2, two_try_median_ns=200.0)]))
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0, "fail-soft: regressions still exit 0")
        self.assertIn(":warning:", report)
        self.assertIn("two_try", report)
        self.assertIn("regressed", report)

    def test_median_within_threshold_is_not_flagged(self):
        self.write(self.base_dir, "a.json", doc([row(2, two_try_median_ns=100.0)]))
        self.write(self.cur_dir, "a.json", doc([row(2, two_try_median_ns=110.0)]))
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertNotIn(":warning:", report)
        self.assertIn("No median or A/B ratio regressed", report)

    def test_speedup_ratio_shrink_is_flagged_despite_median_drift(self):
        # Host drift: both arms got *faster* in absolute time, but the
        # contender lost ground against its in-run baseline (1.50x ->
        # 1.00x). Exactly the case the ratio diff exists to catch.
        self.write(
            self.base_dir,
            "a.json",
            doc([row(4, packed_median_ns=90.0, packed_speedup=1.50)]),
        )
        self.write(
            self.cur_dir,
            "a.json",
            doc([row(4, packed_median_ns=80.0, packed_speedup=1.00)]),
        )
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertIn(":warning:", report)
        self.assertIn("ratio", report)
        self.assertIn("shrank", report)

    def test_speedup_ratios_skipped_when_arms_change(self):
        # The baseline row had a `plain` base arm; the current row dropped
        # it, so `versioned` became the base and `snap_speedup` now means
        # snap-vs-versioned. Comparing 0.83 -> 0.50 would be a false
        # shrink; the medians are still comparable and still gated.
        self.write(
            self.base_dir,
            "a.json",
            doc([row(1, n=65536, plain_median_ns=100.0, plain_speedup=1.0,
                     versioned_median_ns=90.0, versioned_speedup=1.11,
                     snap_median_ns=120.0, snap_speedup=0.83)]),
        )
        self.write(
            self.cur_dir,
            "a.json",
            doc([row(1, n=65536, versioned_median_ns=90.0, versioned_speedup=1.0,
                     snap_median_ns=180.0, snap_speedup=0.50)]),
        )
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertIn("arms changed", report)
        self.assertNotIn("shrank", report)
        self.assertNotIn("ratio @", report)
        flagged = [l for l in report.splitlines() if ":warning:" in l]
        self.assertEqual(len(flagged), 1, "only the snap median regressed")
        self.assertIn("**snap**", flagged[0])

    def test_cross_machine_baseline_is_refused(self):
        other = {"cpus": 2, "arch": "aarch64", "os": "macos"}
        self.write(
            self.base_dir, "a.json", doc([row(2, m_median_ns=1.0)], machine=other)
        )
        # A 100x "regression" that must NOT be flagged: different machine.
        self.write(self.cur_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertNotIn(":warning:", report)
        self.assertIn("cross-machine comparison skipped", report)

    def test_cross_workload_baseline_is_refused(self):
        # A record timed over other sizes is not a baseline: a 10x
        # "regression" after the quick sizes grew must NOT be flagged.
        small = {"n": 16384, "m": 32768, "seed": "0xBE7C"}
        large = {"n": 262144, "m": 524288, "seed": "0xBE7C"}
        self.write(
            self.base_dir, "a.json", doc([row(2, m_median_ns=1.0)], workload=small)
        )
        self.write(
            self.cur_dir, "a.json", doc([row(2, m_median_ns=10.0)], workload=large)
        )
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertNotIn(":warning:", report)
        self.assertIn("cross-workload comparison skipped", report)
        self.assertIn('"n": 16384', report)
        # The same workload on both sides is still compared.
        self.write(
            self.base_dir, "a.json", doc([row(2, m_median_ns=1.0)], workload=large)
        )
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertIn(":warning:", report)
        self.assertNotIn("cross-workload", report)

    def test_missing_baseline_fails_soft(self):
        self.write(self.cur_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertNotIn(":warning:", report)
        self.assertIn("no baseline yet", report)

    def test_missing_current_fails_soft(self):
        self.write(self.base_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertIn("no current result", report)

    def test_unreadable_json_fails_soft(self):
        self.write(self.base_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        with open(os.path.join(self.cur_dir, "a.json"), "w") as f:
            f.write("{not json")
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertIn("unreadable", report)

    def test_rows_keyed_by_threads_and_n(self):
        # Two universes at the same thread count (variants_ab shape): the
        # n=65536 row regressed, the n=8388608 row did not — only the
        # former may be flagged, so the keys must not collide.
        base = doc(
            [
                row(1, n=65536, v_median_ns=100.0),
                row(1, n=8388608, v_median_ns=1000.0),
            ]
        )
        cur = doc(
            [
                row(1, n=65536, v_median_ns=200.0),
                row(1, n=8388608, v_median_ns=1000.0),
            ]
        )
        self.write(self.base_dir, "a.json", base)
        self.write(self.cur_dir, "a.json", cur)
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        flagged = [l for l in report.splitlines() if ":warning:" in l]
        self.assertEqual(len(flagged), 1)
        self.assertIn("n=65536", flagged[0])

    def test_report_flag_prints_fingerprint_and_compared_rows(self):
        self.write(
            self.base_dir,
            "a.json",
            doc([row(1, n=65536, m_median_ns=100.0), row(2, n=65536, m_median_ns=100.0)]),
        )
        self.write(
            self.cur_dir,
            "a.json",
            doc([row(1, n=65536, m_median_ns=100.0), row(4, n=65536, m_median_ns=100.0)]),
        )
        status, report = self.run_gate("a.json", report=True)
        self.assertEqual(status, 0)
        self.assertIn("report:", report)
        self.assertIn("(8, 'x86_64', 'linux')", report)
        # Only the intersection is compared: threads=1 in both docs.
        self.assertIn("rows compared: 1t/n=65536", report)
        self.assertNotIn("2t/n=65536", report.split("report:")[1].splitlines()[0])

    def test_report_flag_names_both_machines_on_cross_machine_skip(self):
        other = {"cpus": 2, "arch": "aarch64", "os": "macos"}
        self.write(self.base_dir, "a.json", doc([row(2, m_median_ns=1.0)], machine=other))
        self.write(self.cur_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        status, report = self.run_gate("a.json", report=True)
        self.assertEqual(status, 0)
        self.assertIn("report:", report)
        self.assertIn("(2, 'aarch64', 'macos')", report)
        self.assertIn("cross-machine comparison skipped", report)

    def test_without_report_flag_no_audit_line(self):
        self.write(self.base_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        self.write(self.cur_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertNotIn("report:", report)

    def test_degenerate_zero_median_is_skipped_not_crashed(self):
        self.write(self.base_dir, "a.json", doc([row(2, m_median_ns=0)]))
        self.write(self.cur_dir, "a.json", doc([row(2, m_median_ns=100.0)]))
        status, report = self.run_gate("a.json")
        self.assertEqual(status, 0)
        self.assertNotIn(":warning:", report)


if __name__ == "__main__":
    unittest.main()
