#!/usr/bin/env python3
"""Hard gate on the benchmark's single-client count rows.

`perfbench --workload cc-rmat --seed 1 --seconds 1 --trace 1` prints, as the
last line of its stdout, a JSON record whose `metrics` include rows that
count work rather than time it: reads, compaction CASes and hops per find,
the keyed id table's probe steps, claims and growth, and the batch path's
useful-link ratio. Their single-client passes are deterministic for a seed,
so a change that moves one changed what the algorithm does, not how fast
a machine ran it. This script requires the run to be correct with no failed
operations and compares those rows exactly with a checked-in baseline.

Rows from the two-client passes (the `*_p2` rows and the two
`epoch.*_per_ckpt` rows) depend on the schedule and stay out.

Usage:
    check_count_rows.py BASELINE RUN_OUTPUT

RUN_OUTPUT is a file holding perfbench's stdout; only its last non-empty
line is read. BASELINE is a JSON object whose "rows" map each gated row to
its value (scripts/count_rows_baseline.json). A change that moves a row on
purpose updates the baseline — a failing check prints the run's rows in
the baseline's format — and says why in CHANGES.md.

Exit status: 0 when the run is clean and every row matches, 1 otherwise.
"""

import json
import sys

ROWS = [
    "bulk.useful_link_ratio",
    "find.cc-rmat.reads_per_op",
    "find.cc-rmat.compact_cas_ok_per_op",
    "find.keyed-dedup.reads_per_op",
    "find.keyed-dedup.compact_cas_ok_per_op",
    "find.online-mix.reads_per_op",
    "find.online-mix.compact_cas_ok_per_op",
    "find.keyed-dedup.hops_per_find",
    "find.online-mix.hops_per_find",
    "keyed.probe_steps_per_key",
    "keyed.claim_ratio",
    "keyed.id_table_resizes",
    "ladder.dsu.reads_per_op",
    "ladder.growable.reads_per_op",
    "ladder.versioned.reads_per_op",
    "ladder.keyed_u64.reads_per_op",
]


def last_record(text):
    """The JSON record on the last non-empty line of a perfbench run."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_rows(run):
    """The gated rows the run reported, by name (absent rows left out)."""
    metrics = run.get("metrics", {})
    return {name: metrics[name]["value"] for name in ROWS if name in metrics}


def problems(baseline, run):
    """Every way `run` fails the gate against `baseline`, as messages."""
    found = []
    if run.get("correct") is not True:
        found.append(f"the run is not correct (correct = {run.get('correct')!r})")
    if run.get("failed") != 0:
        found.append(f"the run failed operations (failed = {run.get('failed')!r})")
    want = baseline.get("rows", {})
    got = run_rows(run)
    for name in ROWS:
        if name not in got:
            found.append(f"{name}: missing from the run")
        elif got[name] != want.get(name):
            found.append(f"{name}: baseline {want.get(name)!r}, run {got[name]!r}")
    return found


def main(argv):
    if len(argv) != 3:
        print("usage: check_count_rows.py BASELINE RUN_OUTPUT", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        run = last_record(f.read())
    found = problems(baseline, run)
    if not found:
        print(f"count rows: all {len(ROWS)} match {argv[1]}")
        return 0
    print(f"count rows: {len(found)} problem(s) against {argv[1]}:")
    for line in found:
        print(f"  {line}")
    print("the run's rows, in the baseline's format:")
    print(json.dumps({"rows": run_rows(run)}, indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
