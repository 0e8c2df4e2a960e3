#!/usr/bin/env python3
"""Fail-soft bench regression gate for the CI bench-smoke job.

Compares the current run's A/B bench JSON files against the previous run's
(restored from the actions/cache baseline keyed on branch) and flags:

* any `*_median_ns` that regressed by more than THRESHOLD (absolute time
  per mode — catches "everything got slower"), and
* any `*_speedup` A/B *ratio* that shrank by more than THRESHOLD (the
  contender lost ground against its in-run baseline — catches "the
  optimized arm regressed" even when host drift moves both arms, which is
  why the ratio diff exists: medians from a shared CI box drift together,
  ratios don't). A ratio is only comparable while its row keeps the same
  arms: when the set of `*_median_ns` keys differs between baseline and
  current (an arm was added or deleted, so the base arm may have moved),
  the row's ratios are skipped with a note and only its medians compared.

Records carry a `machine` fingerprint (cpus, arch, os) stamped by the
bench examples; when the baseline was produced on a different machine the
comparison is skipped outright — cross-machine deltas are placement
noise, not regressions, and the per-machine JSON archive (ROADMAP bench
matrix) is the place they belong.

The gate is advisory by design: CI bench boxes are noisy shared VMs, so a
regression prints a warning block into the GitHub job summary (and
stdout) but never turns the job red. Treat a warning as "re-run / measure
on real hardware before merging a perf-sensitive change", not as a
verdict.

Usage:
    check_bench_regression.py [--report] BASELINE_DIR CURRENT_DIR FILE [FILE...]

With `--report`, each file's block is preceded by an audit line naming the
baseline and current machine fingerprints and the row keys actually
compared — so a skipped cross-machine baseline (or an empty row
intersection) is visible as data in the report itself, not only as
job-summary prose.

Each FILE is a JSON produced by one of the dsu-harness A/B examples
(`crates/harness/examples/`, `--json` flag, written by
`dsu_harness::write_record`): {"example": ..., "machine": {...},
"results": [{"threads": N, "<mode>_median_ns": ..., "<mode>_speedup":
...}, ...]}.
Files missing from either directory are skipped with a note (first run on
a branch has no baseline yet).

Exit status is always 0.
"""

import json
import os
import sys

THRESHOLD = 1.15  # flag medians >15% slower, or ratios >15% smaller


def rows_by_threads(doc):
    """Rows keyed by (threads, n). `n` defaults to None for the examples
    that run a single size per invocation; examples that sweep sizes (e.g.
    variants_ab, which runs a cache-resident and a DRAM-resident
    universe) tag each row with its "n" so same-thread rows from
    different sizes don't collide in this dict."""
    return {
        (row.get("threads"), row.get("n")): row
        for row in doc.get("results", [])
        if "threads" in row
    }


def arms(row):
    """The modes a row measured: its `*_median_ns` keys, suffix stripped."""
    return {k[: -len("_median_ns")] for k in row if k.endswith("_median_ns")}


def fingerprint(doc):
    """(cpus, arch, os) of the machine that produced a record, or None."""
    m = doc.get("machine")
    if not isinstance(m, dict):
        return None
    return (m.get("cpus"), m.get("arch"), m.get("os"))


def describe_key(row_key):
    """Human form of a (threads, n) row key."""
    if row_key[1] is None:
        return f"{row_key[0]}t"
    return f"{row_key[0]}t/n={row_key[1]}"


def compare_file(baseline_dir, current_dir, name, report=False):
    """Returns (lines, regression_count) for one bench JSON file."""
    b_path = os.path.join(baseline_dir, name)
    c_path = os.path.join(current_dir, name)
    if not os.path.exists(c_path):
        return ([f"- `{name}`: no current result — bench step skipped or failed?"], 0)
    if not os.path.exists(b_path):
        return ([f"- `{name}`: no baseline yet (first run for this branch) — recorded for next time"], 0)
    try:
        with open(b_path) as f:
            base = json.load(f)
        with open(c_path) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return ([f"- `{name}`: unreadable ({e}) — skipped"], 0)

    b_fp, c_fp = fingerprint(base), fingerprint(cur)
    audit = []
    if report:
        compared = sorted(
            set(rows_by_threads(base)) & set(rows_by_threads(cur)),
            key=lambda k: (k[0], str(k[1])),
        )
        audit.append(
            f"- `{name}` report: baseline machine {b_fp}, current machine {c_fp}, "
            f"rows compared: {', '.join(describe_key(k) for k in compared) or '(none)'}"
        )
    if b_fp is not None and c_fp is not None and b_fp != c_fp:
        return (
            audit
            + [
                f"- `{name}`: baseline machine {b_fp} != current {c_fp} — "
                f"cross-machine comparison skipped; current recorded as the new baseline"
            ],
            0,
        )

    lines, regressions = audit, 0
    base_rows = rows_by_threads(base)
    # Stringify the key for sorting: a (threads, None) key must not be
    # compared against a (threads, int) one (mixed-shape docs).
    for row_key, row in sorted(
        rows_by_threads(cur).items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
    ):
        b_row = base_rows.get(row_key)
        threads = (
            f"{row_key[0]} threads"
            if row_key[1] is None
            else f"{row_key[0]} threads, n={row_key[1]}"
        )
        if b_row is None:
            continue
        same_arms = arms(row) == arms(b_row)
        if not same_arms:
            lines.append(
                f"- `{name}` @ {threads}: arms changed "
                f"({', '.join(sorted(arms(b_row)))} -> {', '.join(sorted(arms(row)))}) — "
                f"A/B ratios not compared"
            )
        for key in sorted(row):
            new, old = row.get(key), b_row.get(key)
            # Both sides must be positive numbers: the median branch
            # divides by old, the ratio branch by new, and a degenerate 0
            # must degrade to "skipped", never to an exception (the gate
            # promises exit 0).
            if (
                not isinstance(new, (int, float))
                or not isinstance(old, (int, float))
                or old <= 0
                or new <= 0
            ):
                continue
            if key.endswith("_median_ns"):
                ratio = new / old
                mode = key[: -len("_median_ns")]
                if ratio > THRESHOLD:
                    regressions += 1
                    lines.append(
                        f"- :warning: `{name}` **{mode}** @ {threads} regressed: "
                        f"{old:.0f} ns -> {new:.0f} ns ({ratio:.2f}x, threshold {THRESHOLD:.2f}x)"
                    )
                else:
                    lines.append(f"- `{name}` {mode} @ {threads}: {ratio:.2f}x baseline")
            elif key.endswith("_speedup") and same_arms:
                shrink = old / new  # >1 means the A/B ratio got worse
                mode = key[: -len("_speedup")]
                if shrink > THRESHOLD:
                    regressions += 1
                    lines.append(
                        f"- :warning: `{name}` **{mode} ratio** @ {threads} shrank: "
                        f"{old:.3f}x -> {new:.3f}x ({shrink:.2f}x smaller, threshold {THRESHOLD:.2f}x)"
                    )
                else:
                    lines.append(
                        f"- `{name}` {mode} ratio @ {threads}: {old:.3f}x -> {new:.3f}x"
                    )
    return (lines, regressions)


def main(argv):
    args = [a for a in argv[1:] if a != "--report"]
    report_mode = len(args) < len(argv) - 1
    if len(args) < 3:
        print(__doc__)
        return 0
    baseline_dir, current_dir, names = args[0], args[1], args[2:]

    body, total_regressions = [], 0
    for name in names:
        lines, regs = compare_file(baseline_dir, current_dir, name, report=report_mode)
        body.extend(lines)
        total_regressions += regs

    if total_regressions:
        verdict = (
            f"**{total_regressions} median(s)/ratio(s) regressed > {round((THRESHOLD - 1) * 100)}% "
            f"vs the previous run.** Advisory only (shared CI hardware is noisy): "
            f"re-run, or confirm on dedicated hardware before trusting the number."
        )
    else:
        verdict = (
            f"No median or A/B ratio regressed more than {round((THRESHOLD - 1) * 100)}% "
            f"vs the previous run."
        )

    report = "\n".join(["## Bench regression check (fail-soft)", "", verdict, ""] + body) + "\n"
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(report)
    # Fail-soft: warnings only, never a red job.
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
