#!/usr/bin/env python3
"""Compare the outcome digests and simulated metrics of two sets of
hoplite_perf runs.

Usage: perf_digest_diff.py BASE_DIR HEAD_DIR

Each directory holds one `hoplite_perf --out` JSON per run, named alike on
both sides (for example `hot-uplink-2.json`). For every run the script
compares `outcome_digest` (a digest of every op's issue and settle instants,
success and error) and the `sim` block (the simulated end-to-end metrics),
which repeat exactly for a seed. Host-time fields are ignored. It prints one
markdown table row per run and exits 1 when any run differs, is missing on
one side, or failed its own checks.

Runs made with `--trace` also carry a `layers` block of per-layer work
counters. The script lists, in a second table, every deterministic counter
that differs between base and head (host-time names are skipped: `*_wall_s`,
`*_ns`, `*_us` and `trace.*`). A change may move those counters on purpose,
so they are reported only and never change the exit status.

A last table lists each run's `peak_rss_mb` at base and head, also report
only: it is host memory, not simulated output. Standard library only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: Path) -> dict | None:
    return json.loads(path.read_text()) if path.exists() else None


def compare(base: dict | None, head: dict | None) -> tuple[str, str]:
    """(verdict, detail) for one run."""
    if base is None or head is None:
        return "missing", "base" if base is None else "head"
    failures = base["failures"] + head["failures"]
    if failures:
        return "check failed", "; ".join(failures)
    moved = [name for name in sorted(set(base["sim"]) | set(head["sim"]))
             if base["sim"].get(name) != head["sim"].get(name)]
    if base["outcome_digest"] != head["outcome_digest"]:
        moved.insert(0, "outcome_digest")
    if moved:
        return "differs", ", ".join(moved)
    return "identical", ""


def host_time(name: str) -> bool:
    """Whether a `layers` counter measures host time rather than work."""
    return name.startswith("trace.") or name.endswith(("_wall_s", "_ns", "_us"))


def moved_counters(base: dict, head: dict) -> list[tuple[str, float, float]]:
    """(name, base, head) of every deterministic `layers` counter that differs."""
    return [(name, base.get(name), head.get(name))
            for name in sorted(set(base) | set(head))
            if not host_time(name) and base.get(name) != head.get(name)]


def rss_change(base: dict | None, head: dict | None) -> str:
    """Peak-RSS cells for one run: base, head and the relative change."""
    values = [r.get("peak_rss_mb") if r else None for r in (base, head)]
    cells = [f"{v:.1f}" if v is not None else "-" for v in values]
    if None in values or not values[0]:
        return " | ".join(cells + ["-"])
    return " | ".join(cells + [f"{values[1] / values[0] - 1:+.1%}"])


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_dir, head_dir = Path(sys.argv[1]), Path(sys.argv[2])
    names = sorted({p.name for d in (base_dir, head_dir) for p in d.glob("*.json")})
    if not names:
        print(f"no runs in {base_dir} or {head_dir}", file=sys.stderr)
        return 1
    print("| run | outcome digest (base / head) | verdict | detail |")
    print("|---|---|---|---|")
    bad = traced = 0
    counters = []
    rss = []
    for name in names:
        base, head = load(base_dir / name), load(head_dir / name)
        rss.append(f"| {Path(name).stem} | {rss_change(base, head)} |")
        verdict, detail = compare(base, head)
        digests = " / ".join(r["outcome_digest"] if r else "-" for r in (base, head))
        print(f"| {Path(name).stem} | {digests} | {verdict} | {detail} |")
        bad += verdict != "identical"
        if base and head and base.get("layers") and head.get("layers"):
            traced += 1
            counters += [(Path(name).stem, *moved)
                         for moved in moved_counters(base["layers"], head["layers"])]
    print(f"\n{len(names) - bad} of {len(names)} runs identical")
    print(f"\nDeterministic work counters (`layers` of {traced} runs traced on both sides):")
    if counters:
        print("\n| run | counter | base | head |")
        print("|---|---|---|---|")
        for run, counter, base_value, head_value in counters:
            print(f"| {run} | {counter} | {base_value} | {head_value} |")
    else:
        print("none differs")
    print("\nPeak RSS (`peak_rss_mb`, report only):")
    print("\n| run | base MB | head MB | change |")
    print("|---|---|---|---|")
    print("\n".join(rss))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
