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
one side, or failed its own checks. Standard library only.
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
    bad = 0
    for name in names:
        base, head = load(base_dir / name), load(head_dir / name)
        verdict, detail = compare(base, head)
        digests = " / ".join(r["outcome_digest"] if r else "-" for r in (base, head))
        print(f"| {Path(name).stem} | {digests} | {verdict} | {detail} |")
        bad += verdict != "identical"
    print(f"\n{len(names) - bad} of {len(names)} runs identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
