#!/usr/bin/env python3
"""Compare the simulated figures of two bench_all JSON files.

Usage: scripts/figure_diff.py A.json B.json

Host wall-clock output is not part of the comparison: the `engine-micro`
figure (wholly wall-clock), rows whose series or unit mentions "wall", and
coordinates whose name mentions "wall". Everything else must match exactly.
Exits 0 when the figures are identical; otherwise prints the first figure
and row that differ and exits 1.
"""

import json
import sys


def comparable(path):
    """The figures of `path` with every wall-clock field dropped."""
    with open(path) as f:
        doc = json.load(f)
    figures = []
    for fig in doc["figures"]:
        rows = []
        if fig["name"] != "engine-micro":
            for row in fig["rows"]:
                if "wall" in row["series"] or "wall" in row["unit"]:
                    continue
                row = dict(row)
                if "coords" in row:
                    row["coords"] = {c: x for c, x in row["coords"].items() if "wall" not in c}
                rows.append(row)
        figures.append(dict(fig, rows=rows))
    return figures


def first_difference(a, b):
    """A message naming the first differing figure and row, or None."""
    if [f["name"] for f in a] != [f["name"] for f in b]:
        return "figure lists differ: %s vs %s" % ([f["name"] for f in a], [f["name"] for f in b])
    for fa, fb in zip(a, b):
        name = fa["name"]
        for i, (ra, rb) in enumerate(zip(fa["rows"], fb["rows"])):
            if ra != rb:
                return "figure %s row %d differs:\n  A: %s\n  B: %s" % (
                    name, i, json.dumps(ra, sort_keys=True), json.dumps(rb, sort_keys=True))
        if len(fa["rows"]) != len(fb["rows"]):
            return "figure %s has %d rows vs %d" % (name, len(fa["rows"]), len(fb["rows"]))
        if {k: v for k, v in fa.items() if k != "rows"} != {
                k: v for k, v in fb.items() if k != "rows"}:
            return "figure %s metadata differs" % name
    return None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = comparable(argv[1]), comparable(argv[2])
    diff = first_difference(a, b)
    if diff is not None:
        print(diff)
        return 1
    print("%d figures identical (wall-clock output excluded)" % len(a))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
