#!/usr/bin/env python3
"""The repository benchmark: builds hoplite_perf and measures four workloads.

Standard library only. Every mode builds first (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build at the checkout root when that is unset.

  run.py                         5 rounds round-robin over the workloads, one
                                 process at a time, the last one traced;
                                 prints every metric with its unit and writes
                                 one results JSON (--out)
  run.py --sets 2 --out F        the same, twice, into one file
  run.py --smoke                 1/10 horizon, one traced round
  run.py --compare BASE NEW      medians, quartiles and a verdict per metric;
                                 BASE/NEW are comma-separated results files,
                                 FILE:K picks set K of FILE
  run.py --workload W --seed N --seconds S --trace 0|1
                                 one measured run; the last stdout line is one
                                 JSON object with the end-to-end (--trace 0) or
                                 per-layer (--trace 1) metrics

Exit status is non-zero when a check fails: traced and untraced outcomes
differ, a deterministic metric differs between rounds of one seed, the
open-loop issue lag is not 0, a workload completes fewer than 1,000 ops, or
a metric is not finite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("collectives", "hot-reads", "hot-uplink", "churn")

# (name, unit, better, bound). bound: the share of the base median by which
# the metric may worsen before a change counts as a regression. Each bound is
# at least three times the metric's spread (quartile distance over median)
# across ten seeds; see README.md.
END_TO_END = (
    ("op_mean_ms", "ms", "lower", 0.15),
    ("op_tail_ms", "ms", "lower", 0.15),
    ("ops_per_sim_s", "ops/s", "higher", 0.07),
    ("wire_mb_per_op", "MB/op", "lower", 0.16),
    ("completed_frac", "fraction", "higher", 0.06),
    ("sim_ops_per_wall_s", "ops/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.08),
)
# The end-to-end metrics in simulated time: every run of one seed reproduces
# them exactly.
SIMULATED = ("op_mean_ms", "op_tail_ms", "ops_per_sim_s", "wire_mb_per_op", "completed_frac")
# Reported beside the end-to-end metrics but not gated (README.md says why).
INFORMATIONAL = (("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("failed_frac", "fraction"))

# Per-layer metrics a single run reports with --trace 1: (name, better). The
# traced run emits more (README.md lists them all); these are the ones that
# are defined on every workload and are not constant by construction.
PER_LAYER = (
    ("sim.events", "lower"),
    ("sim.events_per_op", "lower"),
    ("sim.cancels", "lower"),
    ("sim.peak_pending", "lower"),
    ("sim.event_ns", "lower"),
    ("net.wire_bytes", "lower"),
    ("net.messages", "lower"),
    ("net.events", "lower"),
    ("net.event_wall_s", "lower"),
    ("net.event_us", "lower"),
    ("net.peak_wire_flows", "lower"),
    ("directory.ops_served", "lower"),
    ("directory.events", "lower"),
    ("directory.event_wall_s", "lower"),
    ("directory.coalesce_attaches", "higher"),
    ("directory.attach_ratio", "higher"),
    ("store.hits", "higher"),
    ("store.misses", "lower"),
    ("store.hit_ratio", "higher"),
    ("store.evictions", "lower"),
    ("store.peak_used_mb", "lower"),
    ("store.final_used_mb", "lower"),
    ("core.events", "lower"),
    ("core.event_wall_s", "lower"),
    ("core.put_calls", "lower"),
    ("core.put_ns", "lower"),
    ("core.get_calls", "lower"),
    ("core.get_ns", "lower"),
    ("workload.offered", "higher"),
    ("workload.completed", "higher"),
    ("workload.failed", "lower"),
    ("workload.fairness", "higher"),
    ("workload.issue_events", "lower"),
    ("workload.issue_wall_s", "lower"),
    ("trace.event_wall_s", "lower"),
    ("trace.overhead_ratio", "lower"),
)


def unit_of(name: str) -> str:
    """A per-layer metric's unit, from its name."""
    for suffix, unit in (("_wall_s", "s"), ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_ratio", "ratio"), ("_per_op", "events/op"),
                         ("_bytes", "bytes"), ("fairness", "index")):
        if name.endswith(suffix):
            return unit
    return "count"


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Build and single runs
# ---------------------------------------------------------------------------

def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build() -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(out), "-j", jobs, "--target", "hoplite_perf"]]
    if not (out / "Makefile").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(step)}")
    return out / "hoplite_perf"


def run_once(binary: Path, workload: str, seed: int, trace: bool, seconds: float = 0.0,
             horizon_scale: float = 1.0) -> dict:
    """One hoplite_perf process. Raises CheckFailed if its checks failed."""
    out = binary.parent / "runs" / f"{workload}-{seed}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--horizon-scale", str(horizon_scale), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if code not in (0, 1) or not out.exists():
        raise SystemExit(f"hoplite_perf exited {code}: {' '.join(cmd)}")
    result = json.loads(out.read_text())
    out.unlink()
    if code != 0 or result["failures"]:
        raise CheckFailed(f"{workload} seed {seed}: " + "; ".join(result["failures"]))
    return result


def end_to_end(result: dict) -> dict[str, float]:
    """A run's end-to-end and informational metrics (wire_mb_per_op only from
    traced runs). Replay speed is the fastest replay's: other tenants of a
    shared host only ever slow a replay down."""
    metrics = dict(result["sim"])
    metrics["sim_ops_per_wall_s"] = result["ops"] / min(result["replay_wall_s"])
    metrics["setup_s"] = statistics.median(result["setup_s"])
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return metrics


# ---------------------------------------------------------------------------
# One measured run (--workload), for harnesses that collect runs themselves
# ---------------------------------------------------------------------------

def single_run(args: argparse.Namespace) -> int:
    binary = build()
    try:
        result = run_once(binary, args.workload, args.seed, trace=True, seconds=args.seconds)
    except CheckFailed as failure:
        log(f"check failed: {failure}")
        return 1
    # One attempted operation is one simulated op replayed; it fails when its
    # outcome differs from the first replay's, which fails the run instead.
    replays = len(result["replay_wall_s"]) + 1
    if args.trace:
        values = result["layers"]
        metrics = {n: {"value": values[n], "unit": unit_of(n)} for n, _ in PER_LAYER}
    else:
        values = end_to_end(result)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
    print(json.dumps({"correct": True, "attempted": replays * int(result["ops"]),
                      "failed": 0, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Full sets: rounds, traced runs, summaries
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_set(binary: Path, seed: int, rounds: int, horizon_scale: float) -> dict:
    """Rounds round-robin over the workloads; the last round is the traced
    run, whose untraced replays count as that round's sample."""
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for r in range(rounds):
        for w in WORKLOADS:
            traced = r == rounds - 1
            log(f"round {r + 1}/{rounds}{' (traced)' if traced else ''}: {w}")
            runs[w].append(run_once(binary, w, seed, trace=traced,
                                    horizon_scale=horizon_scale))
    out = {}
    for w in WORKLOADS:
        traced = runs[w][-1]
        for run in runs[w][:-1]:
            differ = [name for name, value in run["sim"].items()
                      if traced["sim"][name] != value]
            if run["outcome_digest"] != traced["outcome_digest"]:
                differ.append("per-op outcomes")
            if differ:
                raise CheckFailed(f"{w}: {', '.join(differ)} differ between runs of seed {seed}")
        values: dict[str, list[float]] = {}
        for run in runs[w]:
            for name, value in end_to_end(run).items():
                values.setdefault(name, []).append(value)
        values["wire_mb_per_op"] = [traced["sim"]["wire_mb_per_op"]] * rounds
        summary = {}
        for name, unit in [(n, u) for n, u, _, _ in END_TO_END] + list(INFORMATIONAL):
            q1, median, q3 = quartiles(values[name])
            summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit,
                             "values": values[name]}
        out[w] = {"end_to_end": summary, "layers": traced["layers"],
                  "ops": runs[w][0]["ops"]}
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*") if p.suffix in (".h", ".cc"))


def print_set(result: dict) -> None:
    for w, data in result.items():
        print(f"\n== {w} ({int(data['ops'])} ops)")
        for name, s in data["end_to_end"].items():
            print(f"  {name:<22} {s['median']:>14.6g} {s['unit']:<9} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]")
        layers = data["layers"]
        total = layers["trace.event_wall_s"]
        shares = ", ".join(f"{layer} {layers[key] / total:.0%}" for layer, key in (
            ("net", "net.event_wall_s"), ("directory", "directory.event_wall_s"),
            ("core", "core.event_wall_s"), ("workload", "workload.issue_wall_s")))
        print(f"  traced event wall {total:.3f} s: {shares}")
        for name, value in layers.items():
            print(f"  {name:<32} {value:>16.6g} {unit_of(name)}")


def full_run(args: argparse.Namespace) -> int:
    binary = Path(args.binary) if args.binary else build()
    scale = 0.1 if args.smoke else 1.0
    rounds = 1 if args.smoke else args.rounds
    start = time.monotonic()
    sets = []
    try:
        for k in range(args.sets):
            log(f"set {k + 1}/{args.sets}")
            sets.append(run_set(binary, args.seed, rounds, scale))
    except CheckFailed as failure:
        log(f"check failed: {failure}")
        return 1
    for k, result in enumerate(sets):
        print(f"\n#### set {k + 1} (seed {args.seed}, {rounds} rounds, horizon x{scale})")
        print_set(result)
    doc = {"schema": "hoplite-perf/1", "seed": args.seed, "rounds": rounds,
           "horizon_scale": scale, "src_lines": src_lines(), "sets": sets}
    out = Path(args.out) if args.out else binary.parent / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out} in {time.monotonic() - start:.0f} s")
    return 0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def load_values(spec: str) -> dict[str, dict[str, list[float]]]:
    """Per workload and metric, the values of every set of every file in a
    comma-separated list; FILE:K takes only set K of FILE."""
    sets = []
    for item in spec.split(","):
        path, _, index = item.partition(":")
        file_sets = json.loads(Path(path).read_text())["sets"]
        sets += [file_sets[int(index)]] if index else file_sets
    pooled: dict[str, dict[str, list[float]]] = {}
    for result in sets:
        for w, data in result.items():
            for name, s in data["end_to_end"].items():
                pooled.setdefault(w, {}).setdefault(name, []).extend(s["values"])
    return pooled


def compare(base_spec: str, new_spec: str) -> int:
    base, new = load_values(base_spec), load_values(new_spec)
    worse = 0
    print(f"{'workload':<12} {'metric':<20} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for w in WORKLOADS:
        for name, unit, better, bound in END_TO_END:
            if name not in base.get(w, {}) or name not in new.get(w, {}):
                continue
            bq1, bmed, bq3 = quartiles(base[w][name])
            nq1, nmed, nq3 = quartiles(new[w][name])
            sign = 1.0 if better == "lower" else -1.0
            change = sign * (nmed - bmed) / bmed  # > 0 means worse
            if (bq3 - bq1) / bmed > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            elif change < -bound:
                verdict = "better"
            elif name in SIMULATED and base[w][name] == new[w][name]:
                verdict = "identical"
            else:
                verdict = "same"
            print(f"{w:<12} {name:<20} {bmed:>12.6g} [{bq1:.6g}, {bq3:.6g}] {unit:<5}"
                  f" {nmed:>12.6g} [{nq1:.6g}, {nq3:.6g}] {(nmed - bmed) / bmed:>+8.2%}"
                  f" {bound:>6.1%}  {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="host seconds of untraced replay per run (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--out", help="results JSON (default: results.json beside the binary)")
    parser.add_argument("--binary", help="use this hoplite_perf instead of building")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return single_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
