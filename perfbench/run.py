"""cantortx benchmark: times calls into the library from outside.

    python3 perfbench/run.py --workload powers|queries|verify|all \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from the repository root.  It imports cantortx from ./src and nothing
else.  One process and one thread run a closed loop with one client; each
workload is its own process (`all` starts one per workload).  The last line of
output is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 1 when any output is wrong, and 2 when the library cannot be
found."""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("powers", "queries", "verify")


def quantile(values, q):
    """(value, samples above it) for the q-quantile of sorted values, by
    linear interpolation between the two closest ranks.  Any interpolation
    towards an infinite value is infinite."""
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    frac = pos - lo
    if frac == 0 or values[lo] == values[hi]:
        value = values[lo]
    else:
        value = values[lo] + frac * (values[hi] - values[lo])
    return value, len(values) - 1 - (lo if frac == 0 else hi)


def latency_metrics(outcome, seconds_of):
    """(p50 s, p90 s, suite s, samples beyond p90) over the ops, with an op's
    latency given by `seconds_of(record)`.  A failed op's latency is
    infinite.  When a percentile lands on a failed op it is reported as the
    per-op limit, and a failed suite op is charged the limit too.  verify has
    no limit: its one op is the suite."""
    latencies = sorted(map(seconds_of, outcome.records))
    cap = outcome.limit_s or math.inf
    suite_s = sum(min(seconds_of(r), cap) for r in outcome.records if r.suite)
    cap = outcome.limit_s or suite_s
    p50, _ = quantile(latencies, 0.5)
    p90, beyond = quantile(latencies, 0.9)
    return min(p50, cap), min(p90, cap), suite_s, beyond


def end_to_end(outcome, peak_rss_mb):
    """{name: (value, unit)} and the lines that explain them.  Times are at
    the reference host speed; the lines give them as measured too."""
    p50, p90, suite_s, beyond = latency_metrics(outcome, lambda r: r.seconds)
    metrics = {
        "setup_s": (outcome.setup_s, "s"),
        "op_ms.p50": (p50 * 1000.0, "ms"),
        "op_ms.p90": (p90 * 1000.0, "ms"),
        "suite_s": (suite_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    raw_p50, raw_p90, raw_suite_s, _ = latency_metrics(outcome, lambda r: r.raw_seconds)
    lines = [
        f"ops {outcome.attempted}, beyond p90 {beyond}"
        + ("" if beyond >= 10 else " (fewer than ten: the p90 is coarse)")
        + f"; {outcome.samples} timed calls in {outcome.passes} passes,"
        " an op's latency is the median of its calls",
        f"as measured, before scaling to the reference speed: setup_s {outcome.setup_raw_s:.6g} s,"
        f" op_ms.p50 {raw_p50 * 1000.0:.6g} ms, op_ms.p90 {raw_p90 * 1000.0:.6g} ms,"
        f" suite_s {raw_suite_s:.6g} s",
        f"failed_share {outcome.failed / outcome.attempted:.6f} ratio"
        f" ({outcome.failed} of {outcome.attempted} ops)",
    ]
    return metrics, lines


def failure_lines(outcome):
    expected = set(outcome.expected_failures)
    failed = {r.label: r.status for r in outcome.records if not r.ok}
    lines = [
        f"expected failures at the seed: {len(expected)} listed,"
        f" {len(expected & set(failed))} seen (counted, not excluded)"
    ]
    lines += [f"  now completes: {label}" for label in sorted(expected - set(failed))]
    lines += [f"  failed: {label}: {status}" for label, status in failed.items()
              if label not in expected]
    lines += [f"  WRONG: {w}" for w in outcome.wrong]
    return lines


def run_one(args):
    if not (SRC / "cantortx" / "__init__.py").is_file():
        print(f"perfbench: no cantortx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    outcome = workloads.run(
        args.workload, args.seed, args.seconds, args.trace, args.tiny, HERE / "traces"
    )
    module = sys.modules.get("cantortx")
    if module is None or not Path(module.__file__).resolve().is_relative_to(SRC):
        print("perfbench: cantortx was not imported from ./src", file=sys.stderr)
        return 2
    correct = not outcome.wrong
    print(f"workload {args.workload} seed {args.seed} passes {outcome.passes}"
          f" per-op limit {outcome.limit_s} s{' tiny' if args.tiny else ''}")
    if args.trace:
        metrics = outcome.layer
        lines = []
    else:
        metrics, lines = end_to_end(outcome, workloads.peak_rss_mb())
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in lines + failure_lines(outcome) + outcome.notes:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs that run every workload in seconds")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
