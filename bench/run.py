#!/usr/bin/env python3
"""Benchmark of submatch's user-visible waits.

    python3 bench/run.py --workload {train,index,query,exact,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the workload is set up SETUP_REPEATS times, then runs whole
rounds until S seconds have passed, and the last stdout line is one JSON
object with every end-to-end metric. With --trace 1 the run is a traced tour
of all workloads and of voted answers (a fixed slice of each, see
Workload.cut_for_tour) and the metrics are the per-layer figures;
attempted/failed are those of the named workload(s).
Every output is checked; "correct" is false if any check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from hostspeed import Clock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_run(cls, seed, seconds, scratch):
    """Set up SETUP_REPEATS times (median reported), then whole rounds."""
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.start()
        wl = cls(seed, scratch, clock)
        wl.setup()
        setups.append(clock.stop())
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round(len(rounds)))
    repeats, weights = {}, {}
    for r in rounds:
        weights.update(r.weights)
        for key, ms in r.samples_ms.items():
            repeats.setdefault(key, []).append(ms)
    typical = {key: statistics.median(ms) for key, ms in repeats.items()}
    samples = list(typical.values())
    units = sum(weights.get(k, 1) for k in typical)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(
            1000.0 * units / sum(ms * weights.get(k, 1) for k, ms in typical.items()), "1/s"),
        "op_ms_p50": metric(statistics.median(samples), "ms"),
        "op_ms_p90": metric(percentile(samples, 90), "ms"),
    }
    print(f"mean host speed factor {statistics.mean(clock.factors):.4f} "
          "(corrected = raw time x factor)", file=sys.stderr)
    return result(rounds, metrics)


def result(rounds, metrics):
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def traced_tour(named, seed, scratch):
    """Every workload once: one round of its tour slice untraced, traced, and
    untraced again; overhead compares the traced round with the mean
    untraced one."""
    import layers
    import spans
    from workloads import TOUR

    metrics, own_rounds, all_rounds = {}, [], []
    for name, cls in TOUR.items():
        wl = cls(seed, scratch, Clock())
        wl.setup()
        wl.cut_for_tour()
        before = wl.run_round(0)
        recorder = spans.Recorder()
        recorder.install()
        try:
            wl.recorder = recorder
            traced = wl.run_round(0)
        finally:
            wl.recorder = None
            recorder.uninstall()
        after = wl.run_round(0)
        recorder.write(scratch / f"spans-{name}-{seed}.json.gz")
        summary = spans.Summary(recorder.spans)
        traced.problems += wl.traced_checks(summary)
        for key, value in layers.per_layer(name, summary, recorder.missing_spans()).items():
            metrics[f"{name}.{key}"] = value
        untraced_s = (before.busy_s + after.busy_s) / 2
        metrics[f"{name}.trace.overhead_pct"] = metric(
            100.0 * (traced.busy_s / untraced_s - 1.0), "%")
        all_rounds += [before, traced, after]
        if name in named:
            own_rounds += [before, traced, after]
    out = result(all_rounds, metrics)
    out["attempted"] = sum(r.attempted for r in own_rounds)
    out["failed"] = sum(r.failed for r in own_rounds)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "submatch" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'submatch'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    if args.trace:
        print(json.dumps(traced_tour(names, args.seed, scratch)), flush=True)
        return 0
    for name in names:
        out = timed_run(WORKLOADS[name], args.seed, args.seconds, scratch)
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
