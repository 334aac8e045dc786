#!/usr/bin/env python3
"""Per-layer report of the repo benchmark: self times, shares, tracing overhead.

Runs one workload twice with the same seed, untraced (end-to-end metrics)
and traced (per-layer metrics, benchmark-owned spans), then prints:

  * every per-layer metric of the traced run, with its unit;
  * each layer's self time per batch (span minus child spans; for
    serve-2wcc the in-service stages come from the service's own stage
    histograms) and its share of the traced mean batch/notify latency;
  * how far the summed layer self times are from the untraced
    batch_ms_p50 (incr-*) or notify_ms_p50 (serve-2wcc);
  * the tracing overhead: traced minus untraced end-to-end numbers.

  python3 perfbench/report.py --workload incr-qpr --seed 1
  python3 perfbench/report.py --all --seed 1
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
LAYERS = ("load", "serve", "protocol", "storage", "engine")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} (trace {trace}) failed with exit "
                 f"{proc.returncode}:\n{proc.stdout}")
    return json.loads(lines[-1])["metrics"]


def value(metrics, name):
    return metrics[name]["value"]


def report(workload, seed, seconds):
    untraced = run(workload, seed, seconds, 0)
    traced = run(workload, seed, seconds, 1)
    serve = workload == "serve-2wcc"
    key = "notify_ms_p50" if serve else "batch_ms_p50"

    print(f"== {workload} (seed {seed})")
    print("-- per-layer metrics (traced run)")
    for name, m in traced.items():
        print(f"  {name:40s} {m['value']:16.6f} {m['unit']}")

    mean = value(traced, "trace.latency_ms_mean")
    what = "notify" if serve else "batch"
    print(f"-- layer self time per {what} (share of traced mean "
          f"{what} latency {mean:.3f} ms)")
    total = 0.0
    for layer in LAYERS:
        ms = value(traced, f"{layer}.self_ms_per_batch")
        total += ms
        share = ms / mean if mean > 0 else 0.0
        print(f"  {layer:12s} {ms:12.4f} ms  {100 * share:6.2f} %")
    other = value(traced, "trace.layer_sum_ms_per_batch") - total
    print(f"  {'unattributed':12s} {other:12.4f} ms  (benchmark bookkeeping "
          f"between layer calls)")
    if not serve:
        busy = value(traced, "thread_pool.busy_ms_per_batch")
        print(f"  thread_pool busy {busy:.4f} ms per batch, inside engine "
              f"calls (no outside span of its own)")
    layer_sum = value(traced, "trace.layer_sum_ms_per_batch")
    base = value(untraced, key)
    print(f"-- check: summed self times {layer_sum:.3f} ms (a mean) vs "
          f"untraced {key} {base:.3f} ms: {layer_sum - base:+.3f} ms "
          f"({100 * (layer_sum / base - 1) if base else 0:+.1f} %)")
    t_p50 = value(traced, f"trace.{key}")
    print(f"-- tracing overhead on {key}: traced {t_p50:.3f} ms - untraced "
          f"{base:.3f} ms = {t_p50 - base:+.3f} ms "
          f"({100 * (t_p50 / base - 1) if base else 0:+.1f} %)")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("incr-qpr", "incr-tc", "serve-2wcc"))
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    workloads = (("incr-qpr", "incr-tc", "serve-2wcc") if args.all
                 else (args.workload,))
    for workload in workloads:
        report(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
