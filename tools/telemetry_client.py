#!/usr/bin/env python3
"""End-to-end smoke client for the embedded telemetry server.

Usage:
  telemetry_client.py --binary <example_lnga_run> --workdir <scratch>
                      [--partitions 4] [--watch 6] [--watchdog-ms 200]
                      [--inject-stall-ms 800] [--timeout 120]

Spawns the pipeline driver in --watch mode with the telemetry server on
an ephemeral port (picked up through ITG_TELEMETRY_PORTFILE), then:

  1. scrapes /metrics and checks the Prometheus text exposition
     (itg_ prefix, # TYPE lines, cumulative histogram _bucket series
     consistent with _count, _sum present),
  2. polls /statusz until the engine publishes per-partition progress,
     and validates the JSON shape (query, superstep, partitions,
     watchdog, memory sections),
  3. polls /healthz until the injected stall trips the watchdog (503
     with status "stalled"), then confirms the watchdog counter is
     exported on /metrics and that /healthz recovers to 200 once the
     stall clears,
  4. checks the 404 path and the index page,
  5. waits for the driver to exit cleanly.

Uses only the standard library (http.client); exits non-zero with a
diagnostic on the first failed expectation.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import smoke_util  # noqa: E402
from smoke_util import expect, fail, get, wait_for_port  # noqa: E402

smoke_util.set_name("telemetry_client")


# ------------------------------------------------------------- /metrics ----

def parse_prometheus(body):
    """Parses text exposition into {name: {labels_string: value}} plus the
    set of (name, type) from # TYPE lines."""
    series = {}
    types = {}
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            expect(len(parts) == 4, f"malformed TYPE line: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        # <name>{labels} <value>  |  <name> <value>
        if "{" in line:
            name = line[:line.index("{")]
            labels = line[line.index("{"):line.rindex("}") + 1]
            value = line[line.rindex("}") + 1:].strip()
        else:
            name, _, value = line.partition(" ")
            labels = ""
        expect(name.startswith("itg_"),
               f"metric without itg_ prefix: {line!r}")
        for c in name:
            expect(c.isalnum() or c == "_",
                   f"invalid character {c!r} in metric name {name!r}")
        try:
            parsed = float(value)
        except ValueError:
            fail(f"unparseable sample value in line {line!r}")
        series.setdefault(name, {})[labels] = parsed
    return series, types


def check_metrics(port, deadline):
    status, ctype, body = get(port, "/metrics", deadline)
    expect(status == 200, f"/metrics returned {status}")
    expect("version=0.0.4" in ctype,
           f"/metrics Content-Type missing exposition version: {ctype!r}")
    series, types = parse_prometheus(body)
    expect(series, "/metrics exported no samples")

    for name, kind in types.items():
        if kind != "histogram":
            expect(name in series, f"# TYPE {name} with no sample line")
            continue
        buckets = series.get(name + "_bucket")
        expect(buckets, f"histogram {name} has no _bucket series")
        expect(name + "_sum" in series, f"histogram {name} missing _sum")
        expect(name + "_count" in series, f"histogram {name} missing _count")
        count = series[name + "_count"][""]
        inf_key = [k for k in buckets if 'le="+Inf"' in k]
        expect(inf_key, f"histogram {name} missing +Inf bucket")
        expect(buckets[inf_key[0]] == count,
               f"histogram {name}: +Inf bucket {buckets[inf_key[0]]} != "
               f"count {count}")

        def le_of(labels):
            le = labels.split('le="', 1)[1].split('"', 1)[0]
            return float("inf") if le == "+Inf" else float(le)

        ordered = sorted(buckets.items(), key=lambda kv: le_of(kv[0]))
        last = -1.0
        for labels, v in ordered:
            expect(v >= last,
                   f"histogram {name}: bucket {labels} not cumulative")
            last = v

    return series, types


# ------------------------------------------------------------- /statusz ----

def check_statusz(port, want_partitions, deadline):
    """Polls until the engine has published per-partition telemetry."""
    doc = None
    while time.monotonic() < deadline:
        status, ctype, body = get(port, "/statusz", deadline)
        expect(status == 200, f"/statusz returned {status}")
        expect("application/json" in ctype,
               f"/statusz Content-Type {ctype!r}")
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as e:
            fail(f"/statusz is not valid JSON: {e}\n{body}")
        if len(doc.get("partitions", [])) >= want_partitions:
            break
        time.sleep(0.05)
    expect(doc is not None, "/statusz never answered")
    expect(isinstance(doc.get("query"), str) and doc["query"],
           "statusz.query missing")
    for key in ("superstep", "delta_seq", "runs_total", "supersteps_total"):
        expect(isinstance(doc.get(key), int), f"statusz.{key} missing")
    wd = doc.get("watchdog")
    expect(isinstance(wd, dict) and "healthy" in wd and "stalls_total" in wd,
           "statusz.watchdog malformed")
    audit = doc.get("audit")
    expect(isinstance(audit, dict), "statusz.audit missing")
    for key in ("state_digest", "digest_timestamp", "audits_total",
                "audit_failures", "last_audit_ok"):
        expect(key in audit, f"statusz.audit missing {key}")
    parts = doc.get("partitions")
    expect(isinstance(parts, list) and len(parts) == want_partitions,
           f"statusz.partitions: want {want_partitions}, got "
           f"{parts if parts is None else len(parts)}")
    for p in parts:
        for key in ("id", "network_bytes", "barrier_wait_ms", "seconds"):
            expect(key in p, f"statusz.partitions entry missing {key}: {p}")
    mem = doc.get("memory")
    expect(isinstance(mem, dict) and mem, "statusz.memory missing/empty")
    for name, entry in mem.items():
        expect("bytes" in entry and "peak_bytes" in entry,
               f"statusz.memory[{name!r}] malformed: {entry}")
    return doc


# ------------------------------------------------------------- /healthz ----

def wait_for_stall(port, deadline):
    """Polls /healthz until the injected stall trips the watchdog."""
    while time.monotonic() < deadline:
        status, _, body = get(port, "/healthz", deadline)
        if status == 503:
            doc = json.loads(body)
            expect(doc.get("status") == "stalled",
                   f"503 /healthz without stalled status: {body}")
            expect(doc.get("stalls_total", 0) >= 1,
                   f"stalled /healthz with zero stalls_total: {body}")
            # An unhealthy /healthz must say WHY: the reasons array names
            # the failing subsystem (watchdog here; critical alerts when
            # an alert engine is attached).
            reasons = doc.get("reasons")
            expect(isinstance(reasons, list) and reasons,
                   f"503 /healthz without a reasons array: {body}")
            expect(any("watchdog" in r for r in reasons),
                   f"stalled /healthz reasons do not name the watchdog: "
                   f"{reasons}")
            return doc
        expect(status == 200, f"/healthz returned {status}")
        time.sleep(0.05)
    fail("watchdog never tripped on the injected stall")


def wait_for_recovery(port, deadline):
    """The watchdog is not sticky: /healthz goes back to 200 between
    stalled supersteps."""
    while time.monotonic() < deadline:
        status, _, _ = get(port, "/healthz", deadline)
        if status == 200:
            return
        time.sleep(0.05)
    fail("/healthz never recovered to 200 after the stall cleared")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--watch", type=int, default=6)
    parser.add_argument("--watchdog-ms", type=int, default=200)
    parser.add_argument("--inject-stall-ms", type=int, default=800)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    portfile = os.path.join(args.workdir, "telemetry.port")
    report = os.path.join(args.workdir, "watch_report.json")
    if os.path.exists(portfile):
        os.remove(portfile)

    env = dict(os.environ)
    env["ITG_TELEMETRY_PORTFILE"] = portfile
    env.pop("ITG_TELEMETRY_PORT", None)  # flag below wins; avoid two servers
    cmd = [
        args.binary, "--program", "pr", "--graph", "rmat:8",
        "--partitions", str(args.partitions),
        "--watch", str(args.watch),
        "--watch-delay-ms", "100",
        "--telemetry-port", "0",
        "--watchdog-ms", str(args.watchdog_ms),
        "--inject-stall-ms", str(args.inject_stall_ms),
        "--metrics-json", report,
    ]
    print("telemetry_client: spawning:", " ".join(cmd))
    deadline = time.monotonic() + args.timeout
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    try:
        port = wait_for_port(portfile, deadline, proc)
        print(f"telemetry_client: server up on 127.0.0.1:{port}")

        # The injected stall (superstep 0 of every run) gives the watchdog
        # a trip window on each of the watch iterations.
        stall_doc = wait_for_stall(port, deadline)
        print(f"telemetry_client: watchdog tripped "
              f"(stalls_total={stall_doc['stalls_total']})")
        wait_for_recovery(port, deadline)
        print("telemetry_client: /healthz recovered after the stall")

        statusz = check_statusz(port, args.partitions, deadline)
        print(f"telemetry_client: /statusz OK — query={statusz['query']!r}, "
              f"{len(statusz['partitions'])} partitions, "
              f"memory structures: {sorted(statusz['memory'])}")

        series, types = check_metrics(port, deadline)
        expect("itg_watchdog_stalls_total" in series,
               "watchdog counter missing from /metrics after a stall")
        expect(series["itg_watchdog_stalls_total"][""] >= 1,
               "itg_watchdog_stalls_total is zero after a tripped stall")
        mem_series = [s for s in series if s.startswith("itg_mem_")]
        expect(mem_series, "no itg_mem_* gauges on /metrics")
        part_series = [s for s in series if s.startswith("itg_partition_")]
        expect(part_series, "no itg_partition_* gauges on /metrics")
        histos = [n for n, k in types.items() if k == "histogram"]
        expect(histos, "no histograms on /metrics")
        print(f"telemetry_client: /metrics OK — {len(series)} series, "
              f"{len(histos)} histograms, {len(mem_series)} memory gauges, "
              f"{len(part_series)} partition gauges")

        status, _, _ = get(port, "/no-such-endpoint", deadline)
        expect(status == 404, f"unknown path returned {status}, want 404")
        status, _, body = get(port, "/", deadline)
        expect(status == 200 and "/metrics" in body,
               "index page missing endpoint listing")
        print("telemetry_client: routing OK (404 + index)")

        remaining = max(1.0, deadline - time.monotonic())
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            fail("driver did not exit within the timeout")
        expect(proc.returncode == 0,
               f"driver exited rc {proc.returncode}:\n"
               f"{out.decode('utf-8', errors='replace')}")
        expect(os.path.exists(report), "driver wrote no run report")
        print("telemetry_client: driver exited cleanly; all checks passed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
