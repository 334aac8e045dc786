#!/usr/bin/env python3
"""End-to-end smoke client for the standing-query serving daemon.

Usage:
  serve_client.py --serve-binary <example_itg_serve>
                  --lnga-binary <example_lnga_run>
                  --workdir <scratch> [--batches 6] [--timeout 180]
                  [--mode smoke|latency]

In the default mode, drives the full serving story documented in
docs/SERVING.md:

  1. writes a deterministic edge-list graph and spawns the daemon on an
     ephemeral port (picked up through --portfile),
  2. on two separate connections, registers two standing queries
     (PageRank and BFS) with subscribe+snapshot, and mirrors each view's
     audited columns client-side from the snapshot message,
  3. verifies the mirrored state digest (the Python reimplementation of
     common/digest.h below) bit-matches the digest in every message,
  4. ingests --batches valid Δ-batches; after each, both subscriber
     connections must receive a delta message whose after-images update
     the mirror to exactly the digest the server reports, and whose
     trace_id equals the one echoed in the ingest ack (the pipeline
     trace id round-trips end to end),
  5. registers a third query with a deliberately tiny memory-budget
     slice and expects the structured budget_exceeded rejection,
  6. checks the status op (per-query rows, timestamps, counters),
  7. replays the identical base graph + mutation stream through the
     batch driver (example_lnga_run --mutations) and requires its final
     state_digest to be bit-identical to each streamed view's digest —
     the serving daemon is the batch pipeline, made continuous,
  8. sends the shutdown op, waits for a clean exit, and validates the
     run report's "serving" section (stage latency rows, slow-batch
     counter, per-query lag; schema 6..MAX_SCHEMA accepted, and from v7
     the stamped delta-latency percentiles are cross-checked against a
     recomputation from the buckets via tools/histogram_math.py),
  9. separately: spawns the batch driver in --watch mode, SIGINTs it,
     and requires a clean rc-0 exit with a written report (the shared
     clean-stop path).

--mode latency exercises the pipeline-observability surface instead
(the latency_smoke ctest): spawns the daemon with ITG_TRACE and the
telemetry server, registers one view, streams batches while correlating
trace ids, then scrapes /metrics for the stage histograms and lag
gauges, checks the /statusz "pipeline" section, requires lag to drain
to zero, and cross-checks that the per-stage latency sums tile the
end-to-end delta latency. The driving cmake script then validates the
written trace with trace_summary.py --waterfall.

Uses only the standard library; exits non-zero with a diagnostic on the
first failed expectation. Transient connect failures are retried until a
deadline, like telemetry_client.py.
"""

import argparse
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import histogram_math as hm  # noqa: E402
import smoke_util  # noqa: E402
from report_schema import MAX_SCHEMA  # noqa: E402
from smoke_util import expect, fail, get, wait_for_port  # noqa: E402

smoke_util.set_name("serve_client")

MASK = (1 << 64) - 1


# --------------------------------------------------------------- digests ----
# Python mirror of common/digest.h: splitmix64 finalizer, per-cell hash of
# (vertex, element, IEEE-754 bits), wrapping-add column combine, salted
# attribute fold, Mix64 finalization. Must stay bit-compatible.

def mix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def hash_cell(vertex, element, value):
    bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
    h = mix64(vertex & MASK)
    h = mix64(h ^ ((element + 0x632BE59BD9B4E019) & MASK))
    return mix64(h ^ bits)


def column_digest(values, width):
    col = 0
    for v in range(len(values) // width):
        h = 0
        for i in range(width):
            h ^= hash_cell(v, i, values[v * width + i])
        col = (col + h) & MASK
    return col


def state_digest(attrs):
    """attrs: {name: {"salt": int, "width": int, "values": [float]}}."""
    combined = 0
    for a in attrs.values():
        col = column_digest(a["values"], a["width"])
        combined = (combined + mix64(col ^ mix64(a["salt"]))) & MASK
    return mix64(combined)


# ------------------------------------------------------------- transport ----

class ServeConnection:
    """One NDJSON connection. Requests are synchronous; delta messages
    arriving between responses are buffered in order."""

    def __init__(self, port, deadline):
        last = None
        while time.monotonic() < deadline:
            try:
                self.sock = socket.create_connection(("127.0.0.1", port),
                                                     timeout=10.0)
                break
            except OSError as e:
                last = e
                time.sleep(0.05)
        else:
            fail(f"could not connect to 127.0.0.1:{port}: {last!r}")
        self.file = self.sock.makefile("r", encoding="utf-8")
        self.pending = []  # buffered async messages (deltas)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def _read_message(self, deadline):
        self.sock.settimeout(max(0.1, deadline - time.monotonic()))
        line = self.file.readline()
        if not line:
            fail("server closed the connection mid-conversation")
        return json.loads(line)

    def request(self, req, deadline, expect_types=("ack",)):
        """Sends one request line; returns the first non-delta message,
        buffering any deltas that arrive first."""
        self.sock.sendall((json.dumps(req) + "\n").encode("utf-8"))
        while True:
            msg = self._read_message(deadline)
            if msg.get("type") == "delta":
                self.pending.append(msg)
                continue
            expect(msg.get("type") in expect_types,
                   f"request {req.get('op')}: unexpected reply {msg}")
            return msg

    def next_message(self, deadline, want_type):
        if self.pending:
            msg = self.pending.pop(0)
        else:
            msg = self._read_message(deadline)
        expect(msg.get("type") == want_type,
               f"expected {want_type}, got {msg}")
        return msg


# ----------------------------------------------------------- view mirror ----

class ViewMirror:
    """Client-side replica of one standing view's audited columns,
    maintained from the snapshot + delta stream and digest-checked
    against every message."""

    def __init__(self, name, snapshot):
        self.name = name
        expect(snapshot.get("query") == name,
               f"snapshot for wrong query: {snapshot.get('query')!r}")
        self.num_vertices = snapshot["num_vertices"]
        self.attrs = {}
        for col in snapshot["attrs"]:
            expect(len(col["values"]) == col["width"] * self.num_vertices,
                   f"{name}: snapshot column {col['name']} has "
                   f"{len(col['values'])} values")
            self.attrs[col["name"]] = {
                "salt": col["salt"],
                "width": col["width"],
                "values": list(col["values"]),
            }
        self.check_digest(snapshot, "snapshot")

    def apply_delta(self, delta):
        for change in delta.get("changes", []):
            attr = self.attrs.get(change["name"])
            expect(attr is not None,
                   f"{self.name}: delta for unknown attr {change['name']!r}")
            width = change["width"]
            expect(width == attr["width"],
                   f"{self.name}: width changed for {change['name']!r}")
            values = change["values"]
            for k, v in enumerate(change["vertices"]):
                expect(0 <= v < self.num_vertices,
                       f"{self.name}: delta vertex {v} out of range")
                attr["values"][v * width:(v + 1) * width] = \
                    values[k * width:(k + 1) * width]
        self.check_digest(delta, f"delta seq={delta.get('seq')}")

    def check_digest(self, msg, what):
        want = int(msg["digest"])
        got = state_digest(self.attrs)
        expect(got == want,
               f"{self.name}: mirrored digest {got} != server digest "
               f"{want} after {what}")


# ------------------------------------------------------------ test graph ----

def make_graph(path, num_vertices):
    """A ring plus deterministic chords; returns the edge list."""
    rng = random.Random(0x5EED)
    edges = []
    seen = set()
    for v in range(num_vertices):
        edges.append((v, (v + 1) % num_vertices))
        seen.add(edges[-1])
    for _ in range(num_vertices):
        a, b = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            edges.append((a, b))
    with open(path, "w", encoding="utf-8") as f:
        f.write("# serve_client smoke graph\n")
        for a, b in edges:
            f.write(f"{a} {b}\n")
    return edges


def make_batches(base_edges, num_vertices, count, ops_per_batch=8):
    """Valid Δ-batches against the live edge set: inserts of absent
    pairs, deletes of previously inserted ones."""
    rng = random.Random(0xD17A)
    present = set(base_edges)
    inserted = []
    batches = []
    for _ in range(count):
        inserts, deletes = [], []
        n_del = min(len(inserted), ops_per_batch // 4)
        for _ in range(n_del):
            e = inserted.pop(rng.randrange(len(inserted)))
            deletes.append(e)
            present.discard(e)
        while len(inserts) < ops_per_batch - n_del:
            a, b = rng.randrange(num_vertices), rng.randrange(num_vertices)
            if a == b or (a, b) in present:
                continue
            present.add((a, b))
            inserted.append((a, b))
            inserts.append((a, b))
        batches.append((inserts, deletes))
    return batches


def write_mutations(path, batches):
    """The same stream in example_lnga_run --mutations format (inserts
    before deletes, matching the daemon's per-batch apply order)."""
    with open(path, "w", encoding="utf-8") as f:
        for inserts, deletes in batches:
            for a, b in inserts:
                f.write(f"+ {a} {b}\n")
            for a, b in deletes:
                f.write(f"- {a} {b}\n")
            f.write("commit\n")


# ---------------------------------------------------------------- pieces ----

def batch_digest(lnga_binary, workdir, program, graph, mutations, deadline,
                 env):
    """Final state_digest of the batch pipeline over the same stream."""
    report = os.path.join(workdir, f"batch_{program.replace(':', '_')}.json")
    cmd = [lnga_binary, "--program", program, "--graph", graph,
           "--mutations", mutations, "--metrics-json", report]
    proc = subprocess.run(cmd, capture_output=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          env=env)
    expect(proc.returncode == 0,
           f"batch re-run {program} exited rc {proc.returncode}:\n"
           f"{proc.stdout.decode('utf-8', errors='replace')}"
           f"{proc.stderr.decode('utf-8', errors='replace')}")
    with open(report, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return doc["runs"][-1]["state_digest"]


def check_report(path, batches, queries=2):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    version = doc.get("schema_version")
    expect(isinstance(version, int) and 6 <= version <= MAX_SCHEMA,
           f"daemon report schema_version {version!r}, "
           f"want 6..{MAX_SCHEMA}")
    serving = doc.get("serving")
    expect(isinstance(serving, dict), "daemon report has no serving section")
    expect(serving.get("standing_queries") == queries,
           f"serving.standing_queries {serving.get('standing_queries')}, "
           f"want {queries}")
    expect(serving.get("ingest_batches") == batches,
           f"serving.ingest_batches {serving.get('ingest_batches')}, "
           f"want {batches}")
    expect("backpressure_stalls" in serving,
           "serving.backpressure_stalls missing")
    expect("slow_batches" in serving, "serving.slow_batches missing (v6)")
    stages = {row["stage"]: row
              for row in serving.get("stage_latency_us", [])}
    for stage in ("validate", "queue_wait", "apply"):
        expect(stage in stages,
               f"serving.stage_latency_us missing stage {stage!r}")
        expect(stages[stage]["count"] == batches,
               f"stage {stage!r} count {stages[stage]['count']}, "
               f"want {batches}")
    rows = serving.get("queries", [])
    expect(len(rows) == queries,
           f"serving.queries has {len(rows)} rows, want {queries}")
    for row in rows:
        name = row.get("name")
        expect(row.get("timestamp") == batches,
               f"serving row {name!r} at timestamp "
               f"{row.get('timestamp')}, want {batches}")
        hist = row.get("delta_latency_us", {})
        expect(hist.get("count") == batches,
               f"serving row {name!r} latency count "
               f"{hist.get('count')}, want {batches}")
        expect(isinstance(hist.get("buckets"), list) and hist["buckets"],
               f"serving row {name!r} has no latency buckets")
        if version >= 7:
            # The v7 percentile stamps must be exactly what the buckets
            # imply (histogram_math.py is the Python mirror of the C++
            # helper that computed them).
            sparse = [(int(b[0]), int(b[1])) for b in hist["buckets"]]
            for field, p in (("p50", 50.0), ("p95", 95.0),
                             ("p99", 99.0), ("p999", 99.9)):
                want = hm.percentile_upper_bound(sparse, p,
                                                 hm.HISTOGRAM_SUB_BITS)
                expect(hist.get(field) == want,
                       f"serving row {name!r} {field} {hist.get(field)} "
                       f"disagrees with its buckets (want {want})")
        # Per-view stage rows exist, and the view is fully caught up
        # after the drain that precedes report writing.
        for stage in (f"view_run.{name}", f"stream_flush.{name}"):
            expect(stage in stages,
                   f"serving.stage_latency_us missing stage {stage!r}")
        expect(row.get("lag_batches") == 0 and row.get("lag_us") == 0,
               f"serving row {name!r} still lagging after drain: "
               f"lag_batches={row.get('lag_batches')} "
               f"lag_us={row.get('lag_us')}")
    return serving


def check_sigint_watch(lnga_binary, workdir, deadline, env):
    """--watch must treat SIGINT as a clean stop: rc 0, report written."""
    report = os.path.join(workdir, "watch_report.json")
    cmd = [lnga_binary, "--program", "pr", "--graph", "rmat:6",
           "--watch", "1000", "--watch-delay-ms", "50",
           "--metrics-json", report]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env)
    try:
        # Let it get through the one-shot and a few watch batches.
        time.sleep(3.0)
        expect(proc.poll() is None, "watch driver exited before SIGINT")
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=max(1.0,
                                              deadline - time.monotonic()))
        expect(proc.returncode == 0,
               f"watch driver rc {proc.returncode} after SIGINT:\n"
               f"{out.decode('utf-8', errors='replace')}")
        expect(b"clean stop" in out,
               "watch driver did not report a clean stop")
        expect(os.path.exists(report),
               "watch driver wrote no report after SIGINT")
        with open(report, "r", encoding="utf-8") as f:
            json.load(f)  # must be complete, valid JSON
        print("serve_client: SIGINT clean-stop OK (rc 0, report written)")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------- latency mode ----

def scrape(port, path, deadline):
    """Body of a 200 GET of `path` on the telemetry listener, which can lag
    the portfile write by a beat (smoke_util.get retries until then)."""
    status, _, body = get(port, path, deadline)
    expect(status == 200, f"scrape {path}: HTTP {status}")
    return body


def parse_prometheus(text):
    """{metric_name: value} for plain sample lines (no labels)."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        parts = line.split()
        if len(parts) == 2:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return values


def run_latency_mode(args):
    """The latency_smoke body: trace-id propagation, /metrics stage
    histograms and lag gauges, the /statusz pipeline section, the stage
    sums tiling the end-to-end latency, and an ITG_TRACE file with flow
    events (validated afterwards by trace_summary.py --waterfall)."""
    os.makedirs(args.workdir, exist_ok=True)
    deadline = time.monotonic() + args.timeout
    graph = os.path.join(args.workdir, "edges.txt")
    portfile = os.path.join(args.workdir, "serve.port")
    tportfile = os.path.join(args.workdir, "telemetry.port")
    report = os.path.join(args.workdir, "serve_report.json")
    trace = os.path.join(args.workdir, "serve_trace.json")
    for stale in (portfile, tportfile, trace):
        if os.path.exists(stale):
            os.remove(stale)

    base_edges = make_graph(graph, args.num_vertices)
    batches = make_batches(base_edges, args.num_vertices, args.batches)

    env = dict(os.environ)
    env["ITG_THREADS"] = "1"
    env["ITG_TRACE"] = trace
    env["ITG_TELEMETRY_PORTFILE"] = tportfile
    env.pop("ITG_TELEMETRY_PORT", None)

    # A generous slow-batch threshold: the flag path is exercised but no
    # batch of this toy stream should trip it (asserted below).
    cmd = [args.serve_binary, "--graph", graph, "--port", "0",
           "--portfile", portfile, "--telemetry-port", "0",
           "--slow-batch-ms", "60000",
           "--scratch", os.path.join(args.workdir, "scratch"),
           "--metrics-json", report]
    print("serve_client: spawning:", " ".join(cmd))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env)
    conns = []
    try:
        port = wait_for_port(portfile, deadline, proc)
        tport = wait_for_port(tportfile, deadline, proc)
        print(f"serve_client: daemon up on 127.0.0.1:{port}, telemetry "
              f"on 127.0.0.1:{tport}")

        sub = ServeConnection(port, deadline)
        conns.append(sub)
        ack = sub.request({"op": "register", "query": "q1",
                           "program": "pr", "subscribe": True}, deadline)
        expect(ack.get("op") == "register", f"malformed register ack: {ack}")

        ingester = ServeConnection(port, deadline)
        conns.append(ingester)
        seen_ids = set()
        for i, (inserts, deletes) in enumerate(batches, start=1):
            ack = ingester.request(
                {"op": "ingest",
                 "inserts": [list(e) for e in inserts],
                 "deletes": [list(e) for e in deletes]}, deadline)
            trace_id = ack.get("trace_id")
            expect(isinstance(trace_id, str) and trace_id.isdigit()
                   and int(trace_id) != 0,
                   f"ingest ack carries no pipeline trace_id: {ack}")
            expect(trace_id not in seen_ids,
                   f"trace_id {trace_id} reused across batches")
            seen_ids.add(trace_id)
            delta = sub.next_message(deadline, "delta")
            expect(delta.get("seq") == i,
                   f"delta seq {delta.get('seq')}, want {i}")
            expect(delta.get("trace_id") == trace_id,
                   f"delta trace_id {delta.get('trace_id')!r} != ack "
                   f"trace_id {trace_id!r}")
            # Space the batches out a little so queue_wait/lag_us get
            # non-degenerate samples.
            time.sleep(0.002)
        n = len(batches)
        print(f"serve_client: {n} batches streamed, {len(seen_ids)} "
              f"distinct trace ids round-tripped")

        # Every delta was received, so the pipeline is quiescent: the
        # stage histograms must have one sample per batch and the view
        # must report zero lag.
        metrics = parse_prometheus(
            scrape(tport, "/metrics", deadline))
        for stage in ("validate", "queue_wait", "apply"):
            key = f"itg_serve_stage_latency_us_{stage}_count"
            expect(metrics.get(key) == n,
                   f"/metrics {key} = {metrics.get(key)}, want {n}")
        for stage in ("view_run_q1", "stream_flush_q1"):
            key = f"itg_serve_stage_latency_us_{stage}_count"
            expect(metrics.get(key) == n,
                   f"/metrics {key} = {metrics.get(key)}, want {n}")
        expect(metrics.get("itg_serve_view_lag_batches_q1") == 0,
               f"/metrics itg_serve_view_lag_batches_q1 = "
               f"{metrics.get('itg_serve_view_lag_batches_q1')}, want 0")
        expect(metrics.get("itg_serve_view_lag_us_q1") == 0,
               f"/metrics itg_serve_view_lag_us_q1 = "
               f"{metrics.get('itg_serve_view_lag_us_q1')}, want 0")
        expect(metrics.get("itg_serve_slow_batches") == 0,
               f"/metrics itg_serve_slow_batches = "
               f"{metrics.get('itg_serve_slow_batches')}, want 0")
        print("serve_client: /metrics stage histograms + lag gauges OK")

        statusz = json.loads(
            scrape(tport, "/statusz", deadline))
        serving = statusz.get("serving")
        expect(isinstance(serving, dict), "/statusz has no serving member")
        pipeline = serving.get("pipeline")
        expect(isinstance(pipeline, dict),
               "/statusz serving has no pipeline section")
        for stage in ("validate", "queue_wait", "apply"):
            expect(stage in pipeline.get("stages", {}),
                   f"/statusz pipeline.stages missing {stage!r}")
        q1 = pipeline.get("views", {}).get("q1")
        expect(isinstance(q1, dict) and "lag_batches" in q1
               and "view_run" in q1,
               f"/statusz pipeline.views.q1 malformed: {q1!r}")
        print("serve_client: /statusz pipeline section OK")

        # Status rows carry the staleness fields.
        status = ingester.request({"op": "status"}, deadline,
                                  expect_types=("status",))
        rows = {row["query"]: row for row in status.get("queries", [])}
        expect("q1" in rows, f"status rows {sorted(rows)}, want q1")
        for field in ("lag_batches", "lag_us"):
            expect(isinstance(rows["q1"].get(field), int),
                   f"status row q1 missing {field}: {rows['q1']}")
        expect(rows["q1"]["lag_batches"] == 0,
               f"status row q1 lag_batches {rows['q1']['lag_batches']} "
               f"after quiescence, want 0")
        print("serve_client: status staleness fields OK")

        ack = ingester.request({"op": "shutdown"}, deadline)
        expect(ack.get("op") == "shutdown", f"malformed shutdown ack: {ack}")
        out, _ = proc.communicate(timeout=max(1.0,
                                              deadline - time.monotonic()))
        expect(proc.returncode == 0,
               f"daemon rc {proc.returncode} after shutdown op:\n"
               f"{out.decode('utf-8', errors='replace')}")

        serving = check_report(report, n, queries=1)
        # With a single view the five stages tile ingest->flush exactly
        # (shared clock reads at every boundary); only µs truncation may
        # leak, bounded well under 16us per batch per stage boundary.
        stage_sum = sum(row["sum"] for row in serving["stage_latency_us"])
        e2e = serving["queries"][0]["delta_latency_us"]
        e2e_sum = e2e["sum"]
        tolerance = 16 * n
        expect(abs(stage_sum - e2e_sum) <= tolerance,
               f"stage latency sums {stage_sum}us do not tile the "
               f"end-to-end delta latency {e2e_sum}us "
               f"(tolerance {tolerance}us)")
        expect(serving["slow_batches"] == 0,
               f"report slow_batches {serving['slow_batches']}, want 0")
        # The v7 percentile stamps (already cross-checked against the
        # buckets in check_report) must be ordered and live: a quiescent
        # pipeline that streamed n deltas has a nonzero tail.
        expect(e2e["p50"] <= e2e["p95"] <= e2e["p99"] <= e2e["p999"],
               f"report percentiles not monotone: {e2e}")
        expect(e2e["p99"] > 0, "report p99 is zero after streaming deltas")
        print(f"serve_client: run report v7 OK; stage sums {stage_sum}us "
              f"tile end-to-end {e2e_sum}us (±{tolerance}us); delta "
              f"latency p50 {e2e['p50']}us p99 {e2e['p99']}us "
              f"p99.9 {e2e['p999']}us")
        expect(os.path.exists(trace),
               f"daemon wrote no ITG_TRACE file at {trace}")
    finally:
        for conn in conns:
            conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print("serve_client: latency mode checks passed")


# ------------------------------------------------------------------ main ----

def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve-binary", required=True)
    parser.add_argument("--lnga-binary", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument("--num-vertices", type=int, default=48)
    parser.add_argument("--timeout", type=float, default=180.0)
    parser.add_argument("--mode", choices=("smoke", "latency"),
                        default="smoke")
    args = parser.parse_args()

    if args.mode == "latency":
        run_latency_mode(args)
        return

    os.makedirs(args.workdir, exist_ok=True)
    deadline = time.monotonic() + args.timeout
    graph = os.path.join(args.workdir, "edges.txt")
    mutations = os.path.join(args.workdir, "mutations.txt")
    portfile = os.path.join(args.workdir, "serve.port")
    report = os.path.join(args.workdir, "serve_report.json")
    if os.path.exists(portfile):
        os.remove(portfile)

    base_edges = make_graph(graph, args.num_vertices)
    batches = make_batches(base_edges, args.num_vertices, args.batches)
    write_mutations(mutations, batches)

    # Pin the worker count so the streamed and batch runs execute the
    # same plan the same way (digests are compared bit-exactly).
    env = dict(os.environ)
    env["ITG_THREADS"] = "1"
    env.pop("ITG_TELEMETRY_PORT", None)
    env.pop("ITG_TELEMETRY_PORTFILE", None)
    env.pop("ITG_TRACE", None)

    cmd = [args.serve_binary, "--graph", graph, "--port", "0",
           "--portfile", portfile, "--max-queries", "3",
           "--scratch", os.path.join(args.workdir, "scratch"),
           "--metrics-json", report]
    print("serve_client: spawning:", " ".join(cmd))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env)
    conns = []
    try:
        port = wait_for_port(portfile, deadline, proc)
        print(f"serve_client: daemon up on 127.0.0.1:{port}")

        # Two standing queries on two connections, both subscribed with
        # snapshots: q1 = PageRank, q2 = BFS from vertex 0.
        mirrors = {}
        for name, program in (("q1", "pr"), ("q2", "bfs:0")):
            conn = ServeConnection(port, deadline)
            conns.append(conn)
            ack = conn.request({"op": "register", "query": name,
                                "program": program, "subscribe": True,
                                "snapshot": True}, deadline)
            expect(ack.get("op") == "register" and ack.get("query") == name,
                   f"malformed register ack: {ack}")
            snapshot = conn.next_message(deadline, "snapshot")
            mirrors[name] = ViewMirror(name, snapshot)
            print(f"serve_client: {name} ({program}) registered, snapshot "
                  f"digest verified ({len(snapshot['attrs'])} attrs)")

        # Third registration with a deliberately tiny budget slice must
        # be rejected with the structured budget_exceeded error.
        probe = ServeConnection(port, deadline)
        conns.append(probe)
        err = probe.request({"op": "register", "query": "q3",
                             "program": "pr", "budget_bytes": "1024"},
                            deadline, expect_types=("error",))
        expect(err.get("code") == "budget_exceeded",
               f"over-budget register: code {err.get('code')!r}, "
               f"want budget_exceeded: {err}")
        print("serve_client: over-budget registration rejected "
              "(budget_exceeded)")

        # Stream the Δ-batches; each subscriber must mirror every view
        # to the server's digest, bit for bit.
        ingester = ServeConnection(port, deadline)
        conns.append(ingester)
        for i, (inserts, deletes) in enumerate(batches, start=1):
            ack = ingester.request(
                {"op": "ingest",
                 "inserts": [list(e) for e in inserts],
                 "deletes": [list(e) for e in deletes]}, deadline)
            expect(ack.get("op") == "ingest", f"malformed ingest ack: {ack}")
            trace_id = ack.get("trace_id")
            expect(isinstance(trace_id, str) and trace_id.isdigit()
                   and int(trace_id) != 0,
                   f"ingest ack carries no pipeline trace_id: {ack}")
            for (name, conn) in (("q1", conns[0]), ("q2", conns[1])):
                delta = conn.next_message(deadline, "delta")
                expect(delta.get("query") == name,
                       f"delta for {delta.get('query')!r} on {name}'s "
                       f"connection")
                expect(delta.get("seq") == i,
                       f"{name}: delta seq {delta.get('seq')}, want {i}")
                expect(delta.get("trace_id") == trace_id,
                       f"{name}: delta trace_id {delta.get('trace_id')!r} "
                       f"!= ingest ack trace_id {trace_id!r}")
                mirrors[name].apply_delta(delta)
        print(f"serve_client: {len(batches)} batches streamed; "
              f"all ΔQ digests verified on both views, trace ids "
              f"round-tripped ack->delta")

        # Status rows agree with the mirrors.
        status = ingester.request({"op": "status"}, deadline,
                                  expect_types=("status",))
        rows = {row["query"]: row for row in status.get("queries", [])}
        expect(set(rows) == {"q1", "q2"},
               f"status queries {sorted(rows)}, want ['q1', 'q2']")
        for name, mirror in mirrors.items():
            expect(int(rows[name]["digest"]) == state_digest(mirror.attrs),
                   f"status digest for {name} disagrees with the mirror")
            expect(rows[name]["timestamp"] == len(batches),
                   f"status timestamp for {name}: "
                   f"{rows[name]['timestamp']}, want {len(batches)}")
            expect(rows[name]["subscribers"] == 1,
                   f"status subscribers for {name}: "
                   f"{rows[name]['subscribers']}, want 1")
        print("serve_client: status rows OK")

        # The continuous pipeline must land exactly where the batch
        # pipeline lands on the identical stream.
        for name, program in (("q1", "pr"), ("q2", "bfs:0")):
            want = batch_digest(args.lnga_binary, args.workdir, program,
                                graph, mutations, deadline, env)
            got = state_digest(mirrors[name].attrs)
            expect(got == want,
                   f"{name}: streamed digest {got} != batch-pipeline "
                   f"digest {want}")
        print("serve_client: streamed state bit-identical to the batch "
              "pipeline for both programs")

        # Graceful shutdown over the wire.
        ack = ingester.request({"op": "shutdown"}, deadline)
        expect(ack.get("op") == "shutdown", f"malformed shutdown ack: {ack}")
        out, _ = proc.communicate(timeout=max(1.0,
                                              deadline - time.monotonic()))
        expect(proc.returncode == 0,
               f"daemon rc {proc.returncode} after shutdown op:\n"
               f"{out.decode('utf-8', errors='replace')}")
        serving = check_report(report, len(batches))
        print(f"serve_client: daemon drained cleanly; run report OK "
              f"(serving={json.dumps({k: serving[k] for k in ('standing_queries', 'ingest_batches', 'backpressure_stalls')})})")
    finally:
        for conn in conns:
            conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    check_sigint_watch(args.lnga_binary, args.workdir, deadline, env)
    print("serve_client: all checks passed")


if __name__ == "__main__":
    main()
