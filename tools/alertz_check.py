#!/usr/bin/env python3
"""Validation client for the alert engine's /alertz surface.

Usage:
  alertz_check.py --port-file <file> [--timeout 60]
                  [--expect-rule NAME]...
                  [--wait-firing NAME] [--wait-resolved NAME]
                  [--check-bundle-dir DIR]

Talks to a live daemon (examples/itg_serve.cc with alerting enabled)
whose telemetry port was written to --port-file, and checks the whole
alerting surface, in this order:

  1. GET /alertz must be valid JSON of the documented shape (enabled,
     period_ms, evaluations, alerts[] rows with name / severity / state /
     value / threshold / fires / flaps / expr), and /alertz?format=text
     must render every rule name.
  2. --expect-rule NAME (repeatable): the rule must exist.
  3. --wait-firing NAME: poll until the rule reaches state "firing"
     (fires >= 1); then the Prometheus ALERTS{alertname=...} series must
     appear on /metrics, and — for a critical rule — /healthz must be
     503 with a reasons entry naming the alert.
  4. --check-bundle-dir DIR: some incident_*/ bundle under DIR must hold
     all five artifacts (flightrecorder.txt, metrics.json, statusz.json,
     timeseries.json, profile.txt) plus the incident.json manifest; the
     JSON artifacts must parse.
  5. --wait-resolved NAME: poll until the rule leaves firing (state
     "resolved" or, post-cooldown, "inactive").

Uses only the standard library; exits non-zero with a diagnostic on the
first failed expectation (the alert_smoke ctest gates on it).
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import smoke_util  # noqa: E402
from smoke_util import expect, fail, get, wait_for_port  # noqa: E402

smoke_util.set_name("alertz_check")

VALID_SEVERITIES = ("info", "warn", "critical")
VALID_STATES = ("inactive", "pending", "firing", "resolved")


def fetch_alertz(port, deadline):
    status, _, body = get(port, "/alertz", deadline)
    expect(status == 200, f"/alertz returned {status}: {body}")
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        fail(f"/alertz is not valid JSON: {e}\n{body}")
    expect(doc.get("enabled") is True, f"/alertz enabled != true: {body}")
    for field in ("period_ms", "evaluations"):
        expect(isinstance(doc.get(field), int) and doc[field] >= 0,
               f"/alertz.{field} missing or negative")
    alerts = doc.get("alerts")
    expect(isinstance(alerts, list), "/alertz.alerts is not a list")
    for row in alerts:
        name = row.get("name", "?")
        expect(isinstance(row.get("name"), str) and row["name"],
               f"/alertz row without a name: {row}")
        expect(row.get("severity") in VALID_SEVERITIES,
               f"rule {name!r}: bad severity {row.get('severity')!r}")
        expect(row.get("state") in VALID_STATES,
               f"rule {name!r}: bad state {row.get('state')!r}")
        for field in ("fires", "flaps", "since_ms"):
            expect(isinstance(row.get(field), int) and row[field] >= 0,
                   f"rule {name!r}: {field} missing or negative")
        for field in ("value", "threshold"):
            expect(isinstance(row.get(field), (int, float)),
                   f"rule {name!r}: {field} is not a number")
        expect(isinstance(row.get("expr"), str) and row["expr"],
               f"rule {name!r}: expr missing")
    return doc


def rule_by_name(doc, name):
    for row in doc["alerts"]:
        if row["name"] == name:
            return row
    fail(f"rule {name!r} not present on /alertz "
         f"(have: {[r['name'] for r in doc['alerts']]})")


def wait_for_state(port, name, states, deadline, what):
    last = None
    while time.monotonic() < deadline:
        doc = fetch_alertz(port, deadline)
        row = rule_by_name(doc, name)
        if row["state"] in states:
            return row
        last = row
        time.sleep(0.1)
    fail(f"rule {name!r} never became {what} "
         f"(last: {json.dumps(last)})")


def check_text_rendering(port, doc, deadline):
    status, _, text = get(port, "/alertz?format=text", deadline)
    expect(status == 200, f"/alertz?format=text returned {status}")
    for row in doc["alerts"]:
        expect(row["name"] in text,
               f"/alertz?format=text missing rule {row['name']!r}:\n{text}")


def check_firing_surfaces(port, row, deadline):
    """After a rule fires, the other surfaces must agree with /alertz."""
    status, _, metrics = get(port, "/metrics", deadline)
    expect(status == 200, f"/metrics returned {status}")
    needle = f'ALERTS{{alertname="{row["name"]}"'
    expect(needle in metrics,
           f"firing rule {row['name']!r} has no ALERTS series on /metrics")
    expect("itg_alerts_fired_total" in metrics,
           "alerts.fired_total counter missing from /metrics after a fire")
    if row["severity"] == "critical":
        status, _, body = get(port, "/healthz", deadline)
        expect(status == 503,
               f"/healthz returned {status} with a critical alert firing")
        doc = json.loads(body)
        expect(doc.get("status") == "alerting",
               f"/healthz status {doc.get('status')!r}, want 'alerting'")
        reasons = doc.get("reasons", [])
        expect(any(row["name"] in r for r in reasons),
               f"/healthz reasons do not name {row['name']!r}: {reasons}")


def check_bundle_dir(root):
    expect(os.path.isdir(root), f"bundle dir {root} does not exist")
    bundles = sorted(d for d in os.listdir(root)
                     if d.startswith("incident_")
                     and os.path.isdir(os.path.join(root, d)))
    expect(bundles, f"no incident_*/ bundle under {root}")
    artifacts = ("flightrecorder.txt", "metrics.json", "statusz.json",
                 "timeseries.json", "profile.txt")
    checked = os.path.join(root, bundles[0])
    for name in artifacts + ("incident.json",):
        path = os.path.join(checked, name)
        expect(os.path.isfile(path), f"bundle missing artifact {name}")
        expect(os.path.getsize(path) > 0, f"bundle artifact {name} is empty")
    for name in ("metrics.json", "statusz.json", "incident.json"):
        with open(os.path.join(checked, name), "r", encoding="utf-8") as f:
            try:
                json.load(f)
            except json.JSONDecodeError as e:
                fail(f"bundle artifact {name} is not valid JSON: {e}")
    with open(os.path.join(checked, "incident.json"), "r",
              encoding="utf-8") as f:
        manifest = json.load(f)
    expect(manifest.get("reason"), "incident.json has no reason")
    expect(sorted(manifest.get("artifacts", [])) == sorted(artifacts),
           f"incident.json artifact list mismatch: {manifest}")
    return checked, manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--expect-rule", action="append", default=[])
    parser.add_argument("--wait-firing")
    parser.add_argument("--wait-resolved")
    parser.add_argument("--check-bundle-dir")
    args = parser.parse_args()

    deadline = time.monotonic() + args.timeout
    port = wait_for_port(args.port_file, deadline)

    doc = fetch_alertz(port, deadline)
    check_text_rendering(port, doc, deadline)
    print(f"alertz_check: /alertz OK — {len(doc['alerts'])} rules, "
          f"{doc['evaluations']} evaluations every {doc['period_ms']}ms")

    for name in args.expect_rule:
        rule_by_name(doc, name)
        print(f"alertz_check: rule {name!r} present")

    if args.wait_firing:
        row = wait_for_state(port, args.wait_firing, ("firing",), deadline,
                             "firing")
        expect(row["fires"] >= 1,
               f"firing rule {args.wait_firing!r} with fires == 0")
        print(f"alertz_check: {args.wait_firing!r} FIRING "
              f"(value={row['value']:g}, threshold={row['threshold']:g}, "
              f"fires={row['fires']})")
        check_firing_surfaces(port, row, deadline)
        print("alertz_check: /metrics ALERTS series and /healthz agree")

    if args.check_bundle_dir:
        bundle, manifest = check_bundle_dir(args.check_bundle_dir)
        print(f"alertz_check: bundle {bundle} complete "
              f"(reason={manifest['reason']!r}, all 5 artifacts + manifest)")

    if args.wait_resolved:
        row = wait_for_state(port, args.wait_resolved,
                             ("resolved", "inactive"), deadline, "resolved")
        print(f"alertz_check: {args.wait_resolved!r} resolved "
              f"(state={row['state']!r}, fires={row['fires']}, "
              f"flaps={row['flaps']})")

    print("alertz_check: all checks passed")


if __name__ == "__main__":
    main()
