#!/usr/bin/env python3
"""End-to-end check of the drift auditor (the audit_smoke ctest).

Usage:
  audit_check.py --binary <example_lnga_run> --workdir <scratch>

Runs the pipeline driver twice over the same deterministic WCC workload
(rmat:8, symmetric, 6 synthetic --watch batches, auditing every 3):

  1. a clean run — every audit must verify, no divergence reported;
  2. a drift run — one attribute of vertex 7 is corrupted mid-stream at
     delta batch 4 via the engine's --inject-corrupt-* test hook. The
     auditor must detect the divergence at the next audit point (t=6),
     bisect the live digest history against a clean incremental replay
     back to batch 4 exactly, and name vertex 7 among the divergent set.

Both runs' reports must also pass the schema v4 validation in
trace_summary.py (invoked by the smoke driver separately); this script
checks the audit *semantics*. Exits non-zero on the first failed
expectation.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import smoke_util  # noqa: E402
from smoke_util import expect, fail  # noqa: E402

smoke_util.set_name("audit_check")


def run_driver(binary, workdir, report, extra):
    cmd = [
        binary, "--program", "wcc", "--graph", "rmat:8", "--symmetric",
        "--watch", "6", "--audit", "every=3",
        "--metrics-json", report,
    ] + extra
    print("audit_check: running:", " ".join(cmd))
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    out = proc.stdout.decode("utf-8", errors="replace")
    if proc.returncode != 0:
        fail(f"driver exited rc {proc.returncode}:\n{out}")
    try:
        with open(report, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse report {report}: {e}")
    audit = doc.get("audit")
    expect(isinstance(audit, dict), f"{report}: no audit section")
    return audit, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    # 1. Clean run: all audits verify.
    audit, _ = run_driver(args.binary, args.workdir,
                          os.path.join(args.workdir, "clean.json"), [])
    expect(audit["enabled"], "clean run: auditing not enabled")
    expect(audit["every"] == 3, f"clean run: every={audit['every']}, want 3")
    expect(audit["audits"] >= 2,
           f"clean run: only {audit['audits']} audits over 6 batches")
    expect(not audit["divergence"]["found"],
           f"clean run: spurious divergence: {audit['divergence']}")
    expect(audit["last_verified"] == 6,
           f"clean run: last_verified={audit['last_verified']}, want 6")
    expect(len(audit["digests"]) == 7,
           f"clean run: {len(audit['digests'])} digests recorded, want 7")
    print(f"audit_check: clean run OK — {audit['audits']} audits, "
          f"last_verified={audit['last_verified']}")

    # 2. Drift run: corrupt one attribute of vertex 7 during batch 4; the
    # t=6 audit must catch it and bisect back to exactly batch 4. The
    # corruption delta is negative because WCC propagates min(comp).
    audit, out = run_driver(
        args.binary, args.workdir,
        os.path.join(args.workdir, "drift.json"),
        ["--inject-corrupt-t", "4", "--inject-corrupt-vertex", "7",
         "--inject-corrupt-delta", "-5"])
    div = audit["divergence"]
    expect(div["found"], f"drift run: divergence not detected:\n{out}")
    expect(div["detected_at"] == 6,
           f"drift run: detected_at={div['detected_at']}, want 6")
    expect(div["first_bad_batch"] == 4,
           f"drift run: bisected to batch {div['first_bad_batch']}, want 4")
    expect(div["bisection_probes"] >= 1, "drift run: no bisection probes")
    expect(div["attrs"] == ["comp"],
           f"drift run: divergent attrs {div['attrs']}, want ['comp']")
    expect(7 in div["vertices"],
           f"drift run: vertex 7 missing from divergent set "
           f"{div['vertices']}")
    expect(div["divergent_vertices"] >= 1,
           "drift run: zero divergent vertices")
    expect(div["expected_digest"] != div["actual_digest"],
           "drift run: expected and actual digests identical")
    expect(audit["last_verified"] == 3,
           f"drift run: last_verified={audit['last_verified']}, want 3")
    expect("flight recorder dump" in out,
           "drift run: no flight-recorder dump in driver output")
    print(f"audit_check: drift run OK — detected at t=6, bisected to "
          f"batch {div['first_bad_batch']} in {div['bisection_probes']} "
          f"probes, {div['divergent_vertices']} divergent vertices")
    print("audit_check: all checks passed")


if __name__ == "__main__":
    main()
