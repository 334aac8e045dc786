# ctest driver for the alert-engine smoke test (see top-level
# CMakeLists.txt): proves the full alerting loop end to end against a
# live daemon. example_itg_serve starts with a deliberately absurd
# 0.1 ms notify SLO and a 250 ms evaluation period, so the built-in
# serve_notify_p99_burn rule (critical, fast window = 2 periods) must
# fire within two evaluation ticks of real load arriving; firing must
# write one incident bundle with all five artifacts; and once the load
# stops the rule must resolve on its own. The daemon's schema-v9 run
# report then carries the whole story — and report_diff.py must accept
# it while rejecting a doctored copy whose critical rule is still
# firing at drain.
#
#   1. itg_serve --slo-ms 0.1 --alert-period-ms 250 --incident-dir ...
#      (no rule file: exercises the built-in serving defaults).
#   2. loadgen burst (no --shutdown) || alertz_check --wait-firing:
#      the burn rule fires while the burst is still running, the
#      ALERTS series appears on /metrics, /healthz goes 503 "alerting".
#   3. alertz_check --check-bundle-dir --wait-resolved: the bundle is
#      complete (flightrecorder/metrics/statusz/timeseries/profile +
#      manifest) and the rule leaves firing after the load subsides.
#   4. A bare {"op":"shutdown"} drains the daemon; its report must show
#      the burn rule fired >= 1 with a bundle written, pass
#      trace_summary.py schema validation and a report_diff.py
#      self-diff, while an injected still-firing critical alert makes
#      report_diff.py fail.
#
# Inputs: -DITG_SERVE=<binary> -DITG_LOADGEN=<binary>
#         -DPython3_EXECUTABLE=<python3>
#         -DALERTZ_CHECK=<alertz_check.py>
#         -DTRACE_SUMMARY=<trace_summary.py>
#         -DREPORT_DIFF=<report_diff.py>
#         -DWORK_DIR=<scratch>

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Every failure after the daemon is launched goes through fail(): it
# stops the daemon and the load burst (PIDs in serve.pid / load.pid;
# SIGTERM, then SIGKILL after 5 s), and prints the tail of both logs so
# the failing phase is on record. Nothing outlives a failed run.
function(fail)
  execute_process(
    COMMAND sh -c "pids=''; \
            for f in ${WORK_DIR}/load.pid ${WORK_DIR}/serve.pid; do \
              test -f $f && pids=\"$pids $(cat $f)\"; done; \
            test -n \"$pids\" && kill $pids 2>/dev/null; \
            for i in $(seq 1 50); do alive=''; \
              for p in $pids; do kill -0 $p 2>/dev/null && alive=1; done; \
              test -z \"$alive\" && break; sleep 0.1; done; \
            test -n \"$pids\" && kill -9 $pids 2>/dev/null; \
            for f in ${WORK_DIR}/serve.log ${WORK_DIR}/load.log; do \
              test -f $f && { echo \"--- tail of $f\"; tail -n 40 $f; }; \
            done; true"
    OUTPUT_VARIABLE fail_logs)
  message(FATAL_ERROR ${ARGN} "\n${fail_logs}")
endfunction()

set(ENV{ITG_TELEMETRY_PORTFILE} ${WORK_DIR}/telemetry.port)
set(ENV{ITG_THREADS} 1)

# 1. The daemon runs in the background across all phases; stdout goes to
# a log (it prints its drain summary long after the clients exit).
execute_process(
  COMMAND sh -c "${ITG_SERVE} --graph rmat:10 --port 0 \
          --portfile ${WORK_DIR}/serve.port \
          --telemetry-port 0 --timeseries-ms 50 --no-verify \
          --scratch ${WORK_DIR}/scratch \
          --slo-ms 0.1 --alert-period-ms 250 \
          --incident-dir ${WORK_DIR}/incidents \
          --metrics-json ${WORK_DIR}/serve_report.json \
          > ${WORK_DIR}/serve.log 2>&1 & echo $! > ${WORK_DIR}/serve.pid"
  RESULT_VARIABLE launch_rc)
if(NOT launch_rc EQUAL 0)
  fail("could not launch itg_serve (${launch_rc})")
endif()

# 2. Load burst + firing check run concurrently: the burn rule must
# reach firing while deltas are still streaming (its fast window is two
# evaluation periods, so anything beyond ~1 s of sustained load would be
# a regression), and the firing state must surface on /metrics (ALERTS
# series) and /healthz (503, reason names the rule). The burst runs in
# the background with its own log (the checker exits as soon as it sees
# firing — a pipe would SIGPIPE the still-running loadgen); its subshell
# must not hold execute_process's output pipe either, or the launch
# would block until the burst ends.
execute_process(
  COMMAND sh -c "( ${ITG_LOADGEN} --portfile ${WORK_DIR}/serve.port \
          --graph rmat:10 --program wcc \
          --connections 2 --subscribers 2 --ops-per-batch 4 \
          --rate 60 --duration-ms 6000 --slo-ms 30000 --seed 7 \
          > ${WORK_DIR}/load.log 2>&1 & \
          echo $! > ${WORK_DIR}/load.pid; wait $!; \
          echo $? > ${WORK_DIR}/load.rc ) > /dev/null 2>&1 &"
  RESULT_VARIABLE burst_launch_rc)
if(NOT burst_launch_rc EQUAL 0)
  fail("could not launch the load burst")
endif()
execute_process(
  COMMAND ${Python3_EXECUTABLE} ${ALERTZ_CHECK}
          --port-file ${WORK_DIR}/telemetry.port --timeout 30
          --expect-rule serve_ingest_queue_saturated
          --expect-rule serve_view_lag_stale
          --expect-rule serve_backpressure_stalls
          --expect-rule serve_notify_p99_burn
          --wait-firing serve_notify_p99_burn
  RESULT_VARIABLE firing_rc
  OUTPUT_VARIABLE firing_out
  ERROR_VARIABLE firing_err)
message(STATUS "firing check output:\n${firing_out}\n${firing_err}")
if(NOT firing_rc EQUAL 0)
  fail("alertz_check firing failed "
          "(${firing_rc}):\n${firing_err}")
endif()
# Let the burst finish cleanly before checking resolution.
execute_process(
  COMMAND sh -c "for i in $(seq 1 300); do \
            test -f ${WORK_DIR}/load.rc && exit 0; sleep 0.1; \
          done; exit 1"
  RESULT_VARIABLE load_wait_rc)
if(NOT load_wait_rc EQUAL 0)
  fail("load burst never finished")
endif()
file(READ ${WORK_DIR}/load.rc load_rc)
string(STRIP "${load_rc}" load_rc)
if(NOT load_rc EQUAL 0)
  file(READ ${WORK_DIR}/load.log load_log)
  fail("load burst failed (${load_rc}):\n${load_log}")
endif()

# 3. After the burst: the incident bundle must be complete, and with no
# load left in the windows the rule must resolve by itself.
execute_process(
  COMMAND ${Python3_EXECUTABLE} ${ALERTZ_CHECK}
          --port-file ${WORK_DIR}/telemetry.port --timeout 30
          --check-bundle-dir ${WORK_DIR}/incidents
          --wait-resolved serve_notify_p99_burn
  RESULT_VARIABLE resolve_rc
  OUTPUT_VARIABLE resolve_out
  ERROR_VARIABLE resolve_err)
message(STATUS "resolve check output:\n${resolve_out}\n${resolve_err}")
if(NOT resolve_rc EQUAL 0)
  fail("alertz_check resolve failed "
          "(${resolve_rc}):\n${resolve_err}")
endif()

# 4. Graceful shutdown over the wire (a bare NDJSON shutdown op — no
# extra load, so the resolved rule stays quiet through drain).
execute_process(
  COMMAND ${Python3_EXECUTABLE} -c
          "import json, socket, sys; port = int(open(sys.argv[1]).read().strip()); s = socket.create_connection(('127.0.0.1', port), timeout=10); s.sendall((json.dumps({'op': 'shutdown'}) + '\\n').encode()); print(s.makefile().readline().strip())"
          ${WORK_DIR}/serve.port
  RESULT_VARIABLE shutdown_rc
  OUTPUT_VARIABLE shutdown_out
  ERROR_VARIABLE shutdown_err)
message(STATUS "shutdown: ${shutdown_out}")
if(NOT shutdown_rc EQUAL 0)
  fail("shutdown op failed (${shutdown_rc}):\n${shutdown_err}")
endif()
execute_process(
  COMMAND sh -c "pid=$(cat ${WORK_DIR}/serve.pid); \
          for i in $(seq 1 200); do \
            kill -0 $pid 2>/dev/null || exit 0; sleep 0.1; \
          done; echo 'itg_serve did not exit after shutdown'; exit 1"
  RESULT_VARIABLE exit_rc)
if(NOT exit_rc EQUAL 0)
  fail("itg_serve did not drain after the shutdown op")
endif()

# The report's alerts section: evaluations happened, the burn rule fired
# at least once, a bundle was written, and the rule is NOT firing at
# drain (resolved naturally — exactly what report_diff gates on).
file(READ ${WORK_DIR}/serve_report.json serve_report)
string(FIND "${serve_report}" "\"alerts\":{\"enabled\":true" alerts_at)
if(alerts_at EQUAL -1)
  fail("serve report has no alerts section")
endif()
string(REGEX MATCH
       "\"name\":\"serve_notify_p99_burn\",\"severity\":\"critical\",\"state\":\"(inactive|resolved)\",\"fires\":[1-9]"
       burn_row "${serve_report}")
if(burn_row STREQUAL "")
  fail("serve report: burn rule did not fire and resolve:\n"
          "${serve_report}")
endif()
string(REGEX MATCH "\"bundles_written\":[1-9]" bundles "${serve_report}")
if(bundles STREQUAL "")
  fail("serve report: no incident bundle recorded")
endif()

# Schema validation (v9 alerts section included) + self-diff gate.
execute_process(
  COMMAND ${Python3_EXECUTABLE} ${TRACE_SUMMARY}
          --report ${WORK_DIR}/serve_report.json
  RESULT_VARIABLE summary_rc
  OUTPUT_VARIABLE summary_out
  ERROR_VARIABLE summary_err)
message(STATUS "trace_summary serve_report.json:\n${summary_out}")
if(NOT summary_rc EQUAL 0)
  fail("trace_summary.py --report failed (${summary_rc}):\n${summary_err}")
endif()
execute_process(
  COMMAND ${Python3_EXECUTABLE} ${REPORT_DIFF}
          ${WORK_DIR}/serve_report.json ${WORK_DIR}/serve_report.json
  RESULT_VARIABLE diff_rc
  OUTPUT_VARIABLE diff_out
  ERROR_VARIABLE diff_err)
if(NOT diff_rc EQUAL 0)
  fail("report_diff.py self-diff failed (${diff_rc}):\n"
          "${diff_out}\n${diff_err}")
endif()

# Negative gate: doctor the report so the critical rule is still firing
# at drain — report_diff.py must reject it as a structural regression.
execute_process(
  COMMAND ${Python3_EXECUTABLE} -c
          "import json, sys; doc = json.load(open(sys.argv[1])); row = [r for r in doc['alerts']['rules'] if r['name'] == 'serve_notify_p99_burn'][0]; row['state'] = 'firing'; json.dump(doc, open(sys.argv[2], 'w'))"
          ${WORK_DIR}/serve_report.json ${WORK_DIR}/bad_report.json
  RESULT_VARIABLE doctor_rc
  ERROR_VARIABLE doctor_err)
if(NOT doctor_rc EQUAL 0)
  fail("could not doctor the report: ${doctor_err}")
endif()
execute_process(
  COMMAND ${Python3_EXECUTABLE} ${REPORT_DIFF}
          ${WORK_DIR}/serve_report.json ${WORK_DIR}/bad_report.json
  RESULT_VARIABLE bad_rc
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(bad_rc EQUAL 0)
  fail("report_diff.py accepted a critical alert still firing at "
          "drain:\n${bad_out}")
endif()
message(STATUS "report_diff correctly rejected the firing alert:\n${bad_out}")
