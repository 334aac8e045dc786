# ctest driver for the observability smoke test (see top-level
# CMakeLists.txt): runs example_lnga_run with ITG_TRACE and
# --metrics-json set, then schema-validates both artifacts with
# tools/trace_summary.py.
#
# Inputs: -DLNGA_RUN=<binary> -DPython3_EXECUTABLE=<python3>
#         -DTRACE_SUMMARY=<trace_summary.py> -DWORK_DIR=<scratch dir>

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/mutations.txt
     "+ 1 5\n+ 5 9\n+ 2 6\n- 0 1\ncommit\n+ 4 7\n+ 6 7\ncommit\n")

execute_process(
  COMMAND ${LNGA_RUN} --program pr --graph rmat:8 --supersteps 3
          --mutations ${WORK_DIR}/mutations.txt
          --metrics-json ${WORK_DIR}/report.json
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_out
  # New process, fresh env: the trace covers exactly this run.
  COMMAND_ECHO STDOUT)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "example_lnga_run failed (${run_rc}):\n${run_out}")
endif()

# Second run with tracing enabled (ITG_TRACE is read at process start).
set(ENV{ITG_TRACE} ${WORK_DIR}/trace.json)
execute_process(
  COMMAND ${LNGA_RUN} --program pr --graph rmat:8 --supersteps 3
          --mutations ${WORK_DIR}/mutations.txt
  RESULT_VARIABLE trace_rc
  OUTPUT_VARIABLE trace_out
  ERROR_VARIABLE trace_out)
unset(ENV{ITG_TRACE})
if(NOT trace_rc EQUAL 0)
  message(FATAL_ERROR "traced run failed (${trace_rc}):\n${trace_out}")
endif()

execute_process(
  COMMAND ${Python3_EXECUTABLE} ${TRACE_SUMMARY}
          --trace ${WORK_DIR}/trace.json --report ${WORK_DIR}/report.json
  RESULT_VARIABLE summary_rc
  OUTPUT_VARIABLE summary_out
  ERROR_VARIABLE summary_err)
message(STATUS "trace_summary output:\n${summary_out}")
if(NOT summary_rc EQUAL 0)
  message(FATAL_ERROR
          "trace_summary.py failed (${summary_rc}):\n${summary_err}")
endif()
