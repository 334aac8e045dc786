# ctest driver for example_lnga_run's mutation-stream validation (see
# top-level CMakeLists.txt). With --symmetric the driver mirrors every op
# itself, so a stream must list one orientation per edge: a stream that
# lists both orientations of an edge must be rejected with a non-zero
# exit that names the offending op, while the same stream with one
# orientation per edge runs.
#
# Inputs: -DLNGA_RUN=<binary> -DWORK_DIR=<scratch>

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
# The driver keeps its store under the temp dir; a private one keeps
# concurrent tests that run it from sharing the store file.
set(ENV{TMPDIR} ${WORK_DIR})
file(WRITE ${WORK_DIR}/graph.txt "0 1\n1 2\n3 4\n")
file(WRITE ${WORK_DIR}/one.txt "+ 2 3\ncommit\n- 0 1\ncommit\n")
file(WRITE ${WORK_DIR}/both.txt "+ 2 3\n+ 3 2\ncommit\n")

function(run_driver stream out_rc out_err)
  execute_process(
    COMMAND ${LNGA_RUN} --program wcc --graph ${WORK_DIR}/graph.txt
            --symmetric --mutations ${WORK_DIR}/${stream}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(${out_rc} ${rc} PARENT_SCOPE)
  set(${out_err} "${err}" PARENT_SCOPE)
endfunction()

run_driver(one.txt rc err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "one orientation per edge was rejected (${rc}):\n${err}")
endif()

run_driver(both.txt rc err)
if(rc EQUAL 0)
  message(FATAL_ERROR "a stream listing both orientations was accepted")
endif()
if(NOT err MATCHES "'\\+ 3 2'")
  message(FATAL_ERROR "the rejection does not name the op '+ 3 2':\n${err}")
endif()
message(STATUS "mutation_smoke: both-orientations stream rejected: ${err}")
