# CTest script: a bench given a malformed integer flag must stop before it
# runs anything. Each case must exit non-zero, name the flag on stderr, print
# nothing on stdout (no table header, so no cell ran) and write no JSON.
# Before the harness parsed integers strictly, --scale=0 and --scale=abc ran
# the bench at paper volume and --seed=abc ran seed 0. Invoked by the
# bench_bad_flags_smoke test with -DBENCH=<bench_fig4_pairwise binary>
# -DWORK_DIR=<build dir>.
set(JSON ${WORK_DIR}/bad_flags_smoke.json)

foreach(CASE "--scale=0" "--scale=abc" "--seed=abc")
  string(REGEX REPLACE "=.*" "" FLAG "${CASE}")
  file(REMOVE ${JSON})
  execute_process(
    COMMAND ${BENCH} --json=${JSON} --routing=MIN ${CASE}
    RESULT_VARIABLE RESULT
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    TIMEOUT 60)
  if(RESULT EQUAL 0)
    message(FATAL_ERROR "${CASE}: exited 0; a malformed ${FLAG} must be a usage error")
  endif()
  string(FIND "${ERR}" "${FLAG} wants an integer" AT)
  if(AT EQUAL -1)
    message(FATAL_ERROR "${CASE}: stderr does not name ${FLAG}: ${ERR}")
  endif()
  if(NOT OUT STREQUAL "" OR EXISTS ${JSON})
    message(FATAL_ERROR "${CASE}: the bench started running cells: ${OUT}")
  endif()
endforeach()

message(STATUS "malformed --scale/--seed values stop the bench before any cell runs")
