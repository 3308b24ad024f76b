# CTest script: run the same multi-seed sweep with --jobs=1 and --jobs=4 and
# require byte-identical JSON reports — worker count, per-worker arena
# storage reuse and cross-cell SystemBlueprint sharing must all be invisible
# in the output. Invoked by the sweep_parallel_smoke test with
# -DDFLYSIM=<binary> -DWORK_DIR=<build dir>.
set(ARGS --app=UR:64 --scale=64 --seed=42 --sweep=4)

execute_process(
  COMMAND ${DFLYSIM} ${ARGS} --jobs=1 --json=${WORK_DIR}/sweep_seq.json
  RESULT_VARIABLE SEQ_RESULT OUTPUT_QUIET)
if(NOT SEQ_RESULT EQUAL 0)
  message(FATAL_ERROR "sequential sweep failed with exit code ${SEQ_RESULT}")
endif()

execute_process(
  COMMAND ${DFLYSIM} ${ARGS} --jobs=4 --json=${WORK_DIR}/sweep_par.json
  RESULT_VARIABLE PAR_RESULT OUTPUT_QUIET)
if(NOT PAR_RESULT EQUAL 0)
  message(FATAL_ERROR "parallel sweep failed with exit code ${PAR_RESULT}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/sweep_seq.json ${WORK_DIR}/sweep_par.json
  RESULT_VARIABLE DIFF_RESULT)
if(NOT DIFF_RESULT EQUAL 0)
  message(FATAL_ERROR "--jobs=4 sweep JSON differs from --jobs=1 (determinism regression)")
endif()

message(STATUS "jobs=1 and jobs=4 sweep reports are byte-identical")
