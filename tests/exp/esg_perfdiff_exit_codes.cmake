# esg_perfdiff's exit-code contract: 0 when nothing regressed (and always
# under --report-only), 1 when a gating *_per_sec metric fell past the
# threshold, 2 when a file is not valid JSON. Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -DESG_PERFDIFF=<path to esg_perfdiff>
#         -P esg_perfdiff_exit_codes.cmake
#
# The first row diffs a perf report written by esg_sim against a copy of
# itself, so the verdict cannot depend on how busy the host was.
if(NOT ESG_SIM OR NOT ESG_PERFDIFF)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> "
                      "-DESG_PERFDIFF=<path to esg_perfdiff> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(dir "${CMAKE_CURRENT_BINARY_DIR}/esg_perfdiff_exit_codes")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")

set(rows 0)
# Runs esg_perfdiff with the given arguments and wants exit code `want`.
function(expect_exit want)
  execute_process(COMMAND "${ESG_PERFDIFF}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${want}")
    list(JOIN ARGN " " shown)
    message(SEND_ERROR "esg_perfdiff ${shown}: exit ${rc}, want ${want}\n"
                       "stdout:\n${out}\nstderr:\n${err}")
  endif()
  math(EXPR count "${rows} + 1")
  set(rows ${count} PARENT_SCOPE)
endfunction()

execute_process(COMMAND "${ESG_SIM}" --horizon-ms 2000
                        --perf-out "${dir}/perf.json"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "esg_sim --perf-out: exit ${rc}; stderr:\n${err}")
endif()
file(COPY_FILE "${dir}/perf.json" "${dir}/perf_copy.json")
file(WRITE "${dir}/base.json" [[{"run": {"events_per_sec": 100}}]])
file(WRITE "${dir}/slow.json" [[{"run": {"events_per_sec": 10}}]])
file(WRITE "${dir}/bad.json" "not json")

expect_exit(0 "${dir}/perf.json" "${dir}/perf_copy.json")
expect_exit(1 "${dir}/base.json" "${dir}/slow.json")
expect_exit(0 --report-only "${dir}/base.json" "${dir}/slow.json")
expect_exit(2 "${dir}/base.json" "${dir}/bad.json")

message(STATUS "${rows} esg_perfdiff exit-code rows checked")
