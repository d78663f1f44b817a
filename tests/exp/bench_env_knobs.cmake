# The benches read their numeric environment knobs through one checked
# reader: a value that is not an integer in the knob's range must exit 2
# with a message naming the variable and the range, not fall back to the
# default or read a prefix ("2s" as 2). One row per knob. Each row sets the
# other knobs it depends on to small valid values, so a bench that ignored
# the bad value would finish quickly (and fail the row with exit 0). Run as
#
#   cmake -DBENCH_FIG11=<path to bench_fig11_k_sensitivity>
#         -DBENCH_CORE=<path to bench_core_throughput>
#         -DOUT_DIR=<scratch directory> -P bench_env_knobs.cmake
#
# bench_core_throughput writes its JSON under OUT_DIR, never over the
# checked-in BENCH_core.json.
if(NOT BENCH_FIG11 OR NOT BENCH_CORE OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_FIG11=<path> -DBENCH_CORE=<path> "
                      "-DOUT_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(knobs ESG_BENCH_HORIZON_MS ESG_BENCH_SEEDS ESG_BENCH_CORE_HORIZON_MS
          ESG_BENCH_CORE_BUDGET_MS ESG_BENCH_CORE_JOBS)
set(core_json "${OUT_DIR}/bench_env_knobs_core.json")
set(rows 0)

# Runs `exe` with the environment `settings` (VAR=value items; every other
# knob unset) and wants exit 2 naming `var` and its integer range.
function(expect_bad_knob var exe)
  set(settings "${ARGN}")
  set(unset "")
  foreach(knob IN LISTS knobs)
    if(NOT settings MATCHES "(^|;)${knob}=")
      list(APPEND unset "--unset=${knob}")
    endif()
  endforeach()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env ${unset} ${settings} "${exe}" "${core_json}"
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${var} must be an integer in [" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    list(JOIN settings " " shown)
    message(SEND_ERROR "${shown} ${exe}: exit ${rc}, want 2 and a message "
                       "naming ${var} and its range; stderr:\n${err}")
  endif()
  math(EXPR count "${rows} + 1")
  set(rows ${count} PARENT_SCOPE)
endfunction()

expect_bad_knob(ESG_BENCH_HORIZON_MS "${BENCH_FIG11}" ESG_BENCH_HORIZON_MS=2s)
expect_bad_knob(ESG_BENCH_SEEDS "${BENCH_FIG11}"
                ESG_BENCH_HORIZON_MS=300 ESG_BENCH_SEEDS=0)
expect_bad_knob(ESG_BENCH_CORE_HORIZON_MS "${BENCH_CORE}"
                ESG_BENCH_CORE_HORIZON_MS=2s)
expect_bad_knob(ESG_BENCH_CORE_BUDGET_MS "${BENCH_CORE}"
                ESG_BENCH_CORE_HORIZON_MS=100 ESG_BENCH_CORE_BUDGET_MS=-1)
expect_bad_knob(ESG_BENCH_CORE_JOBS "${BENCH_CORE}"
                ESG_BENCH_CORE_HORIZON_MS=100 ESG_BENCH_CORE_JOBS=abc)

message(STATUS "${rows} bench knob rows checked")
