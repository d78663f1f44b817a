# bench_foresight's output schema, on the checked-in BENCH_foresight.json
# and on a fresh short run: bench "foresight", meta {host, kernel, cpus,
# commit}, 20 rows that each carry the documented keys, and the four
# predictors. Then esg_perfdiff --report-only diffs the fresh run against
# the baseline with the gating flags CI would use; the horizons differ, so
# the diff is informational and must exit 0. Run as
#
#   cmake -DBENCH_FORESIGHT=<path to bench_foresight>
#         -DESG_PERFDIFF=<path to esg_perfdiff>
#         -DBASELINE=<path to BENCH_foresight.json> -DOUT_DIR=<dir>
#         -P bench_foresight_schema.cmake
if(NOT BENCH_FORESIGHT OR NOT ESG_PERFDIFF OR NOT BASELINE OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_FORESIGHT=<path> "
                      "-DESG_PERFDIFF=<path> -DBASELINE=<BENCH_foresight.json> "
                      "-DOUT_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(fresh "${OUT_DIR}/bench_foresight_schema.json")
file(REMOVE "${fresh}")
execute_process(COMMAND "${CMAKE_COMMAND}" -E env ESG_BENCH_HORIZON_MS=4000
                        "${BENCH_FORESIGHT}" "${fresh}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "bench_foresight ${fresh}: exit ${rc}; stderr:\n${err}")
endif()

# Reads `path` and checks it against the schema; every problem is reported.
function(check_schema path)
  file(READ "${path}" doc)
  string(JSON bench ERROR_VARIABLE err GET "${doc}" bench)
  if(err OR NOT bench STREQUAL "foresight")
    message(SEND_ERROR "${path}: bench is '${bench}', want 'foresight' ${err}")
  endif()

  string(JSON meta_count ERROR_VARIABLE err LENGTH "${doc}" meta)
  if(err)
    message(SEND_ERROR "${path}: no meta object: ${err}")
  else()
    set(meta_keys "")
    math(EXPR last "${meta_count} - 1")
    foreach(i RANGE ${last})
      string(JSON key MEMBER "${doc}" meta ${i})
      list(APPEND meta_keys "${key}")
    endforeach()
    list(SORT meta_keys)
    if(NOT meta_keys STREQUAL "commit;cpus;host;kernel")
      message(SEND_ERROR "${path}: meta keys are [${meta_keys}], want "
                         "[commit;cpus;host;kernel]")
    endif()
  endif()

  string(JSON row_count ERROR_VARIABLE err LENGTH "${doc}" rows)
  if(err OR NOT row_count EQUAL 20)
    message(SEND_ERROR "${path}: ${row_count} rows, want 20 ${err}")
    return()
  endif()
  set(predictors "")
  math(EXPR last "${row_count} - 1")
  foreach(i RANGE ${last})
    foreach(key scheduler predictor attainment cold_start_rate total_cost
                requests cold_starts mean_wait_ms)
      string(JSON value ERROR_VARIABLE err GET "${doc}" rows ${i} ${key})
      if(err)
        message(SEND_ERROR "${path}: row ${i} has no ${key}")
      endif()
    endforeach()
    string(JSON predictor GET "${doc}" rows ${i} predictor)
    list(APPEND predictors "${predictor}")
  endforeach()
  list(REMOVE_DUPLICATES predictors)
  list(SORT predictors)
  if(NOT predictors STREQUAL "ewma;oracle;reactive;seasonal")
    message(SEND_ERROR "${path}: predictors are [${predictors}], want "
                       "[ewma;oracle;reactive;seasonal]")
  endif()
endfunction()

check_schema("${BASELINE}")
check_schema("${fresh}")

execute_process(COMMAND "${ESG_PERFDIFF}" --report-only --gate-suffix attainment
                        --gate-suffix -cold_start_rate "${BASELINE}" "${fresh}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(SEND_ERROR "esg_perfdiff --report-only ${BASELINE} ${fresh}: exit "
                     "${rc}, want 0; stderr:\n${err}")
endif()
