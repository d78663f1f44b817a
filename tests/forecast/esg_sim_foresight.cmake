# esg_sim's forecasting contracts, end to end through the CLIs:
#
#  - `--forecast none` writes the same trace, stats, report and CSVs as no
#    --forecast flag at all;
#  - a forecasted run replays byte for byte;
#  - on a bursty trace, oracle foresight attains at least what the reactive
#    run attains (attainment = (requests - misses) / requests, read from
#    each run's report).
#
# Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -DESG_TRACEGEN=<path to esg_tracegen>
#         -DOUT_DIR=<scratch directory> -P esg_sim_foresight.cmake
if(NOT ESG_SIM OR NOT ESG_TRACEGEN OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> "
                      "-DESG_TRACEGEN=<path to esg_tracegen> -DOUT_DIR=<dir> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

include("${CMAKE_CURRENT_LIST_DIR}/../support/esg_cli.cmake")

set(dir "${OUT_DIR}/esg_sim_foresight")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")

# An inert forecast spec is invisible.
artefacts(plain plain)
artefacts(inert inert)
run("${ESG_SIM}" --horizon-ms 2000 --nodes 4 ${plain}
    --csv-dir "${dir}/plain_csv")
run("${ESG_SIM}" --horizon-ms 2000 --nodes 4 --forecast none ${inert}
    --csv-dir "${dir}/inert_csv")
expect_same_artefacts(plain inert)
expect_same_dir("${dir}/plain_csv" "${dir}/inert_csv")

# A forecasted run replays deterministically. Inside a spec, "\;" is a
# semicolon that does not split run()'s list of arguments.
set(spec "seasonal:period-ms=15000,bins=30\;lead-ms=3000,bin-ms=500")
artefacts(first fc1)
artefacts(second fc2)
run("${ESG_SIM}" --horizon-ms 3000 --nodes 4 --forecast "${spec}" ${first})
run("${ESG_SIM}" --horizon-ms 3000 --nodes 4 --forecast "${spec}" ${second})
expect_same_artefacts(fc1 fc2)

# Oracle foresight attains at least the reactive run's attainment.
run("${ESG_TRACEGEN}" --days 2 --bins 30 --bin-ms 500 --mean-rate 8
    --bursts 2 --burst-factor 6 --seed 7 --out "${dir}/burst.csv")
set(replay --horizon-ms 30000 --nodes 4 --slo moderate
    --arrivals "trace:@${dir}/burst.csv")
run("${ESG_SIM}" ${replay} --report-out "${dir}/reactive.json")
run("${ESG_SIM}" ${replay} --forecast "oracle\;lead-ms=3000,bin-ms=500"
    --report-out "${dir}/oracle.json")
foreach(run_name reactive oracle)
  file(READ "${dir}/${run_name}.json" report)
  foreach(field requests misses)
    string(JSON ${run_name}_${field} ERROR_VARIABLE err GET "${report}"
           ${field})
    if(err)
      message(FATAL_ERROR "${dir}/${run_name}.json: no ${field}: ${err}")
    endif()
  endforeach()
endforeach()
if(reactive_requests EQUAL 0 OR oracle_requests EQUAL 0)
  message(FATAL_ERROR "a burst replay completed no requests")
endif()
# oracle_hits / oracle_requests >= reactive_hits / reactive_requests,
# cross-multiplied to stay in integers.
math(EXPR oracle_side
     "(${oracle_requests} - ${oracle_misses}) * ${reactive_requests}")
math(EXPR reactive_side
     "(${reactive_requests} - ${reactive_misses}) * ${oracle_requests}")
if(oracle_side LESS reactive_side)
  message(SEND_ERROR "oracle attainment (${oracle_misses} misses of "
                     "${oracle_requests}) is below reactive (${reactive_misses} "
                     "misses of ${reactive_requests})")
endif()
message(STATUS "oracle: ${oracle_misses}/${oracle_requests} missed; "
               "reactive: ${reactive_misses}/${reactive_requests} missed")
