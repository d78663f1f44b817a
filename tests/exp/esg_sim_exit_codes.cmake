# The CLIs must reject every configuration error below with exit code 2 and
# a message on stderr that starts with the CLI's name: not 1 (a runtime
# failure) and not 134 (an exception escaping a worker thread). Some rows
# fail while the flags are parsed, others only once run_scenario checks the
# scenario, with one seed or with several seeds running on the replica pool.
# The last rows are runtime failures: an output esg_sim cannot write exits 1
# with a message naming the file, rather than 0 with the data lost. Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -DESG_TRACEGEN=<path to esg_tracegen>
#         -P esg_sim_exit_codes.cmake
#
# Each expect_config_error() call is one esg_sim row: its arguments are
# esg_sim's, and "\;" is a semicolon inside an argument. A row that starts
# with SAYS <text> also wants <text> in the message.
if(NOT ESG_SIM OR NOT ESG_TRACEGEN)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> "
                      "-DESG_TRACEGEN=<path to esg_tracegen> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(rows 0)
# Reports a row that did not exit `code` with a "<name>: " message
# containing `text`.
function(check_row code rc err name text shown)
  string(FIND "${err}" "${text}" at)
  if(NOT rc STREQUAL "${code}" OR NOT err MATCHES "^${name}: " OR at EQUAL -1)
    set(want "${code} and a ${name}: message")
    if(text)
      string(APPEND want " saying '${text}'")
    endif()
    message(SEND_ERROR "${shown}: exit ${rc}, want ${want}; stderr:\n${err}")
  endif()
endfunction()

function(expect_config_error)
  set(text "")
  set(args "${ARGN}")
  if(ARGV0 STREQUAL "SAYS")
    set(text "${ARGV1}")
    list(SUBLIST args 2 -1 args)
  endif()
  execute_process(COMMAND "${ESG_SIM}" ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  list(JOIN args " " shown)
  check_row(2 "${rc}" "${err}" esg_sim "${text}" "esg_sim ${shown}")
  math(EXPR count "${rows} + 1")
  set(rows ${count} PARENT_SCOPE)
endfunction()

function(expect_tracegen_error)
  execute_process(COMMAND "${ESG_TRACEGEN}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  list(JOIN ARGN " " shown)
  check_row(2 "${rc}" "${err}" esg_tracegen "" "esg_tracegen ${shown}")
  math(EXPR count "${rows} + 1")
  set(rows ${count} PARENT_SCOPE)
endfunction()

# Flags and spec grammars.
expect_config_error(SAYS --fault-spec --fault-spec explode:prob=1)
expect_config_error(--horizon-ms nan)

# Elastic fleet and spot reclamation.
expect_config_error(--elastic gradient)
expect_config_error(--elastic queue:min=5,max=2)
expect_config_error(--elastic queue:frobnicate=1)
expect_config_error(--fault-spec spot:at=100)
expect_config_error(--fault-spec spot:at=100,nodes=0)
expect_config_error(--horizon-ms 500 --nodes 4 --fault-spec spot:at=100,nodes=1)

# Tenants.
expect_config_error(--tenants justaname)
expect_config_error(--tenants a:0)
expect_config_error(--tenants a:1:plasma)
expect_config_error(--tenants a:1:hybrid=2)
expect_config_error(--tenants "a:1\;a:2")
expect_config_error(--tenants "a:1:apps=3\;b:1:apps=3")
expect_config_error(--tenants "a:1\;b:1\;throttle=0")
expect_config_error(--tenants @/no/such/tenants.txt)

# Forecasting.
expect_config_error(--forecast arima)
expect_config_error(--forecast ewma:alpha=2)
expect_config_error(--forecast ewma:alpha=0.3,alpha=0.4)
expect_config_error(--forecast oracle:alpha=0.5)
expect_config_error(--forecast seasonal:bins=0)
expect_config_error(--forecast "oracle\;lead-ms=-1")
expect_config_error(--forecast oracle)
expect_config_error(--forecast @/no/such/forecast.spec)
expect_config_error(--elastic forecast)

# Rejected only inside run_scenario, on one replica or on several.
foreach(seeds 1 3)
  expect_config_error(--horizon-ms 2000 --seeds ${seeds}
                      --fault-spec crash:invoker=99,at=1000,down=10)
  expect_config_error(--horizon-ms 2000 --seeds ${seeds}
                      --tenants "a:1:apps=0,9\;b:1")
endforeach()

# Workload traces.
set(bad_trace "${CMAKE_CURRENT_BINARY_DIR}/esg_sim_exit_codes_bad_trace.csv")
file(WRITE "${bad_trace}" "esg-trace,v1,bin_ms=500,apps=2\n0,0,nan\n")
expect_config_error(SAYS "workload-trace line 2" --arrivals "trace:@${bad_trace}")
expect_config_error(--arrivals trace:@/no/such/file.csv)
expect_tracegen_error(--bins 0)

# Outputs that cannot be written (/dev/full takes no bytes, and no
# directory can be made under it).
function(expect_io_error)
  execute_process(COMMAND "${ESG_SIM}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  list(JOIN ARGN " " shown)
  check_row(1 "${rc}" "${err}" esg_sim /dev/full "esg_sim ${shown}")
  math(EXPR count "${rows} + 1")
  set(rows ${count} PARENT_SCOPE)
endfunction()

if(EXISTS /dev/full)
  foreach(flag --perf-out --trace-out --stats-out --report-out)
    expect_io_error(--horizon-ms 500 ${flag} /dev/full)
  endforeach()
  expect_io_error(--horizon-ms 500 --sweep --scheduler esg,infless
                  --sweep-out /dev/full)
  expect_io_error(--horizon-ms 500 --csv-dir /dev/full/x)
else()
  message(STATUS "no /dev/full: the I/O-error rows are skipped")
endif()

message(STATUS "${rows} exit-code rows checked")
