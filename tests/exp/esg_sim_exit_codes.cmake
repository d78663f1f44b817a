# esg_sim must reject every configuration error below with exit code 2 and
# an "esg_sim:" message on stderr: not 1 (a runtime failure) and not 134
# (an exception escaping a worker thread). Some rows fail while the flags
# are parsed, others only once run_scenario checks the scenario, with one
# seed or with several seeds running on the replica pool. Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -P esg_sim_exit_codes.cmake
#
# Each expect_config_error() call is one row: its arguments are esg_sim's,
# and "\;" is a semicolon inside an argument.
if(NOT ESG_SIM)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(rows 0)
function(expect_config_error)
  execute_process(COMMAND "${ESG_SIM}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "^esg_sim: ")
    list(JOIN ARGN " " shown)
    message(SEND_ERROR "esg_sim ${shown}: exit ${rc}, want 2 and an "
                       "esg_sim: message; stderr:\n${err}")
  endif()
  math(EXPR count "${rows} + 1")
  set(rows ${count} PARENT_SCOPE)
endfunction()

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

message(STATUS "${rows} esg_sim configuration-error rows checked")
