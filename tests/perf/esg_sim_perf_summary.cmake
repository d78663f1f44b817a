# esg_sim --perf-summary times the run's layers in every build: the layer
# table it prints has a scan row and a window that the clock filled. Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -P esg_sim_perf_summary.cmake
if(NOT ESG_SIM)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(COMMAND "${ESG_SIM}" --horizon-ms 2000 --perf-summary
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "esg_sim --perf-summary: exit ${rc}; stderr:\n${err}")
endif()
if(NOT out MATCHES "\\| scan +\\| [0-9.]+(ns|us|ms|s) +\\| [0-9.]+% +\\|")
  message(SEND_ERROR "esg_sim --perf-summary printed no scan row:\n${out}")
endif()
if(NOT out MATCHES "\\| window +\\| [0-9.]+(ns|us|ms|s) +\\| 100.0% +\\|" OR
   out MATCHES "\\| window +\\| 0ns ")
  message(SEND_ERROR "esg_sim --perf-summary printed no clocked window:\n${out}")
endif()
