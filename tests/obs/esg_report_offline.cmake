# The artefact round trip through the CLIs: esg_sim writes a trace, stats
# and an SLO-attribution report, and esg_report rebuilds the report from
# the saved trace byte for byte. esg_report exiting 0 also shows that the
# trace is valid JSON: its reader exits 2 on malformed input. Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -DESG_REPORT=<path to esg_report>
#         -DOUT_DIR=<scratch directory> -P esg_report_offline.cmake
if(NOT ESG_SIM OR NOT ESG_REPORT OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> "
                      "-DESG_REPORT=<path to esg_report> -DOUT_DIR=<dir> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(trace "${OUT_DIR}/esg_report_offline_trace.json")
set(stats "${OUT_DIR}/esg_report_offline_stats.jsonl")
set(online "${OUT_DIR}/esg_report_offline_online.json")
set(offline "${OUT_DIR}/esg_report_offline_offline.json")
file(REMOVE "${trace}" "${stats}" "${online}" "${offline}")

execute_process(COMMAND "${ESG_SIM}" --horizon-ms 2000 --trace-out "${trace}"
                        --stats-out "${stats}" --report-out "${online}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "esg_sim with every artefact output: exit ${rc}; "
                      "stderr:\n${err}")
endif()

execute_process(COMMAND "${ESG_REPORT}" "${trace}" --json-out "${offline}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "esg_report ${trace}: exit ${rc}; stderr:\n${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${online}"
                        "${offline}"
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(SEND_ERROR "the offline report ${offline} differs from the online "
                     "report ${online}")
endif()
