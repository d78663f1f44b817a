# esg_sim's multi-tenant contracts, end to end through the CLI:
#
#  - the inert `--tenants solo:1` writes the same trace, stats, report and
#    CSVs as no --tenants flag at all;
#  - a two-tenant MQFQ-Sticky run, which plans through an inner ESG
#    scheduler, replays byte for byte (trace, stats, report and CSVs,
#    per_tenant.csv included).
#
# The per-tenant gauges and report rows of such a run are read back by
# TenantPlatform.StatsCarryEveryTenantGauge and
# TenantPlatform.ReportAndCsvRollUpPerTenant. Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -DOUT_DIR=<scratch directory>
#         -P esg_sim_fairness.cmake
if(NOT ESG_SIM OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> "
                      "-DOUT_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

include("${CMAKE_CURRENT_LIST_DIR}/../support/esg_cli.cmake")

set(dir "${OUT_DIR}/esg_sim_fairness")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")

# An inert tenant spec is invisible.
artefacts(plain plain)
artefacts(inert inert)
run("${ESG_SIM}" --horizon-ms 2000 --nodes 4 ${plain}
    --csv-dir "${dir}/plain_csv")
run("${ESG_SIM}" --horizon-ms 2000 --nodes 4 --tenants solo:1 ${inert}
    --csv-dir "${dir}/inert_csv")
expect_same_artefacts(plain inert)
expect_same_dir("${dir}/plain_csv" "${dir}/inert_csv")

# A two-tenant MQFQ-Sticky run replays deterministically. Inside a spec,
# "\;" is a semicolon that does not split run()'s list of arguments.
set(tenants "gold:3:apps=0,2\;bronze:1:energy:apps=1,3\;throttle=25")
foreach(stem mt1 mt2)
  artefacts(outputs ${stem})
  run("${ESG_SIM}" --horizon-ms 3000 --nodes 4 --scheduler mqfq-sticky
      --tenants "${tenants}" ${outputs} --csv-dir "${dir}/${stem}_csv")
endforeach()
expect_same_artefacts(mt1 mt2)
expect_same_dir("${dir}/mt1_csv" "${dir}/mt2_csv")
if(NOT EXISTS "${dir}/mt1_csv/per_tenant.csv")
  message(SEND_ERROR "a two-tenant run wrote no per_tenant.csv")
endif()
