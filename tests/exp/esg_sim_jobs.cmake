# esg_sim's output does not depend on how many threads run it: a --sweep
# (stdout and its --sweep-out JSON) and a multi-seed run (stdout) at
# --jobs 4 must equal the same runs at --jobs 1, byte for byte. Run as
#
#   cmake -DESG_SIM=<path to esg_sim> -P esg_sim_jobs.cmake
if(NOT ESG_SIM)
  message(FATAL_ERROR "usage: cmake -DESG_SIM=<path to esg_sim> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# Runs esg_sim in <dir> with stdout to <dir>/stdout.txt.
function(run_sim dir)
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${ESG_SIM}" ${ARGN} WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE rc OUTPUT_FILE "${dir}/stdout.txt"
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    list(JOIN ARGN " " shown)
    message(FATAL_ERROR "esg_sim ${shown}: exit ${rc}; stderr:\n${err}")
  endif()
endfunction()

function(expect_same_file a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(SEND_ERROR "${a} and ${b} differ")
  endif()
endfunction()

set(root "${CMAKE_CURRENT_BINARY_DIR}/esg_sim_jobs")
foreach(jobs 1 4)
  # The same relative --sweep-out in both directories, so the two stdouts,
  # which echo the path, stay comparable too.
  run_sim("${root}/sweep_j${jobs}" --sweep --scheduler esg,infless,mqfq-sticky
          --seeds 3 --horizon-ms 2000 --nodes 4 --jobs ${jobs}
          --sweep-out sweep.json)
  run_sim("${root}/seeds_j${jobs}" --horizon-ms 2000 --seeds 3 --jobs ${jobs})
endforeach()
expect_same_file("${root}/sweep_j1/sweep.json" "${root}/sweep_j4/sweep.json")
expect_same_file("${root}/sweep_j1/stdout.txt" "${root}/sweep_j4/stdout.txt")
expect_same_file("${root}/seeds_j1/stdout.txt" "${root}/seeds_j4/stdout.txt")
