# Helpers for the ctest scripts that drive the built CLIs end to end. The
# including script sets `dir`, its scratch directory, before calling
# artefacts().

# Runs `tool` with the given arguments and stops the script unless it
# exits 0.
function(run tool)
  execute_process(COMMAND "${tool}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    list(JOIN ARGN " " shown)
    message(FATAL_ERROR "${tool} ${shown}: exit ${rc}; stderr:\n${err}")
  endif()
endfunction()

# Wants files `a` and `b` byte-identical.
function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "${b} differs from ${a}")
  endif()
endfunction()

# Wants directories `a` and `b` to hold the same file names with
# byte-identical contents.
function(expect_same_dir a b)
  file(GLOB_RECURSE left RELATIVE "${a}" "${a}/*")
  file(GLOB_RECURSE right RELATIVE "${b}" "${b}/*")
  list(SORT left)
  list(SORT right)
  if(NOT left STREQUAL right OR left STREQUAL "")
    message(SEND_ERROR "${a} holds [${left}] but ${b} holds [${right}]")
    return()
  endif()
  foreach(name IN LISTS left)
    expect_same("${a}/${name}" "${b}/${name}")
  endforeach()
endfunction()

# Outputs of one run written under `dir` with the name `stem`.
function(artefacts out stem)
  set(${out} --trace-out "${dir}/${stem}.json" --stats-out
      "${dir}/${stem}.jsonl" --report-out "${dir}/${stem}_report.json"
      PARENT_SCOPE)
endfunction()

# Wants the trace, stats and report of runs `a` and `b` (named as by
# artefacts()) byte-identical.
function(expect_same_artefacts a b)
  foreach(suffix .json .jsonl _report.json)
    expect_same("${dir}/${a}${suffix}" "${dir}/${b}${suffix}")
  endforeach()
endfunction()
