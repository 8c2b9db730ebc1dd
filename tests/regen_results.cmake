# Regenerates every committed file under results/ in a scratch directory
# and byte-compares it with the committed copy. A committed file that no
# generator below writes also fails, so adding a results/ file without a
# generator here is caught.
#
#   cmake -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch> -DRUN=<moldsched_run>
#         -DREPORT=<make_report> -DBENCHES=<bench;bench;...>
#         -P regen_results.cmake
#
# Generators, all at their defaults (seed 1234, P=32):
#   * moldsched_run suites table1, ratio-curves, random-dags, workflows;
#   * the study halves of the BENCHES (google-benchmark binaries run with
#     a filter that matches no benchmark, in WORK_DIR, so they write
#     WORK_DIR/results/*.csv);
#   * make_report for results/report.md.

foreach(var SOURCE_DIR WORK_DIR RUN REPORT BENCHES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "regen_results.cmake: -D${var}=... is required")
  endif()
endforeach()

# A build that made only some test targets has no generators to run;
# ctest reports that as skipped (SKIP_REGULAR_EXPRESSION), not failed.
foreach(generator IN LISTS RUN REPORT BENCHES)
  if(NOT EXISTS "${generator}")
    message(STATUS "results regeneration skipped: ${generator} is not built")
    return()
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/results")

function(run_generator)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "generator failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

run_generator("${RUN}" --suite table1,ratio-curves,random-dags,workflows
  --threads 2 --quiet --no-bench-json --results-dir "${WORK_DIR}/results")
foreach(bench IN LISTS BENCHES)
  run_generator("${bench}" --benchmark_filter=NoSuchBenchmark)
endforeach()
run_generator("${REPORT}" "--out=${WORK_DIR}/results/report.md")

# The committed files: git's list in a checkout (so local runs that wrote
# extra files into results/ do not count), else everything in results/.
find_program(GIT_EXECUTABLE git)
set(committed "")
if(GIT_EXECUTABLE AND EXISTS "${SOURCE_DIR}/.git")
  execute_process(COMMAND "${GIT_EXECUTABLE}" ls-files -- results
    WORKING_DIRECTORY "${SOURCE_DIR}"
    RESULT_VARIABLE git_rc OUTPUT_VARIABLE tracked ERROR_QUIET
    OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(git_rc EQUAL 0 AND tracked)
    string(REPLACE "results/" "" tracked "${tracked}")
    string(REPLACE "\n" ";" committed "${tracked}")
  endif()
endif()
if(NOT committed)
  file(GLOB committed RELATIVE "${SOURCE_DIR}/results"
       "${SOURCE_DIR}/results/*")
endif()
set(mismatched "")
foreach(name IN LISTS committed)
  if(NOT EXISTS "${WORK_DIR}/results/${name}")
    list(APPEND mismatched "${name} (not regenerated)")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${SOURCE_DIR}/results/${name}" "${WORK_DIR}/results/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND mismatched "${name}")
  endif()
endforeach()

list(LENGTH committed total)
if(mismatched)
  string(REPLACE ";" "\n  " listing "${mismatched}")
  message(FATAL_ERROR "results/ files that do not regenerate byte-identically "
                      "(fresh copies in ${WORK_DIR}/results):\n  ${listing}")
endif()
message(STATUS "${total} committed results/ files regenerate byte-identically")
file(REMOVE_RECURSE "${WORK_DIR}")
