# Runs check_runner's reduced DFS (-DTOOL=<path>) once with --jobs 1 and
# once with --jobs 4 and fails unless the two --dfs-stats files agree on
# every key but wall_ms and runs_per_sec. Replays run ahead on worker
# threads but commit in serial DFS order, so no counter may depend on
# --jobs. Outputs go to -DWORK_DIR=<dir>.
if(NOT DEFINED TOOL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "dfs_stats_jobs.cmake requires -DTOOL and -DWORK_DIR")
endif()

foreach(jobs 1 4)
  set(out "${WORK_DIR}/dfs-stats-jobs${jobs}.json")
  file(REMOVE "${out}")
  execute_process(
    COMMAND ${TOOL} --protocol kset-small,two-wheels-small --dfs
      --dfs-mode race --dfs-hash --dfs-symmetry --dfs-por --dfs-depth 5
      --jobs ${jobs} --dfs-stats "${out}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--jobs ${jobs}: exit ${rc}\n${stdout}${stderr}")
  endif()
  file(STRINGS "${out}" lines)
  if(NOT lines)
    message(FATAL_ERROR "--jobs ${jobs}: ${out} is empty")
  endif()
  list(FILTER lines EXCLUDE REGEX "\"(wall_ms|runs_per_sec)\"")
  list(JOIN lines "\n" stats_${jobs})
endforeach()

if(NOT stats_1 STREQUAL stats_4)
  message(FATAL_ERROR "--dfs-stats differ between --jobs 1 and --jobs 4:\n"
    "--jobs 1:\n${stats_1}\n--jobs 4:\n${stats_4}")
endif()
