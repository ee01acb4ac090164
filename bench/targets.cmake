# Benchmark binaries — one per paper artifact (see DESIGN.md §3).
# Targets are defined at top level so ${CMAKE_BINARY_DIR}/bench contains
# only the executables ("for b in build/bench/*; do $b; done" runs clean).

function(saf_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    saf_core saf_fd saf_shm saf_sim saf_util benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

saf_add_bench(bench_sim_core)
# The reduced-DFS search row drives the check layer.
target_link_libraries(bench_sim_core PRIVATE saf_check)
saf_add_bench(bench_fig1_grid)
saf_add_bench(bench_fig1_irreducibility)
saf_add_bench(bench_fig2_additivity)
saf_add_bench(bench_fig3_kset)
saf_add_bench(bench_fig3_zerodeg)
saf_add_bench(bench_fig5_lower_wheel)
saf_add_bench(bench_fig6_upper_wheel)
saf_add_bench(bench_fig7_phibar)
saf_add_bench(bench_fig8_addition)
saf_add_bench(bench_thm5_bounds)
saf_add_bench(bench_baseline_consensus)
saf_add_bench(bench_repeated_kset)
saf_add_bench(bench_kset_routes)

# Live-runtime benches: fork real UDP clusters, so they are plain
# binaries (no google-benchmark harness). They live in build/bench like
# every other bench — CI's --benchmark_list_tests sweep skips the
# bench_rt_* prefix instead of the old special-cased output dir.
function(saf_add_rt_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE saf_rt saf_sweep)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

saf_add_rt_bench(bench_rt_latency)
saf_add_rt_bench(bench_rt_throughput)
saf_add_rt_bench(bench_rt_service)
# The service bench embeds the client tier and installs the svc node
# runner / contract checker into the cluster launcher.
target_link_libraries(bench_rt_service PRIVATE saf_svc)

# Reduced-DFS state-space bench: one "iteration" is an entire
# exhaustive search over the check layer, so like the rt benches it is
# a plain binary (no google-benchmark harness); CI's
# --benchmark_list_tests sweep skips it by name.
add_executable(bench_dfs ${CMAKE_SOURCE_DIR}/bench/bench_dfs.cpp)
target_link_libraries(bench_dfs PRIVATE
  saf_check saf_core saf_fd saf_shm saf_sim saf_sweep saf_trace saf_util)
set_target_properties(bench_dfs PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
