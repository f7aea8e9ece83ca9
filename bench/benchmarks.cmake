# Benchmark targets. Included from the top-level CMakeLists (not via
# add_subdirectory) so that ${CMAKE_BINARY_DIR}/bench contains only the
# runnable binaries: the reproduction runbook executes build/bench/*.

add_library(nncell_bench_util STATIC ${CMAKE_SOURCE_DIR}/bench/bench_util.cc)
target_link_libraries(nncell_bench_util PUBLIC
  nncell_core nncell_data nncell_rstar nncell_xtree nncell_storage
)
target_include_directories(nncell_bench_util PUBLIC ${CMAKE_SOURCE_DIR})

set(NNCELL_BENCH_BINDIR ${CMAKE_BINARY_DIR}/bench)

function(nncell_add_fig name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE nncell_bench_util)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${NNCELL_BENCH_BINDIR})
endfunction()

nncell_add_fig(fig04_approx_algorithms)
nncell_add_fig(fig05_quality_performance)
nncell_add_fig(fig07_search_vs_dimension)
nncell_add_fig(fig08_speedup_over_rstar)
nncell_add_fig(fig09_pages_vs_cpu)
nncell_add_fig(fig10_dbsize_sweep)
nncell_add_fig(fig10b_overlap_scaling)
nncell_add_fig(fig11_fourier_dbsize)
nncell_add_fig(fig12_fourier_pages_cpu)
nncell_add_fig(fig13_decomposition)
nncell_add_fig(ablation_maintenance)
nncell_add_fig(extension_knn)
nncell_add_fig(model_vs_measured)
nncell_add_fig(extension_parallel)
nncell_add_fig(bench_regress)
nncell_add_fig(bench_recall)
nncell_add_fig(bench_simd)
nncell_add_fig(exact_plan_sweep)
nncell_add_fig(fan_out_sweep)
target_link_libraries(model_vs_measured PRIVATE nncell_model)
target_link_libraries(fan_out_sweep PRIVATE nncell_shard)

add_executable(loadgen ${CMAKE_SOURCE_DIR}/bench/loadgen.cc)
target_include_directories(loadgen PRIVATE ${CMAKE_SOURCE_DIR}/src)
target_link_libraries(loadgen PRIVATE nncell_server_lib)
set_target_properties(loadgen PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${NNCELL_BENCH_BINDIR})

foreach(micro micro_lp micro_trees micro_metrics micro_persistence micro_distance)
  add_executable(${micro} ${CMAKE_SOURCE_DIR}/bench/${micro}.cc)
  target_include_directories(${micro} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${micro} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${NNCELL_BENCH_BINDIR})
endforeach()
target_link_libraries(micro_lp PRIVATE nncell_geom nncell_lp benchmark::benchmark)
target_link_libraries(micro_trees PRIVATE nncell_data nncell_rstar nncell_xtree benchmark::benchmark)
target_link_libraries(micro_metrics PRIVATE nncell_geom nncell_lp benchmark::benchmark)
target_link_libraries(micro_persistence PRIVATE nncell_core nncell_data benchmark::benchmark)
target_link_libraries(micro_distance PRIVATE nncell_common benchmark::benchmark)
