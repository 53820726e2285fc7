add_library(gpupm_bench_harness STATIC bench/harness.cpp)
target_link_libraries(gpupm_bench_harness PUBLIC gpupm)

function(gpupm_bench name)
    add_executable(${name} bench/${name}.cpp)
    target_link_libraries(${name} PRIVATE gpupm_bench_harness)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

gpupm_bench(bench_table1_dvfs)
gpupm_bench(bench_table4_patterns)
gpupm_bench(bench_fig2_scaling)
gpupm_bench(bench_fig3_throughput)
gpupm_bench(bench_fig4_limit)
gpupm_bench(bench_fig8_mpc_vs_turbo)
gpupm_bench(bench_fig9_mpc_vs_ppk)
gpupm_bench(bench_fig10_gpu_energy)
gpupm_bench(bench_fig11_amortization)
gpupm_bench(bench_fig12_theoretical)
gpupm_bench(bench_fig13_prediction_error)
gpupm_bench(bench_fig14_overheads)
gpupm_bench(bench_fig15_horizon)
gpupm_bench(bench_rf_accuracy)
gpupm_bench(bench_ablation)
gpupm_bench(bench_tdp_study)

# google-benchmark microbenchmarks (runtime overhead calibration).
add_executable(bench_micro_runtime bench/bench_micro_runtime.cpp)
target_link_libraries(bench_micro_runtime PRIVATE gpupm_bench_harness
    benchmark::benchmark)
set_target_properties(bench_micro_runtime PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Fleet-server throughput vs the one-session-at-a-time baseline
# (baseline committed at docs/perf/BENCH_fleet.json).
add_executable(bench_fleet_throughput bench/bench_fleet_throughput.cpp)
target_link_libraries(bench_fleet_throughput PRIVATE gpupm_bench_harness
    benchmark::benchmark)
set_target_properties(bench_fleet_throughput PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Online learning: hot-swap pause + post-shift accuracy recovery
# (baseline committed at docs/perf/BENCH_online.json).
add_executable(bench_online_adapt bench/bench_online_adapt.cpp)
target_link_libraries(bench_online_adapt PRIVATE gpupm_bench_harness
    benchmark::benchmark)
set_target_properties(bench_online_adapt PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Fleet power capping: energy vs budget ladder, violation rate and
# Jain's fairness index (baseline at docs/perf/BENCH_powercap.json).
add_executable(bench_fleet_powercap bench/bench_fleet_powercap.cpp)
target_link_libraries(bench_fleet_powercap PRIVATE gpupm_bench_harness
    benchmark::benchmark)
set_target_properties(bench_fleet_powercap PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# `cmake --build build --target bench-compare` runs the microbenchmarks
# and diffs them against the checked-in baseline (see
# tools/perf_compare.py) and fails the build on any regression beyond
# the 20% threshold — above the ~15% run-to-run swing of the
# sub-microsecond benchmarks on an unpinned shared host, so it gates
# real regressions without tripping on noise. Tighten it (or pin the
# machine) when measuring a specific change.
if(NOT Python3_EXECUTABLE)
    set(Python3_EXECUTABLE python3)
endif()
add_custom_target(bench-compare
    COMMAND ${CMAKE_BINARY_DIR}/bench/bench_micro_runtime
        --benchmark_out=${CMAKE_BINARY_DIR}/bench/BENCH_candidate.json
        --benchmark_out_format=json
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/perf_compare.py
        ${CMAKE_SOURCE_DIR}/docs/perf/BENCH_micro.json
        ${CMAKE_BINARY_DIR}/bench/BENCH_candidate.json
        --threshold 20
    DEPENDS bench_micro_runtime
    COMMENT "Running microbenchmarks and comparing against docs/perf/BENCH_micro.json"
    VERBATIM)

# `cmake --build build --target bench-fleet-compare` runs the sharded
# fleet benchmarks (including the 100k-session massive study - allow a
# few minutes) and diffs rates *and latency percentiles* against the
# committed baseline. Rates gate at 25%; p99 gates at 150% because on
# a 1-core unpinned host the oversubscribed configs' tail is pure
# scheduler noise (identical code measured +78% p99 run-to-run at
# load 0.5) - the tail gate exists to catch order-of-magnitude
# regressions like an unbounded queue, not microsecond jitter.
# Regenerate the baseline with the same filter:
#   ./build/bench/bench_fleet_throughput \
#       --benchmark_filter='Sharded|Massive' \
#       --benchmark_out=docs/perf/BENCH_fleet_sharded.json \
#       --benchmark_out_format=json
add_custom_target(bench-fleet-compare
    COMMAND ${CMAKE_BINARY_DIR}/bench/bench_fleet_throughput
        --benchmark_filter=Sharded|Massive
        --benchmark_out=${CMAKE_BINARY_DIR}/bench/BENCH_fleet_candidate.json
        --benchmark_out_format=json
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/perf_compare.py
        ${CMAKE_SOURCE_DIR}/docs/perf/BENCH_fleet_sharded.json
        ${CMAKE_BINARY_DIR}/bench/BENCH_fleet_candidate.json
        --threshold 25 --percentile-threshold 150
    DEPENDS bench_fleet_throughput
    COMMENT "Running sharded fleet benchmarks and comparing against docs/perf/BENCH_fleet_sharded.json"
    VERBATIM)

# `cmake --build build --target bench-powercap-compare` runs the
# power-cap ladder and diffs rates against the committed baseline.
# The control-quality counters (power_over_cap, violation_rate,
# jain_index) ride along in the JSON for human review; the gate itself
# is on throughput (same 25% bar as the fleet benches - the workload
# and trace bookkeeping are deterministic, so only the wall-clock rate
# is noisy). Regenerate the baseline with:
#   ./build/bench/bench_fleet_powercap \
#       --benchmark_out=docs/perf/BENCH_powercap.json \
#       --benchmark_out_format=json
add_custom_target(bench-powercap-compare
    COMMAND ${CMAKE_BINARY_DIR}/bench/bench_fleet_powercap
        --benchmark_out=${CMAKE_BINARY_DIR}/bench/BENCH_powercap_candidate.json
        --benchmark_out_format=json
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/perf_compare.py
        ${CMAKE_SOURCE_DIR}/docs/perf/BENCH_powercap.json
        ${CMAKE_BINARY_DIR}/bench/BENCH_powercap_candidate.json
        --threshold 25
    DEPENDS bench_fleet_powercap
    COMMENT "Running powercap benchmarks and comparing against docs/perf/BENCH_powercap.json"
    VERBATIM)
