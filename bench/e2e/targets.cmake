# End-to-end benchmark harness target, injected into the root project
# with -DCMAKE_PROJECT_INCLUDE=bench/e2e/targets.cmake (bench/e2e/run.sh
# does this), so the benchmark builds against the tree's own libraries
# without the root build knowing about it. Library targets are
# referenced before the root CMakeLists defines them; CMake resolves
# the names at generate time.

set(EMISSARY_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})

add_executable(emissary_bench
    ${EMISSARY_E2E_DIR}/main.cc
    ${EMISSARY_E2E_DIR}/sweeps.cc
    ${EMISSARY_E2E_DIR}/probes.cc
    ${EMISSARY_E2E_DIR}/compare.cc
    ${EMISSARY_E2E_DIR}/calibrate.cc
    ${EMISSARY_E2E_DIR}/util.cc
)
target_link_libraries(emissary_bench PRIVATE emissary_service emissary_core)
target_include_directories(emissary_bench PRIVATE ${CMAKE_SOURCE_DIR})
# The harness reads its metric table (names, units, bounds) from
# BENCHMARK.json.
target_compile_definitions(emissary_bench PRIVATE
    EMISSARY_BENCH_SPEC="${CMAKE_SOURCE_DIR}/BENCHMARK.json"
    EMISSARY_BENCH_REFERENCE_DIR="${EMISSARY_E2E_DIR}/reference")

# The CI hook: tiny windows on every workload, outputs checked.
cmake_language(DEFER CALL add_test NAME bench_e2e_smoke
    COMMAND emissary_bench --smoke --out ${CMAKE_BINARY_DIR}/e2e-smoke)
