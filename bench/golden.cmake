# Golden check for the deterministic benches (ctest bench_golden): the
# sim-plane benches, the Fig 9/10/11 throughput panels (PPO, ReMax,
# Safe-RLHF across systems, models and cluster sizes), the data-plane
# work counts, the Fig 16 mapping search (its counts and chosen mapping;
# the wall-clock column is not in the file) and the full-precision
# sim-plane step loop (bench_sim_steps).
#
# Reruns each bench in WORK_DIR and requires exit 0 plus byte equality of
# the BENCH_<name>.json it writes with the copy committed at SOURCE_DIR.
# A deliberate change to a simulated number or a kernel work count means
# committing the regenerated file (run the bench from the repo root).
#
#   cmake -DBENCH_DIR=<dir with the bench binaries> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<scratch dir> -P bench/golden.cmake

set(goldens
  "bench_rollout_scheduler:BENCH_rollout.json"
  "bench_serving:BENCH_serving.json"
  "bench_async_pipeline:BENCH_async.json"
  "bench_fig9_ppo_throughput:BENCH_fig9_ppo_throughput.json"
  "bench_fig10_remax_throughput:BENCH_fig10_remax_throughput.json"
  "bench_fig11_safe_rlhf_throughput:BENCH_fig11_safe_rlhf_throughput.json"
  "bench_dataplane_work:BENCH_dataplane_work.json"
  "bench_fig16_mapping_runtime:BENCH_fig16_mapping_runtime.json"
  "bench_sim_steps:BENCH_sim_steps.json")

# Own working directory: bench_rollout_gate writes BENCH_rollout.json into
# the bench build directory and may run concurrently under ctest -j.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failed "")
foreach(entry IN LISTS goldens)
  string(REPLACE ":" ";" parts "${entry}")
  list(GET parts 0 bench)
  list(GET parts 1 json)
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE exit_code
                  OUTPUT_QUIET)
  if(NOT exit_code EQUAL 0)
    message(SEND_ERROR "${bench} exited with ${exit_code}")
    list(APPEND failed "${bench}")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${SOURCE_DIR}/${json}" "${WORK_DIR}/${json}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(SEND_ERROR "${json} differs from the committed golden: "
                       "diff ${SOURCE_DIR}/${json} ${WORK_DIR}/${json}")
    list(APPEND failed "${json}")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "bench_golden failed: ${failed}")
endif()
message(STATUS "bench_golden: every golden is byte-identical")
