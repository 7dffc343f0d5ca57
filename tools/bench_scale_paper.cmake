# The ctest entry bench_scale_paper: runs bench_scale's paper point (the 12
# Fig. 7/10 cells, each in a forked child) into a JSON file, then judges it
# against BENCH_PR8.json on exact fields only (fingerprints, work counters,
# every paper row present), so each build type drives the fork, pipe and
# JSON path that the committed baseline and its checker depend on.
#
#   cmake -DBENCH_SCALE=<bench_scale> -DPYTHON=<python3>
#         -DCHECKER=<check_bench_baseline.py> -DBASELINE=<BENCH_PR8.json>
#         -DJSON=<output path> -P bench_scale_paper.cmake
execute_process(
  COMMAND ${BENCH_SCALE} mode=smoke max_scale=100 json=${JSON}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_scale failed: ${status}")
endif()
execute_process(
  COMMAND ${PYTHON} ${CHECKER} --baseline ${BASELINE} --fresh ${JSON}
          --allow-subset --exact-only
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "check_bench_baseline.py failed: ${status}")
endif()
