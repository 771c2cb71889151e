# ctest driver for the end-to-end sweep benchmark. Expects:
#   BENCH     path to the e2e_sweep binary
#   PYTHON    python3 interpreter
#   TOOLS_DIR repo tools/ directory (schema + checker)
#   WORK_DIR  scratch directory for the artifacts
#
# Runs the sweep at 1 and 3 executor threads and requires the
# stats-registry dumps byte-identical (the thread-count determinism
# contract), then validates BENCH_e2e.json against its schema. A last
# run at the auto thread count enforces the >= 2x executor-vs-serial
# speedup floor; the binary itself skips the floor (printing the
# measured raw-thread scaling) where plain threads on this host do not
# scale 2x.

set(stats1 ${WORK_DIR}/e2e.stats.t1.json)
set(stats3 ${WORK_DIR}/e2e.stats.t3.json)
set(artifact ${WORK_DIR}/BENCH_e2e.json)

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env USYS_THREADS=1
            ${BENCH} --reps 1 --out ${artifact} --stats-json ${stats1}
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep (1 thread) failed (${rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env USYS_THREADS=3
            ${BENCH} --reps 1 --out ${artifact} --stats-json ${stats3}
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep (3 threads) failed (${rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${stats1} ${stats3}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "stats JSON differs between thread counts "
                        "(${stats1} vs ${stats3}) — the parallel sweep "
                        "leaked nondeterminism into the registry")
endif()

execute_process(
    COMMAND ${PYTHON} ${TOOLS_DIR}/check_stats_schema.py
            --schema ${TOOLS_DIR}/bench_e2e_schema.json ${artifact}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_e2e.json schema validation failed")
endif()

# Crash-safety leg: kill the sweep after two computed jobs, resume from
# the checkpoint, and require the resumed stats dump byte-identical to
# the straight single-thread run above.
set(ckpt ${WORK_DIR}/e2e_sweep.ckpt)
set(stats_resumed ${WORK_DIR}/e2e.stats.resumed.json)
file(REMOVE ${ckpt})
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env USYS_THREADS=1
            ${BENCH} --reps 1 --out ${artifact}
            --checkpoint ${ckpt} --die-after 2
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep --die-after 2 exited cleanly — "
                        "the crash leg did not crash")
endif()
if(NOT EXISTS ${ckpt})
    message(FATAL_ERROR "e2e_sweep died without leaving a checkpoint")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env USYS_THREADS=1
            ${BENCH} --reps 1 --out ${artifact}
            --checkpoint ${ckpt} --resume --stats-json ${stats_resumed}
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep --resume failed (${rc})")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${stats1} ${stats_resumed}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed stats JSON differs from the straight "
                        "run (${stats1} vs ${stats_resumed}) — "
                        "checkpoint restore is not byte-exact")
endif()

execute_process(
    COMMAND ${BENCH} --reps 3 --min-speedup 2
            --out ${artifact} --stats-json ${WORK_DIR}/e2e.stats.perf.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE perf_out)
string(REGEX MATCHALL "[^\n]*(speedup|skipped)[^\n]*" perf_lines
       "${perf_out}")
foreach(line IN LISTS perf_lines)
    message(STATUS "${line}")
endforeach()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep perf gate failed (${rc}) — "
                        "executor below 2x over serial")
endif()
