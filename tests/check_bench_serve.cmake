# ctest driver for the daemon load benchmark. Expects:
#   BENCH     path to the serve_load binary
#   PYTHON    python3 interpreter
#   TOOLS_DIR repo tools/ directory (schema + checker)
#   WORK_DIR  scratch directory for the artifact (build tree)
#   SANITIZED USYS_SANITIZE value of the tree ("" for a plain build)

set(stats ${WORK_DIR}/BENCH_serve.json)

# serve_load runs the identical duplicate-heavy closed loop against two
# in-process daemons — full (batching + result cache) and baseline
# (--no-batch --no-cache) — and exits nonzero when a gate misses:
#   --min-speedup 2     full must deliver >= 2x baseline throughput at
#                       64 concurrent clients on the dup mix
#   --min-hit-rate 0.5  the result cache must actually be absorbing the
#                       duplicate load, not idling
# Closed-loop throughput on a busy single-core host is noisy, so the
# bench re-measures up to --attempts times and reports the best pair;
# a real regression fails every attempt.
#
# --overload then drives a third phase: clients well past the admission
# bound plus a deliberately stalled connection. --require-shed turns it
# into a gate — the daemon must actually shed (nonzero shed count) and
# reap the stalled peer (nonzero io timeout count), with every logical
# request still completing through client retry.
execute_process(
    COMMAND ${BENCH} --stats-json ${stats} --clients 64 --requests 8
            --batch-max 512 --attempts 3 --min-speedup 2
            --min-hit-rate 0.5 --overload --require-shed
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve_load failed (${rc}) — client error, "
                        "speedup below 2x, cache hit rate below 0.5, "
                        "or overload phase did not shed/reap")
endif()

execute_process(
    COMMAND ${PYTHON} ${TOOLS_DIR}/check_stats_schema.py
            --schema ${TOOLS_DIR}/bench_serve_schema.json ${stats}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_serve.json schema validation failed")
endif()

# Stage the gated, validated artifact for the publish_bench target —
# inside the build tree, never the source tree; sanitized trees stage
# nothing (their timings must not become the committed record).
if(NOT SANITIZED)
    file(COPY ${stats} DESTINATION ${WORK_DIR}/publish)
endif()
