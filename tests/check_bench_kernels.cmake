# ctest driver for the packed-vs-scalar kernel benchmark. Expects:
#   BENCH     path to the perf_smoke binary
#   PYTHON    python3 interpreter
#   TOOLS_DIR repo tools/ directory (schema + checker)
#   WORK_DIR  scratch directory for the artifact (build tree)
#   SANITIZED USYS_SANITIZE value of the tree ("" for a plain build)

set(stats ${WORK_DIR}/BENCH_kernels.json)

# Sanitized trees still run the full equivalence checks, but the
# sparse-speedup floor is release-only: instrumentation skews the
# census-vs-MAC cost ratio (ASan redzones land on the census
# allocations), and under TSan the no_sanitize AVX-512 kernels make
# every generic-vs-SIMD ratio incommensurable with a release run.
set(sparse_gate --min-sparse-speedup 2)
if(SANITIZED)
    set(sparse_gate)
endif()

# perf_smoke itself asserts packed/scalar, SIMD/generic, and table/
# stream fold equivalence per kernel and exits nonzero when a
# perf gate misses:
#   --min-speedup 10             full-period UR packed-vs-scalar
#   --min-simd-speedup 2         SIMD bulk popcount (self-skips when
#                                no AVX2/AVX-512 tier is available)
#   --min-gemm-row-speedup 2.5   SIMD gemm row vs generic (self-skips
#                                likewise). The DESIGN §13 target is
#                                4x; the ctest gate is set at 2.5x
#                                because the generic baseline already
#                                sustains ~1 imul/cycle and on
#                                single-vCPU hosts the measured
#                                AVX-512 wall-clock ratio tops out
#                                near its ~3.5x port ceiling.
#   --min-table-speedup 1.5      product-table row kernel vs per-MAC
#                                packed-stream fold on the same
#                                64x64 8-bit UR tile (the stream leg
#                                runs under an accumulator fault plan
#                                that fires no event)
#   --min-sparse-speedup 2       t(s0)/t(s90): the same 256x64x64 UR
#                                fold at 0% vs 90% activation
#                                sparsity (self-skips on hosts too
#                                slow to time the fold)
#   --max-profile-overhead-pct 2 compiled-in-but-disabled profiler
#                                cost on the packed UR fold (A/A gated)
execute_process(
    COMMAND ${BENCH} --stats-json ${stats} --min-speedup 10
            --min-simd-speedup 2 --min-gemm-row-speedup 2.5
            --min-table-speedup 1.5 ${sparse_gate}
            --max-profile-overhead-pct 2
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke failed (${rc}) — equivalence "
                        "mismatch or a perf gate missed (UR 10x, SIMD "
                        "popcount 2x, gemm row 2.5x, table 1.5x, sparse "
                        "2x, or profiling-disabled overhead above 2%)")
endif()

execute_process(
    COMMAND ${PYTHON} ${TOOLS_DIR}/check_stats_schema.py
            --schema ${TOOLS_DIR}/bench_kernels_schema.json ${stats}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_kernels.json schema validation failed")
endif()

# Stage the gated, validated artifact for the publish_bench target —
# inside the build tree: a test run never writes the source tree, so
# bench_kernels_regress always compares against the committed record.
# Sanitized trees stage nothing (instrumented timings must not become
# the committed baseline).
if(NOT SANITIZED)
    file(COPY ${stats} DESTINATION ${WORK_DIR}/publish)
endif()
