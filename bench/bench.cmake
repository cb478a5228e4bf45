# Bench binaries land in a clean build/bench/ directory (no CMake
# bookkeeping files), so `for b in build/bench/*; do $b; done` runs the
# whole suite.
#
# Each bench gets two smoke tests under a strict audit (a violated
# flow-conservation edge aborts): <bench>_smoke_audit on the materialised
# trace and <bench>_smoke_stream on the generated one. A bench whose figure
# rests on a result invariant checks it itself and exits 1, so both trace
# modes check it. Both entries write BENCH_<bench>.json into the bench
# directory, so they share a lock, and together they set up the fixture
# BENCH_<bench> that the report readers below require.
function(sds_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE sds_core sds_dissem sds_spec sds_net
                        sds_trace sds_util)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  add_test(NAME ${name}_smoke_audit COMMAND ${name} --smoke --audit
           WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  add_test(NAME ${name}_smoke_stream COMMAND ${name} --smoke --stream --audit
           WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  set_tests_properties(${name}_smoke_audit ${name}_smoke_stream PROPERTIES
    ENVIRONMENT SDS_AUDIT=strict RESOURCE_LOCK BENCH_${name}
    FIXTURES_SETUP BENCH_${name})
endfunction()

sds_add_bench(abl_aging)
sds_add_bench(abl_allocation)
sds_add_bench(abl_closure)
sds_add_bench(abl_combined)
sds_add_bench(abl_hierarchy)
sds_add_bench(abl_push_vs_pull)
sds_add_bench(abl_queueing)
sds_add_bench(abl_staleness)
sds_add_bench(fig1_block_popularity)
sds_add_bench(fig2_storage_allocation)
sds_add_bench(fig3_dissemination_savings)
sds_add_bench(fig4_dependency_histogram)
sds_add_bench(fig5_speculation_baseline)
sds_add_bench(fig6_gains_vs_traffic)
sds_add_bench(fig7_availability)
sds_add_bench(fig8_resilience)
sds_add_bench(fig9_balance)
sds_add_bench(tab1_document_classes)
sds_add_bench(tab2_symmetric_cluster)
sds_add_bench(workload_fidelity)
sds_add_bench(seed_robustness)
sds_add_bench(scale_stream)
sds_add_bench(exp_update_cycle)
sds_add_bench(exp_maxsize)
sds_add_bench(exp_client_caching)
sds_add_bench(exp_cooperative_clients)
sds_add_bench(exp_prefetch_hybrid)

add_executable(micro_kernels ${CMAKE_SOURCE_DIR}/bench/micro_kernels.cpp)
target_link_libraries(micro_kernels PRIVATE sds_core sds_dissem sds_spec
                      sds_net sds_trace sds_util benchmark::benchmark)
target_include_directories(micro_kernels PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(micro_kernels PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Bad command lines fail before any work with "error: ..." and exit status
# exactly 2 (an abort exits 134, which WILL_FAIL would also accept).
function(sds_add_bench_rejects name bench)
  add_test(NAME ${name}
           COMMAND sh -c "out=$(\"$0\" \"$@\" 2>&1); rc=$?; echo \"$out\"; \
test $rc -eq 2 && echo \"$out\" | grep -q '^error: '"
                   $<TARGET_FILE:${bench}> ${ARGN}
           WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

sds_add_bench_rejects(tab2_symmetric_cluster_rejects_unknown_flag
                      tab2_symmetric_cluster --smoke --trace-out t.json)
sds_add_bench_rejects(fig5_speculation_baseline_rejects_pathless_flag
                      fig5_speculation_baseline --smoke --prom-out)

# A report reader runs after both smoke entries of every bench it reads
# (`ctest -R <reader>` runs those too) and holds their locks meanwhile.
function(sds_reads_reports test)
  list(TRANSFORM ARGN PREPEND BENCH_ OUTPUT_VARIABLE reports)
  set_tests_properties(${test} PROPERTIES
    FIXTURES_REQUIRED "${reports}" RESOURCE_LOCK "${reports}")
endfunction()

# The schema of a smoke report: it parses, and it carries every named key,
# flat report keys at the top level and observability counters in its
# "metrics" section (the smoke entries run with --audit, which writes it).
function(sds_add_report_keys bench)
  add_test(NAME ${bench}_report_keys
           COMMAND sh -c "report=$1; shift; \
\"$0\" $report $report > /dev/null || exit 1; for key; do \
grep -q \"^ *\\\"$key\\\": \" $report || { echo \"$report lacks $key\"; \
exit 1; }; done"
                   $<TARGET_FILE:obs_diff> BENCH_${bench}.json ${ARGN}
           WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  sds_reads_reports(${bench}_report_keys ${bench})
endfunction()

# The cascade-engine counters exist only where the layer is compiled in.
if(SDS_OBS)
  set(fig8_counters
    dissem.emergent_brownouts dissem.breaker_open_transitions
    dissem.retries_suppressed_by_budget dissem.shed_replica_requests
    dissem.unavailable_requests spec.shed_speculative_docs
    spec.breaker_fast_fails spec.retries_suppressed_by_budget
    spec.emergent_brownouts)
endif()
sds_add_report_keys(fig8_resilience
  availability_off_worst availability_full_worst retry_amp_off_worst
  retry_amp_full_worst cascade_depth_off_worst cascade_depth_full_worst
  emergent_brownouts_off_worst emergent_brownouts_full_worst
  spec_shed_speculative_docs spec_breaker_fast_fails ${fig8_counters})
sds_add_report_keys(fig9_balance
  imbalance_static imbalance_d2 imbalance_proximity imbalance_p99_static
  imbalance_p99_d2 saved_static saved_d2 saved_proximity
  availability_static_faulted availability_d2_faulted d1_bit_identical)
sds_add_report_keys(scale_stream
  series_request_growth series_rss_ratio series_1x_rss_bytes
  series_10x_rss_bytes headline_clients headline_requests headline_s
  headline_rps headline_rss_bytes total_s requests_replayed throughput_rps
  peak_rss_bytes)

# bench_history takes a smoke report only with its uniform keys
# (requests_replayed, throughput_rps, peak_rss_bytes > 0); its second run
# re-reads the trajectory the first one wrote.
add_test(NAME bench_history_reads_smoke_reports
         COMMAND sh -c "rm -f \"$1\" && \"$0\" --label smoke --out \"$@\" && \
\"$0\" --label smoke --out \"$@\""
                 $<TARGET_FILE:bench_history>
                 ${CMAKE_BINARY_DIR}/gates/smoke_trajectory.json
                 BENCH_fig5_speculation_baseline.json
                 BENCH_fig7_availability.json BENCH_fig8_resilience.json
                 BENCH_fig9_balance.json
         WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
sds_reads_reports(bench_history_reads_smoke_reports
                  fig5_speculation_baseline fig7_availability fig8_resilience
                  fig9_balance)
file(MAKE_DIRECTORY ${CMAKE_BINARY_DIR}/gates)
file(WRITE ${CMAKE_BINARY_DIR}/gates/no_throughput.json
     "{\"name\": \"x\", \"requests_replayed\": 1, \"peak_rss_bytes\": 1}\n")
sds_add_bench_rejects(bench_history_rejects_missing_key bench_history
                      --label x --out ${CMAKE_BINARY_DIR}/gates/never.json
                      ${CMAKE_BINARY_DIR}/gates/no_throughput.json)

# Cross-run gates: each runs its benches in its own directory under
# build/gates/, so none of them races the smoke entries for a report.
set(bench_dir ${CMAKE_BINARY_DIR}/bench)
set(obs_diff ${CMAKE_BINARY_DIR}/tools/obs_diff)
function(sds_add_gate name script)
  file(MAKE_DIRECTORY ${CMAKE_BINARY_DIR}/gates/${name})
  add_test(NAME ${name} COMMAND sh -c "set -e; ${script}"
           WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/gates/${name})
endfunction()

# The microbenchmarks run and write parseable JSON (obs_diff parses both
# sides; a file always matches itself).
sds_add_gate(micro_kernels_smoke_json "\
${bench_dir}/micro_kernels --smoke --json
${obs_diff} BENCH_micro_kernels.json BENCH_micro_kernels.json")

# The gates below read what the observability layer writes; with the
# layer compiled out they would compare nothing, so that build checks
# instead that the observability flags are inert.
if(SDS_OBS)
  # Batch and streaming replays count the same flows at every sweep point;
  # the delta-cache counters exist in batch mode only ('**' reaches both
  # metrics/counters/ and metrics/points/N/).
  sds_add_gate(fig5_stream_flow_counters "\
${bench_dir}/fig5_speculation_baseline --smoke --audit
cp BENCH_fig5_speculation_baseline.json batch.json
${bench_dir}/fig5_speculation_baseline --smoke --audit --stream
${obs_diff} batch.json BENCH_fig5_speculation_baseline.json \
--only 'metrics/counters/**' --only 'metrics/points/**' \
--ignore '**/spec.delta_cache.*'")

  # Arming the audit ledger moves no simulated number: only the metrics
  # section (absent without --obs) and the audit_* keys may differ.
  sds_add_gate(fig9_audit_transparency "\
${bench_dir}/fig9_balance --smoke
cp BENCH_fig9_balance.json plain.json
${bench_dir}/fig9_balance --smoke --audit
${obs_diff} plain.json BENCH_fig9_balance.json --preset bench \
--ignore 'metrics/**' --ignore 'audit_*'")

  # Two identical --obs runs write the same report, metrics included.
  sds_add_gate(fig9_obs_reproducible "\
${bench_dir}/fig9_balance --smoke --obs
cp BENCH_fig9_balance.json first.json
${bench_dir}/fig9_balance --smoke --obs
${obs_diff} first.json BENCH_fig9_balance.json --preset bench")

  # fig5 writes every exporter's file and a report with a metrics section,
  # and obs_report renders its counters, stages and journeys.
  sds_add_gate(obs_report_sections "\
${bench_dir}/fig5_speculation_baseline --smoke --obs \
--chrome-trace-out chrome.json --timeseries-out timeseries.csv \
--journeys-out journeys.json --prom-out metrics.prom
${CMAKE_BINARY_DIR}/tools/obs_report BENCH_fig5_speculation_baseline.json \
--trace chrome.json --journeys journeys.json --out report.md
grep -q '### Counters' report.md
grep -q '## Trace stages' report.md
grep -q '## Sampled journeys' report.md")
else()
  # With the layer compiled out, the observability flags are inert: the
  # bench runs, exits 0 and writes none of the files.
  sds_add_gate(fig5_obs_flags_inert "\
rm -f never.csv never.prom never_chrome.json never_journeys.json \
never_flight.json
${bench_dir}/fig5_speculation_baseline --smoke --obs \
--timeseries-out never.csv --prom-out never.prom \
--chrome-trace-out never_chrome.json --journeys-out never_journeys.json
test ! -s never.csv
test ! -s never.prom
test ! -e never_chrome.json
test ! -e never_journeys.json
SDS_AUDIT=strict ${bench_dir}/fig5_speculation_baseline --smoke --audit \
--flightrec-out never_flight.json
test ! -s never_flight.json")
endif()
