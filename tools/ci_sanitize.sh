#!/bin/sh
# Configure, build, and test the whole tree under UndefinedBehaviorSanitizer
# (the cmake preset "sanitize-undefined"), then run the record/replay tests,
# the fault-chaos matrix, and the threaded clog2->slog2 converter under
# ThreadSanitizer ("sanitize-thread") — the replay engine and the fault
# injector coordinate every rank thread, and the converter fans work out
# across a worker pool, so their tests are the highest-value TSan targets.
# (The PipelineScale suite converts with --threads=8; its million-event
# PipelineLarge sibling stays out of the sanitizer legs by name.)
# Any sanitizer report fails the run.
#
# Usage: tools/ci_sanitize.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."

cmake --preset sanitize-undefined
cmake --build --preset sanitize-undefined -j "$(nproc)"

UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --preset sanitize-undefined "$@"

cmake --preset sanitize-thread
cmake --build --preset sanitize-thread -j "$(nproc)" \
  --target pilot_replay_test mpisim_test fault_test fault_chaos_test \
  pipeline_scale_test pilot_tasks_scale_test tracediff_localize_test \
  traced_test slog2_v2_roundtrip_test tracedigest_test query_parallel_test
# 'Mpisim' also picks up the MpisimTasks fiber-substrate suite, and
# TasksSubstrate runs the threads-vs-tasks comparison under TSan (the fiber
# side is annotated via __tsan_*_fiber). The thousand-rank TasksScale suite
# stays out by name — sanitizer slowdown would make it a timeout, not a test.
# 'TraceDiffLocalize' diffs whole faulted pilot jobs against their clean
# twin, driving the analyzer from the same process that ran the rank threads.
# 'Traced\.' covers the pilot-traced session/pool concurrency (8 producer
# threads + a query thread over the ingest worker pool); its million-event
# TracedScale sibling stays out by name like the other heavy suites.
# 'V2Codec|V2Differential|V2Online' exercise the columnar v2 frame codec
# through the threaded converter and the online seal path, and 'TraceDigest'
# drives pilot-tracedigest's analysis over both encodings; the million-event
# V2Scale sibling stays out by name like the other heavy suites.
# 'QueryParallel\.' runs every sharded query path (trace build, rollups,
# legend totals, window sweeps) at 0..8 workers against its serial oracle
# in tests/query_oracle.hpp, and
# 'FrameCacheConcurrency' hammers the process-wide decode cache from
# concurrent sessions; the million-event QueryParallelScale sibling stays
# out by name like the other heavy suites.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --preset sanitize-thread \
  -R 'Replay|Prl|CrossCheck|Mpisim|Fault|ChaosMatrix|PipelineScale\.|TasksSubstrate\.|TraceDiffLocalize\.|Traced\.|V2Codec|V2Differential|V2Online|TraceDigest|QueryParallel\.|FrameCacheConcurrency' "$@"
