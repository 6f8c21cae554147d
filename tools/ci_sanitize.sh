#!/bin/sh
# Configure, build, and test the whole tree under UndefinedBehaviorSanitizer
# (the cmake preset "sanitize-undefined"), then run the record/replay tests,
# the fault-chaos matrix, and the clog2->slog2 converter under
# ThreadSanitizer ("sanitize-thread") — the replay engine and the fault
# injector coordinate every rank thread, so their tests are the
# highest-value TSan targets; the converter is one serial pass (pairing and
# the assemble() tail alike) and stays in the leg beside them — and finally
# the trace readers, their format suites and the converter under
# AddressSanitizer ("sanitize-address").
# (The PipelineScale suite still passes --threads=8, which conversion
# accepts and no longer reads; its million-event PipelineLarge sibling
# stays out of the sanitizer legs by name.)
# Any sanitizer report fails the run.
#
# Usage: tools/ci_sanitize.sh [extra ctest args...]
# Every ctest leg runs with -j "$(nproc)"; a -j among the extra arguments
# comes later on the command line and wins.
set -eu

cd "$(dirname "$0")/.."

cmake --preset sanitize-undefined
cmake --build --preset sanitize-undefined -j "$(nproc)"

UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --preset sanitize-undefined -j "$(nproc)" "$@"

cmake --preset sanitize-thread
cmake --build --preset sanitize-thread -j "$(nproc)" \
  --target pilot_replay_test mpisim_test fault_test fault_chaos_test \
  pipeline_scale_test pilot_tasks_scale_test tracediff_localize_test \
  traced_test slog2_v2_roundtrip_test tracedigest_test query_parallel_test \
  mpe_test
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
# through the serial converter and the online seal path, and 'TraceDigest'
# drives pilot-tracedigest's analysis over both encodings; the million-event
# V2Scale sibling stays out by name like the other heavy suites.
# 'QueryParallel\.' runs every sharded query path (trace build, rollups,
# legend totals) at 0..8 workers against its serial oracle in
# tests/query_oracle.hpp, holds the window sweeps (serial Navigator visits
# that accept and ignore a thread count) to a plain visit's feed, and
# 'FrameCacheConcurrency' hammers the process-wide decode cache from
# concurrent sessions; the million-event QueryParallelScale sibling stays
# out by name like the other heavy suites.
# 'MpeConcurrentDefs' defines events from one thread while every rank logs
# them: mpe::Logger checks event ids against a table published without a
# lock.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --preset sanitize-thread -j "$(nproc)" \
  -R 'Replay|Prl|CrossCheck|Mpisim|Fault|ChaosMatrix|PipelineScale\.|TasksSubstrate\.|TraceDiffLocalize\.|Traced\.|V2Codec|V2Differential|V2Online|TraceDigest|QueryParallel\.|FrameCacheConcurrency|MpeConcurrentDefs' "$@"

# ASan leg: every reader of the on-disk formats (the CLOG-2/SLOG-2 parsers,
# the lazy Navigator, the printers' stream_text, the v2 codec, and
# mpe::salvage over torn and bit-flipped spill files in 'FuzzSalvage') fed
# the fuzz suite's truncated, bit-flipped and hostile inputs, plus the tool
# end-to-end tests. FuzzSalvage runs no Pilot job, so the deliver_wire
# leak that keeps ChaosMatrix out (below) does not reach it. An out-of-bounds read in a reader shows up here as a
# report, not as a lucky pass. 'Render' draws hostile files and every
# reader's window order, and 'Traced\.' decodes sealed live chunks
# (including a corrupted spill file) for queries and renders; its
# million-event TracedScale sibling stays out by name. ChaosMatrix stays
# out until the 162-byte leak LeakSanitizer reports from
# pilot::Runtime::deliver_wire on a crash-injected rank thread is fixed (a
# separate ROADMAP item); the million-event V2Scale sibling stays out by
# name like the other heavy suites. 'TraceCheck(App)?\.|TraceDiff\.' and
# 'Query(Trace|Clocks|Rollup)' run the analysis passes: the pinned report
# hashes, the matcher and in-place diff against their record-level
# oracles, out-of-range ranks and partners (once an out-of-bounds index
# into the per-rank op lists, now a named reader error from every entry
# point), and the checker on whole Pilot app runs (TraceCheckApp: no crash
# injection, so no deliver_wire leak). 'Convert\.' and 'PipelineScale\.'
# run the one pairing pass (slog2::detail::Pairer) over hand-made edge
# cases and whole traces at every --threads value, and hold the conversion
# tail's in-place tree build and sorted Equal-Drawables scan to their
# serial oracle (tests/convert_oracle.hpp) on the same kinds of input.
# 'Mpe|ClockFit|RobustLog' and 'MpeGolden' run the MPE logger, which keeps
# each rank's records as CLOG-2 wire bytes and patches the clock-corrected
# timestamps inside those byte buffers: the encoded gather, merge, write,
# spill and salvage, with the merge also held to its record-level oracle
# (tests/merge_oracle.hpp) in 'PipelineScale\.'.
cmake --preset sanitize-address
cmake --build --preset sanitize-address -j "$(nproc)" \
  --target fault_fuzz_test slog2_test clog2_test slog2_v2_roundtrip_test \
  tools_test query_core_test jumpshot_test traced_test analyze_test \
  tracediff_test pipeline_scale_test mpe_test pilot_robust_log_test \
  mpe_golden_test
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ctest --preset sanitize-address -j "$(nproc)" \
  -R 'FuzzParsers|FuzzTools|FuzzSalvage|Navigator|Adversarial|Clog2|Slog2|V2Codec|V2Differential|V2Online|Tools\.|Render|Traced\.|TraceCheck(App)?\.|TraceDiff\.|Query(Trace|Clocks|Rollup)|Convert\.|PipelineScale\.|Mpe|ClockFit|RobustLog|MpeGolden' "$@"
