#!/bin/sh
# Perf smoke leg: build bench_pipeline_scale, run it at the small trace size
# only, and fail if single-thread convert throughput regressed by more than
# 2x against the checked-in baseline (bench/baseline_pipeline.json). The 2x
# margin absorbs machine-to-machine variance while still catching an
# accidental O(n log n) -> O(n^2) (or allocation-storm) regression.
#
# A second gate runs bench_world_scale --quick=1 and compares the 1024-rank
# task-substrate wall time against bench/baseline_world_scale.json the same
# way — the canary for a thundering-herd (quadratic-dispatch) regression in
# the task scheduler.
#
# A third gate runs bench_tracediff at the small size and compares diff
# throughput against bench/baseline_tracediff.json — the differ pairs
# messages per edge and must stay linear in trace size. The bench also exits
# nonzero if the truncated rank fails to top the suspect list, so this leg
# guards localization correctness too.
#
# A fourth gate runs bench_traced and compares single-session streaming
# ingest throughput against bench/baseline_traced.json; the bench itself
# exits nonzero when the online converter's output diverges from the
# offline converter or its live memory exceeds the documented bound, so
# this leg guards the pilot-traced correctness canaries too.
#
# A fifth gate runs bench_compress and holds the v2 frame-payload
# compression ratio to its absolute 3x floor plus the usual 2x decode
# throughput margin against bench/baseline_compress.json; the bench exits
# nonzero if the v1 and v2 rollups disagree, guarding codec correctness.
#
# A sixth gate runs bench_query_scale: the sharded query engine must
# produce byte-identical results at 1 and hardware_threads workers (the
# bench exits nonzero otherwise), warm re-sweeps must be served from the
# shared FrameCache with zero new misses, 1-worker rollup throughput gets
# the usual 2x margin, and — on machines with >= 4 hardware threads — the
# million-event rollup must run at least 1.5x faster at hardware_threads
# workers than at one.
#
# The bench itself also exits nonzero if either determinism invariant breaks
# (k-way merge vs sort path, or the thread sweep), so this leg guards
# correctness as well as speed.
#
# Usage: tools/ci_bench.sh [--small=EVENTS]
set -eu

cd "$(dirname "$0")/.."

SMALL=100000
for arg in "$@"; do
  case "$arg" in
    --small=*) SMALL="${arg#--small=}" ;;
    *) echo "usage: $0 [--small=EVENTS]" >&2; exit 2 ;;
  esac
done

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target bench_pipeline_scale bench_world_scale bench_tracediff bench_traced bench_compress bench_query_scale

# Run in a scratch dir so bench_out/ does not pollute the source tree.
RUN_DIR=$(mktemp -d)
trap 'rm -rf "$RUN_DIR"' EXIT
(cd "$RUN_DIR" && "$OLDPWD/build/bench/bench_pipeline_scale" \
  --small="$SMALL" --large=0 --threads-max=2)

# Pull one flat scalar out of a JsonReport file without a JSON parser.
json_num() {
  sed -n "s/^  \"$2\": \([0-9.eE+-]*\),*$/\1/p" "$1"
}

CURRENT=$(json_num "$RUN_DIR/bench_out/BENCH_pipeline.json" convert_events_per_sec_t1_small)
BASELINE=$(json_num bench/baseline_pipeline.json convert_events_per_sec_t1_small)
[ -n "$CURRENT" ] || { echo "FAIL: no convert throughput in bench output" >&2; exit 1; }
[ -n "$BASELINE" ] || { echo "FAIL: no baseline throughput in bench/baseline_pipeline.json" >&2; exit 1; }

echo "convert throughput: current ${CURRENT} events/s, baseline ${BASELINE} events/s"
# Fail when current * 2 < baseline (i.e. >2x slower), in integer arithmetic.
CUR_INT=$(printf '%.0f' "$CURRENT")
BASE_INT=$(printf '%.0f' "$BASELINE")
if [ $((CUR_INT * 2)) -lt "$BASE_INT" ]; then
  echo "FAIL: convert throughput regressed >2x vs baseline" >&2
  exit 1
fi

# World-scale gate: the quick sweep still covers 1024 task-scheduled ranks.
# Wall time is a "lower is better" metric, so the 2x check flips direction.
(cd "$RUN_DIR" && "$OLDPWD/build/bench/bench_world_scale" --quick=1)

TASKS_FEASIBLE=$(sed -n 's/^  "tasks_r1024_feasible": \(.*\),*$/\1/p' \
  "$RUN_DIR/bench_out/BENCH_world_scale.json" | tr -d ',')
[ "$TASKS_FEASIBLE" = "true" ] || {
  echo "FAIL: 1024-rank task-substrate run did not complete" >&2; exit 1; }

CUR_MS=$(json_num "$RUN_DIR/bench_out/BENCH_world_scale.json" tasks_r1024_ms)
BASE_MS=$(json_num bench/baseline_world_scale.json tasks_r1024_ms)
[ -n "$CUR_MS" ] || { echo "FAIL: no tasks_r1024_ms in bench output" >&2; exit 1; }
[ -n "$BASE_MS" ] || {
  echo "FAIL: no tasks_r1024_ms in bench/baseline_world_scale.json" >&2; exit 1; }

echo "1024-rank tasks wall time: current ${CUR_MS} ms, baseline ${BASE_MS} ms"
CUR_MS_INT=$(printf '%.0f' "$CUR_MS")
BASE_MS_INT=$(printf '%.0f' "$BASE_MS")
if [ "$CUR_MS_INT" -gt $((BASE_MS_INT * 2)) ]; then
  echo "FAIL: 1024-rank task-substrate wall time regressed >2x vs baseline" >&2
  exit 1
fi

# Trace-diff gate: small trace only; the bench itself fails the run when the
# truncated rank is not the #1 suspect.
(cd "$RUN_DIR" && "$OLDPWD/build/bench/bench_tracediff" \
  --small="$SMALL" --large=0)

CUR_DIFF=$(json_num "$RUN_DIR/bench_out/BENCH_tracediff.json" diff_records_per_sec_small)
BASE_DIFF=$(json_num bench/baseline_tracediff.json diff_records_per_sec_small)
[ -n "$CUR_DIFF" ] || { echo "FAIL: no diff throughput in bench output" >&2; exit 1; }
[ -n "$BASE_DIFF" ] || {
  echo "FAIL: no diff throughput in bench/baseline_tracediff.json" >&2; exit 1; }

echo "tracediff throughput: current ${CUR_DIFF} records/s, baseline ${BASE_DIFF} records/s"
CUR_DIFF_INT=$(printf '%.0f' "$CUR_DIFF")
BASE_DIFF_INT=$(printf '%.0f' "$BASE_DIFF")
if [ $((CUR_DIFF_INT * 2)) -lt "$BASE_DIFF_INT" ]; then
  echo "FAIL: tracediff throughput regressed >2x vs baseline" >&2
  exit 1
fi

# Streaming-ingest gate: the online converter must keep its byte-identity
# canary (the bench exits nonzero otherwise), stay within its live-memory
# bound, and hold single-session ingest throughput within 2x of baseline.
(cd "$RUN_DIR" && "$OLDPWD/build/bench/bench_traced" --small="$SMALL")

MATCHES=$(sed -n 's/^  "online_matches_offline": \(.*\),*$/\1/p' \
  "$RUN_DIR/bench_out/BENCH_traced.json" | tr -d ',')
[ "$MATCHES" = "true" ] || {
  echo "FAIL: online conversion diverged from offline" >&2; exit 1; }

CUR_ING=$(json_num "$RUN_DIR/bench_out/BENCH_traced.json" ingest_records_per_sec_single)
BASE_ING=$(json_num bench/baseline_traced.json ingest_records_per_sec_single)
[ -n "$CUR_ING" ] || { echo "FAIL: no ingest throughput in bench output" >&2; exit 1; }
[ -n "$BASE_ING" ] || {
  echo "FAIL: no ingest throughput in bench/baseline_traced.json" >&2; exit 1; }

echo "traced ingest throughput: current ${CUR_ING} records/s, baseline ${BASE_ING} records/s"
CUR_ING_INT=$(printf '%.0f' "$CUR_ING")
BASE_ING_INT=$(printf '%.0f' "$BASE_ING")
if [ $((CUR_ING_INT * 2)) -lt "$BASE_ING_INT" ]; then
  echo "FAIL: traced ingest throughput regressed >2x vs baseline" >&2
  exit 1
fi

# Compression gate: the v2 frame-payload ratio must hold its floor (the
# bench itself exits nonzero if the v1/v2 rollups disagree), and v2 decode
# throughput gets the usual 2x regression margin. The ratio is a property
# of the codec, not the machine, so it is gated against an absolute floor
# rather than the baseline file.
(cd "$RUN_DIR" && "$OLDPWD/build/bench/bench_compress" \
  --small="$SMALL" --large=0 --huge=0)

CUR_RATIO=$(json_num "$RUN_DIR/bench_out/BENCH_compress.json" payload_ratio_small)
[ -n "$CUR_RATIO" ] || { echo "FAIL: no payload ratio in bench output" >&2; exit 1; }
echo "v2 payload ratio: current ${CUR_RATIO}x (floor 3x)"
# Portable float-vs-3 compare without bc: scale by 100 via awk.
CUR_RATIO_X100=$(awk -v r="$CUR_RATIO" 'BEGIN { printf "%.0f", r * 100 }')
if [ "$CUR_RATIO_X100" -lt 300 ]; then
  echo "FAIL: v2 frame-payload ratio ${CUR_RATIO}x below the 3x floor" >&2
  exit 1
fi

CUR_DEC=$(json_num "$RUN_DIR/bench_out/BENCH_compress.json" decode_mb_per_sec_v2_small)
BASE_DEC=$(json_num bench/baseline_compress.json decode_mb_per_sec_v2_small)
[ -n "$CUR_DEC" ] || { echo "FAIL: no v2 decode throughput in bench output" >&2; exit 1; }
[ -n "$BASE_DEC" ] || {
  echo "FAIL: no v2 decode throughput in bench/baseline_compress.json" >&2; exit 1; }

echo "v2 decode throughput: current ${CUR_DEC} MB/s, baseline ${BASE_DEC} MB/s"
CUR_DEC_INT=$(printf '%.0f' "$CUR_DEC")
BASE_DEC_INT=$(printf '%.0f' "$BASE_DEC")
if [ $((CUR_DEC_INT * 2)) -lt "$BASE_DEC_INT" ]; then
  echo "FAIL: v2 decode throughput regressed >2x vs baseline" >&2
  exit 1
fi

# Query-engine gate: the bench exits nonzero when any hardware_threads
# result diverges from its 1-worker twin, so a pass already certifies
# byte-identity.
(cd "$RUN_DIR" && "$OLDPWD/build/bench/bench_query_scale" --small="$SMALL")

QS_JSON="$RUN_DIR/bench_out/BENCH_query_scale.json"
QS_IDENTICAL=$(sed -n 's/^  "parallel_matches_serial": \(.*\),*$/\1/p' \
  "$QS_JSON" | tr -d ',')
[ "$QS_IDENTICAL" = "true" ] || {
  echo "FAIL: sharded query results diverged across worker counts" >&2; exit 1; }

QS_CACHE=$(sed -n 's/^  "cache_hit_canary": \(.*\),*$/\1/p' "$QS_JSON" | tr -d ',')
[ "$QS_CACHE" = "true" ] || {
  echo "FAIL: warm re-sweep was not served from the shared FrameCache" >&2
  exit 1
}

CUR_ROLLUP=$(json_num "$QS_JSON" rollup_events_per_sec_t1_small)
BASE_ROLLUP=$(json_num bench/baseline_query_scale.json rollup_events_per_sec_t1_small)
[ -n "$CUR_ROLLUP" ] || { echo "FAIL: no rollup throughput in bench output" >&2; exit 1; }
[ -n "$BASE_ROLLUP" ] || {
  echo "FAIL: no rollup throughput in bench/baseline_query_scale.json" >&2; exit 1; }

echo "1-worker rollup throughput: current ${CUR_ROLLUP} steps/s, baseline ${BASE_ROLLUP} steps/s"
CUR_ROLLUP_INT=$(printf '%.0f' "$CUR_ROLLUP")
BASE_ROLLUP_INT=$(printf '%.0f' "$BASE_ROLLUP")
if [ $((CUR_ROLLUP_INT * 2)) -lt "$BASE_ROLLUP_INT" ]; then
  echo "FAIL: 1-worker rollup throughput regressed >2x vs baseline" >&2
  exit 1
fi

# The speedup floor is a claim about parallel hardware; a 1- or 2-core CI
# runner cannot exhibit it, so the gate arms only at >= 4 hardware threads.
QS_HW=$(json_num "$QS_JSON" hardware_threads)
if [ -n "$QS_HW" ] && [ "$QS_HW" -ge 4 ]; then
  QS_ROLLUP_SPD=$(json_num "$QS_JSON" rollup_speedup_thw_large)
  [ -n "$QS_ROLLUP_SPD" ] || {
    echo "FAIL: missing large-size rollup speedup in bench output" >&2; exit 1; }
  echo "${QS_HW}-worker rollup speedup (10^6 events): ${QS_ROLLUP_SPD}x (floor 1.5x)"
  SPD_X100=$(awk -v s="$QS_ROLLUP_SPD" 'BEGIN { printf "%.0f", s * 100 }')
  if [ "$SPD_X100" -lt 150 ]; then
    echo "FAIL: ${QS_HW}-worker rollup speedup ${QS_ROLLUP_SPD}x below the 1.5x floor" >&2
    exit 1
  fi
else
  echo "rollup speedup gate skipped (hardware_threads=${QS_HW:-unknown} < 4)"
fi
echo "perf smoke leg OK"
