// Offline CLOG-2 happens-before checker (the pilot-tracecheck tool's
// engine). Reconstructs the partial order of a finished (or salvaged) trace
// with per-rank vector clocks built from the send/recv arrow records, then
// reports (see docs/ANALYZE.md for the full catalogue):
//
//   TC101/TC102  unmatched sends / receives,
//   TC103/TC104  clock or causality anomalies between matched halves,
//   TC201        wildcard-receive race: two sends concurrent under the
//                clock ordering that could satisfy one receive,
//   TC202        serialized fan-in: a receiver's multi-partner rounds whose
//                sends are totally ordered *through the receiver itself*
//                (each next send causally after the receiver consumed the
//                previous one) — the paper's Instance A shape,
//   TC203        majority-idle stall: most ranks simultaneously blocked in
//                read-family states for a long stretch — the paper's
//                Instance B shape,
//   TC301        wait-for-graph cycle from "Wait" events (-pisvc=a traces):
//                post-mortem deadlock explanation,
//   TC401..404   per-state interval anomalies (logger/user-state bugs).
//
// TC202/TC203 are structural and timing views of the same disease — workers
// starved by an over-serialized main — and between them they flag both
// buggy collision-query instances while staying silent on the fixed
// variant and the clean thumbnail/lab2 traces.
#pragma once

#include "analyze/diagnostics.hpp"
#include "clog2/clog2.hpp"

namespace analyze {

struct TraceCheckOptions {
  /// TC203 fires only when majority-blocked time covers at least this
  /// fraction of the trace span...
  double stall_fraction = 0.25;
  /// ...and some single contiguous majority-blocked stretch lasts at least
  /// this many (trace-clock) seconds. The absolute guard keeps wall-noise
  /// from dominating tiny traces.
  double min_stall_seconds = 0.02;
  /// TC202 fires only with at least this many serialized fan-in rounds
  /// (and only when they are at least half of all multi-partner rounds).
  int min_serialized_rounds = 2;
  /// Worker threads for the trace build
  /// (0 = one per hardware thread). The verdict is byte-identical at any
  /// value — parallelism never changes the report.
  int threads = 1;
};

Report check_trace(const clog2::File& file, const TraceCheckOptions& opts = {});

}  // namespace analyze
