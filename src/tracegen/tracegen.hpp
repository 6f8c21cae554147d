// Seeded synthetic CLOG-2 workload generator.
//
// Produces traces with the same shape finish_log emits — a definition
// block followed by a time-merged stream of state start/end instances,
// solo-event bubbles, and paired send/receive halves — at sizes the real
// mpisim workloads cannot reach in test time (10^5..10^7 instances). The
// pipeline benches sweep these through conversion and rendering, and the
// determinism tests hash multi-threaded conversions of them.
//
// Generation is a small discrete-event simulation driven by util::SplitMix64,
// so a (seed, options) pair yields a bit-identical file on every platform.
#pragma once

#include <cstdint>
#include <string>

#include "clog2/clog2.hpp"

namespace tracegen {

struct Options {
  std::uint64_t seed = 1;
  std::int32_t nranks = 8;  ///< 1..clog2::kMaxRanks
  /// Instance records (event + message halves) to emit — a floor: the
  /// generator then closes still-open states and delivers in-flight
  /// messages, so every send has a receive and every state an end.
  std::uint64_t events = 100000;
  /// Probability a step emits a message send instead of a state/solo event.
  /// Each send later yields a matching receive, so the arrow density of the
  /// converted file is roughly arrow_fraction * events / 2.
  double arrow_fraction = 0.2;
  /// Probability a non-message step is a solo event rather than a state
  /// transition.
  double solo_fraction = 0.1;
  int state_categories = 4;
  int solo_categories = 2;
  /// Maximum state nesting depth per rank.
  int max_depth = 3;
  /// Mean spacing between consecutive instances on one rank, seconds.
  double mean_step = 1e-5;
  std::string comment = "tracegen synthetic workload";
};

/// Generate the trace in memory (records globally time-ordered, like a
/// finish_log merge).
clog2::File generate(const Options& opts);

}  // namespace tracegen
