// Message matching and vector clocks, lifted out of pilot-tracecheck so the
// differ (and any future analysis) shares the exact same causal engine.
//
// match_messages pairs the i-th send half with the i-th receive half per
// (sender, receiver, tag) — the wildcard-free FIFO matching a correct Pilot
// run guarantees. Pairing is per key, not per merged-stream position, so a
// receive whose corrected timestamp sorts a hair before its send still
// matches. It walks the message steps of a query::Trace (the view every
// analysis pass already builds); the clog2::File overload flattens only the
// message records and runs the same matcher. stamp_clocks then replays the
// per-rank message-op sequences round-robin, assigning each op a vector
// stamp; a receive waits for its send's stamp unless the matched messages
// form a causal cycle (corrupt trace), in which case stamping degrades to
// unjoined ticks and the caller is told.
//
// The algorithms are byte-for-byte the ones tracecheck always used; its
// verdict on every existing fixture is pinned by golden tests.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "clog2/clog2.hpp"
#include "query/trace.hpp"

namespace query {

using Clock = std::vector<std::uint64_t>;

/// Component-wise a <= b (a happened-before-or-equals b).
bool clock_leq(const Clock& a, const Clock& b);
bool clock_concurrent(const Clock& a, const Clock& b);

struct MatchedMsg {
  double send_time = 0.0;
  double recv_time = 0.0;
  int sender = 0;
  int receiver = 0;
  int tag = 0;
  std::uint32_t size = 0;  ///< payload bytes (from the send half)
  bool matched = false;
  bool stamped = false;
  Clock send_stamp;
  Clock recv_stamp;  ///< receiver's clock just after consuming the message
};

struct MsgOp {
  enum class Kind { kSend, kRecv } kind = Kind::kSend;
  std::size_t msg = 0;  ///< index into MsgGraph::msgs
};

/// (sender, receiver, tag) — the FIFO matching key.
using TagKey = std::tuple<int, int, int>;

struct MsgGraph {
  int nranks = 0;
  /// Every send half, in stream order.
  std::vector<MatchedMsg> msgs;
  /// Per-rank message ops in stream order (receives only when matched).
  std::vector<std::vector<MsgOp>> ops;
  /// Sends still in flight at end of trace (unreceived), FIFO per key.
  /// Keys whose FIFO drained to empty remain present — iteration order over
  /// all keys ever seen is part of the pinned diagnostic order.
  std::map<TagKey, std::vector<std::size_t>> unreceived;
  /// Receives that never found a send, counted per key.
  std::map<TagKey, std::size_t> unmatched_recvs;
};

/// Pass 1: match sends with receives (FIFO per sender/receiver/tag) over the
/// trace's steps in stream order, with one op list per rank of the trace.
MsgGraph match_messages(const Trace& trace);

/// The same matching straight from a file, for callers that hold no Trace:
/// one walk over the records applies the Trace build's rank check (throwing
/// util::IoError alike) and keeps the message halves, then the matcher
/// above runs on them. `nranks_floor` widens the rank vector past the
/// header's count.
MsgGraph match_messages(const clog2::File& file, int nranks_floor = 0);

/// Pass 2: stamp vector clocks over the matched order. Returns true when the
/// matched messages formed a causal cycle and stamping was forced through
/// (stamps are approximate from the first forced receive on).
bool stamp_clocks(MsgGraph& graph);

/// Runs the serial stamp_clocks(graph) above; `threads` is ignored. Kept
/// only for the perfbench postmortem workload, which passes a thread count.
inline bool stamp_clocks(MsgGraph& graph, int /*threads*/) {
  return stamp_clocks(graph);
}

}  // namespace query
