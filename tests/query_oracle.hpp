// Serial reference implementations of the sharded src/query operations.
//
// src/query keeps one implementation of each operation: the Trace build,
// state_durations, and message_edges shard their work across a thread count
// and promise output identical to a plain in-order pass at any count. These
// are those plain passes, kept here as test oracles: one loop over the
// records, steps, or messages in stream order, with no sharding at all.
//
// Two more oracles keep the analysis passes' former record-level forms:
// the message matcher that walked the clog2::File records with a std::map
// per message half, and pilot-tracediff's projection of each rank into
// comparison-key strings. query::match_messages and diff_traces' in-place
// step comparison must agree with them exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "clog2/clog2.hpp"
#include "query/clocks.hpp"
#include "query/rollup.hpp"
#include "query/trace.hpp"
#include "util/strings.hpp"

namespace query_oracle {

/// Everything query::Trace indexes, built by one serial scan.
struct TraceIndex {
  int nranks = 0;
  std::vector<query::Step> steps;
  std::vector<std::vector<std::size_t>> by_rank;
  std::map<std::int32_t, query::StateEvent> state_events;
  std::map<std::int32_t, std::string> state_names;
  std::map<std::string, std::int32_t> solo_event_ids;
  bool have_span = false;
  double t_min = 0.0;
  double t_max = 0.0;
};

inline TraceIndex build_trace(const clog2::File& file) {
  TraceIndex t;
  int max_rank = file.nranks - 1;
  t.steps.reserve(file.records.size());
  for (const auto& rec : file.records) {
    query::Step s;
    if (const auto* sd = std::get_if<clog2::StateDef>(&rec)) {
      t.state_events[sd->start_event_id] = {sd->state_id, sd->name, true};
      t.state_events[sd->end_event_id] = {sd->state_id, sd->name, false};
      t.state_names[sd->state_id] = sd->name;
      continue;
    }
    if (const auto* ed = std::get_if<clog2::EventDef>(&rec)) {
      t.solo_event_ids[ed->name] = ed->event_id;
      continue;
    }
    if (const auto* ev = std::get_if<clog2::EventRec>(&rec)) {
      s.time = ev->timestamp;
      s.rank = ev->rank;
      s.kind = query::StepKind::kEvent;
      s.event_id = ev->event_id;
      s.text = &ev->text;
      max_rank = std::max(max_rank, ev->rank);
    } else if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) {
      s.time = m->timestamp;
      s.rank = m->rank;
      s.kind = m->kind == clog2::MsgRec::Kind::kSend ? query::StepKind::kSend
                                                     : query::StepKind::kRecv;
      s.partner = m->partner;
      s.tag = m->tag;
      s.size = m->size;
      max_rank = std::max(max_rank, m->rank);
    } else if (const auto* sy = std::get_if<clog2::SyncRec>(&rec)) {
      // Sync ranks deliberately do not widen the trace.
      s.time = sy->local_time;
      s.rank = sy->rank;
      s.kind = query::StepKind::kSync;
    } else {
      continue;
    }
    t.steps.push_back(s);
  }
  t.nranks = max_rank + 1;

  for (const query::Step& s : t.steps) {
    if (s.kind == query::StepKind::kSync) continue;
    if (!t.have_span) {
      t.t_min = t.t_max = s.time;
      t.have_span = true;
    } else {
      t.t_min = std::min(t.t_min, s.time);
      t.t_max = std::max(t.t_max, s.time);
    }
  }

  if (t.nranks > 0) t.by_rank.resize(static_cast<std::size_t>(t.nranks));
  for (std::size_t i = 0; i < t.steps.size(); ++i) {
    const std::int32_t r = t.steps[i].rank;
    if (r >= 0 && r < t.nranks) t.by_rank[static_cast<std::size_t>(r)].push_back(i);
  }
  return t;
}

/// One LIFO stack sweep over the whole step stream in merged order.
inline query::StateDurations state_durations(const query::Trace& trace) {
  query::StateDurations out;
  std::map<std::pair<int, std::int32_t>, std::vector<double>> open;
  for (const query::Step& s : trace.steps()) {
    if (s.kind != query::StepKind::kEvent) continue;
    const query::StateEvent* se = trace.state_event(s.event_id);
    if (se == nullptr) continue;
    const std::pair<int, std::int32_t> key{s.rank, se->state_id};
    auto& stack = open[key];
    if (se->is_start) {
      stack.push_back(s.time);
      continue;
    }
    if (stack.empty()) continue;
    const double t0 = stack.back();
    stack.pop_back();
    const double dur = std::max(0.0, s.time - t0);
    query::StateStats& stats = out.by_rank_state[key];
    ++stats.count;
    stats.total_seconds += dur;
    ++stats.histogram[query::duration_bucket(dur)];
  }
  return out;
}

/// One fold over the messages in graph order.
inline query::MessageEdges message_edges(const query::MsgGraph& graph) {
  query::MessageEdges out;
  for (const query::MatchedMsg& m : graph.msgs) {
    query::EdgeStats& e = out.edges[{m.sender, m.receiver, m.tag}];
    ++e.sent;
    e.bytes += m.size;
    if (m.matched) {
      ++e.matched;
      e.total_latency += m.recv_time - m.send_time;
    }
  }
  return out;
}

/// Message matching over the raw records: three walks over the variant
/// records and a std::map lookup per message half.
inline query::MsgGraph match_messages(const clog2::File& file,
                                      int nranks_floor = 0) {
  using query::MatchedMsg;
  using query::MsgGraph;
  using query::MsgOp;
  using query::TagKey;
  MsgGraph g;
  int max_rank = std::max(file.nranks, nranks_floor) - 1;
  for (const auto& rec : file.records) {
    if (const auto* ev = std::get_if<clog2::EventRec>(&rec))
      max_rank = std::max(max_rank, ev->rank);
    else if (const auto* m = std::get_if<clog2::MsgRec>(&rec))
      max_rank = std::max(max_rank, m->rank);
  }
  g.nranks = max_rank + 1;
  if (g.nranks <= 0) return g;
  g.ops.resize(static_cast<std::size_t>(g.nranks));

  // Pass A: register every send, in per-key FIFO order. Pairing works off
  // these per-key lists rather than the merged interleaving: per-rank clock
  // correction can skew a receive's timestamp a hair *before* its send in
  // the merged file, and a one-pass matcher would then drop the receive and
  // shift every later pair on that edge by one.
  struct KeyState {
    std::vector<std::size_t> sends;  ///< msg indices, per-key FIFO order
    std::size_t sends_seen = 0;      ///< pass-B cursor over `sends`
    std::size_t recvs_seen = 0;      ///< receives consumed so far
  };
  std::map<TagKey, KeyState> keys;
  for (const auto& rec : file.records) {
    const auto* m = std::get_if<clog2::MsgRec>(&rec);
    if (m == nullptr || m->kind != clog2::MsgRec::Kind::kSend) continue;
    MatchedMsg msg;
    msg.send_time = m->timestamp;
    msg.sender = m->rank;
    msg.receiver = m->partner;
    msg.tag = m->tag;
    msg.size = m->size;
    g.msgs.push_back(msg);
    keys[{m->rank, m->partner, m->tag}].sends.push_back(g.msgs.size() - 1);
  }

  // Pass B: walk the stream again, consuming each key's i-th send for its
  // i-th receive and emitting per-rank ops in stream order.
  for (const auto& rec : file.records) {
    const auto* m = std::get_if<clog2::MsgRec>(&rec);
    if (m == nullptr) continue;
    if (m->kind == clog2::MsgRec::Kind::kSend) {
      KeyState& ks = keys[{m->rank, m->partner, m->tag}];
      const std::size_t idx = ks.sends[ks.sends_seen++];
      g.ops[static_cast<std::size_t>(m->rank)].push_back(
          {MsgOp::Kind::kSend, idx});
    } else {
      const TagKey key{m->partner, m->rank, m->tag};
      const auto it = keys.find(key);
      if (it == keys.end() || it->second.recvs_seen >= it->second.sends.size()) {
        ++g.unmatched_recvs[key];
        if (it != keys.end()) ++it->second.recvs_seen;
        continue;
      }
      const std::size_t idx = it->second.sends[it->second.recvs_seen++];
      g.msgs[idx].matched = true;
      g.msgs[idx].recv_time = m->timestamp;
      g.ops[static_cast<std::size_t>(m->rank)].push_back({MsgOp::Kind::kRecv, idx});
    }
  }

  // Sends still in flight: each key's unconsumed FIFO suffix. Keys whose
  // FIFO drained stay present — the pinned diagnostic order.
  for (const auto& [key, ks] : keys) {
    auto& fifo = g.unreceived[key];
    const std::size_t taken = std::min(ks.sends.size(), ks.recvs_seen);
    fifo.assign(ks.sends.begin() + static_cast<std::ptrdiff_t>(taken),
                ks.sends.end());
  }
  return g;
}

/// pilot-tracediff's timestamp-free projection of each rank in [0, nranks)
/// as comparison-key strings: "E <event id> <popup text with floats
/// masked>" (the "%s" stops the text at its first NUL), "S|R <partner>
/// <tag> <size>" for message halves; syncs dropped.
inline std::vector<std::vector<std::string>> projection_keys(
    const query::Trace& trace, int nranks) {
  std::vector<std::vector<std::string>> out(
      static_cast<std::size_t>(std::max(nranks, 0)));
  for (const query::Step& st : trace.steps()) {
    if (st.kind == query::StepKind::kSync) continue;
    if (st.rank < 0 || static_cast<std::size_t>(st.rank) >= out.size()) continue;
    std::string key;
    switch (st.kind) {
      case query::StepKind::kEvent:
        key = util::strprintf("E %d %s", st.event_id,
                              util::mask_floats(*st.text).c_str());
        break;
      case query::StepKind::kSend:
        key = util::strprintf("S %d %d %u", st.partner, st.tag, st.size);
        break;
      case query::StepKind::kRecv:
        key = util::strprintf("R %d %d %u", st.partner, st.tag, st.size);
        break;
      case query::StepKind::kSync:
        continue;
    }
    out[static_cast<std::size_t>(st.rank)].push_back(std::move(key));
  }
  return out;
}

/// First index at which two key lists differ; the shorter list's length
/// when one is a prefix of the other (equal lists give their length).
inline std::size_t first_divergence(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

}  // namespace query_oracle
