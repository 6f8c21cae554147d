// Serial reference implementations of the sharded src/query operations.
//
// src/query keeps one implementation of each operation: the Trace build,
// state_durations, and message_edges shard their work across a thread count
// and promise output identical to a plain in-order pass at any count. These
// are those plain passes, kept here as test oracles: one loop over the
// records, steps, or messages in stream order, with no sharding at all.
#pragma once

#include <algorithm>
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

}  // namespace query_oracle
