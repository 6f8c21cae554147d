#include "analyze/tracecheck.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "query/clocks.hpp"
#include "query/rollup.hpp"
#include "query/trace.hpp"
#include "util/strings.hpp"

namespace analyze {

namespace {

constexpr double kEps = 1e-9;

using query::Clock;
using query::clock_concurrent;
using query::clock_leq;
using query::Interval;

std::string rank_label(int rank) { return util::strprintf("rank %d", rank); }

}  // namespace

Report check_trace(const clog2::File& file, const TraceCheckOptions& opts) {
  Report rep;

  // One pass builds the typed view (definition tables, step stream, span);
  // the causal engine shared with pilot-tracediff does the matching and the
  // vector clocks. The verdict is pinned byte-for-byte by golden tests.
  const query::Trace trace(file, opts.threads);
  const int nranks = trace.nranks();
  if (nranks <= 0) return rep;

  std::int32_t wait_event_id = 0;
  bool have_wait_event = false;
  if (const auto id = trace.event_id_of("Wait")) {
    wait_event_id = *id;
    have_wait_event = true;
  }

  const std::set<std::string> read_family = {"PI_Read", "PI_Select", "PI_Gather",
                                             "PI_Reduce"};

  // --- pass 1: match sends with receives (FIFO per sender/receiver/tag) ----
  query::MsgGraph graph = query::match_messages(file);
  auto& msgs = graph.msgs;
  auto& ops = graph.ops;

  for (const auto& [key, fifo] : graph.unreceived) {
    if (fifo.empty()) continue;
    const auto [s, r, tag] = key;
    rep.add("TC101", Severity::kWarning,
            util::strprintf("%zu send(s) from rank %d to rank %d on tag %d were "
                            "never received",
                            fifo.size(), s, r, tag),
            rank_label(s));
  }
  for (const auto& [key, n] : graph.unmatched_recvs) {
    const auto [s, r, tag] = key;
    rep.add("TC102", Severity::kError,
            util::strprintf("%zu receive(s) on rank %d from rank %d on tag %d "
                            "have no matching send",
                            n, r, s, tag),
            rank_label(r));
  }

  // --- pass 2: vector clocks over the matched order ------------------------
  if (query::stamp_clocks(graph))
    rep.add("TC104", Severity::kError,
            "matched messages form a causal cycle; vector clocks are "
            "approximate from here on");

  // TC103: a matched receive that (on the corrected trace clock) precedes
  // its own send — clock sync failed or the logger mis-stamped.
  std::map<query::TagKey, std::size_t> clock_anomalies;
  for (const auto& m : msgs)
    if (m.matched && m.recv_time < m.send_time - kEps)
      ++clock_anomalies[{m.sender, m.receiver, m.tag}];
  for (const auto& [key, n] : clock_anomalies) {
    const auto [s, r, tag] = key;
    rep.add("TC103", Severity::kWarning,
            util::strprintf("%zu message(s) from rank %d to rank %d on tag %d "
                            "were received before they were sent (clock "
                            "anomaly)",
                            n, s, r, tag),
            rank_label(r));
  }

  // --- TC201: wildcard-receive races ---------------------------------------
  // Two sends headed for the same (receiver, tag) from different ranks that
  // are concurrent under the clock ordering: a wildcard receive could match
  // either, so the run is order-dependent.
  {
    std::map<std::pair<int, int>, std::vector<std::size_t>> by_dest;
    for (std::size_t i = 0; i < msgs.size(); ++i)
      if (msgs[i].matched) by_dest[{msgs[i].receiver, msgs[i].tag}].push_back(i);
    std::size_t budget = 20000;  // pairwise-comparison cap
    for (const auto& [dest, group] : by_dest) {
      bool raced = false;
      for (std::size_t a = 0; a < group.size() && !raced && budget > 0; ++a) {
        for (std::size_t b = a + 1; b < group.size() && budget > 0; ++b) {
          const auto& ma = msgs[group[a]];
          const auto& mb = msgs[group[b]];
          if (ma.sender == mb.sender) continue;
          --budget;
          if (clock_concurrent(ma.send_stamp, mb.send_stamp)) {
            rep.add("TC201", Severity::kWarning,
                    util::strprintf(
                        "sends from ranks %d and %d to rank %d on tag %d are "
                        "concurrent; a wildcard receive may match either",
                        ma.sender, mb.sender, dest.first, dest.second),
                    rank_label(dest.first));
            raced = true;
            break;
          }
        }
      }
    }
  }

  // --- TC202: serialized fan-in rounds (the Instance A shape) --------------
  // Group each receiver's matched receives into "rounds" — maximal runs of
  // distinct partners. A round whose sends are totally ordered means the
  // partners answered strictly one after another: the fan-in that should
  // have been parallel was serialized by the communication structure.
  for (std::size_t r = 0; r < ops.size(); ++r) {
    std::vector<std::vector<std::size_t>> rounds;
    std::set<int> seen;
    for (const auto& op : ops[r]) {
      if (op.kind != query::MsgOp::Kind::kRecv || !msgs[op.msg].matched) continue;
      const int partner = msgs[op.msg].sender;
      if (seen.contains(partner)) {
        rounds.emplace_back();
        seen.clear();
      }
      if (rounds.empty()) rounds.emplace_back();
      rounds.back().push_back(op.msg);
      seen.insert(partner);
    }
    int multi = 0;
    int serialized = 0;
    for (const auto& round : rounds) {
      std::set<int> partners;
      for (std::size_t i : round) partners.insert(msgs[i].sender);
      if (partners.size() < 2) continue;
      ++multi;
      bool any_concurrent = false;
      for (std::size_t a = 0; a < round.size() && !any_concurrent; ++a)
        for (std::size_t b = a + 1; b < round.size(); ++b) {
          if (msgs[round[a]].sender == msgs[round[b]].sender) continue;
          if (clock_concurrent(msgs[round[a]].send_stamp,
                               msgs[round[b]].send_stamp)) {
            any_concurrent = true;
            break;
          }
        }
      // The order must also be *receiver-gated*: each next partner's send
      // causally after this receiver consumed the previous one. That is the
      // write/read-paired loop of Instance A. A demand-driven farm also
      // totally orders its sends, but through the dispatcher, not through
      // the collecting rank — and must not be flagged.
      bool gated = true;
      for (std::size_t a = 0; a + 1 < round.size() && gated; ++a) {
        if (msgs[round[a]].sender == msgs[round[a + 1]].sender) continue;
        if (!clock_leq(msgs[round[a]].recv_stamp, msgs[round[a + 1]].send_stamp))
          gated = false;
      }
      if (!any_concurrent && gated) ++serialized;
    }
    if (serialized >= opts.min_serialized_rounds && 2 * serialized >= multi)
      rep.add("TC202", Severity::kWarning,
              util::strprintf(
                  "rank %d collected %d of %d multi-partner rounds in a fully "
                  "serialized order; the fan-in that should run in parallel is "
                  "sequential (Instance A shape)",
                  static_cast<int>(r), serialized, multi),
              rank_label(static_cast<int>(r)));
  }

  // --- state intervals: TC401..TC404 + blocked intervals for TC203 ---------
  const bool have_span = trace.has_span();
  const double span_begin = trace.t_min();
  const double span_end = trace.t_max();

  std::map<std::pair<int, std::int32_t>, std::vector<double>> open;  // start stack
  std::map<int, std::vector<Interval>> blocked;  // rank -> read-family intervals
  std::set<int> participants;
  std::set<std::pair<int, std::int32_t>> flagged_overlap, flagged_orphan,
      flagged_negative;

  // Terminal-wait tracking for TC301: the Wait events a rank logged with no
  // later activity are what it was blocked on when the trace ended.
  std::map<int, std::vector<std::pair<int, int>>> terminal_waits;  // chan, writer

  for (const query::Step& st : trace.steps()) {
    if (st.is_msg()) {
      terminal_waits[st.rank].clear();
      continue;
    }
    if (st.kind != query::StepKind::kEvent) continue;
    participants.insert(st.rank);

    if (have_wait_event && st.event_id == wait_event_id) {
      int chan = 0, writer = 0;
      if (std::sscanf(st.text->c_str(), "C%d<-R%d", &chan, &writer) == 2)
        terminal_waits[st.rank].emplace_back(chan, writer);
      continue;
    }
    terminal_waits[st.rank].clear();

    const query::StateEvent* sk = trace.state_event(st.event_id);
    if (sk == nullptr) continue;  // solo bubble
    const std::pair<int, std::int32_t> key{st.rank, sk->state_id};
    auto& stack = open[key];
    if (sk->is_start) {
      if (!stack.empty() && flagged_overlap.insert(key).second)
        rep.add("TC404", Severity::kWarning,
                util::strprintf("state %s re-entered on rank %d while already "
                                "open (overlapping instances)",
                                sk->name.c_str(), st.rank),
                rank_label(st.rank));
      stack.push_back(st.time);
    } else {
      if (stack.empty()) {
        if (flagged_orphan.insert(key).second)
          rep.add("TC401", Severity::kError,
                  util::strprintf("state %s ended on rank %d without a start",
                                  sk->name.c_str(), st.rank),
                  rank_label(st.rank));
        continue;
      }
      const double t0 = stack.back();
      stack.pop_back();
      if (st.time < t0 - kEps && flagged_negative.insert(key).second)
        rep.add("TC402", Severity::kError,
                util::strprintf("state %s on rank %d has a negative duration "
                                "(%.9f s)",
                                sk->name.c_str(), st.rank, st.time - t0),
                rank_label(st.rank));
      if (read_family.contains(sk->name))
        blocked[st.rank].push_back({t0, std::max(t0, st.time)});
    }
  }
  for (const auto& [key, stack] : open) {
    if (stack.empty()) continue;
    const std::string& name = *trace.state_name(key.second);
    rep.add("TC403", Severity::kNote,
            util::strprintf("state %s on rank %d never ended (open at end of "
                            "trace)",
                            name.c_str(), key.first),
            rank_label(key.first));
    // A rank that died blocked inside a read-family state stays blocked to
    // the end of the trace for stall accounting.
    if (read_family.contains(name))
      blocked[key.first].push_back({stack.front(), span_end});
  }

  // --- TC203: majority-idle stall (the Instance B shape) -------------------
  if (participants.size() >= 2 && have_span && span_end > span_begin) {
    struct Edge {
      double t;
      int delta;
    };
    std::vector<Edge> edges;
    for (auto& [rank, ivs] : blocked) {
      (void)rank;
      for (const Interval& iv : query::merge_intervals(std::move(ivs))) {
        edges.push_back({iv.begin, +1});
        edges.push_back({iv.end, -1});
      }
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.t < b.t || (a.t == b.t && a.delta > b.delta);
    });
    const int threshold = static_cast<int>(participants.size()) / 2 + 1;
    int depth = 0;
    double total = 0.0, longest = 0.0, stall_begin = 0.0;
    bool in_stall = false;
    for (const Edge& e : edges) {
      if (!in_stall && depth + e.delta >= threshold && e.delta > 0) {
        in_stall = true;
        stall_begin = e.t;
      } else if (in_stall && depth + e.delta < threshold) {
        in_stall = false;
        total += e.t - stall_begin;
        longest = std::max(longest, e.t - stall_begin);
      }
      depth += e.delta;
    }
    if (in_stall) {
      total += span_end - stall_begin;
      longest = std::max(longest, span_end - stall_begin);
    }
    const double span = span_end - span_begin;
    if (longest >= opts.min_stall_seconds && total >= opts.stall_fraction * span)
      rep.add("TC203", Severity::kWarning,
              util::strprintf(
                  "a majority of ranks (>=%d of %d) sat blocked in read-family "
                  "states for %.3f s of the %.3f s trace (longest stall %.3f "
                  "s); the program is starved by a serial stage (Instance B "
                  "shape)",
                  threshold, static_cast<int>(participants.size()), total, span,
                  longest));
  }

  // --- TC301: wait-for-graph cycle (-pisvc=a traces) -----------------------
  {
    std::set<int> stuck;
    for (const auto& [rank, waits] : terminal_waits)
      if (!waits.empty()) stuck.insert(rank);
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto it = stuck.begin(); it != stuck.end();) {
        bool escapable = false;
        for (const auto& [chan, writer] : terminal_waits[*it])
          if (!stuck.contains(writer)) escapable = true;
        if (escapable) {
          it = stuck.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
    if (!stuck.empty()) {
      std::string detail;
      for (int r : stuck) {
        if (!detail.empty()) detail += "; ";
        detail += util::strprintf("rank %d waits on", r);
        for (const auto& [chan, writer] : terminal_waits[r])
          detail += util::strprintf(" C%d(writer rank %d)", chan, writer);
      }
      rep.add("TC301", Severity::kError,
              "wait-for cycle (deadlock): " + detail);
    }
  }

  return rep;
}

}  // namespace analyze
