#include "analyze/tracediff.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "query/clocks.hpp"
#include "query/rollup.hpp"
#include "query/trace.hpp"
#include "util/strings.hpp"

namespace analyze {

namespace {

constexpr double kEps = 1e-9;

std::string rank_label(int rank) { return util::strprintf("rank %d", rank); }

/// One record of a rank's timestamp-free projection.
struct ProjEntry {
  std::string key;   ///< comparison key (no timestamps, floats masked)
  double time = 0.0;
  query::StepKind kind = query::StepKind::kEvent;
  std::int32_t event_id = 0;
  const std::string* text = nullptr;
  std::int32_t partner = 0;
  std::int32_t tag = 0;
  std::uint32_t size = 0;
};

std::vector<std::vector<ProjEntry>> project(const query::Trace& trace,
                                            int nranks) {
  std::vector<std::vector<ProjEntry>> out(
      static_cast<std::size_t>(std::max(nranks, 0)));
  for (const query::Step& st : trace.steps()) {
    if (st.kind == query::StepKind::kSync) continue;
    if (st.rank < 0 || static_cast<std::size_t>(st.rank) >= out.size()) continue;
    ProjEntry e;
    e.time = st.time;
    e.kind = st.kind;
    switch (st.kind) {
      case query::StepKind::kEvent:
        e.event_id = st.event_id;
        e.text = st.text;
        e.key = util::strprintf("E %d %s", st.event_id,
                                util::mask_floats(*st.text).c_str());
        break;
      case query::StepKind::kSend:
        e.partner = st.partner;
        e.tag = st.tag;
        e.size = st.size;
        e.key = util::strprintf("S %d %d %u", st.partner, st.tag, st.size);
        break;
      case query::StepKind::kRecv:
        e.partner = st.partner;
        e.tag = st.tag;
        e.size = st.size;
        e.key = util::strprintf("R %d %d %u", st.partner, st.tag, st.size);
        break;
      case query::StepKind::kSync:
        continue;
    }
    out[static_cast<std::size_t>(st.rank)].push_back(std::move(e));
  }
  return out;
}

std::string describe(const ProjEntry& e, const query::Trace& trace,
                     const std::map<std::int32_t, std::string>& event_names) {
  switch (e.kind) {
    case query::StepKind::kEvent: {
      if (const query::StateEvent* sk = trace.state_event(e.event_id))
        return util::strprintf("%s of state \"%s\"",
                               sk->is_start ? "start" : "end",
                               sk->name.c_str());
      const auto it = event_names.find(e.event_id);
      const std::string name =
          it != event_names.end() ? it->second : util::strprintf("#%d", e.event_id);
      if (e.text != nullptr && !e.text->empty())
        return util::strprintf("event \"%s\" (\"%s\")", name.c_str(),
                               e.text->c_str());
      return util::strprintf("event \"%s\"", name.c_str());
    }
    case query::StepKind::kSend:
      return util::strprintf("send to rank %d tag %d (%u bytes)", e.partner,
                             e.tag, e.size);
    case query::StepKind::kRecv:
      return util::strprintf("recv from rank %d tag %d (%u bytes)", e.partner,
                             e.tag, e.size);
    case query::StepKind::kSync:
      break;
  }
  return "sync record";
}

/// Most recent "L%d"-prefixed popup line at or before `pos` — Pilot's
/// tracegen stamps the call-site line into the event text, so this is the
/// closest source context the trace carries.
int line_context(const std::vector<ProjEntry>& proj, std::size_t pos) {
  if (proj.empty()) return 0;
  std::size_t i = std::min(pos, proj.size() - 1);
  for (;; --i) {
    const ProjEntry& e = proj[i];
    if (e.kind == query::StepKind::kEvent && e.text != nullptr) {
      int line = 0;
      if (std::sscanf(e.text->c_str(), "L%d", &line) == 1 && line > 0)
        return line;
    }
    if (i == 0) break;
  }
  return 0;
}

/// Vector stamp of the last message op rank `r` completed strictly before
/// `t` in the reference run, or the zero clock.
query::Clock stamp_before(const query::MsgGraph& graph, int r, double t) {
  query::Clock best(static_cast<std::size_t>(graph.nranks), 0);
  if (r < 0 || static_cast<std::size_t>(r) >= graph.ops.size()) return best;
  for (const query::MsgOp& op : graph.ops[static_cast<std::size_t>(r)]) {
    const query::MatchedMsg& m = graph.msgs[op.msg];
    const bool is_send = op.kind == query::MsgOp::Kind::kSend;
    const double op_time = is_send ? m.send_time : m.recv_time;
    if (op_time >= t - kEps) break;
    if (!m.stamped) continue;
    best = is_send ? m.send_stamp : m.recv_stamp;
  }
  return best;
}

}  // namespace

TraceDiffResult diff_traces(const clog2::File& reference,
                            const clog2::File& suspect,
                            const TraceDiffOptions& opts) {
  TraceDiffResult res;
  Report& rep = res.report;

  const query::Trace ref(reference, opts.threads);
  const query::Trace sus(suspect, opts.threads);

  // --- TD101 / TD110: are the runs comparable at all? ----------------------
  if (ref.nranks() != sus.nranks()) {
    res.comparable = false;
    rep.add("TD101", Severity::kError,
            util::strprintf("rank counts differ: reference has %d, suspect "
                            "has %d",
                            ref.nranks(), sus.nranks()));
  }

  std::map<std::int32_t, std::string> ref_events, sus_events;
  std::set<std::tuple<std::int32_t, std::int32_t, std::int32_t, std::string>>
      ref_states, sus_states;
  for (const clog2::Record& r : reference.records) {
    if (const auto* ed = std::get_if<clog2::EventDef>(&r))
      ref_events[ed->event_id] = ed->name;
    else if (const auto* sd = std::get_if<clog2::StateDef>(&r))
      ref_states.insert({sd->state_id, sd->start_event_id, sd->end_event_id,
                         sd->name});
  }
  for (const clog2::Record& r : suspect.records) {
    if (const auto* ed = std::get_if<clog2::EventDef>(&r))
      sus_events[ed->event_id] = ed->name;
    else if (const auto* sd = std::get_if<clog2::StateDef>(&r))
      sus_states.insert({sd->state_id, sd->start_event_id, sd->end_event_id,
                         sd->name});
  }
  if (ref_events != sus_events || ref_states != sus_states)
    rep.add("TD110", Severity::kWarning,
            "definition tables differ between the runs; the traces may come "
            "from different programs and the structural diff may be "
            "unreliable");

  const int nranks = std::max(ref.nranks(), sus.nranks());
  if (nranks <= 0) return res;

  // --- structural pass: per-rank timestamp-free projections ----------------
  const auto ref_proj = project(ref, nranks);
  const auto sus_proj = project(sus, nranks);

  res.deltas.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    RankDelta& d = res.deltas[static_cast<std::size_t>(r)];
    d.rank = r;
    const auto& a = ref_proj[static_cast<std::size_t>(r)];
    const auto& b = sus_proj[static_cast<std::size_t>(r)];
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i].key == b[i].key) ++i;
    if (i == a.size() && i == b.size()) continue;  // kMatch

    d.structural = true;
    d.ref_pos = i;
    if (i < a.size() && i < b.size()) {
      d.shape = RankDelta::Shape::kMismatch;
      d.ref_time = a[i].time;
      d.detail = util::strprintf(
          "reference has %s, suspect has %s",
          describe(a[i], ref, ref_events).c_str(),
          describe(b[i], sus, sus_events).c_str());
    } else if (i == b.size()) {
      d.shape = RankDelta::Shape::kSuspectShort;
      d.ref_time = a[i].time;
      d.detail = util::strprintf(
          "suspect ends after %zu of %zu records; next reference record: %s",
          b.size(), a.size(), describe(a[i], ref, ref_events).c_str());
    } else {
      d.shape = RankDelta::Shape::kSuspectLong;
      d.ref_time = b[i].time;  // no reference record to anchor on
      d.detail = util::strprintf(
          "suspect has %zu extra record(s); first extra: %s",
          b.size() - a.size(), describe(b[i], sus, sus_events).c_str());
    }
    d.line = line_context(a.empty() ? b : a, i);
    res.structural_diverged = true;
  }

  // TD102: the globally earliest divergence, by reference timestamp.
  const RankDelta* first_div = nullptr;
  for (const RankDelta& d : res.deltas)
    if (d.structural &&
        (first_div == nullptr || d.ref_time < first_div->ref_time - kEps))
      first_div = &d;
  if (first_div != nullptr) {
    std::string msg = util::strprintf(
        "first divergence: rank %d at t=%.6f — %s", first_div->rank,
        first_div->ref_time, first_div->detail.c_str());
    if (first_div->line > 0)
      msg += util::strprintf(" (near source line %d)", first_div->line);
    rep.add("TD102", Severity::kError, std::move(msg),
            rank_label(first_div->rank), {}, first_div->line);
  }

  // TD103 / TD104: prefix-shaped ranks, in rank order.
  for (const RankDelta& d : res.deltas) {
    if (d.shape == RankDelta::Shape::kSuspectShort)
      rep.add("TD103", Severity::kWarning,
              util::strprintf(
                  "rank %d: suspect trace is a strict prefix of the reference "
                  "(%zu of %zu records) — the process stopped early (crash or "
                  "truncation)",
                  d.rank, d.ref_pos,
                  ref_proj[static_cast<std::size_t>(d.rank)].size()),
              rank_label(d.rank));
    else if (d.shape == RankDelta::Shape::kSuspectLong)
      rep.add("TD104", Severity::kWarning,
              util::strprintf(
                  "rank %d: suspect trace extends the reference by %zu "
                  "record(s)",
                  d.rank,
                  sus_proj[static_cast<std::size_t>(d.rank)].size() - d.ref_pos),
              rank_label(d.rank));
  }

  // --- timing pass: edge latency + state durations -------------------------
  query::MsgGraph ref_graph = query::match_messages(reference);
  query::MsgGraph sus_graph = query::match_messages(suspect);

  // Pair the i-th matched message of each (sender, receiver, tag) edge
  // across the runs and attribute latency inflation to the *sender*. A
  // delayed delivery also inflates every message queued behind it at the
  // same receiver (the cascade): once the receiver unblocks, the queued
  // messages complete back-to-back at (virtually) the same instant as the
  // delayed one. Within such a completion burst only the read the receiver
  // was blocked in — the first to complete in its own record order — was
  // delivery-bound; the later ones had long arrived and merely sat in
  // queue. So anomalies are collected first, grouped by (receiver,
  // completion time), and only each burst's first-completed read is
  // attributed.
  std::map<query::TagKey, std::vector<std::size_t>> ref_by_key, sus_by_key;
  for (std::size_t i = 0; i < ref_graph.msgs.size(); ++i)
    if (ref_graph.msgs[i].matched) {
      const auto& m = ref_graph.msgs[i];
      ref_by_key[{m.sender, m.receiver, m.tag}].push_back(i);
    }
  for (std::size_t i = 0; i < sus_graph.msgs.size(); ++i)
    if (sus_graph.msgs[i].matched) {
      const auto& m = sus_graph.msgs[i];
      sus_by_key[{m.sender, m.receiver, m.tag}].push_back(i);
    }

  struct Anomaly {
    int sender = -1;
    int receiver = -1;
    double send_time = 0.0;
    double recv_time = 0.0;
    double delta = 0.0;
    std::size_t recv_order = 0;  ///< position in the receiver's op stream
  };
  // Completion order of receives per rank in the suspect run: within a
  // burst of reads draining at (virtually) the same instant, the receiver's
  // own record order says which read it was actually blocked in. Indexed by
  // message, since each message has at most one receive.
  std::vector<std::size_t> sus_recv_order(sus_graph.msgs.size(), 0);
  for (const auto& rank_ops : sus_graph.ops)
    for (std::size_t k = 0; k < rank_ops.size(); ++k)
      if (rank_ops[k].kind == query::MsgOp::Kind::kRecv)
        sus_recv_order[rank_ops[k].msg] = k;

  std::vector<Anomaly> paired;
  for (const auto& [key, ref_list] : ref_by_key) {
    const auto it = sus_by_key.find(key);
    if (it == sus_by_key.end()) continue;
    const auto& sus_list = it->second;
    const std::size_t n = std::min(ref_list.size(), sus_list.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& mr = ref_graph.msgs[ref_list[i]];
      const auto& ms = sus_graph.msgs[sus_list[i]];
      const double lat_ref = mr.recv_time - mr.send_time;
      const double lat_sus = ms.recv_time - ms.send_time;
      const int sender = mr.sender;
      if (sender < 0 || sender >= nranks) continue;
      if (mr.receiver < 0 || mr.receiver >= nranks) continue;
      paired.push_back({sender, mr.receiver, ms.send_time, ms.recv_time,
                        lat_sus - lat_ref, sus_recv_order[sus_list[i]]});
    }
  }
  // Per-rank clock-skew correction. The suspect run's per-rank clock sync
  // can absorb part of an injected delay into the victim's clock offset:
  // its stamps shift late, deflating the apparent latency of everything it
  // sent (even below zero — physically impossible, since a delay only adds)
  // and inflating everything it received. The most negative paired delta a
  // rank's sends exhibit is therefore a conservative proof of its skew;
  // un-skew every delta by +skew(sender) - skew(receiver) before gating.
  std::vector<double> skew(static_cast<std::size_t>(nranks), 0.0);
  for (const Anomaly& p : paired) {
    auto& s = skew[static_cast<std::size_t>(p.sender)];
    s = std::max(s, -p.delta);
  }
  // Burst grouping: same receiver, completion times within kBurstEps of the
  // group's first completion. On the virtual-time substrate a cascade ties
  // exactly; on threads the queued reads drain within microseconds and land
  // in their own groups. Each burst's first-completed read (the blocking
  // one) is the only candidate — the rest sat in queue, whatever their
  // apparent latency — and only the candidate is held to the anomaly gates.
  constexpr double kBurstEps = 1e-9;
  std::sort(paired.begin(), paired.end(),
            [](const Anomaly& a, const Anomaly& b) {
              if (a.receiver != b.receiver) return a.receiver < b.receiver;
              return a.recv_time < b.recv_time;
            });
  for (std::size_t i = 0; i < paired.size();) {
    std::size_t j = i;
    std::size_t first = i;
    while (j < paired.size() && paired[j].receiver == paired[i].receiver &&
           paired[j].recv_time - paired[i].recv_time <= kBurstEps) {
      if (paired[j].recv_order < paired[first].recv_order) first = j;
      ++j;
    }
    const Anomaly& a = paired[first];
    i = j;
    const double corrected = a.delta +
                             skew[static_cast<std::size_t>(a.sender)] -
                             skew[static_cast<std::size_t>(a.receiver)];
    if (corrected < opts.min_latency_delta) continue;
    // Re-derive the latency-ratio gate against the same corrected latency.
    const double lat_ref = (a.recv_time - a.send_time) - a.delta;
    const double lat_cor = lat_ref + corrected;
    if (lat_cor < opts.latency_ratio * lat_ref) continue;
    RankDelta& d = res.deltas[static_cast<std::size_t>(a.sender)];
    d.latency_inflation += corrected;
    if (!d.has_anomaly_time || a.recv_time < d.first_anomaly_time) {
      d.first_anomaly_time = a.recv_time;
      d.has_anomaly_time = true;
    }
    res.timing_diverged = true;
  }

  // TD201: edges whose message counts changed.
  const query::MessageEdges ref_edges =
      query::message_edges(ref_graph, opts.threads);
  const query::MessageEdges sus_edges =
      query::message_edges(sus_graph, opts.threads);
  {
    std::set<query::TagKey> keys;
    for (const auto& [k, s] : ref_edges.edges) keys.insert(k);
    for (const auto& [k, s] : sus_edges.edges) keys.insert(k);
    int emitted = 0, skipped = 0;
    for (const query::TagKey& k : keys) {
      const auto ri = ref_edges.edges.find(k);
      const auto si = sus_edges.edges.find(k);
      const std::uint64_t rs = ri != ref_edges.edges.end() ? ri->second.sent : 0;
      const std::uint64_t ss = si != sus_edges.edges.end() ? si->second.sent : 0;
      if (rs == ss) continue;
      const auto [snd, rcv, tag] = k;
      if (emitted < 8) {
        rep.add("TD201", Severity::kWarning,
                util::strprintf("edge %d->%d tag %d: %llu message(s) in the "
                                "reference, %llu in the suspect",
                                snd, rcv, tag,
                                static_cast<unsigned long long>(rs),
                                static_cast<unsigned long long>(ss)),
                rank_label(snd));
        ++emitted;
      } else {
        ++skipped;
      }
    }
    if (skipped > 0)
      rep.add("TD201", Severity::kWarning,
              util::strprintf("%d more edge(s) with changed message counts "
                              "not listed",
                              skipped));
  }

  // TD202: state-duration skew per (rank, state).
  {
    const query::StateDurations ref_dur =
        query::state_durations(ref, opts.threads);
    const query::StateDurations sus_dur =
        query::state_durations(sus, opts.threads);
    int emitted = 0, skipped = 0;
    for (const auto& [key, ss] : sus_dur.by_rank_state) {
      const auto& [r, state_id] = key;
      if (r < 0 || r >= nranks) continue;
      const query::StateStats* rs = ref_dur.find(r, state_id);
      const double ref_total = rs != nullptr ? rs->total_seconds : 0.0;
      const double delta = ss.total_seconds - ref_total;
      if (delta < opts.min_duration_delta ||
          ss.total_seconds < opts.duration_ratio * ref_total)
        continue;
      res.deltas[static_cast<std::size_t>(r)].duration_inflation += delta;
      res.timing_diverged = true;
      const std::string* name = sus.state_name(state_id);
      if (emitted < 8) {
        rep.add("TD202", Severity::kWarning,
                util::strprintf("rank %d spent %.3f s in state %s vs %.3f s "
                                "in the reference (+%.3f s)",
                                r, ss.total_seconds,
                                name != nullptr ? name->c_str() : "?",
                                ref_total, delta),
                rank_label(r));
        ++emitted;
      } else {
        ++skipped;
      }
    }
    if (skipped > 0)
      rep.add("TD202", Severity::kWarning,
              util::strprintf("%d more rank/state pair(s) with inflated "
                              "durations not listed",
                              skipped));
  }

  // TD203: per-edge mean-latency skew (summary view of the pairing above).
  {
    int emitted = 0, skipped = 0;
    for (const auto& [k, rstats] : ref_edges.edges) {
      const auto si = sus_edges.edges.find(k);
      if (si == sus_edges.edges.end()) continue;
      if (rstats.matched == 0 || si->second.matched == 0) continue;
      const double mr = rstats.mean_latency();
      const double ms = si->second.mean_latency();
      if (ms - mr < opts.min_latency_delta || ms < opts.latency_ratio * mr)
        continue;
      const auto [snd, rcv, tag] = k;
      if (emitted < 8) {
        rep.add("TD203", Severity::kWarning,
                util::strprintf("edge %d->%d tag %d: mean latency %.6f s vs "
                                "%.6f s in the reference",
                                snd, rcv, tag, ms, mr),
                rank_label(snd));
        ++emitted;
      } else {
        ++skipped;
      }
    }
    if (skipped > 0)
      rep.add("TD203", Severity::kWarning,
              util::strprintf("%d more edge(s) with inflated latency not "
                              "listed",
                              skipped));
  }

  // --- ranking: who broke first? -------------------------------------------
  // Structural divergence outranks timing-only skew; within each class the
  // earliest signal (reference time) wins, then total inflation, then rank.
  std::vector<RankDelta> ranked;
  for (const RankDelta& d : res.deltas)
    if (d.structural || d.latency_inflation > 0.0 || d.duration_inflation > 0.0)
      ranked.push_back(d);
  std::sort(ranked.begin(), ranked.end(),
            [](const RankDelta& a, const RankDelta& b) {
              if (a.structural != b.structural) return a.structural;
              if (a.structural) {
                if (a.ref_time != b.ref_time) return a.ref_time < b.ref_time;
                return a.rank < b.rank;
              }
              if (a.has_anomaly_time != b.has_anomaly_time)
                return a.has_anomaly_time;
              if (a.has_anomaly_time && a.first_anomaly_time != b.first_anomaly_time)
                return a.first_anomaly_time < b.first_anomaly_time;
              const double ia = a.latency_inflation + a.duration_inflation;
              const double ib = b.latency_inflation + b.duration_inflation;
              if (ia != ib) return ia > ib;
              return a.rank < b.rank;
            });
  for (std::size_t i = 0; i < ranked.size(); ++i)
    ranked[i].score = ranked[i].structural
                          ? 1000.0 + 1.0 / (1.0 + ranked[i].ref_time)
                          : ranked[i].latency_inflation +
                                ranked[i].duration_inflation;
  if (static_cast<int>(ranked.size()) > opts.top_suspects)
    ranked.resize(static_cast<std::size_t>(opts.top_suspects));
  res.suspects = ranked;

  if (!ranked.empty()) {
    const RankDelta& top = ranked.front();
    std::string why;
    if (top.structural) {
      why = util::strprintf("diverged first at t=%.6f (%s)", top.ref_time,
                            top.detail.c_str());
      // Corroborate with the causal order: was this rank's divergence point
      // happens-before-minimal among all diverged ranks?
      query::stamp_clocks(ref_graph);
      const query::Clock mine =
          stamp_before(ref_graph, top.rank, top.ref_time);
      bool minimal = true;
      for (const RankDelta& d : res.deltas) {
        if (!d.structural || d.rank == top.rank) continue;
        const query::Clock other =
            stamp_before(ref_graph, d.rank, d.ref_time);
        if (query::clock_leq(other, mine) && !query::clock_leq(mine, other)) {
          minimal = false;
          break;
        }
      }
      if (minimal && res.structural_diverged)
        why += "; causally earliest divergence (vector clocks)";
    } else if (top.has_anomaly_time) {
      why = util::strprintf(
          "earliest latency anomaly at t=%.6f, +%.3f s total send-latency "
          "inflation",
          top.first_anomaly_time, top.latency_inflation);
    } else {
      why = util::strprintf("+%.3f s state-duration inflation",
                            top.duration_inflation);
    }
    rep.add("TD301", Severity::kWarning,
            util::strprintf("suspect #1: rank %d — %s", top.rank, why.c_str()),
            rank_label(top.rank), {}, top.line);

    if (ranked.size() > 1) {
      std::string rest;
      for (std::size_t i = 1; i < ranked.size(); ++i) {
        if (!rest.empty()) rest += ", ";
        rest += util::strprintf(
            "#%zu rank %d (%s)", i + 1, ranked[i].rank,
            ranked[i].structural
                ? util::strprintf("diverged at t=%.6f", ranked[i].ref_time)
                      .c_str()
                : util::strprintf("+%.3f s inflation",
                                  ranked[i].latency_inflation +
                                      ranked[i].duration_inflation)
                      .c_str());
      }
      rep.add("TD302", Severity::kNote, "runner-up suspects: " + rest);
    }
  }

  return res;
}

}  // namespace analyze
