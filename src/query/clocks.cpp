#include "query/clocks.hpp"

#include <algorithm>
#include <cstddef>
#include <variant>

namespace query {

bool clock_leq(const Clock& a, const Clock& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] > b[i]) return false;
  return true;
}

bool clock_concurrent(const Clock& a, const Clock& b) {
  return !clock_leq(a, b) && !clock_leq(b, a);
}

MsgGraph match_messages(const clog2::File& file, int nranks_floor) {
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

bool stamp_clocks(MsgGraph& graph) {
  if (graph.nranks <= 0) return false;
  std::vector<std::size_t> idx(static_cast<std::size_t>(graph.nranks), 0);
  std::vector<Clock> vc(static_cast<std::size_t>(graph.nranks),
                        Clock(static_cast<std::size_t>(graph.nranks), 0));
  std::size_t remaining = 0;
  for (const auto& v : graph.ops) remaining += v.size();
  bool causal_cycle = false;
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t r = 0; r < graph.ops.size(); ++r) {
      while (idx[r] < graph.ops[r].size()) {
        const MsgOp& op = graph.ops[r][idx[r]];
        MatchedMsg& m = graph.msgs[op.msg];
        if (op.kind == MsgOp::Kind::kSend) {
          ++vc[r][r];
          m.send_stamp = vc[r];
          m.stamped = true;
        } else {
          if (!m.stamped && !causal_cycle) break;
          ++vc[r][r];
          if (m.stamped)
            for (std::size_t k = 0; k < vc[r].size(); ++k)
              vc[r][k] = std::max(vc[r][k], m.send_stamp[k]);
          m.recv_stamp = vc[r];
        }
        ++idx[r];
        --remaining;
        progressed = true;
      }
    }
    if (!progressed && !causal_cycle) {
      // Only possible when matched messages form a cycle (corrupt trace):
      // flag once, then force the recvs through without joining.
      causal_cycle = true;
    }
  }
  return causal_cycle;
}

}  // namespace query
