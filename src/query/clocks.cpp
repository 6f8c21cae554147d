#include "query/clocks.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
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

namespace {

/// Matching state of one (sender, receiver, tag) key.
struct KeyState {
  TagKey key;
  std::vector<std::size_t> sends;  ///< msg indices, per-key FIFO order
  std::size_t recvs_seen = 0;      ///< receives consumed so far
  std::size_t unmatched = 0;       ///< receives that found no send
};

struct TagKeyHash {
  std::size_t operator()(const TagKey& k) const noexcept {
    const auto [s, r, t] = k;
    std::uint64_t h = static_cast<std::uint32_t>(s);
    h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(r);
    h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(t);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// The matcher proper, over the message steps of `steps` in stream order.
/// Every step's rank must lie in [0, nranks).
MsgGraph match_steps(const std::vector<Step>& steps, int nranks) {
  MsgGraph g;
  g.nranks = nranks;
  g.ops.resize(static_cast<std::size_t>(nranks));

  // Pass A: find each message half's key slot (one hash lookup per half,
  // kept for pass B) and register every send, in per-key FIFO order.
  // Pairing works off these per-key lists rather than the merged
  // interleaving: per-rank clock correction can skew a receive's timestamp
  // a hair *before* its send in the merged file, and a one-pass matcher
  // would then drop the receive and shift every later pair on that edge by
  // one.
  struct Half {
    const Step* step;
    std::size_t slot;
  };
  std::vector<KeyState> keys;
  std::unordered_map<TagKey, std::size_t, TagKeyHash> slot_of;
  std::vector<Half> halves;
  for (const Step& s : steps) {
    if (!s.is_msg()) continue;
    const bool send = s.kind == StepKind::kSend;
    const TagKey key = send ? TagKey{s.rank, s.partner, s.tag}
                            : TagKey{s.partner, s.rank, s.tag};
    const auto [it, fresh] = slot_of.try_emplace(key, keys.size());
    if (fresh) keys.push_back({key, {}, 0, 0});
    halves.push_back({&s, it->second});
    if (!send) continue;
    MatchedMsg msg;
    msg.send_time = s.time;
    msg.sender = s.rank;
    msg.receiver = s.partner;
    msg.tag = s.tag;
    msg.size = s.size;
    g.msgs.push_back(std::move(msg));
    keys[it->second].sends.push_back(g.msgs.size() - 1);
  }

  // Pass B: consume each key's i-th send for its i-th receive and emit the
  // per-rank ops in stream order. Both passes meet the sends in the same
  // order, so the k-th send here is msgs[k].
  std::size_t next_send = 0;
  for (const Half& h : halves) {
    const Step& s = *h.step;
    std::vector<MsgOp>& rank_ops = g.ops[static_cast<std::size_t>(s.rank)];
    if (s.kind == StepKind::kSend) {
      rank_ops.push_back({MsgOp::Kind::kSend, next_send++});
      continue;
    }
    KeyState& ks = keys[h.slot];
    if (ks.recvs_seen >= ks.sends.size()) {
      ++ks.unmatched;
      ++ks.recvs_seen;
      continue;
    }
    const std::size_t idx = ks.sends[ks.recvs_seen++];
    g.msgs[idx].matched = true;
    g.msgs[idx].recv_time = s.time;
    rank_ops.push_back({MsgOp::Kind::kRecv, idx});
  }

  // Sends still in flight: each sending key's unconsumed FIFO suffix. Keys
  // whose FIFO drained stay present — the pinned diagnostic order.
  for (const KeyState& ks : keys) {
    if (ks.unmatched > 0) g.unmatched_recvs.emplace(ks.key, ks.unmatched);
    if (ks.sends.empty()) continue;
    const std::size_t taken = std::min(ks.sends.size(), ks.recvs_seen);
    g.unreceived.emplace(
        ks.key, std::vector<std::size_t>(
                    ks.sends.begin() + static_cast<std::ptrdiff_t>(taken),
                    ks.sends.end()));
  }
  return g;
}

}  // namespace

MsgGraph match_messages(const Trace& trace) {
  return match_steps(trace.steps(), trace.nranks());
}

MsgGraph match_messages(const clog2::File& file, int nranks_floor) {
  clog2::check_nranks(file.nranks);
  std::vector<Step> msgs;
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    clog2::check_record(file.records[i], file.nranks, i);
    if (const auto* m = std::get_if<clog2::MsgRec>(&file.records[i]))
      msgs.push_back(message_step(*m));
  }
  return match_steps(msgs, std::max(file.nranks, nranks_floor));
}

bool stamp_clocks(MsgGraph& graph) {
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
