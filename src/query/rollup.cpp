#include "query/rollup.hpp"

#include <algorithm>
#include <cmath>

#include "util/parallel.hpp"

namespace query {

namespace {

// Below this many steps/messages the thread-spawn cost outweighs the sweep,
// so the shards run inline on the caller.
constexpr std::size_t kParallelGrain = std::size_t{64} * 1024;

/// One step of the state-duration sweep — shared by the per-rank shards and
/// the out-of-range leftover pass.
void sweep_state_step(
    const Trace& trace, const Step& s,
    std::map<std::pair<int, std::int32_t>, std::vector<double>>& open,
    StateDurations& out) {
  if (s.kind != StepKind::kEvent) return;
  const StateEvent* se = trace.state_event(s.event_id);
  if (se == nullptr) return;  // solo bubble
  const std::pair<int, std::int32_t> key{s.rank, se->state_id};
  auto& stack = open[key];
  if (se->is_start) {
    stack.push_back(s.time);
    return;
  }
  if (stack.empty()) return;  // orphan end — the checker's business
  const double t0 = stack.back();
  stack.pop_back();
  const double dur = std::max(0.0, s.time - t0);
  StateStats& stats = out.by_rank_state[key];
  ++stats.count;
  stats.total_seconds += dur;
  ++stats.histogram[duration_bucket(dur)];
}

}  // namespace

std::size_t duration_bucket(double seconds) {
  if (seconds < 1e-6) return 0;
  const double l = std::log10(seconds);  // [-6, ...) here
  const auto i = static_cast<long>(std::floor(l)) + 7;
  if (i < 0) return 0;
  return std::min<std::size_t>(static_cast<std::size_t>(i),
                               kDurationBuckets - 1);
}

const StateStats* StateDurations::find(int rank, std::int32_t state_id) const {
  const auto it = by_rank_state.find({rank, state_id});
  return it != by_rank_state.end() ? &it->second : nullptr;
}

double StateDurations::rank_total(int rank) const {
  double t = 0.0;
  for (const auto& [key, stats] : by_rank_state)
    if (key.first == rank) t += stats.total_seconds;
  return t;
}

StateDurations state_durations(const Trace& trace, int threads) {
  const int nworkers = trace.steps().size() < kParallelGrain
                           ? 1
                           : util::resolve_threads(threads);
  const auto& by_rank = trace.by_rank();
  std::vector<StateDurations> shard(by_rank.size());
  util::parallel_for(by_rank.size(), nworkers, [&](std::size_t r) {
    std::map<std::pair<int, std::int32_t>, std::vector<double>> open;
    for (std::size_t i : by_rank[r])
      sweep_state_step(trace, trace.steps()[i], open, shard[r]);
  });

  StateDurations out;
  // Steps whose rank sits outside [0, nranks) are absent from by_rank();
  // sweep them on the side — their keys are disjoint from every shard's.
  std::size_t covered = 0;
  for (const auto& v : by_rank) covered += v.size();
  if (covered != trace.steps().size()) {
    std::map<std::pair<int, std::int32_t>, std::vector<double>> open;
    for (const Step& s : trace.steps())
      if (s.rank < 0 || s.rank >= trace.nranks())
        sweep_state_step(trace, s, open, out);
  }
  for (auto& sd : shard)
    out.by_rank_state.insert(sd.by_rank_state.begin(), sd.by_rank_state.end());
  return out;
}

MessageEdges message_edges(const MsgGraph& graph, int threads) {
  const int nworkers = graph.msgs.size() < kParallelGrain
                           ? 1
                           : util::resolve_threads(threads);

  // Bucket message indices by sender (preserving graph order within each
  // bucket), fold the buckets in parallel, and merge in ascending sender
  // order — every (sender, receiver, tag) key lives in exactly one bucket,
  // so this is a graph-order fold re-ordered only across disjoint keys.
  std::map<int, std::vector<std::size_t>> by_sender;
  for (std::size_t i = 0; i < graph.msgs.size(); ++i)
    by_sender[graph.msgs[i].sender].push_back(i);
  std::vector<const std::vector<std::size_t>*> buckets;
  buckets.reserve(by_sender.size());
  for (const auto& [sender, v] : by_sender) buckets.push_back(&v);

  std::vector<MessageEdges> shard(buckets.size());
  util::parallel_for(buckets.size(), nworkers, [&](std::size_t b) {
    for (std::size_t i : *buckets[b]) {
      const MatchedMsg& m = graph.msgs[i];
      EdgeStats& e = shard[b].edges[{m.sender, m.receiver, m.tag}];
      ++e.sent;
      e.bytes += m.size;
      if (m.matched) {
        ++e.matched;
        e.total_latency += m.recv_time - m.send_time;
      }
    }
  });
  MessageEdges out;
  for (auto& sd : shard) out.edges.insert(sd.edges.begin(), sd.edges.end());
  return out;
}

std::vector<Interval> merge_intervals(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.begin <= out.back().end)
      out.back().end = std::max(out.back().end, iv.end);
    else
      out.push_back(iv);
  }
  return out;
}

}  // namespace query
