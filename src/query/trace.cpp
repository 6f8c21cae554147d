#include "query/trace.hpp"

#include <algorithm>
#include <variant>

#include "util/parallel.hpp"

namespace query {

namespace {

// Shard size for the build: fixed record chunks, so the shard boundaries
// are a function of the data alone and the output is byte-identical at any
// worker count.
constexpr std::size_t kRecordChunk = std::size_t{64} * 1024;

/// Flattens one timestamped record into `*out` (which must be
/// default-initialized); returns false for definition records, which carry
/// no step.
bool flatten_step(const clog2::Record& rec, Step* out) {
  if (const auto* ev = std::get_if<clog2::EventRec>(&rec)) {
    out->time = ev->timestamp;
    out->rank = ev->rank;
    out->kind = StepKind::kEvent;
    out->event_id = ev->event_id;
    out->text = &ev->text;
    return true;
  }
  if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) {
    out->time = m->timestamp;
    out->rank = m->rank;
    out->kind = m->kind == clog2::MsgRec::Kind::kSend ? StepKind::kSend
                                                      : StepKind::kRecv;
    out->partner = m->partner;
    out->tag = m->tag;
    out->size = m->size;
    return true;
  }
  if (const auto* sy = std::get_if<clog2::SyncRec>(&rec)) {
    out->time = sy->local_time;
    out->rank = sy->rank;
    out->kind = StepKind::kSync;
    return true;
  }
  return false;
}

}  // namespace

Trace::Trace(const clog2::File& file, int threads) : file_(&file) {
  const int nworkers = util::resolve_threads(threads);
  const std::size_t nrec = file.records.size();
  const std::size_t nchunks = (nrec + kRecordChunk - 1) / kRecordChunk;

  // Pass 1: per-chunk step counts, rank ratchets, and definition record
  // pointers. Pass 2 commits each chunk's steps into its prefix-summed
  // slot range; definitions then apply serially in chunk (= record) order,
  // preserving the maps' last-wins insertion order.
  struct ChunkScan {
    std::size_t nsteps = 0;
    int max_rank = -1;
    std::vector<const clog2::Record*> defs;
  };
  std::vector<ChunkScan> scans(nchunks);
  util::parallel_for(nchunks, nworkers, [&](std::size_t c) {
    const std::size_t lo = c * kRecordChunk;
    const std::size_t hi = std::min(nrec, lo + kRecordChunk);
    ChunkScan& sc = scans[c];
    for (std::size_t i = lo; i < hi; ++i) {
      const clog2::Record& rec = file.records[i];
      if (const auto* ev = std::get_if<clog2::EventRec>(&rec)) {
        sc.max_rank = std::max(sc.max_rank, ev->rank);
        ++sc.nsteps;
      } else if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) {
        sc.max_rank = std::max(sc.max_rank, m->rank);
        ++sc.nsteps;
      } else if (std::holds_alternative<clog2::SyncRec>(rec)) {
        ++sc.nsteps;
      } else if (std::holds_alternative<clog2::StateDef>(rec) ||
                 std::holds_alternative<clog2::EventDef>(rec)) {
        sc.defs.push_back(&rec);
      }
    }
  });
  int max_rank = file.nranks - 1;
  std::vector<std::size_t> offset(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c) {
    offset[c + 1] = offset[c] + scans[c].nsteps;
    max_rank = std::max(max_rank, scans[c].max_rank);
  }
  steps_.resize(offset[nchunks]);
  util::parallel_for(nchunks, nworkers, [&](std::size_t c) {
    const std::size_t lo = c * kRecordChunk;
    const std::size_t hi = std::min(nrec, lo + kRecordChunk);
    std::size_t at = offset[c];
    for (std::size_t i = lo; i < hi; ++i) {
      Step s;
      if (flatten_step(file.records[i], &s)) steps_[at++] = s;
    }
  });
  for (const ChunkScan& sc : scans) {
    for (const clog2::Record* rec : sc.defs) {
      if (const auto* sd = std::get_if<clog2::StateDef>(rec)) {
        state_events_[sd->start_event_id] = {sd->state_id, sd->name, true};
        state_events_[sd->end_event_id] = {sd->state_id, sd->name, false};
        state_names_[sd->state_id] = sd->name;
      } else {
        const auto& ed = std::get<clog2::EventDef>(*rec);
        solo_event_ids_[ed.name] = ed.event_id;
      }
    }
  }
  nranks_ = max_rank + 1;

  // The span deliberately covers events and message halves only — sync
  // records are bookkeeping, and the stall accounting (TC203) measures the
  // program's own activity window. The fold stays serial: min/max over
  // doubles is order-sensitive in the corners (NaN), and this pass is a
  // fraction of the build cost.
  for (const Step& s : steps_) {
    if (s.kind == StepKind::kSync) continue;
    if (!have_span_) {
      t_min_ = t_max_ = s.time;
      have_span_ = true;
    } else {
      t_min_ = std::min(t_min_, s.time);
      t_max_ = std::max(t_max_, s.time);
    }
  }
  if (nranks_ <= 0) return;

  // Per-rank index lists by a counting sort: per-(chunk, rank) counts, a
  // per-rank prefix sum across chunks (turning each count row into that
  // chunk's write cursors), then a scatter into the stream-order positions.
  const auto nr = static_cast<std::size_t>(nranks_);
  const std::size_t nstep_chunks = (steps_.size() + kRecordChunk - 1) / kRecordChunk;
  std::vector<std::vector<std::size_t>> counts(nstep_chunks,
                                               std::vector<std::size_t>(nr, 0));
  util::parallel_for(nstep_chunks, nworkers, [&](std::size_t c) {
    const std::size_t lo = c * kRecordChunk;
    const std::size_t hi = std::min(steps_.size(), lo + kRecordChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int32_t r = steps_[i].rank;
      if (r >= 0 && r < nranks_) ++counts[c][static_cast<std::size_t>(r)];
    }
  });
  by_rank_.resize(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    std::size_t running = 0;
    for (std::size_t c = 0; c < nstep_chunks; ++c) {
      const std::size_t n = counts[c][r];
      counts[c][r] = running;
      running += n;
    }
    by_rank_[r].resize(running);
  }
  util::parallel_for(nstep_chunks, nworkers, [&](std::size_t c) {
    const std::size_t lo = c * kRecordChunk;
    const std::size_t hi = std::min(steps_.size(), lo + kRecordChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int32_t r = steps_[i].rank;
      if (r >= 0 && r < nranks_)
        by_rank_[static_cast<std::size_t>(r)]
                [counts[c][static_cast<std::size_t>(r)]++] = i;
    }
  });
}

const StateEvent* Trace::state_event(std::int32_t event_id) const {
  const auto it = state_events_.find(event_id);
  return it != state_events_.end() ? &it->second : nullptr;
}

const std::string* Trace::state_name(std::int32_t state_id) const {
  const auto it = state_names_.find(state_id);
  return it != state_names_.end() ? &it->second : nullptr;
}

std::optional<std::int32_t> Trace::event_id_of(const std::string& name) const {
  const auto it = solo_event_ids_.find(name);
  if (it == solo_event_ids_.end()) return std::nullopt;
  return it->second;
}

}  // namespace query
