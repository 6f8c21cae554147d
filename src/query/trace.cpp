#include "query/trace.hpp"

#include <algorithm>
#include <exception>
#include <variant>

#include "util/error.hpp"
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
    *out = message_step(*m);
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

Step message_step(const clog2::MsgRec& m) {
  Step s;
  s.time = m.timestamp;
  s.rank = m.rank;
  s.kind = m.kind == clog2::MsgRec::Kind::kSend ? StepKind::kSend : StepKind::kRecv;
  s.partner = m.partner;
  s.tag = m.tag;
  s.size = m.size;
  return s;
}

Trace::Trace(const clog2::File& file, int threads)
    : file_(&file), nranks_(file.nranks) {
  clog2::check_nranks(nranks_);
  const int nworkers = util::resolve_threads(threads);
  const std::size_t nrec = file.records.size();
  const std::size_t nchunks = (nrec + kRecordChunk - 1) / kRecordChunk;

  // Pass 1: per-chunk step counts, record checks, and definition record
  // pointers. A chunk stops at its first record the check rejects, and the
  // lowest such record throws, so the error is the same at any worker
  // count. Pass 2 commits each chunk's steps into its prefix-summed slot
  // range; definitions then apply serially in chunk (= record) order,
  // preserving the maps' last-wins insertion order.
  struct ChunkScan {
    std::size_t nsteps = 0;
    std::exception_ptr bad_record;
    std::vector<const clog2::Record*> defs;
  };
  std::vector<ChunkScan> scans(nchunks);
  util::parallel_for(nchunks, nworkers, [&](std::size_t c) {
    const std::size_t lo = c * kRecordChunk;
    const std::size_t hi = std::min(nrec, lo + kRecordChunk);
    ChunkScan& sc = scans[c];
    for (std::size_t i = lo; i < hi; ++i) {
      const clog2::Record& rec = file.records[i];
      try {
        clog2::check_record(rec, nranks_, i);
      } catch (const util::IoError&) {
        sc.bad_record = std::current_exception();
        return;
      }
      if (std::holds_alternative<clog2::StateDef>(rec) ||
          std::holds_alternative<clog2::EventDef>(rec))
        sc.defs.push_back(&rec);
      else if (!std::holds_alternative<clog2::ConstDef>(rec))
        ++sc.nsteps;
    }
  });
  std::vector<std::size_t> offset(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c) {
    if (scans[c].bad_record) std::rethrow_exception(scans[c].bad_record);
    offset[c + 1] = offset[c] + scans[c].nsteps;
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
    definitions_.insert(definitions_.end(), sc.defs.begin(), sc.defs.end());
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
    for (std::size_t i = lo; i < hi; ++i)
      ++counts[c][static_cast<std::size_t>(steps_[i].rank)];
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
      const auto r = static_cast<std::size_t>(steps_[i].rank);
      by_rank_[r][counts[c][r]++] = i;
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
