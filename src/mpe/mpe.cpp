#include "mpe/mpe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/color.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace mpe {

namespace {
// Reserved tag band for MPE's own traffic (above the collectives band).
constexpr int kTagSyncPing = 0x02000001;
constexpr int kTagSyncPong = 0x02000002;
constexpr int kTagCollect = 0x02000003;

/// The rank a spilled record was logged on; -1 for a definition, which
/// has no place in a rank's stream.
int logged_rank(const clog2::Record& rec) {
  if (const auto* e = std::get_if<clog2::EventRec>(&rec)) return e->rank;
  if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) return m->rank;
  if (const auto* s = std::get_if<clog2::SyncRec>(&rec)) return s->rank;
  return -1;
}
}  // namespace

double record_time(const clog2::Record& rec) {
  if (const auto* e = std::get_if<clog2::EventRec>(&rec)) return e->timestamp;
  if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) return m->timestamp;
  return 0.0;
}

std::vector<clog2::Record> merge_timed(std::vector<std::vector<clog2::Record>> streams) {
  std::size_t total = 0;
  for (auto& s : streams) {
    total += s.size();
    // Local repair: a clock fit with non-positive slope (or hand-stamped
    // records) can leave this stream non-monotonic; fix it here so the heap
    // merge below only ever has to compare stream fronts.
    bool sorted = true;
    for (std::size_t i = 1; i < s.size(); ++i)
      if (record_time(s[i]) < record_time(s[i - 1])) {
        sorted = false;
        break;
      }
    if (!sorted)
      std::stable_sort(s.begin(), s.end(), [](const auto& a, const auto& b) {
        return record_time(a) < record_time(b);
      });
  }

  std::vector<clog2::Record> out;
  out.reserve(total);

  // Heap of stream cursors, smallest (time, stream index) on top. The
  // stream-index tie-break plus per-stream FIFO order reproduces the
  // stable-sort-of-concatenation order exactly.
  struct Cursor {
    double t;
    std::size_t stream;
    std::size_t pos;
  };
  auto later = [](const Cursor& a, const Cursor& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.stream > b.stream;
  };
  std::vector<Cursor> heap;
  heap.reserve(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s)
    if (!streams[s].empty()) heap.push_back(Cursor{record_time(streams[s][0]), s, 0});
  std::make_heap(heap.begin(), heap.end(), later);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor cur = heap.back();
    heap.pop_back();
    auto& stream = streams[cur.stream];
    out.emplace_back(std::move(stream[cur.pos]));
    if (cur.pos + 1 < stream.size()) {
      heap.push_back(Cursor{record_time(stream[cur.pos + 1]), cur.stream, cur.pos + 1});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return out;
}

ClockFit fit_clock(const std::vector<clog2::SyncRec>& samples) {
  ClockFit fit;
  if (samples.empty()) return fit;
  if (samples.size() == 1) {
    fit.a = samples[0].ref_time - samples[0].local_time;
    fit.b = 1.0;
    return fit;
  }
  // Least-squares line ref = a + b * local.
  double sl = 0, sr = 0, sll = 0, slr = 0;
  const auto n = static_cast<double>(samples.size());
  for (const auto& s : samples) {
    sl += s.local_time;
    sr += s.ref_time;
    sll += s.local_time * s.local_time;
    slr += s.local_time * s.ref_time;
  }
  const double denom = n * sll - sl * sl;
  if (denom <= 0.0 || !std::isfinite(denom)) {
    // Degenerate (identical local times): fall back to mean offset.
    fit.a = (sr - sl) / n;
    fit.b = 1.0;
    return fit;
  }
  fit.b = (n * slr - sl * sr) / denom;
  fit.a = (sr - fit.b * sl) / n;
  return fit;
}

Logger::Logger(mpisim::World& world, Options opts)
    : world_(world), opts_(std::move(opts)) {
  if (opts_.sync_rounds < 1)
    throw util::UsageError("mpe::Logger needs at least one sync round");
  buffers_.resize(static_cast<std::size_t>(world.nprocs()));
}

int Logger::get_event_number() {
  std::lock_guard lk(defs_mu_);
  return next_event_id_++;
}

void Logger::define_event(int event_id, std::string name, std::string color,
                          std::string format) {
  if (!util::is_known_color(color))
    throw util::UsageError("define_event '" + name + "': unknown colour '" + color + "'");
  std::lock_guard lk(defs_mu_);
  if (event_id <= 0 || event_id >= next_event_id_)
    throw util::UsageError("define_event '" + name + "': event id " +
                           std::to_string(event_id) + " was never allocated");
  if (auto it = known_event_ids_.find(event_id); it != known_event_ids_.end())
    throw util::UsageError("define_event '" + name + "': event id " +
                           std::to_string(event_id) + " already defined by '" +
                           it->second + "'");
  known_event_ids_[event_id] = name;
  event_defs_.push_back(clog2::EventDef{event_id, std::move(name), std::move(color),
                                        std::move(format)});
}

void Logger::define_state(int start_event_id, int end_event_id, std::string name,
                          std::string color, std::string format) {
  if (!util::is_known_color(color))
    throw util::UsageError("define_state '" + name + "': unknown colour '" + color + "'");
  std::lock_guard lk(defs_mu_);
  for (int id : {start_event_id, end_event_id}) {
    if (id <= 0 || id >= next_event_id_)
      throw util::UsageError("define_state '" + name + "': event id " +
                             std::to_string(id) + " was never allocated");
    if (auto it = known_event_ids_.find(id); it != known_event_ids_.end())
      throw util::UsageError("define_state '" + name + "': event id " +
                             std::to_string(id) + " already defined by '" +
                             it->second + "'");
  }
  if (start_event_id == end_event_id)
    throw util::UsageError("define_state '" + name +
                           "': start and end events must differ");
  known_event_ids_[start_event_id] = name;
  known_event_ids_[end_event_id] = name;
  const int state_id = static_cast<int>(state_defs_.size()) + 1;
  state_defs_.push_back(clog2::StateDef{state_id, start_event_id, end_event_id,
                                        std::move(name), std::move(color),
                                        std::move(format)});
}

std::string Logger::clip(std::string_view text) const {
  return util::truncate_bytes(text, opts_.max_text_bytes);
}

namespace {
std::string spill_rank_path(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank) + ".spill";
}
std::string spill_defs_path(const std::string& base) { return base + ".defs.spill"; }
}  // namespace

void Logger::spill_record(int rank, const clog2::Record& rec) {
  if (opts_.spill_base.empty()) return;
  auto& buf = buffers_[static_cast<std::size_t>(rank)];
  if (buf.spill_broken) return;
  if (!buf.spill) {
    buf.spill = std::make_unique<std::ofstream>(
        spill_rank_path(opts_.spill_base, rank), std::ios::binary | std::ios::trunc);
    if (!*buf.spill)
      throw util::IoError("cannot open spill file for rank " + std::to_string(rank));
  }
  util::ByteWriter w;
  clog2::append_record(w, rec);
  ++buf.spill_writes;
  std::size_t keep = w.size();
  if (opts_.spill_fault)
    keep = std::min(opts_.spill_fault(rank, buf.spill_writes, w.size()), w.size());
  buf.spill->write(reinterpret_cast<const char*>(w.bytes().data()),
                   static_cast<std::streamsize>(keep));
  // Flush per record: the whole point is surviving a sudden death.
  buf.spill->flush();
  if (keep < w.size() || !*buf.spill) {
    // Injected or real write failure. Keep the damaged prefix on disk (the
    // salvager drops the torn tail) and stop spilling; records still buffer
    // in memory, so a clean finish writes the full trace regardless.
    buf.spill_broken = true;
  }
}

void Logger::write_spill_defs() {
  if (opts_.spill_base.empty()) return;
  util::ByteWriter w;
  {
    std::lock_guard lk(defs_mu_);
    for (const auto& d : event_defs_) clog2::append_record(w, d);
    for (const auto& d : state_defs_) clog2::append_record(w, d);
  }
  util::write_file(spill_defs_path(opts_.spill_base), w.bytes());
}

void Logger::remove_spill_files() {
  if (opts_.spill_base.empty()) return;
  std::error_code ec;
  std::filesystem::remove(spill_defs_path(opts_.spill_base), ec);
  for (std::size_t r = 0; r < buffers_.size(); ++r) {
    if (buffers_[r].spill) buffers_[r].spill.reset();  // close first
    std::filesystem::remove(spill_rank_path(opts_.spill_base, static_cast<int>(r)),
                            ec);
  }
}

void Logger::log_event(mpisim::Comm& comm, int event_id, std::string_view text) {
  log_event_at(comm, comm.wtime(), event_id, text);
}

void Logger::log_event_at(mpisim::Comm& comm, double local_time, int event_id,
                          std::string_view text) {
  {
    std::lock_guard lk(defs_mu_);
    if (known_event_ids_.find(event_id) == known_event_ids_.end())
      throw util::UsageError("log_event: event id " + std::to_string(event_id) +
                             " has no definition");
  }
  auto& buf = buffers_[static_cast<std::size_t>(comm.rank())];
  buf.records.emplace_back(
      clog2::EventRec{local_time, comm.rank(), event_id, clip(text)});
  if (!opts_.spill_base.empty()) spill_record(comm.rank(), buf.records.back());
  record_logged(comm.rank());
}

void Logger::log_send(mpisim::Comm& comm, int dst, int tag, std::size_t bytes) {
  clog2::MsgRec m;
  m.timestamp = comm.wtime();
  m.rank = comm.rank();
  m.kind = clog2::MsgRec::Kind::kSend;
  m.partner = dst;
  m.tag = tag;
  m.size = static_cast<std::uint32_t>(bytes);
  buffers_[static_cast<std::size_t>(comm.rank())].records.emplace_back(m);
  if (!opts_.spill_base.empty()) spill_record(comm.rank(), clog2::Record{m});
  record_logged(comm.rank());
}

void Logger::log_receive(mpisim::Comm& comm, int src, int tag, std::size_t bytes) {
  log_receive_at(comm, comm.wtime(), src, tag, bytes);
}

void Logger::log_receive_at(mpisim::Comm& comm, double local_time, int src, int tag,
                            std::size_t bytes) {
  clog2::MsgRec m;
  m.timestamp = local_time;
  m.rank = comm.rank();
  m.kind = clog2::MsgRec::Kind::kRecv;
  m.partner = src;
  m.tag = tag;
  m.size = static_cast<std::uint32_t>(bytes);
  buffers_[static_cast<std::size_t>(comm.rank())].records.emplace_back(m);
  if (!opts_.spill_base.empty()) spill_record(comm.rank(), clog2::Record{m});
  record_logged(comm.rank());
}

void Logger::record_logged(int rank) {
  auto& buf = buffers_[static_cast<std::size_t>(rank)];
  ++buf.logged;
  // Fault injection: crash=RANK@event:N fires here, after the record was
  // buffered and spilled — the first N records are the salvageable prefix.
  if (opts_.on_record) opts_.on_record(rank, buf.logged);
}

void Logger::log_sync_clocks(mpisim::Comm& comm) {
  const int rank = comm.rank();
  const int n = comm.size();
  auto& buf = buffers_[static_cast<std::size_t>(rank)];

  if (rank == 0) {
    // Reference clock: answer each rank's pings in rank order, and record
    // an identity sample for ourselves.
    const double t = comm.wtime();
    buf.sync_samples.push_back(clog2::SyncRec{0, t, t});
    if (!opts_.spill_base.empty())
      spill_record(0, clog2::Record{buf.sync_samples.back()});
    for (int r = 1; r < n; ++r) {
      for (int round = 0; round < opts_.sync_rounds; ++round) {
        comm.recv(r, kTagSyncPing, nullptr, 0);
        const double ref = comm.wtime();
        comm.send(r, kTagSyncPong, &ref, sizeof ref);
      }
    }
    return;
  }

  // Min-RTT wins: the shortest round trip brackets rank 0's reply most
  // tightly, so its midpoint is the best offset estimate.
  double best_rtt = std::numeric_limits<double>::infinity();
  clog2::SyncRec best{rank, 0.0, 0.0};
  for (int round = 0; round < opts_.sync_rounds; ++round) {
    const double t0 = comm.wtime();
    comm.send(0, kTagSyncPing, nullptr, 0);
    double ref = 0.0;
    comm.recv(0, kTagSyncPong, &ref, sizeof ref);
    const double t1 = comm.wtime();
    const double rtt = t1 - t0;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best.local_time = 0.5 * (t0 + t1);
      best.ref_time = ref;
    }
  }
  buf.sync_samples.push_back(best);
  if (!opts_.spill_base.empty()) spill_record(rank, clog2::Record{best});
}

clog2::File Logger::merge_all(std::vector<RankBuffer> buffers) {
  clog2::File out;
  out.nranks = world_.nprocs();
  out.comment = opts_.comment;

  {
    std::lock_guard lk(defs_mu_);
    for (const auto& d : event_defs_) out.records.emplace_back(d);
    for (const auto& d : state_defs_) out.records.emplace_back(d);
  }
  out.records.emplace_back(clog2::ConstDef{"world_size", world_.nprocs()});
  out.records.emplace_back(clog2::ConstDef{"sync_rounds", opts_.sync_rounds});

  // Per-rank clock corrections from the sync samples.
  std::vector<ClockFit> fits(static_cast<std::size_t>(world_.nprocs()));
  for (std::size_t r = 0; r < buffers.size(); ++r) {
    fits[r] = fit_clock(buffers[r].sync_samples);
    for (const auto& s : buffers[r].sync_samples) out.records.emplace_back(s);
  }

  // Correct timestamps in place, then k-way merge the per-rank streams.
  // Each stream is already time-ordered (monotonic rank clocks, linear
  // correction), so the merge is O(n log k) with no global sort and no
  // intermediate copy of the trace; merge_timed repairs the rare stream a
  // degenerate correction left inverted.
  std::vector<std::vector<clog2::Record>> streams;
  streams.reserve(buffers.size());
  for (std::size_t r = 0; r < buffers.size(); ++r) {
    for (auto& rec : buffers[r].records) {
      if (auto* e = std::get_if<clog2::EventRec>(&rec)) {
        e->timestamp = fits[r].apply(e->timestamp);
      } else if (auto* m = std::get_if<clog2::MsgRec>(&rec)) {
        m->timestamp = fits[r].apply(m->timestamp);
      }
    }
    streams.push_back(std::move(buffers[r].records));
  }
  for (auto& rec : merge_timed(std::move(streams)))
    out.records.emplace_back(std::move(rec));
  return out;
}

double Logger::finish_log(mpisim::Comm& comm, const std::filesystem::path& out) {
  const int rank = comm.rank();
  const int n = comm.size();

  if (rank != 0) {
    // Ship this rank's buffer to rank 0 as an embedded CLOG-2 fragment.
    auto& mine = buffers_[static_cast<std::size_t>(rank)];
    clog2::File fragment;
    fragment.nranks = n;
    fragment.records = std::move(mine.records);
    for (const auto& s : mine.sync_samples) fragment.records.emplace_back(s);
    const auto bytes = clog2::serialize(fragment);
    comm.send(0, kTagCollect, bytes.data(), bytes.size());
    return 0.0;
  }

  const double t_start = comm.wtime();

  std::vector<RankBuffer> buffers(static_cast<std::size_t>(n));
  buffers[0] = std::move(buffers_[0]);
  std::size_t total_records = buffers[0].records.size();
  for (int r = 1; r < n; ++r) {
    auto [st, bytes] = comm.recv_any_size(r, kTagCollect);
    clog2::File fragment = clog2::parse(bytes);
    auto& dst = buffers[static_cast<std::size_t>(r)];
    for (auto& rec : fragment.records) {
      if (auto* s = std::get_if<clog2::SyncRec>(&rec)) {
        dst.sync_samples.push_back(*s);
      } else {
        dst.records.emplace_back(std::move(rec));
      }
    }
    total_records += dst.records.size();
  }

  // Charge the simulated machine for the merge so "wrap-up time" exists in
  // virtual time, like the ~0.8 s the paper measures.
  comm.compute(opts_.merge_base_cost +
               opts_.merge_cost_per_record * static_cast<double>(total_records));

  merged_ = merge_all(std::move(buffers));
  clog2::write_file(out, *merged_);
  // The real log made it to disk: the crash-recovery spills are obsolete.
  remove_spill_files();
  return comm.wtime() - t_start;
}

clog2::File salvage(const std::string& spill_base, const std::string& comment) {
  namespace fs = std::filesystem;

  clog2::File out;
  out.comment = comment;

  // Definitions (written before logging started).
  const fs::path defs_path = spill_base + ".defs.spill";
  std::vector<clog2::EventDef> event_defs;
  std::vector<clog2::StateDef> state_defs;
  bool found_anything = false;
  if (fs::exists(defs_path)) {
    found_anything = true;
    const auto bytes = util::read_file(defs_path);
    util::ByteReader r(bytes);
    try {
      while (!r.at_end()) {
        auto rec = clog2::read_record(r);
        if (auto* e = std::get_if<clog2::EventDef>(&rec)) event_defs.push_back(*e);
        if (auto* s = std::get_if<clog2::StateDef>(&rec)) state_defs.push_back(*s);
      }
    } catch (const util::IoError&) {
      // Truncated defs tail: keep what parsed.
    }
  }

  // Per-rank record streams; a hole in the rank sequence is fine (that
  // rank died before logging anything).
  struct Fragment {
    std::vector<clog2::Record> records;
    std::vector<clog2::SyncRec> syncs;
  };
  std::map<int, Fragment> fragments;
  int last_file = -1;
  // The header must cover every kept rank and partner; spill files open
  // at a rank's first record, so a partner may name a rank with no file.
  int max_rank = -1;
  for (int rank = 0; rank < clog2::kMaxRanks; ++rank) {
    const fs::path path = spill_base + ".rank" + std::to_string(rank) + ".spill";
    if (!fs::exists(path)) {
      // Allow gaps of a few ranks (a rank may never have logged).
      if (rank > last_file + 8) break;
      continue;
    }
    found_anything = true;
    last_file = rank;
    auto& frag = fragments[rank];
    const auto bytes = util::read_file(path);
    util::ByteReader r(bytes);
    try {
      for (std::uint64_t n = 0; !r.at_end(); ++n) {
        auto rec = clog2::read_record(r);
        // A record logged under another rank, naming a partner no header can
        // cover, or stamped with a non-finite time is corruption: the stream
        // ends there, like a torn tail.
        clog2::check_record(rec, clog2::kMaxRanks, n);
        const auto* m = std::get_if<clog2::MsgRec>(&rec);
        const auto* s = std::get_if<clog2::SyncRec>(&rec);
        if (logged_rank(rec) != rank ||
            (s != nullptr &&
             !(std::isfinite(s->local_time) && std::isfinite(s->ref_time))))
          break;
        max_rank = std::max({max_rank, rank, m != nullptr ? m->partner : -1});
        if (s != nullptr) {
          frag.syncs.push_back(*s);
        } else {
          frag.records.push_back(std::move(rec));
        }
      }
    } catch (const util::IoError&) {
      // The record being written when the program died, or one the record
      // check rejects: drop it and the rest of the stream.
    }
  }
  if (!found_anything)
    throw util::IoError("salvage: no spill files found at " + spill_base);

  out.nranks = max_rank + 1;
  for (const auto& d : event_defs) out.records.emplace_back(d);
  for (const auto& d : state_defs) out.records.emplace_back(d);
  out.records.emplace_back(clog2::ConstDef{"salvaged", 1});

  std::vector<std::vector<clog2::Record>> streams;
  streams.reserve(fragments.size());
  for (auto& [rank, frag] : fragments) {
    const ClockFit fit = fit_clock(frag.syncs);
    for (const auto& s : frag.syncs) out.records.emplace_back(s);
    for (std::size_t k = 0; k < frag.records.size(); ++k) {
      auto& rec = frag.records[k];
      double* t = nullptr;
      if (auto* e = std::get_if<clog2::EventRec>(&rec)) {
        t = &e->timestamp;
      } else if (auto* m = std::get_if<clog2::MsgRec>(&rec)) {
        t = &m->timestamp;
      }
      if (t == nullptr) continue;
      *t = fit.apply(*t);
      // An extreme fit can overflow a finite time; the stream ends there.
      if (!std::isfinite(*t)) {
        frag.records.resize(k);
        break;
      }
    }
    streams.push_back(std::move(frag.records));
  }
  for (auto& rec : merge_timed(std::move(streams)))
    out.records.emplace_back(std::move(rec));
  return out;
}

std::size_t Logger::buffered(int rank) const {
  return buffers_.at(static_cast<std::size_t>(rank)).records.size();
}

}  // namespace mpe
