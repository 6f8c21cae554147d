#include "mpe/mpe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/color.hpp"
#include "util/fs.hpp"

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

/// One rank's log on its way into a file: the located timed records and
/// the sync samples lifted out of the stream.
struct RankLog {
  WireStream stream;
  std::vector<clog2::SyncRec> syncs;
};

/// Apply the rank's clock correction to every timestamp in place (the
/// expression ClockFit::apply, so the bytes are what correcting a decoded
/// record and encoding it again gives). A time the correction takes out of
/// the finite range ends the stream there.
void correct(RankLog& log) {
  const ClockFit fit = fit_clock(log.syncs);
  auto& starts = log.stream.starts;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    std::uint8_t* rec = log.stream.bytes.data() + starts[k];
    const double t = fit.apply(clog2::record_time(rec));
    if (!std::isfinite(t)) {
      starts.resize(k);
      break;
    }
    clog2::set_record_time(rec, t);
  }
}

/// Header, `head` (definitions and constants), every log's sync samples in
/// log order, the merged timed records and the end marker: the file
/// finish_log and salvage write, encoded into one buffer sized up front.
std::vector<std::uint8_t> encode_file(std::int32_t nranks, std::string_view comment,
                                      std::vector<clog2::Record> head,
                                      std::vector<RankLog> logs) {
  std::size_t nrecords = 0;
  std::size_t record_bytes = 0;
  std::vector<WireStream> streams;
  for (auto& log : logs) {
    head.insert(head.end(), log.syncs.begin(), log.syncs.end());
    nrecords += log.stream.starts.size();
    record_bytes += log.stream.bytes.size();
    streams.push_back(std::move(log.stream));
  }
  util::ByteWriter head_bytes;
  for (const auto& rec : head) clog2::append_record(head_bytes, rec);
  util::ByteWriter w;
  w.reserve(64 + comment.size() + head_bytes.size() + record_bytes);
  clog2::append_header(w, nranks, comment, head.size() + nrecords);
  w.raw(head_bytes.bytes().data(), head_bytes.size());
  merge_streams(std::move(streams), w);
  clog2::append_end(w);
  return w.take();
}
}  // namespace

void merge_streams(std::vector<WireStream> streams, util::ByteWriter& out) {
  const auto time_at = [&](std::size_t s, std::size_t pos) {
    return clog2::record_time(streams[s].bytes.data() + streams[s].starts[pos]);
  };
  for (auto& s : streams) {
    // Local repair: a clock fit with non-positive slope (or hand-stamped
    // records) can leave this stream non-monotonic; fix it here so the heap
    // merge below only ever has to compare stream fronts.
    const std::uint8_t* base = s.bytes.data();
    const auto earlier = [base](std::size_t a, std::size_t b) {
      return clog2::record_time(base + a) < clog2::record_time(base + b);
    };
    if (!std::is_sorted(s.starts.begin(), s.starts.end(), earlier))
      std::stable_sort(s.starts.begin(), s.starts.end(), earlier);
  }

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
    if (!streams[s].starts.empty()) heap.push_back(Cursor{time_at(s, 0), s, 0});
  std::make_heap(heap.begin(), heap.end(), later);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& cur = heap.back();
    const WireStream& stream = streams[cur.stream];
    const std::size_t at = stream.starts[cur.pos];
    out.raw(stream.bytes.data() + at,
            clog2::timed_record_size(stream.bytes.data() + at, stream.bytes.size() - at));
    if (++cur.pos < stream.starts.size()) {
      cur.t = time_at(cur.stream, cur.pos);
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
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
  id_tables_.push_back(std::make_unique<IdTable>(64));
  ids_.store(id_tables_.back().get(), std::memory_order_release);
}

int Logger::get_event_number() {
  std::lock_guard lk(defs_mu_);
  return next_event_id_++;
}

void Logger::mark_defined(int event_id) {
  const auto id = static_cast<std::size_t>(event_id);
  const IdTable& cur = *id_tables_.back();
  if (id >= cur.size) {
    auto bigger = std::make_unique<IdTable>(std::max(2 * cur.size, id + 1));
    for (std::size_t i = 0; i < cur.size; ++i)
      bigger->known[i].store(cur.known[i].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    id_tables_.push_back(std::move(bigger));
  }
  id_tables_.back()->known[id].store(true, std::memory_order_release);
  ids_.store(id_tables_.back().get(), std::memory_order_release);
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
  mark_defined(event_id);
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
  mark_defined(start_event_id);
  mark_defined(end_event_id);
  const int state_id = static_cast<int>(state_defs_.size()) + 1;
  state_defs_.push_back(clog2::StateDef{state_id, start_event_id, end_event_id,
                                        std::move(name), std::move(color),
                                        std::move(format)});
}

namespace {
std::string spill_rank_path(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank) + ".spill";
}
std::string spill_defs_path(const std::string& base) { return base + ".defs.spill"; }
}  // namespace

void Logger::spill(int rank, const std::uint8_t* data, std::size_t n) {
  auto& buf = buffers_[static_cast<std::size_t>(rank)];
  if (buf.spill_broken) return;
  if (!buf.spill) {
    buf.spill = std::make_unique<std::ofstream>(
        spill_rank_path(opts_.spill_base, rank), std::ios::binary | std::ios::trunc);
    if (!*buf.spill)
      throw util::IoError("cannot open spill file for rank " + std::to_string(rank));
  }
  ++buf.spill_writes;
  std::size_t keep = n;
  if (opts_.spill_fault) keep = std::min(opts_.spill_fault(rank, buf.spill_writes, n), n);
  buf.spill->write(reinterpret_cast<const char*>(data),
                   static_cast<std::streamsize>(keep));
  // Flush per record: the whole point is surviving a sudden death.
  buf.spill->flush();
  if (keep < n || !*buf.spill) {
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
  const IdTable& ids = *ids_.load(std::memory_order_acquire);
  const auto id = static_cast<std::size_t>(event_id);
  if (event_id <= 0 || id >= ids.size || !ids.known[id].load(std::memory_order_acquire))
    throw util::UsageError("log_event: event id " + std::to_string(event_id) +
                           " has no definition");
  const int rank = comm.rank();
  auto& buf = buffers_[static_cast<std::size_t>(rank)];
  clog2::check_timestamp(local_time, buf.count);
  const std::size_t at = buf.records.size();
  clog2::append_event(buf.records, local_time, rank, event_id,
                      text.substr(0, opts_.max_text_bytes));
  appended(rank, at);
}

void Logger::log_send(mpisim::Comm& comm, int dst, int tag, std::size_t bytes) {
  log_msg(comm, comm.wtime(), clog2::MsgRec::Kind::kSend, dst, tag, bytes);
}

void Logger::log_receive(mpisim::Comm& comm, int src, int tag, std::size_t bytes) {
  log_receive_at(comm, comm.wtime(), src, tag, bytes);
}

void Logger::log_receive_at(mpisim::Comm& comm, double local_time, int src, int tag,
                            std::size_t bytes) {
  log_msg(comm, local_time, clog2::MsgRec::Kind::kRecv, src, tag, bytes);
}

void Logger::log_msg(mpisim::Comm& comm, double local_time, clog2::MsgRec::Kind kind,
                     int partner, int tag, std::size_t bytes) {
  const int rank = comm.rank();
  auto& buf = buffers_[static_cast<std::size_t>(rank)];
  clog2::check_rank("partner", partner, world_.nprocs(), buf.count);
  clog2::check_timestamp(local_time, buf.count);
  const std::size_t at = buf.records.size();
  clog2::append_record(buf.records, clog2::MsgRec{local_time, rank, kind, partner, tag,
                                                  static_cast<std::uint32_t>(bytes)});
  appended(rank, at);
}

void Logger::appended(int rank, std::size_t at) {
  auto& buf = buffers_[static_cast<std::size_t>(rank)];
  // Robust mode spills exactly the bytes just buffered.
  if (!opts_.spill_base.empty())
    spill(rank, buf.records.bytes().data() + at, buf.records.size() - at);
  ++buf.count;
  // Fault injection: crash=RANK@event:N fires here, after the record was
  // buffered and spilled — the first N records are the salvageable prefix.
  if (opts_.on_record) opts_.on_record(rank, buf.count);
}

void Logger::add_sync(int rank, const clog2::SyncRec& sample) {
  buffers_[static_cast<std::size_t>(rank)].sync_samples.push_back(sample);
  if (opts_.spill_base.empty()) return;
  util::ByteWriter w;
  clog2::append_record(w, sample);
  spill(rank, w.bytes().data(), w.size());
}

void Logger::log_sync_clocks(mpisim::Comm& comm) {
  const int rank = comm.rank();
  const int n = comm.size();

  if (rank == 0) {
    // Reference clock: answer each rank's pings in rank order, and record
    // an identity sample for ourselves.
    const double t = comm.wtime();
    add_sync(0, clog2::SyncRec{0, t, t});
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
  add_sync(rank, best);
}

double Logger::finish_log(mpisim::Comm& comm, const std::filesystem::path& out) {
  const int rank = comm.rank();
  const int n = comm.size();

  // A rank's stream is its record bytes followed by its sync samples, so
  // the gather needs no framing: rank 0 tells them apart by kind.
  auto& mine = buffers_[static_cast<std::size_t>(rank)];
  for (const auto& s : mine.sync_samples) clog2::append_record(mine.records, s);
  if (rank != 0) {
    comm.send(0, kTagCollect, mine.records.bytes().data(), mine.records.size());
    mine.records = util::ByteWriter{};
    return 0.0;
  }

  const double t_start = comm.wtime();

  std::vector<RankLog> logs;
  logs.reserve(static_cast<std::size_t>(n));
  logs.emplace_back().stream.bytes = mine.records.take();
  for (int r = 1; r < n; ++r)
    logs.emplace_back().stream.bytes =
        std::move(comm.recv_any_size(r, kTagCollect).second);
  std::size_t total_records = 0;
  for (auto& log : logs) {
    // One walk finds every record start; the records were checked when
    // they were logged, so only the sync samples are decoded.
    const auto& bytes = log.stream.bytes;
    for (std::size_t at = 0; at < bytes.size();) {
      const std::size_t size =
          clog2::timed_record_size(bytes.data() + at, bytes.size() - at);
      if (bytes[at] == static_cast<std::uint8_t>(clog2::RecordKind::kSync)) {
        util::ByteReader r(bytes.data() + at, size);
        log.syncs.push_back(std::get<clog2::SyncRec>(clog2::read_record(r)));
      } else {
        log.stream.starts.push_back(at);
      }
      at += size;
    }
    total_records += log.stream.starts.size();
  }

  // Charge the simulated machine for the merge so "wrap-up time" exists in
  // virtual time, like the ~0.8 s the paper measures.
  comm.compute(opts_.merge_base_cost +
               opts_.merge_cost_per_record * static_cast<double>(total_records));

  std::vector<clog2::Record> head;
  {
    std::lock_guard lk(defs_mu_);
    head.assign(event_defs_.begin(), event_defs_.end());
    head.insert(head.end(), state_defs_.begin(), state_defs_.end());
  }
  head.emplace_back(clog2::ConstDef{"world_size", world_.nprocs()});
  head.emplace_back(clog2::ConstDef{"sync_rounds", opts_.sync_rounds});
  for (auto& log : logs) correct(log);
  util::write_file(out, encode_file(world_.nprocs(), opts_.comment, std::move(head),
                                    std::move(logs)));
  // The real log made it to disk: the crash-recovery spills are obsolete.
  remove_spill_files();
  return comm.wtime() - t_start;
}

clog2::File salvage(const std::string& spill_base, const std::string& comment) {
  namespace fs = std::filesystem;

  // Definitions (written before logging started).
  const fs::path defs_path = spill_base + ".defs.spill";
  std::vector<clog2::Record> head;
  bool found_anything = false;
  if (fs::exists(defs_path)) {
    found_anything = true;
    const auto bytes = util::read_file(defs_path);
    util::ByteReader r(bytes);
    std::vector<clog2::Record> states;
    try {
      while (!r.at_end()) {
        auto rec = clog2::read_record(r);
        if (std::holds_alternative<clog2::EventDef>(rec)) {
          head.push_back(std::move(rec));
        } else if (std::holds_alternative<clog2::StateDef>(rec)) {
          states.push_back(std::move(rec));
        }
      }
    } catch (const util::IoError&) {
      // Truncated defs tail: keep what parsed.
    }
    head.insert(head.end(), states.begin(), states.end());
  }
  head.emplace_back(clog2::ConstDef{"salvaged", 1});

  // Per-rank wire streams, in rank order; a hole in the rank sequence is
  // fine (that rank died before logging anything).
  std::vector<RankLog> logs;
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
    RankLog& log = logs.emplace_back();
    log.stream.bytes = util::read_file(path);
    util::ByteReader r(log.stream.bytes);
    try {
      for (std::uint64_t n = 0; !r.at_end(); ++n) {
        const std::size_t at = r.pos();
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
          log.syncs.push_back(*s);
        } else {
          log.stream.starts.push_back(at);
        }
      }
    } catch (const util::IoError&) {
      // The record being written when the program died, or one the record
      // check rejects: drop it and the rest of the stream.
    }
  }
  if (!found_anything)
    throw util::IoError("salvage: no spill files found at " + spill_base);

  for (auto& log : logs) correct(log);
  return clog2::parse(
      encode_file(max_rank + 1, comment, std::move(head), std::move(logs)));
}

std::size_t Logger::buffered(int rank) const {
  return static_cast<std::size_t>(buffers_.at(static_cast<std::size_t>(rank)).count);
}

}  // namespace mpe
