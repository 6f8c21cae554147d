#include "traced/online_convert.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>

#include "slog2/frame_cache.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace traced {

namespace detail2 = slog2::detail;

namespace {

std::uint64_t state_live_bytes(const slog2::StateDrawable& s) {
  return sizeof(s) + s.start_text.size() + s.end_text.size();
}

}  // namespace

OnlineConverter::OnlineConverter(const OnlineOptions& opts) : opts_(opts) {
  if (opts_.convert.frame_size == 0)
    throw util::UsageError("traced::OnlineConverter: frame_size must be positive");
  if (opts_.convert.max_depth < 0 || opts_.convert.max_depth > 48)
    throw util::UsageError("traced::OnlineConverter: max_depth out of range");
  if (opts_.max_disorder < 0.0)
    throw util::UsageError("traced::OnlineConverter: max_disorder must be >= 0");
  cache_owner_ = slog2::FrameCache::fresh_owner();
}

OnlineConverter::~OnlineConverter() {
  // Sealed chunks can never be requested again under this owner id.
  slog2::FrameCache::global().erase_owner(cache_owner_);
}

void OnlineConverter::begin(std::int32_t nranks) {
  if (begun_) throw util::UsageError("OnlineConverter::begin called twice");
  begun_ = true;
  nranks_ = nranks;
  categories_.push_back(slog2::Category{slog2::kArrowCategoryId,
                                        slog2::CategoryKind::kArrow, "message",
                                        "white", ""});
  if (!opts_.spill_dir.empty()) {
    std::filesystem::create_directories(opts_.spill_dir);
    spill_file_ =
        opts_.spill_dir / util::strprintf("traced-%p.chunks",
                                          static_cast<const void*>(this));
    std::ofstream f(spill_file_, std::ios::binary | std::ios::trunc);
    if (!f) throw util::IoError("cannot create spill file " + spill_file_.string());
  }
}

double OnlineConverter::admitted_frontier() const {
  return watermark_ - opts_.max_disorder;
}

void OnlineConverter::push(const clog2::Record& rec) {
  if (!begun_) throw util::UsageError("OnlineConverter::push before begin()");
  if (finalized_) throw util::UsageError("OnlineConverter::push after finalize()");

  if (const auto* d = std::get_if<clog2::StateDef>(&rec)) {
    if (any_instance_)
      throw util::IoError(
          "online conversion requires definition records before instance "
          "records (StateDef arrived late)");
    const std::int32_t cat = next_cat_++;
    categories_.push_back(slog2::Category{cat, slog2::CategoryKind::kState, d->name,
                                          d->color, d->format});
    index_.at(d->start_event_id) = detail2::EventIdIndex::Entry{cat, true, -1};
    index_.at(d->end_event_id) = detail2::EventIdIndex::Entry{cat, false, -1};
    return;
  }
  if (const auto* e = std::get_if<clog2::EventDef>(&rec)) {
    if (any_instance_)
      throw util::IoError(
          "online conversion requires definition records before instance "
          "records (EventDef arrived late)");
    const std::int32_t cat = next_cat_++;
    categories_.push_back(slog2::Category{cat, slog2::CategoryKind::kEvent, e->name,
                                          e->color, e->format});
    index_.at(e->event_id) = detail2::EventIdIndex::Entry{-1, false, cat};
    return;
  }
  if (std::holds_alternative<clog2::ConstDef>(rec) ||
      std::holds_alternative<clog2::SyncRec>(rec))
    return;  // no drawables; the offline converter ignores these too

  // Instance record (EventRec or MsgRec).
  double t = 0.0;
  if (const auto* e = std::get_if<clog2::EventRec>(&rec))
    t = e->timestamp;
  else
    t = std::get<clog2::MsgRec>(rec).timestamp;

  if (any_instance_ && t < watermark_ - opts_.max_disorder)
    throw util::IoError(util::strprintf(
        "stream disorder exceeds the %.6fs bound: record at t=%.9f arrived "
        "after the watermark reached %.9f",
        opts_.max_disorder, t, watermark_));

  any_instance_ = true;
  last_time_seen_ = std::max(last_time_seen_, t);
  PendingInst inst{detail2::InstKey{t, inst_idx_++}, rec};
  heap_bytes_ += sizeof(PendingInst) + 64;  // rough per-record footprint
  heap_.push(std::move(inst));
  ++usage_.records;
  watermark_ = std::max(watermark_, t);

  // Admit everything that can no longer be displaced by a late arrival:
  // a new record may still carry any t' >= watermark - max_disorder, and
  // ties on t are broken by arrival index, so only keys strictly below the
  // frontier are final.
  drain_heap_until(watermark_ - opts_.max_disorder);
  maybe_seal();
  account();
}

void OnlineConverter::drain_heap_until(double limit) {
  while (!heap_.empty() && heap_.top().key.t < limit) {
    const PendingInst& top = heap_.top();
    admit(top);
    heap_bytes_ -= sizeof(PendingInst) + 64;
    heap_.pop();
  }
}

void OnlineConverter::admit(const PendingInst& inst) {
  last_admitted_t_ = inst.key.t;
  if (const auto* e = std::get_if<clog2::EventRec>(&inst.rec))
    admit_event(*e);
  else
    admit_msg(std::get<clog2::MsgRec>(inst.rec));
}

void OnlineConverter::scan_warn(std::int32_t rank, const std::string& msg) {
  // Mirror the offline cap structure: at most kMaxWarningMessages per rank
  // (TimelineOut::warns) — the global cap is applied when the warnings are
  // replayed through detail::warn at finalize.
  auto& rs = ranks_[rank];
  if (rs.scan_warns < detail2::kMaxWarningMessages &&
      scan_warnings_.size() < detail2::kMaxWarningMessages) {
    ++rs.scan_warns;
    scan_warnings_.push_back(msg);
  }
}

void OnlineConverter::admit_event(const clog2::EventRec& e) {
  auto& rs = ranks_[e.rank];
  const detail2::EventIdIndex::Entry* entry = index_.find(e.event_id);
  if (entry != nullptr && entry->state_cat >= 0) {
    if (entry->is_start) {
      rs.stack.push_back(detail2::OpenState{
          entry->state_cat, e.timestamp, e.text,
          static_cast<std::int32_t>(rs.stack.size())});
      open_bytes_ += sizeof(detail2::OpenState) + e.text.size();
    } else if (!rs.stack.empty() && rs.stack.back().category_id == entry->state_cat) {
      slog2::StateDrawable s;
      s.category_id = rs.stack.back().category_id;
      s.rank = e.rank;
      s.start_time = rs.stack.back().start_time;
      s.end_time = e.timestamp;
      s.depth = rs.stack.back().depth;
      s.start_text = std::move(rs.stack.back().start_text);
      s.end_text = e.text;
      open_bytes_ -= sizeof(detail2::OpenState) + s.start_text.size();
      rs.stack.pop_back();
      note_tail(committed_states_, s.start_time, s.end_time, state_live_bytes(s));
      tail_.states.push_back(std::move(s));
    } else {
      ++unmatched_state_ends_;
      scan_warn(e.rank,
                util::strprintf("rank %d: end event id %d at t=%.9f has no "
                                "matching open state",
                                e.rank, e.event_id, e.timestamp));
    }
  } else if (entry != nullptr && entry->solo_cat >= 0) {
    note_tail(committed_events_, e.timestamp, e.timestamp,
              sizeof(slog2::EventDrawable) + e.text.size());
    tail_.events.push_back(
        slog2::EventDrawable{entry->solo_cat, e.rank, e.timestamp, e.text});
  } else {
    ++unknown_event_ids_;
    scan_warn(e.rank, util::strprintf("rank %d: event id %d has no definition",
                                      e.rank, e.event_id));
  }
}

void OnlineConverter::admit_msg(const clog2::MsgRec& m) {
  const bool is_send = m.kind == clog2::MsgRec::Kind::kSend;
  const MsgKey mkey = is_send ? MsgKey{m.rank, m.partner, m.tag}
                              : MsgKey{m.partner, m.rank, m.tag};
  auto& q = msgs_[mkey];
  // Both queues fill in admitted (= globally sorted) order, so head-of-line
  // matching pairs the i-th send of the key with its i-th receive — the
  // offline pairing — and the arrow commits at the later half's key, which
  // is exactly the key being admitted now.
  auto* mine = is_send ? &q.sends : &q.recvs;
  auto* theirs = is_send ? &q.recvs : &q.sends;
  if (!theirs->empty()) {
    const clog2::MsgRec& send = is_send ? m : theirs->front();
    const clog2::MsgRec& recv = is_send ? theirs->front() : m;
    slog2::ArrowDrawable a;
    a.src_rank = send.rank;
    a.dst_rank = recv.rank;
    a.start_time = send.timestamp;
    a.end_time = recv.timestamp;
    a.tag = send.tag;
    a.size = send.size;
    open_bytes_ -= sizeof(clog2::MsgRec);
    theirs->pop_front();
    note_tail(committed_arrows_, std::min(a.start_time, a.end_time),
              std::max(a.start_time, a.end_time), detail2::kArrowBytes + 16);
    tail_.arrows.push_back(a);
  } else {
    mine->push_back(m);
    open_bytes_ += sizeof(clog2::MsgRec);
  }
}

void OnlineConverter::note_tail(detail2::Span& kind, double lo, double hi,
                                std::uint64_t bytes) {
  kind.widen(lo, hi);
  tail_span_.widen(lo, hi);
  tail_bytes_ += bytes;
}

void OnlineConverter::maybe_seal() {
  if (tail_bytes_ >= opts_.seal_bytes) seal_tail();
}

void OnlineConverter::seal_tail() {
  if (tail_.drawable_count() == 0) return;
  // Sealed chunks use the session's frame encoding through serialize()'s
  // payload codec: both encodings are lossless, so finalize() stays
  // byte-identical to the offline converter however many chunks sealed.
  util::ByteWriter w;
  detail2::write_payload(w, tail_, opts_.convert.encoding);
  std::vector<std::uint8_t> bytes = w.take();
  Chunk c;
  c.length = bytes.size();
  c.nstates = tail_.states.size();
  c.nevents = tail_.events.size();
  c.narrows = tail_.arrows.size();
  c.span = tail_span_;
  if (!spill_file_.empty()) {
    std::ofstream f(spill_file_, std::ios::binary | std::ios::app);
    if (!f) throw util::IoError("cannot append to spill file " + spill_file_.string());
    c.offset = static_cast<std::uint64_t>(f.tellp());
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f) throw util::IoError("short write to spill file " + spill_file_.string());
  } else {
    c.bytes = std::move(bytes);
  }
  usage_.sealed_bytes += c.length;
  ++usage_.sealed_chunks;
  chunks_.push_back(std::move(c));
  tail_.states.clear();
  tail_.events.clear();
  tail_.arrows.clear();
  tail_bytes_ = 0;
  tail_span_ = {};
}

void OnlineConverter::account() {
  usage_.live_bytes = tail_bytes_ + heap_bytes_ + open_bytes_;
  usage_.peak_live_bytes = std::max(usage_.peak_live_bytes, usage_.live_bytes);
}

slog2::Frame OnlineConverter::decode_chunk(std::size_t index) const {
  const Chunk& c = chunks_[index];
  std::vector<std::uint8_t> bytes;
  const std::vector<std::uint8_t>* src = &c.bytes;
  if (!spill_file_.empty()) {
    std::ifstream f(spill_file_, std::ios::binary);
    if (!f) throw util::IoError("cannot reopen spill file " + spill_file_.string());
    f.seekg(static_cast<std::streamoff>(c.offset));
    bytes.resize(c.length);
    f.read(reinterpret_cast<char*>(bytes.data()),
           static_cast<std::streamsize>(c.length));
    if (f.gcount() != static_cast<std::streamsize>(c.length))
      throw util::IoError("short read from spill file " + spill_file_.string());
    src = &bytes;
  }
  slog2::Frame out;
  detail2::read_payload(src->data(), src->size(), opts_.convert.encoding, &out);
  return out;
}

std::shared_ptr<const slog2::Frame> OnlineConverter::cached_chunk(
    std::size_t index) {
  const Chunk& c = chunks_[index];
  return slog2::FrameCache::global().get(
      cache_owner_, index, static_cast<std::size_t>(c.length) + sizeof(slog2::Frame),
      [&]() -> std::shared_ptr<const slog2::Frame> {
        return std::make_shared<slog2::Frame>(decode_chunk(index));
      });
}

void OnlineConverter::visit_window(
    double a, double b,
    const std::function<void(const slog2::StateDrawable&)>& on_state,
    const std::function<void(const slog2::EventDrawable&)>& on_event,
    const std::function<void(const slog2::ArrowDrawable&)>& on_arrow) {
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (chunks_[i].span.hi < a || chunks_[i].span.lo > b) continue;
    detail2::visit_frame(*cached_chunk(i), a, b, on_state, on_event, on_arrow);
  }
  detail2::visit_frame(tail_, a, b, on_state, on_event, on_arrow);
}

slog2::detail::Collected OnlineConverter::collect_all() {
  detail2::Collected all;
  std::uint64_t ns = tail_.states.size(), ne = tail_.events.size(),
                na = tail_.arrows.size();
  for (const Chunk& c : chunks_) {
    ns += c.nstates;
    ne += c.nevents;
    na += c.narrows;
  }
  all.states.reserve(ns);
  all.events.reserve(ne);
  all.arrows.reserve(na);
  // Chunks are sealed in commit order and each is internally commit-ordered
  // per kind, so per-kind concatenation reconstructs the global commit
  // order the offline converter produces.
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    slog2::Frame c = decode_chunk(i);
    std::move(c.states.begin(), c.states.end(), std::back_inserter(all.states));
    std::move(c.events.begin(), c.events.end(), std::back_inserter(all.events));
    std::move(c.arrows.begin(), c.arrows.end(), std::back_inserter(all.arrows));
  }
  all.states.insert(all.states.end(), tail_.states.begin(), tail_.states.end());
  all.events.insert(all.events.end(), tail_.events.begin(), tail_.events.end());
  all.arrows.insert(all.arrows.end(), tail_.arrows.begin(), tail_.arrows.end());
  return all;
}

void OnlineConverter::fill_pairing_stats(slog2::ConvertStats& stats) const {
  stats.unmatched_state_ends = unmatched_state_ends_;
  stats.unknown_event_ids = unknown_event_ids_;
  for (const auto& [key, q] : msgs_) {
    stats.unmatched_sends += q.sends.size();
    stats.unmatched_recvs += q.recvs.size();
  }
}

std::pair<double, double> OnlineConverter::committed_span() const {
  // assemble() folds all states, then all events, then all arrows; folding
  // the per-kind spans in that order picks the same bounds, signed zeros
  // included.
  detail2::Span all;
  for (const auto* kind : {&committed_states_, &committed_events_, &committed_arrows_})
    all.widen(kind->lo, kind->hi);
  if (all.lo <= all.hi) return {all.lo, all.hi};
  return {0.0, 0.0};
}

slog2::File OnlineConverter::finalize(std::vector<std::string>* warnings) {
  if (!begun_) throw util::UsageError("OnlineConverter::finalize before begin()");
  if (finalized_) throw util::UsageError("OnlineConverter::finalize called twice");
  finalized_ = true;

  // Flush the reorder heap: the stream is over, every pending instance is
  // final, and the heap pops them in (t, idx) order — the offline sort.
  drain_heap_until(std::numeric_limits<double>::infinity());

  slog2::File out;
  out.nranks = nranks_;
  out.frame_size = opts_.convert.frame_size;
  out.encoding = opts_.convert.encoding;
  out.categories = categories_;
  fill_pairing_stats(out.stats);

  detail2::Collected items = collect_all();

  // Replay warnings in the offline order: chronological scan warnings,
  // unmatched sends per key, unmatched receives per key, unclosed states
  // per rank.
  for (const auto& msg : scan_warnings_) detail2::warn(warnings, msg);
  for (const auto& [key, q] : msgs_)
    if (!q.sends.empty())
      detail2::warn(warnings,
                    util::strprintf("%zu send(s) from rank %d to rank %d tag %d "
                                    "were never received",
                                    q.sends.size(), std::get<0>(key),
                                    std::get<1>(key), std::get<2>(key)));
  for (const auto& [key, q] : msgs_)
    if (!q.recvs.empty())
      detail2::warn(warnings,
                    util::strprintf("%zu receive(s) at rank %d from rank %d tag %d "
                                    "have no logged send",
                                    q.recvs.size(), std::get<1>(key),
                                    std::get<0>(key), std::get<2>(key)));

  // Close dangling states at the last timestamp so they stay visible.
  for (auto& [rank, rs] : ranks_) {
    while (!rs.stack.empty()) {
      ++out.stats.unclosed_states;
      auto& open = rs.stack.back();
      slog2::StateDrawable s;
      s.category_id = open.category_id;
      s.rank = rank;
      s.start_time = open.start_time;
      s.end_time = last_time_seen_;
      s.depth = open.depth;
      s.start_text = std::move(open.start_text);
      detail2::warn(warnings,
                    util::strprintf(
                        "rank %d: state category %d opened at t=%.9f never closed",
                        rank, s.category_id, s.start_time));
      rs.stack.pop_back();
      items.states.push_back(std::move(s));
    }
  }

  detail2::assemble(out, std::move(items), any_instance_, opts_.convert,
                    util::resolve_threads(opts_.convert.threads), warnings);

  // Release working state; the spill file is no longer needed.
  chunks_.clear();
  slog2::FrameCache::global().erase_owner(cache_owner_);
  tail_ = slog2::Frame{};
  msgs_.clear();
  ranks_.clear();
  if (!spill_file_.empty()) {
    std::error_code ec;
    std::filesystem::remove(spill_file_, ec);
  }
  usage_.live_bytes = 0;
  return out;
}

}  // namespace traced
