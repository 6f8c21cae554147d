#include "traced/online_convert.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>

#include "slog2/frame_cache.hpp"
#include "util/error.hpp"
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
  pairer_ = detail2::Pairer(nranks);
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

void OnlineConverter::push(clog2::Record rec) {
  if (!begun_) throw util::UsageError("OnlineConverter::push before begin()");
  if (finalized_) throw util::UsageError("OnlineConverter::push after finalize()");
  const std::uint64_t index = records_pushed_++;

  const auto* sd = std::get_if<clog2::StateDef>(&rec);
  const auto* ed = std::get_if<clog2::EventDef>(&rec);
  if (sd != nullptr || ed != nullptr) {
    if (pairer_.any_instance())
      throw util::IoError(util::strprintf(
          "online conversion requires definition records before instance "
          "records (%s arrived late)",
          sd != nullptr ? "StateDef" : "EventDef"));
    if (sd != nullptr)
      pairer_.define(*sd);
    else
      pairer_.define(*ed);
    return;
  }
  if (std::holds_alternative<clog2::ConstDef>(rec) ||
      std::holds_alternative<clog2::SyncRec>(rec))
    return;  // no drawables; the offline converter ignores these too

  // Instance record (EventRec or MsgRec).
  const bool first = !pairer_.any_instance();
  const detail2::InstKey key = pairer_.enter(rec, index);
  if (!first && key.t < watermark_ - opts_.max_disorder)
    throw util::IoError(util::strprintf(
        "stream disorder exceeds the %.6fs bound: record at t=%.9f arrived "
        "after the watermark reached %.9f",
        opts_.max_disorder, key.t, watermark_));

  heap_bytes_ += sizeof(PendingInst) + 64;  // rough per-record footprint
  heap_.push(PendingInst{key, std::move(rec)});
  ++usage_.records;
  watermark_ = std::max(watermark_, key.t);

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
    admit(heap_.top());
    heap_bytes_ -= sizeof(PendingInst) + 64;
    heap_.pop();
  }
}

void OnlineConverter::admit(const PendingInst& inst) {
  using Drawn = detail2::Pairer::Drawn;
  switch (pairer_.admit(inst.rec, tail_)) {
    case Drawn::kState: {
      const slog2::StateDrawable& s = tail_.states.back();
      note_tail(committed_states_, s.start_time, s.end_time, state_live_bytes(s));
      break;
    }
    case Drawn::kEvent: {
      const slog2::EventDrawable& e = tail_.events.back();
      note_tail(committed_events_, e.time, e.time,
                sizeof(slog2::EventDrawable) + e.text.size());
      break;
    }
    case Drawn::kArrow: {
      const slog2::ArrowDrawable& a = tail_.arrows.back();
      note_tail(committed_arrows_, std::min(a.start_time, a.end_time),
                std::max(a.start_time, a.end_time), detail2::kArrowBytes + 16);
      break;
    }
    case Drawn::kNothing:
      break;
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
  usage_.live_bytes = tail_bytes_ + heap_bytes_ + pairer_.open_bytes();
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
  // finalize() resets the tail right after, so its drawables move too.
  std::move(tail_.states.begin(), tail_.states.end(), std::back_inserter(all.states));
  std::move(tail_.events.begin(), tail_.events.end(), std::back_inserter(all.events));
  std::move(tail_.arrows.begin(), tail_.arrows.end(), std::back_inserter(all.arrows));
  return all;
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

  // Ending the pairer appends the never-closed states to the tail, after
  // every committed state, where convert() appends them too.
  slog2::File out;
  out.nranks = nranks_;
  out.frame_size = opts_.convert.frame_size;
  out.encoding = opts_.convert.encoding;
  out.categories = pairer_.categories();
  pairer_.finish(out.stats, tail_, warnings);
  detail2::assemble(out, collect_all(), pairer_.any_instance(), opts_.convert,
                    warnings);

  // Release working state; the spill file is no longer needed.
  chunks_.clear();
  slog2::FrameCache::global().erase_owner(cache_owner_);
  tail_ = slog2::Frame{};
  pairer_ = detail2::Pairer();
  if (!spill_file_.empty()) {
    std::error_code ec;
    std::filesystem::remove(spill_file_, ec);
  }
  usage_.live_bytes = 0;
  return out;
}

}  // namespace traced
