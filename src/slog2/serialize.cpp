// SLOG-2 binary serialization: header, category table, stats, frame
// directory (intervals, tree links, payload extents, previews), then a blob
// of independently decodable frame payloads. The directory enables the
// Navigator's partial loading.
//
// Two file versions share that skeleton byte for byte; only the version
// field and the payload bytes differ:
//   version 3 — v1 payloads (fixed-width rows, the original format),
//   version 4 — one frame-encoding byte (must be 2) follows the version,
//               and payloads use the columnar delta-varint v2 codec
//               (frame_codec.hpp, documented in docs/FORMATS.md).
// A v1-only reader sees version 4 and fails loudly ("unsupported version");
// this reader accepts both unless ReadOptions::require_encoding pins one.
#include <array>
#include <utility>

#include "slog2/convert_internal.hpp"
#include "slog2/frame_cache.hpp"
#include "slog2/frame_codec.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/mmapio.hpp"
#include "util/strings.hpp"

namespace slog2 {

namespace {

constexpr std::array<char, 8> kMagic = {'P', 'S', 'L', 'O', 'G', '2', '\0', '\0'};
constexpr std::uint32_t kVersionV1 = 3;
constexpr std::uint32_t kVersionV2 = 4;

void write_preview(util::ByteWriter& w, const Preview& pv) {
  w.i32(pv.nbuckets);
  w.u32(pv.arrow_count);
  w.u32(static_cast<std::uint32_t>(pv.state_occupancy.size()));
  for (const auto& [cat, buckets] : pv.state_occupancy) {
    w.i32(cat);
    w.u32(static_cast<std::uint32_t>(buckets.size()));
    for (float v : buckets) w.f64(static_cast<double>(v));
  }
  w.u32(static_cast<std::uint32_t>(pv.event_counts.size()));
  for (const auto& [cat, buckets] : pv.event_counts) {
    w.i32(cat);
    w.u32(static_cast<std::uint32_t>(buckets.size()));
    for (std::uint32_t v : buckets) w.u32(v);
  }
}

Preview read_preview(util::ByteReader& r) {
  Preview pv;
  pv.nbuckets = r.i32();
  pv.arrow_count = r.u32();
  // Bucket/entry counts are untrusted: bound them by the remaining bytes
  // (smallest per-entry encoding) so corruption is IoError, not bad_alloc.
  const std::uint32_t nstate =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 8));
  for (std::uint32_t i = 0; i < nstate; ++i) {
    const std::int32_t cat = r.i32();
    const std::size_t n = r.checked_count(r.u32(), 8);
    auto& buckets = pv.state_occupancy[cat];
    buckets.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
      buckets.push_back(static_cast<float>(r.f64()));
  }
  const std::uint32_t nevent =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 8));
  for (std::uint32_t i = 0; i < nevent; ++i) {
    const std::int32_t cat = r.i32();
    const std::size_t n = r.checked_count(r.u32(), 4);
    auto& buckets = pv.event_counts[cat];
    buckets.reserve(n);
    for (std::size_t j = 0; j < n; ++j) buckets.push_back(r.u32());
  }
  return pv;
}

void write_payload_v1(util::ByteWriter& w, const Frame& f) {
  w.u32(static_cast<std::uint32_t>(f.states.size()));
  for (const auto& s : f.states) {
    w.i32(s.category_id);
    w.i32(s.rank);
    w.f64(s.start_time);
    w.f64(s.end_time);
    w.i32(s.depth);
    w.str(s.start_text);
    w.str(s.end_text);
  }
  w.u32(static_cast<std::uint32_t>(f.events.size()));
  for (const auto& e : f.events) {
    w.i32(e.category_id);
    w.i32(e.rank);
    w.f64(e.time);
    w.str(e.text);
  }
  w.u32(static_cast<std::uint32_t>(f.arrows.size()));
  for (const auto& a : f.arrows) {
    w.i32(a.src_rank);
    w.i32(a.dst_rank);
    w.f64(a.start_time);
    w.f64(a.end_time);
    w.i32(a.tag);
    w.u32(a.size);
  }
}

void read_payload_v1(util::ByteReader& r, Frame* f) {
  // Drawable counts are untrusted; bound each by the remaining bytes at the
  // smallest conceivable per-entry size before reserving.
  const std::size_t nstates = r.checked_count(r.u32(), 4);
  f->states.reserve(nstates);
  for (std::size_t i = 0; i < nstates; ++i) {
    StateDrawable s;
    s.category_id = r.i32();
    s.rank = r.i32();
    s.start_time = r.f64();
    s.end_time = r.f64();
    s.depth = r.i32();
    s.start_text = r.str();
    s.end_text = r.str();
    f->states.push_back(std::move(s));
  }
  const std::size_t nevents = r.checked_count(r.u32(), 4);
  f->events.reserve(nevents);
  for (std::size_t i = 0; i < nevents; ++i) {
    EventDrawable e;
    e.category_id = r.i32();
    e.rank = r.i32();
    e.time = r.f64();
    e.text = r.str();
    f->events.push_back(std::move(e));
  }
  const std::size_t narrows = r.checked_count(r.u32(), 4);
  f->arrows.reserve(narrows);
  for (std::size_t i = 0; i < narrows; ++i) {
    ArrowDrawable a;
    a.src_rank = r.i32();
    a.dst_rank = r.i32();
    a.start_time = r.f64();
    a.end_time = r.f64();
    a.tag = r.i32();
    a.size = r.u32();
    f->arrows.push_back(a);
  }
}

void write_stats(util::ByteWriter& w, const ConvertStats& st) {
  w.u64(st.total_states);
  w.u64(st.total_events);
  w.u64(st.total_arrows);
  w.u64(st.unmatched_sends);
  w.u64(st.unmatched_recvs);
  w.u64(st.unmatched_state_ends);
  w.u64(st.unclosed_states);
  w.u64(st.equal_drawables);
  w.u64(st.unknown_event_ids);
  w.u64(st.frames);
  w.u64(st.leaf_frames);
  w.i32(st.tree_depth);
}

ConvertStats read_stats(util::ByteReader& r) {
  ConvertStats st;
  st.total_states = r.u64();
  st.total_events = r.u64();
  st.total_arrows = r.u64();
  st.unmatched_sends = r.u64();
  st.unmatched_recvs = r.u64();
  st.unmatched_state_ends = r.u64();
  st.unclosed_states = r.u64();
  st.equal_drawables = r.u64();
  st.unknown_event_ids = r.u64();
  st.frames = r.u64();
  st.leaf_frames = r.u64();
  st.tree_depth = r.i32();
  return st;
}

void write_header(util::ByteWriter& w, const File& file) {
  w.raw(kMagic.data(), kMagic.size());
  if (file.encoding == FrameEncoding::kV2) {
    w.u32(kVersionV2);
    w.u8(static_cast<std::uint8_t>(FrameEncoding::kV2));
  } else {
    // v1 files stay byte-identical to what version 3 always wrote.
    w.u32(kVersionV1);
  }
  w.i32(file.nranks);
  w.f64(file.t_min);
  w.f64(file.t_max);
  w.u64(file.frame_size);
  w.u32(static_cast<std::uint32_t>(file.categories.size()));
  for (const auto& c : file.categories) {
    w.i32(c.id);
    w.u8(static_cast<std::uint8_t>(c.kind));
    w.str(c.name);
    w.str(c.color);
    w.str(c.format);
  }
  write_stats(w, file.stats);
}

// The one reader of an SLOG-2 header and frame directory: parse(), the
// Navigator and stream_text() all start here, so every reader accepts
// exactly the same files. Counts are bounded by the remaining bytes, child
// links point forward and make one tree (every entry but the root has
// exactly one parent), every payload extent lies inside the blob and
// nothing follows the blob. Payloads are left to decode_payload().
detail::Directory read_directory(util::ByteReader& r, const ReadOptions& ro) {
  detail::Directory d;
  File& h = d.head;
  const std::uint8_t* magic = r.take(kMagic.size());
  for (std::size_t i = 0; i < kMagic.size(); ++i)
    if (magic[i] != static_cast<std::uint8_t>(kMagic[i]))
      throw util::IoError("slog2: bad magic (not an SLOG-2 file)");
  const std::uint32_t version = r.u32();
  if (version == kVersionV1) {
    h.encoding = FrameEncoding::kV1;
  } else if (version == kVersionV2) {
    const std::uint8_t enc = r.u8();
    if (enc != static_cast<std::uint8_t>(FrameEncoding::kV2))
      throw util::IoError(util::strprintf(
          "slog2: version 4 header carries unknown frame encoding %u", enc));
    h.encoding = FrameEncoding::kV2;
  } else {
    throw util::IoError(util::strprintf("slog2: unsupported version %u", version));
  }
  if (ro.require_encoding && *ro.require_encoding != h.encoding)
    throw util::IoError(util::strprintf(
        "slog2: frame-encoding mismatch: file uses %s frame payloads but the "
        "reader was forced to %s",
        to_string(h.encoding), to_string(*ro.require_encoding)));
  h.nranks = r.i32();
  // Every per-rank table a reader builds is sized by this count; CLOG-2's
  // bound keeps a hostile header from asking for gigabytes.
  if (h.nranks < 0 || h.nranks > clog2::kMaxRanks)
    throw util::IoError(util::strprintf("slog2: rank count %d outside [0, %d]",
                                        h.nranks, clog2::kMaxRanks));
  h.t_min = r.f64();
  h.t_max = r.f64();
  h.frame_size = r.u64();
  // A category is at least id + kind + three length prefixes = 17 bytes, so
  // a hostile count fails as a parse error before the reserve below.
  const std::uint32_t ncats =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 17));
  h.categories.reserve(ncats);
  for (std::uint32_t i = 0; i < ncats; ++i) {
    Category c;
    c.id = r.i32();
    const std::uint8_t kind = r.u8();
    if (kind > 2) throw util::IoError("slog2: bad category kind");
    c.kind = static_cast<CategoryKind>(kind);
    c.name = r.str();
    c.color = r.str();
    c.format = r.str();
    h.categories.push_back(std::move(c));
  }
  h.stats = read_stats(r);

  // A directory entry is at least 44 bytes of fixed fields plus a minimal
  // preview; checking the count keeps the reserve honest.
  const auto node_count = static_cast<std::int64_t>(r.checked_count(r.u32(), 44));
  d.frames.reserve(static_cast<std::size_t>(node_count));
  for (std::int64_t i = 0; i < node_count; ++i) {
    detail::DirEntry e;
    e.t0 = r.f64();
    e.t1 = r.f64();
    e.depth = r.i32();
    e.left = r.i32();
    e.right = r.i32();
    for (const std::int32_t link : {e.left, e.right})
      if (link != -1 && (link <= i || link >= node_count))
        throw util::IoError("slog2: corrupt frame directory links");
    e.offset = r.u64();
    e.length = r.u64();
    e.preview = read_preview(r);
    d.frames.push_back(std::move(e));
  }
  // Forward links cannot reach the root or form a cycle; one parent for
  // every other entry makes the directory a single tree rooted at [0].
  std::vector<char> linked(d.frames.size(), 0);
  for (const detail::DirEntry& e : d.frames)
    for (const std::int32_t link : {e.left, e.right})
      if (link != -1 && std::exchange(linked[static_cast<std::size_t>(link)], 1))
        throw util::IoError("slog2: corrupt frame directory links");
  for (std::size_t i = 1; i < linked.size(); ++i)
    if (!linked[i]) throw util::IoError("slog2: corrupt frame directory links");

  d.blob_len = r.u64();
  d.blob = r.take(d.blob_len);
  if (!r.at_end()) throw util::IoError("slog2: trailing bytes after payload blob");
  // Two comparisons, not `offset + length > blob_len`: hostile u64s can
  // wrap the sum back under the limit.
  for (const detail::DirEntry& e : d.frames)
    if (e.length > d.blob_len || e.offset > d.blob_len - e.length)
      throw util::IoError("slog2: frame payload extent out of range");
  return d;
}

// Frame `i` of a checked directory: its interval, links and drawables (the
// preview stays in the directory).
void decode_payload(const detail::Directory& d, std::size_t i, Frame* f) {
  const detail::DirEntry& e = d.frames[i];
  f->t0 = e.t0;
  f->t1 = e.t1;
  f->depth = e.depth;
  f->left = e.left;
  f->right = e.right;
  detail::read_payload(d.blob + e.offset, static_cast<std::size_t>(e.length),
                       d.head.encoding, f);
}

}  // namespace

void detail::write_payload(util::ByteWriter& w, const Frame& f, FrameEncoding enc) {
  if (enc == FrameEncoding::kV2)
    detail::encode_drawables_v2(w, f.states, f.events, f.arrows);
  else
    write_payload_v1(w, f);
}

void detail::read_payload(const std::uint8_t* data, std::size_t n, FrameEncoding enc,
                          Frame* f) {
  util::ByteReader r(data, n);
  if (enc == FrameEncoding::kV2)
    detail::decode_drawables_v2(r, &f->states, &f->events, &f->arrows);
  else
    read_payload_v1(r, f);
  if (!r.at_end()) throw util::IoError("slog2: frame payload has trailing bytes");
}

const char* to_string(FrameEncoding e) {
  return e == FrameEncoding::kV2 ? "v2" : "v1";
}

FrameEncoding parse_frame_encoding(std::string_view name) {
  if (name == "v1") return FrameEncoding::kV1;
  if (name == "v2") return FrameEncoding::kV2;
  throw util::UsageError("unknown frame encoding '" + std::string(name) +
                         "' (expected v1 or v2)");
}

std::vector<std::uint8_t> serialize(const File& file) {
  util::ByteWriter w;
  write_header(w, file);

  // Payload blob first (to know extents), directory second — but the
  // directory precedes the blob on disk, so build both, then emit.
  util::ByteWriter blob;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(file.frames.size());
  for (const Frame& f : file.frames) {
    const std::uint64_t begin = blob.size();
    detail::write_payload(blob, f, file.encoding);
    extents.emplace_back(begin, blob.size() - begin);
  }

  w.u32(static_cast<std::uint32_t>(file.frames.size()));
  for (std::size_t i = 0; i < file.frames.size(); ++i) {
    const Frame& f = file.frames[i];
    w.f64(f.t0);
    w.f64(f.t1);
    w.i32(f.depth);
    w.i32(f.left);
    w.i32(f.right);
    w.u64(extents[i].first);
    w.u64(extents[i].second);
    write_preview(w, f.preview);
  }
  w.u64(blob.size());
  w.raw(blob.bytes().data(), blob.size());
  return w.take();
}

File parse(const std::vector<std::uint8_t>& bytes, const ReadOptions& ro) {
  return parse(bytes.data(), bytes.size(), ro);
}

File parse(const std::uint8_t* data, std::size_t n, const ReadOptions& ro) {
  util::ByteReader r(data, n);
  detail::Directory d = read_directory(r, ro);
  File file = std::move(d.head);
  file.frames.resize(d.frames.size());
  for (std::size_t i = 0; i < d.frames.size(); ++i) {
    decode_payload(d, i, &file.frames[i]);
    file.frames[i].preview = std::move(d.frames[i].preview);
  }
  return file;
}

void write_file(const std::filesystem::path& path, const File& file) {
  util::write_file(path, serialize(file));
}

File read_file(const std::filesystem::path& path, const ReadOptions& ro) {
  // mmap: the header/directory/payload slices below read straight from the
  // page cache; only the decoded drawables are materialized.
  const util::MappedFile map(path);
  return parse(map.data(), map.size(), ro);
}

void stream_text(const std::filesystem::path& path, bool dump_drawables,
                 const std::function<void(const std::string&)>& sink,
                 const ReadOptions& ro) {
  // The directory and every frame decode read page-cache slices of one
  // mapping; only one frame's drawables are held at a time.
  const util::MappedFile map(path);
  util::ByteReader r(map.data(), map.size());
  const detail::Directory d = read_directory(r, ro);
  // Validation pass: decode every payload, so a file parse() rejects throws
  // before any output.
  for (std::size_t i = 0; i < d.frames.size(); ++i) {
    Frame f;
    decode_payload(d, i, &f);
  }
  sink(to_text(d.head));
  if (!dump_drawables) return;
  const double a = d.head.t_min;
  const double b = d.head.t_max;
  detail::walk_window(d.frames, a, b, [&](std::size_t i) {
    Frame f;
    decode_payload(d, i, &f);
    sink(detail::drawables_text(f, a, b));
  });
}

// --- Navigator ---------------------------------------------------------------

Navigator::Navigator(const std::filesystem::path& path, const ReadOptions& ro)
    : map_(path) {
  load(map_.data(), map_.size(), ro);
  // File-identity owner: every navigator (and pilot-traced session) over
  // the same on-disk bytes shares one decode of each frame.
  owner_ = FrameCache::owner_for_path(path);
}

Navigator::Navigator(std::vector<std::uint8_t> bytes, const ReadOptions& ro)
    : bytes_(std::move(bytes)) {
  load(bytes_.data(), bytes_.size(), ro);
  owner_ = FrameCache::fresh_owner();
  private_owner_ = true;
}

Navigator::~Navigator() {
  // A private (in-memory) owner's frames can never be requested again;
  // file-keyed frames stay for the next session over the same file.
  if (cache_ != nullptr && private_owner_) cache_->erase_owner(owner_);
}

void Navigator::load(const std::uint8_t* data, std::size_t n, const ReadOptions& ro) {
  util::ByteReader r(data, n);
  dir_ = read_directory(r, ro);
  cache_ = &FrameCache::global();
  touched_.assign(dir_.frames.size(), 0);
}

std::size_t Navigator::frames_decoded() const { return touched_count_; }

std::shared_ptr<const Frame> Navigator::frame_ptr(std::size_t index) {
  auto frame = cache_->get(
      owner_, index,
      static_cast<std::size_t>(dir_.frames.at(index).length) + sizeof(Frame),
      [&]() -> std::shared_ptr<const Frame> {
        auto f = std::make_shared<Frame>();
        decode_payload(dir_, index, f.get());
        return f;
      });
  if (std::exchange(touched_[index], 1) == 0) ++touched_count_;
  return frame;
}

void Navigator::visit_window(
    double a, double b, const std::function<void(const StateDrawable&)>& on_state,
    const std::function<void(const EventDrawable&)>& on_event,
    const std::function<void(const ArrowDrawable&)>& on_arrow) {
  // Holding the shared_ptr for the frame's visit means eviction under
  // memory pressure cannot free it mid-visit.
  detail::walk_window(dir_.frames, a, b, [&](std::size_t i) {
    const std::shared_ptr<const Frame> f = frame_ptr(i);
    detail::visit_frame(*f, a, b, on_state, on_event, on_arrow);
  });
}

std::uint64_t Navigator::window_payload_bytes(double a, double b) const {
  std::uint64_t total = 0;
  detail::walk_window(dir_.frames, a, b,
                      [&](std::size_t i) { total += dir_.frames[i].length; });
  return total;
}

Navigator::PreviewView Navigator::preview_covering(double a, double b) {
  PreviewView out;
  if (dir_.frames.empty()) return out;
  // Descend while a single child still covers the window.
  std::size_t i = 0;
  for (;;) {
    const detail::DirEntry& e = dir_.frames[i];
    std::int32_t next = -1;
    if (e.left != -1) {
      const detail::DirEntry& l = dir_.frames[static_cast<std::size_t>(e.left)];
      if (l.t0 <= a && b <= l.t1) next = e.left;
    }
    if (next == -1 && e.right != -1) {
      const detail::DirEntry& rr = dir_.frames[static_cast<std::size_t>(e.right)];
      if (rr.t0 <= a && b <= rr.t1) next = e.right;
    }
    if (next == -1) break;
    i = static_cast<std::size_t>(next);
  }
  const detail::DirEntry& e = dir_.frames[i];
  out.t0 = e.t0;
  out.t1 = e.t1;
  out.preview = &e.preview;
  return out;
}

}  // namespace slog2
