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
#include <fstream>

#include "slog2/frame_cache.hpp"
#include "slog2/frame_codec.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/mmapio.hpp"
#include "util/parallel.hpp"
#include "util/streamio.hpp"
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

template <typename Reader>
Preview read_preview(Reader& r) {
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

// A frame payload: the drawables only (interval/depth/preview/links live in
// the directory), independently decodable.
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

void write_payload(util::ByteWriter& w, const Frame& f, FrameEncoding enc) {
  if (enc == FrameEncoding::kV2)
    detail::encode_drawables_v2(w, f.states, f.events, f.arrows);
  else
    write_payload_v1(w, f);
}

template <typename Reader>
void read_payload_v1(Reader& r, Frame* f) {
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

// Payloads are always decoded from contiguous bytes (parse()'s blob, the
// Navigator's mapped buffer, stream_text's per-frame read), so the dispatch
// takes a ByteReader, not the Reader template the header paths use.
void read_payload(util::ByteReader& r, Frame* f, FrameEncoding enc) {
  if (enc == FrameEncoding::kV2)
    detail::decode_drawables_v2(r, &f->states, &f->events, &f->arrows);
  else
    read_payload_v1(r, f);
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

template <typename Reader>
ConvertStats read_stats(Reader& r) {
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

struct FlatNode {
  const Frame* frame;
  std::int32_t left = -1;
  std::int32_t right = -1;
};

// Preorder flattening with child indices.
std::int32_t flatten(const Frame& f, std::vector<FlatNode>& out) {
  const auto index = static_cast<std::int32_t>(out.size());
  out.push_back(FlatNode{&f});
  if (f.left) out[static_cast<std::size_t>(index)].left = flatten(*f.left, out);
  if (f.right) out[static_cast<std::size_t>(index)].right = flatten(*f.right, out);
  return index;
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

struct Header {
  FrameEncoding encoding = FrameEncoding::kV1;
  std::int32_t nranks = 0;
  double t_min = 0.0, t_max = 0.0;
  std::uint64_t frame_size = 0;
  std::vector<Category> categories;
  ConvertStats stats;
};

template <typename Reader>
Header read_header(Reader& r, const ReadOptions& ro) {
  const std::uint8_t* magic = r.take(kMagic.size());
  for (std::size_t i = 0; i < kMagic.size(); ++i)
    if (magic[i] != static_cast<std::uint8_t>(kMagic[i]))
      throw util::IoError("slog2: bad magic (not an SLOG-2 file)");
  const std::uint32_t version = r.u32();
  Header h;
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
  return h;
}

}  // namespace

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

  if (!file.root) {
    w.u32(0);  // empty directory
    w.u64(0);  // empty blob
    return w.take();
  }

  std::vector<FlatNode> nodes;
  flatten(*file.root, nodes);

  // Payload blob first (to know extents), directory second — but the
  // directory precedes the blob on disk, so build both, then emit.
  util::ByteWriter blob;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(nodes.size());
  for (const FlatNode& n : nodes) {
    const std::uint64_t begin = blob.size();
    write_payload(blob, *n.frame, file.encoding);
    extents.emplace_back(begin, blob.size() - begin);
  }

  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Frame& f = *nodes[i].frame;
    w.f64(f.t0);
    w.f64(f.t1);
    w.i32(f.depth);
    w.i32(nodes[i].left);
    w.i32(nodes[i].right);
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
  const Header h = read_header(r, ro);

  File file;
  file.encoding = h.encoding;
  file.nranks = h.nranks;
  file.t_min = h.t_min;
  file.t_max = h.t_max;
  file.frame_size = h.frame_size;
  file.categories = h.categories;
  file.stats = h.stats;

  // A directory entry is at least 44 bytes of fixed fields plus a minimal
  // preview; checking the count keeps the two reserves below honest.
  const std::uint32_t node_count =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 44));
  struct NodeMeta {
    double t0, t1;
    std::int32_t depth, left, right;
    std::uint64_t offset, length;
    Preview preview;
  };
  std::vector<NodeMeta> metas;
  metas.reserve(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    NodeMeta m{};
    m.t0 = r.f64();
    m.t1 = r.f64();
    m.depth = r.i32();
    m.left = r.i32();
    m.right = r.i32();
    if ((m.left != -1 && (m.left <= static_cast<std::int32_t>(i) ||
                          m.left >= static_cast<std::int32_t>(node_count))) ||
        (m.right != -1 && (m.right <= static_cast<std::int32_t>(i) ||
                           m.right >= static_cast<std::int32_t>(node_count))))
      throw util::IoError("slog2: corrupt frame directory links");
    m.offset = r.u64();
    m.length = r.u64();
    m.preview = read_preview(r);
    metas.push_back(std::move(m));
  }
  const std::uint64_t blob_len = r.u64();
  const std::uint8_t* blob = r.take(blob_len);
  if (!r.at_end()) throw util::IoError("slog2: trailing bytes after payload blob");

  // Rebuild the tree from the preorder directory.
  std::vector<std::unique_ptr<Frame>> frames;
  frames.reserve(node_count);
  for (const NodeMeta& m : metas) {
    auto f = std::make_unique<Frame>();
    f->t0 = m.t0;
    f->t1 = m.t1;
    f->depth = m.depth;
    f->preview = m.preview;
    // Two comparisons, not `offset + length > blob_len`: hostile u64s can
    // wrap the sum back under the limit.
    if (m.length > blob_len || m.offset > blob_len - m.length)
      throw util::IoError("slog2: frame payload extent out of range");
    util::ByteReader pr(blob + m.offset, m.length);
    read_payload(pr, f.get(), h.encoding);
    if (!pr.at_end()) throw util::IoError("slog2: frame payload has trailing bytes");
    frames.push_back(std::move(f));
  }
  // Link children (indices always point forward; validated above).
  for (std::size_t i = node_count; i-- > 0;) {
    const NodeMeta& m = metas[i];
    if (m.left != -1) frames[i]->left = std::move(frames[static_cast<std::size_t>(m.left)]);
    if (m.right != -1)
      frames[i]->right = std::move(frames[static_cast<std::size_t>(m.right)]);
  }
  if (node_count > 0) file.root = std::move(frames[0]);
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
  data_ = data;
  size_ = n;
  cache_ = &FrameCache::global();
  util::ByteReader r(data_, size_);
  const Header h = read_header(r, ro);
  encoding_ = h.encoding;
  nranks_ = h.nranks;
  t_min_ = h.t_min;
  t_max_ = h.t_max;
  frame_size_ = h.frame_size;
  categories_ = h.categories;
  stats_ = h.stats;

  const std::uint32_t node_count =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 44));
  directory_.reserve(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    DirEntry e;
    e.t0 = r.f64();
    e.t1 = r.f64();
    e.depth = r.i32();
    e.left = r.i32();
    e.right = r.i32();
    e.offset = r.u64();
    e.length = r.u64();
    e.preview = read_preview(r);
    directory_.push_back(std::move(e));
  }
  const std::uint64_t blob_len = r.u64();
  blob_base_ = r.pos();
  r.skip(blob_len);
  if (!r.at_end()) throw util::IoError("slog2: trailing bytes after payload blob");
  for (const auto& e : directory_)
    if (e.length > blob_len || e.offset > blob_len - e.length)
      throw util::IoError("slog2: frame payload extent out of range");
  touched_ = std::make_unique<std::atomic<char>[]>(directory_.size());
  for (std::size_t i = 0; i < directory_.size(); ++i) touched_[i] = 0;
}

const Category* Navigator::category(std::int32_t id) const {
  for (const auto& c : categories_)
    if (c.id == id) return &c;
  return nullptr;
}

std::size_t Navigator::frames_decoded() const {
  return touched_count_.load(std::memory_order_relaxed);
}

std::shared_ptr<const Frame> Navigator::frame_ptr(std::size_t index) {
  const DirEntry& e = directory_.at(index);
  auto frame = cache_->get(
      owner_, index, static_cast<std::size_t>(e.length) + sizeof(Frame),
      [&]() -> std::shared_ptr<const Frame> {
        auto f = std::make_shared<Frame>();
        f->t0 = e.t0;
        f->t1 = e.t1;
        f->depth = e.depth;
        util::ByteReader pr(data_ + blob_base_ + e.offset,
                            static_cast<std::size_t>(e.length));
        read_payload(pr, f.get(), encoding_);
        return f;
      });
  if (touched_[index].exchange(1, std::memory_order_relaxed) == 0)
    touched_count_.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

std::vector<std::uint32_t> Navigator::window_frames(double a, double b) const {
  std::vector<std::uint32_t> out;
  if (directory_.empty()) return out;
  std::vector<std::int32_t> stack = {0};
  while (!stack.empty()) {
    const auto i = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    const DirEntry& e = directory_[i];
    if (e.t1 < a || e.t0 > b) continue;
    out.push_back(static_cast<std::uint32_t>(i));
    if (e.left != -1) stack.push_back(e.left);
    if (e.right != -1) stack.push_back(e.right);
  }
  return out;
}

void Navigator::visit_window(
    double a, double b, const std::function<void(const StateDrawable&)>& on_state,
    const std::function<void(const EventDrawable&)>& on_event,
    const std::function<void(const ArrowDrawable&)>& on_arrow, int threads) {
  const std::vector<std::uint32_t> frames = window_frames(a, b);
  // Decode (or fetch from the shared cache) every touched frame up front —
  // in parallel when asked — then run the callbacks serially in traversal
  // order. Pinning the shared_ptrs here means eviction under memory
  // pressure cannot invalidate a frame mid-visit.
  std::vector<std::shared_ptr<const Frame>> pinned(frames.size());
  util::parallel_for(frames.size(), util::resolve_threads(threads),
                     [&](std::size_t k) { pinned[k] = frame_ptr(frames[k]); });
  for (const auto& fp : pinned) {
    const Frame& f = *fp;
    if (on_state)
      for (const auto& s : f.states)
        if (s.end_time >= a && s.start_time <= b) on_state(s);
    if (on_event)
      for (const auto& ev : f.events)
        if (ev.time >= a && ev.time <= b) on_event(ev);
    if (on_arrow)
      for (const auto& ar : f.arrows) {
        const double lo = std::min(ar.start_time, ar.end_time);
        const double hi = std::max(ar.start_time, ar.end_time);
        if (hi >= a && lo <= b) on_arrow(ar);
      }
  }
}

std::uint64_t Navigator::window_payload_bytes(double a, double b) const {
  if (directory_.empty()) return 0;
  std::uint64_t total = 0;
  std::vector<std::int32_t> stack = {0};
  while (!stack.empty()) {
    const auto i = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    const DirEntry& e = directory_[i];
    if (e.t1 < a || e.t0 > b) continue;
    total += e.length;
    if (e.left != -1) stack.push_back(e.left);
    if (e.right != -1) stack.push_back(e.right);
  }
  return total;
}

namespace {

struct StreamMeta {
  double t0 = 0.0, t1 = 0.0;
  std::int32_t left = -1, right = -1;
  std::uint64_t offset = 0, length = 0;
};

// Validation pass — field for field the checks parse() performs, with
// payloads left for the caller to decode one frame at a time. Templated
// over the reader so the mmap and streaming backends share one set of
// verdicts (the fuzz suite pins them against each other).
template <typename Reader>
void collect_stream_meta(Reader& r, const ReadOptions& ro, Header* h,
                         std::vector<StreamMeta>* metas,
                         std::uint64_t* blob_len, std::size_t* blob_base) {
  *h = read_header(r, ro);
  const std::uint32_t node_count =
      static_cast<std::uint32_t>(r.checked_count(r.u32(), 44));
  metas->reserve(node_count);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    StreamMeta m;
    m.t0 = r.f64();
    m.t1 = r.f64();
    (void)r.i32();  // depth: directory metadata, not printed
    m.left = r.i32();
    m.right = r.i32();
    if ((m.left != -1 && (m.left <= static_cast<std::int32_t>(i) ||
                          m.left >= static_cast<std::int32_t>(node_count))) ||
        (m.right != -1 && (m.right <= static_cast<std::int32_t>(i) ||
                           m.right >= static_cast<std::int32_t>(node_count))))
      throw util::IoError("slog2: corrupt frame directory links");
    m.offset = r.u64();
    m.length = r.u64();
    (void)read_preview(r);
    metas->push_back(m);
  }
  *blob_len = r.u64();
  *blob_base = r.pos();
  r.skip(*blob_len);
  if (!r.at_end())
    throw util::IoError("slog2: trailing bytes after payload blob");
}

void print_stream_text(
    const Header& h, const std::vector<StreamMeta>& metas, bool dump_drawables,
    const std::function<void(const std::string&)>& sink,
    const std::function<Frame(const StreamMeta&)>& decode_frame);

}  // namespace

void stream_text(const std::filesystem::path& path, bool dump_drawables,
                 const std::function<void(const std::string&)>& sink,
                 const ReadOptions& ro) {
  std::vector<StreamMeta> metas;
  Header h;
  std::size_t blob_base = 0;
  std::uint64_t blob_len = 0;

  if (auto mapped = util::MappedFile::try_map(path)) {
    // mmap backend: the directory pass and every frame decode read page-
    // cache slices of the mapping; nothing is copied but the drawables.
    util::MmapByteReader r(std::move(*mapped));
    collect_stream_meta(r, ro, &h, &metas, &blob_len, &blob_base);
    const std::uint8_t* blob = r.mapping().data() + blob_base;
    auto decode_frame = [&, blob](const StreamMeta& m) {
      if (m.length > blob_len || m.offset > blob_len - m.length)
        throw util::IoError("slog2: frame payload extent out of range");
      Frame f;
      util::ByteReader pr(blob + m.offset, static_cast<std::size_t>(m.length));
      read_payload(pr, &f, h.encoding);
      if (!pr.at_end())
        throw util::IoError("slog2: frame payload has trailing bytes");
      return f;
    };
    for (const StreamMeta& m : metas) (void)decode_frame(m);
    print_stream_text(h, metas, dump_drawables, sink, decode_frame);
    return;
  }

  // Streaming backend (mmap unavailable): fixed-size read window plus one
  // frame payload at a time — RSS stays O(window + directory + frame).
  {
    util::FileByteReader r(path);
    collect_stream_meta(r, ro, &h, &metas, &blob_len, &blob_base);
  }
  std::ifstream blob_in(path, std::ios::binary);
  if (!blob_in) throw util::IoError("cannot open " + path.string());
  auto decode_frame = [&](const StreamMeta& m) {
    if (m.length > blob_len || m.offset > blob_len - m.length)
      throw util::IoError("slog2: frame payload extent out of range");
    const auto bytes = util::read_at(blob_in, blob_base + m.offset,
                                     static_cast<std::size_t>(m.length),
                                     "slog2: frame payload");
    Frame f;
    util::ByteReader pr(bytes);
    read_payload(pr, &f, h.encoding);
    if (!pr.at_end())
      throw util::IoError("slog2: frame payload has trailing bytes");
    return f;
  };
  for (const StreamMeta& m : metas) (void)decode_frame(m);
  print_stream_text(h, metas, dump_drawables, sink, decode_frame);
}

void validate_file(const std::filesystem::path& path, const ReadOptions& ro,
                   ReadBackend backend) {
  std::vector<StreamMeta> metas;
  Header h;
  std::size_t blob_base = 0;
  std::uint64_t blob_len = 0;

  if (backend == ReadBackend::kMmap) {
    util::MmapByteReader r(path);
    collect_stream_meta(r, ro, &h, &metas, &blob_len, &blob_base);
    const std::uint8_t* blob = r.mapping().data() + blob_base;
    for (const StreamMeta& m : metas) {
      if (m.length > blob_len || m.offset > blob_len - m.length)
        throw util::IoError("slog2: frame payload extent out of range");
      Frame f;
      util::ByteReader pr(blob + m.offset, static_cast<std::size_t>(m.length));
      read_payload(pr, &f, h.encoding);
      if (!pr.at_end())
        throw util::IoError("slog2: frame payload has trailing bytes");
    }
    return;
  }

  util::FileByteReader r(path);
  collect_stream_meta(r, ro, &h, &metas, &blob_len, &blob_base);
  std::ifstream blob_in(path, std::ios::binary);
  if (!blob_in) throw util::IoError("cannot open " + path.string());
  for (const StreamMeta& m : metas) {
    if (m.length > blob_len || m.offset > blob_len - m.length)
      throw util::IoError("slog2: frame payload extent out of range");
    const auto bytes = util::read_at(blob_in, blob_base + m.offset,
                                     static_cast<std::size_t>(m.length),
                                     "slog2: frame payload");
    Frame f;
    util::ByteReader pr(bytes);
    read_payload(pr, &f, h.encoding);
    if (!pr.at_end())
      throw util::IoError("slog2: frame payload has trailing bytes");
  }
}

namespace {

void print_stream_text(
    const Header& h, const std::vector<StreamMeta>& metas, bool dump_drawables,
    const std::function<void(const std::string&)>& sink,
    const std::function<Frame(const StreamMeta&)>& decode_frame) {
  // Printing pass: mirrors to_text() line for line.
  sink(util::strprintf(
      "SLOG-2  ranks=%d  span=[%.9f, %.9f]  frame_size=%llu\n", h.nranks, h.t_min,
      h.t_max, static_cast<unsigned long long>(h.frame_size)));
  sink(util::strprintf(
      "  drawables: states=%llu events=%llu arrows=%llu\n",
      static_cast<unsigned long long>(h.stats.total_states),
      static_cast<unsigned long long>(h.stats.total_events),
      static_cast<unsigned long long>(h.stats.total_arrows)));
  sink(util::strprintf(
      "  frames=%llu leaves=%llu depth=%d\n",
      static_cast<unsigned long long>(h.stats.frames),
      static_cast<unsigned long long>(h.stats.leaf_frames), h.stats.tree_depth));
  sink(util::strprintf(
      "  warnings: unmatched_sends=%llu unmatched_recvs=%llu "
      "unmatched_state_ends=%llu unclosed_states=%llu equal_drawables=%llu "
      "unknown_event_ids=%llu\n",
      static_cast<unsigned long long>(h.stats.unmatched_sends),
      static_cast<unsigned long long>(h.stats.unmatched_recvs),
      static_cast<unsigned long long>(h.stats.unmatched_state_ends),
      static_cast<unsigned long long>(h.stats.unclosed_states),
      static_cast<unsigned long long>(h.stats.equal_drawables),
      static_cast<unsigned long long>(h.stats.unknown_event_ids)));
  sink("  categories:\n");
  for (const auto& c : h.categories) {
    const char* kind = c.kind == CategoryKind::kState   ? "state"
                       : c.kind == CategoryKind::kEvent ? "event"
                                                        : "arrow";
    sink(util::strprintf("    [%d] %-6s %-24s %s\n", c.id, kind, c.name.c_str(),
                         c.color.c_str()));
  }
  if (dump_drawables && !metas.empty()) {
    // Preorder left-first walk from the root — the traversal order of
    // File::visit_window over the reconstructed tree.
    const double a = h.t_min;
    const double b = h.t_max;
    std::vector<std::int32_t> stack = {0};
    while (!stack.empty()) {
      const auto i = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      const StreamMeta& m = metas[i];
      if (m.t1 < a || m.t0 > b) continue;
      const Frame f = decode_frame(m);
      for (const auto& s : f.states)
        if (s.end_time >= a && s.start_time <= b)
          sink(util::strprintf(
              "  state cat=%d rank=%d [%.9f, %.9f] depth=%d \"%s\"\n",
              s.category_id, s.rank, s.start_time, s.end_time, s.depth,
              s.start_text.c_str()));
      for (const auto& e : f.events)
        if (e.time >= a && e.time <= b)
          sink(util::strprintf("  event cat=%d rank=%d t=%.9f \"%s\"\n",
                               e.category_id, e.rank, e.time, e.text.c_str()));
      for (const auto& ar : f.arrows) {
        const double lo = std::min(ar.start_time, ar.end_time);
        const double hi = std::max(ar.start_time, ar.end_time);
        if (hi >= a && lo <= b)
          sink(util::strprintf("  arrow %d->%d [%.9f, %.9f] tag=%d size=%u\n",
                               ar.src_rank, ar.dst_rank, ar.start_time,
                               ar.end_time, ar.tag, ar.size));
      }
      if (m.right != -1) stack.push_back(m.right);
      if (m.left != -1) stack.push_back(m.left);
    }
  }
}

}  // namespace

Navigator::PreviewView Navigator::preview_covering(double a, double b) {
  PreviewView out;
  if (directory_.empty()) return out;
  // Descend while a single child still covers the window.
  std::size_t i = 0;
  for (;;) {
    const DirEntry& e = directory_[i];
    std::int32_t next = -1;
    if (e.left != -1) {
      const DirEntry& l = directory_[static_cast<std::size_t>(e.left)];
      if (l.t0 <= a && b <= l.t1) next = e.left;
    }
    if (next == -1 && e.right != -1) {
      const DirEntry& rr = directory_[static_cast<std::size_t>(e.right)];
      if (rr.t0 <= a && b <= rr.t1) next = e.right;
    }
    if (next == -1) break;
    i = static_cast<std::size_t>(next);
  }
  const DirEntry& e = directory_[i];
  out.t0 = e.t0;
  out.t1 = e.t1;
  out.preview = &e.preview;
  return out;
}

}  // namespace slog2
