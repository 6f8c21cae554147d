// SLOG-2: the visualization-ready trace format Jumpshot reads.
//
// The CLOG-2 → SLOG-2 conversion performs all the analysis CLOG-2 defers:
//  * pairs state start/end event instances (LIFO per rank) into state
//    rectangles with nesting depth,
//  * pairs MPE send/receive halves (FIFO per (src,dst,tag)) into message
//    arrows,
//  * keeps solo events as bubbles,
//  * detects "Equal Drawables" — distinct drawables with identical
//    coordinates, the warning the paper hits when collective fan-out stamps
//    many arrows within the clock resolution (Section III-C),
//  * packs everything into a binary interval tree of bounded-size frames
//    (the "frame size" knob the paper mentions as a conversion parameter),
//    with per-node preview histograms that let a viewer draw zoomed-out
//    striped rectangles without touching leaf data (Fig. 1's outline view).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clog2/clog2.hpp"
#include "util/mmapio.hpp"

namespace slog2 {

class FrameCache;

enum class CategoryKind : std::uint8_t { kState = 0, kEvent = 1, kArrow = 2 };

/// Frame payload encodings. kV1 is the original fixed-width row format
/// (file version 3, unchanged byte for byte). kV2 stores each payload as
/// per-field columns with delta-varint timestamps and varint small ints
/// (file version 4 + an encoding byte). Readers decode both transparently;
/// a v1-only reader sees version 4 and fails with a named diagnostic.
enum class FrameEncoding : std::uint8_t { kV1 = 1, kV2 = 2 };

/// "v1" / "v2".
const char* to_string(FrameEncoding e);
/// Parse "v1"/"v2" (throws util::UsageError on anything else).
FrameEncoding parse_frame_encoding(std::string_view name);

/// Reader-side constraints, threaded through parse()/read_file()/Navigator/
/// stream_text().
struct ReadOptions {
  /// When set, a file whose frame encoding differs is rejected with a named
  /// util::IoError instead of being decoded — this is how
  /// `pilot-slog2print --frame-encoding=v1` models a v1-only reader.
  std::optional<FrameEncoding> require_encoding;
};

/// Drawable category: what the Jumpshot legend lists (icon colour, name,
/// per-kind statistics).
struct Category {
  std::int32_t id = 0;
  CategoryKind kind = CategoryKind::kState;
  std::string name;
  std::string color;   ///< X11-style name
  std::string format;  ///< popup template
};

/// Reserved category for message arrows (drawn white in Jumpshot).
inline constexpr std::int32_t kArrowCategoryId = 0;

struct StateDrawable {
  std::int32_t category_id = 0;
  std::int32_t rank = 0;
  double start_time = 0.0;
  double end_time = 0.0;
  std::int32_t depth = 0;  ///< nesting level (0 = outermost)
  std::string start_text;  ///< popup text logged with the start event
  std::string end_text;    ///< popup text logged with the end event
};

struct EventDrawable {
  std::int32_t category_id = 0;
  std::int32_t rank = 0;
  double time = 0.0;
  std::string text;
};

struct ArrowDrawable {
  std::int32_t src_rank = 0;
  std::int32_t dst_rank = 0;
  double start_time = 0.0;  ///< send instant (sender clock, corrected)
  double end_time = 0.0;    ///< receive instant (receiver clock, corrected)
  std::int32_t tag = 0;
  std::uint32_t size = 0;  ///< message bytes
};

/// Zoomed-out summary stored at every frame: per state category, the busy
/// time per bucket (for colour-proportional striping); per event category,
/// instance counts; plus arrow counts.
struct Preview {
  int nbuckets = 0;
  std::map<std::int32_t, std::vector<float>> state_occupancy;
  std::map<std::int32_t, std::vector<std::uint32_t>> event_counts;
  std::uint32_t arrow_count = 0;
};

/// One node of the binary interval tree. A drawable lives in the lowest
/// node whose interval fully contains it; leaves are split until their
/// payload fits `frame_size` bytes (or max depth is reached). The children
/// are indices into the same preorder array (File::frames), -1 = none.
struct Frame {
  double t0 = 0.0;
  double t1 = 0.0;
  std::int32_t depth = 0;
  std::vector<StateDrawable> states;
  std::vector<EventDrawable> events;
  std::vector<ArrowDrawable> arrows;
  Preview preview;  ///< summary of this node *and everything below it*
  std::int32_t left = -1;
  std::int32_t right = -1;

  [[nodiscard]] std::size_t payload_bytes() const;
  [[nodiscard]] std::size_t drawable_count() const {
    return states.size() + events.size() + arrows.size();
  }
};

/// Conversion statistics and warnings (clog2TOslog2's diagnostics).
struct ConvertStats {
  std::uint64_t total_states = 0;
  std::uint64_t total_events = 0;
  std::uint64_t total_arrows = 0;
  std::uint64_t unmatched_sends = 0;      ///< send half with no receive
  std::uint64_t unmatched_recvs = 0;      ///< receive half with no send
  std::uint64_t unmatched_state_ends = 0; ///< end event with no open start
  std::uint64_t unclosed_states = 0;      ///< start event never closed
  std::uint64_t equal_drawables = 0;      ///< the paper's superposition warning
  std::uint64_t unknown_event_ids = 0;    ///< instances with no definition
  std::uint64_t frames = 0;
  std::uint64_t leaf_frames = 0;
  std::int32_t tree_depth = 0;

  [[nodiscard]] bool clean() const {
    return unmatched_sends == 0 && unmatched_recvs == 0 &&
           unmatched_state_ends == 0 && unclosed_states == 0 &&
           equal_drawables == 0;
  }
};

/// A whole SLOG-2 trace in memory. `frames` is the frame tree exactly as
/// the file's directory stores it: a left-first preorder array with the
/// root at [0], so a window walk visits frames in ascending index order.
/// Move-only: a copy of every frame's drawables is never what a caller
/// means.
struct File {
  File() = default;
  File(File&&) = default;
  File& operator=(File&&) = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  std::int32_t nranks = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  std::uint64_t frame_size = 0;  ///< conversion parameter used
  /// Frame payload encoding used by serialize() (and reported by parse()).
  /// Drawables in memory are identical either way; only the bytes differ.
  FrameEncoding encoding = FrameEncoding::kV1;
  std::vector<Category> categories;
  ConvertStats stats;
  std::vector<Frame> frames;  ///< preorder, [0] = root; empty = no tree

  [[nodiscard]] const Category* category(std::int32_t id) const;

  /// Visit every drawable whose time range intersects [a, b]. Callbacks may
  /// be empty. Traversal prunes whole subtrees outside the window and visits
  /// frames in the same order as Navigator::visit_window.
  void visit_window(double a, double b,
                    const std::function<void(const StateDrawable&)>& on_state,
                    const std::function<void(const EventDrawable&)>& on_event,
                    const std::function<void(const ArrowDrawable&)>& on_arrow) const;
};

struct ConvertOptions {
  /// Leaf payload bound in bytes — the "frame size" conversion parameter
  /// (the paper notes it governs how much data the viewer loads at once).
  std::uint64_t frame_size = 64 * 1024;
  int max_depth = 24;
  int preview_buckets = 32;
  /// Accepted for compatibility (`--threads` on pilot-clog2toslog2 and
  /// pilot-traced); it no longer changes conversion, which is one serial
  /// pass whatever the value.
  int threads = 0;
  /// Frame payload encoding for the serialized output. Does not affect the
  /// in-memory File beyond File::encoding: the frame tree, previews, and
  /// drawables are identical for both (frame_size counts logical v1 bytes).
  FrameEncoding encoding = FrameEncoding::kV1;
};

/// Convert a CLOG-2 trace. Conversion never fails on a "non well-behaved"
/// program; problems are reported in File::stats and `warnings` (capped to
/// keep pathological traces from flooding the caller).
File convert(const clog2::File& in, const ConvertOptions& opts = {},
             std::vector<std::string>* warnings = nullptr);

// On-disk layout (version 3 = v1 payloads, version 4 = v2 payloads; see
// docs/FORMATS.md): header + category table + stats + a frame DIRECTORY
// (per-node interval, tree links, and byte extents) + a payload blob. The
// directory is what lets a viewer load only the frames its zoom window
// needs — the defining property of real SLOG-2.
std::vector<std::uint8_t> serialize(const File& file);
File parse(const std::vector<std::uint8_t>& bytes, const ReadOptions& ro = {});
File parse(const std::uint8_t* data, std::size_t n, const ReadOptions& ro = {});
void write_file(const std::filesystem::path& path, const File& file);
/// Reads through an mmap of the file (page-cache slices, no whole-file
/// copy) with a transparent buffered fallback; verdicts are identical.
File read_file(const std::filesystem::path& path, const ReadOptions& ro = {});

namespace detail {

/// One frame-directory entry: the node's interval, its tree links
/// (directory indices, -1 = none), its payload extent in the blob, and its
/// preview (small; kept eagerly for zoomed-out rendering).
struct DirEntry {
  double t0 = 0.0;
  double t1 = 0.0;
  std::int32_t depth = 0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  Preview preview;
};

/// A checked header and frame directory, as every reader sees it: the
/// header fields in a frameless File, the preorder directory ([0] is the
/// root; every other entry has exactly one parent), and the payload blob it
/// indexes, borrowed from the bytes read.
struct Directory {
  File head;
  std::vector<DirEntry> frames;
  const std::uint8_t* blob = nullptr;
  std::uint64_t blob_len = 0;
};

}  // namespace detail

/// Lazy reader: parses the header and frame directory eagerly but decodes
/// frame payloads only when a query touches them. This is how Jumpshot
/// scrolls seamlessly through logs far larger than memory-comfortable: a
/// zoomed-in window touches O(depth) frames, not all of them.
///
/// The path constructor mmaps the file (with a read-into-buffer fallback),
/// so frame payloads are decoded straight out of the page cache — the file
/// bytes are never copied wholesale. Decoded frames live in the process-wide
/// FrameCache, keyed by file identity: every Navigator (and every
/// pilot-traced session) over the same file shares one decode of each frame.
class Navigator {
public:
  explicit Navigator(const std::filesystem::path& path, const ReadOptions& ro = {});
  explicit Navigator(std::vector<std::uint8_t> bytes, const ReadOptions& ro = {});
  ~Navigator();
  Navigator(const Navigator&) = delete;
  Navigator& operator=(const Navigator&) = delete;

  [[nodiscard]] FrameEncoding encoding() const { return dir_.head.encoding; }
  [[nodiscard]] std::int32_t nranks() const { return dir_.head.nranks; }
  [[nodiscard]] double t_min() const { return dir_.head.t_min; }
  [[nodiscard]] double t_max() const { return dir_.head.t_max; }
  [[nodiscard]] const std::vector<Category>& categories() const {
    return dir_.head.categories;
  }
  [[nodiscard]] const ConvertStats& stats() const { return dir_.head.stats; }
  [[nodiscard]] const Category* category(std::int32_t id) const {
    return dir_.head.category(id);
  }

  /// Visit drawables intersecting [a, b], decoding only the frames whose
  /// interval intersects the window, one at a time in File::visit_window's
  /// frame order (so parse() and the Navigator feed identical sequences).
  void visit_window(double a, double b,
                    const std::function<void(const StateDrawable&)>& on_state,
                    const std::function<void(const EventDrawable&)>& on_event,
                    const std::function<void(const ArrowDrawable&)>& on_arrow);

  /// Preview of the smallest single frame covering [a, b] (zoomed-out
  /// rendering without touching leaf payloads), with its interval.
  struct PreviewView {
    double t0 = 0.0;
    double t1 = 0.0;
    const Preview* preview = nullptr;  // borrowed; valid while Navigator lives
  };
  [[nodiscard]] PreviewView preview_covering(double a, double b);

  [[nodiscard]] std::size_t total_frames() const { return dir_.frames.size(); }
  /// Frames decoded so far (tests assert laziness with this).
  [[nodiscard]] std::size_t frames_decoded() const;

  /// Payload bytes of every frame intersecting [a, b] — what a detailed
  /// visit of that window would decode. Answered from the directory alone
  /// (no payload is touched), so a renderer can decide between detailed
  /// drawing and the preview fallback before paying for either.
  [[nodiscard]] std::uint64_t window_payload_bytes(double a, double b) const;

private:
  void load(const std::uint8_t* data, std::size_t n, const ReadOptions& ro);

  /// Decode frame `index` through the shared cache. The returned pointer
  /// stays valid for as long as the caller holds it, even across eviction.
  [[nodiscard]] std::shared_ptr<const Frame> frame_ptr(std::size_t index);

  util::MappedFile map_;              // path ctor: zero-copy view of the file
  std::vector<std::uint8_t> bytes_;   // bytes ctor: owned buffer
  detail::Directory dir_;             // checked at load; blob borrows the bytes
  FrameCache* cache_ = nullptr;      // shared decode cache (never null after load)
  std::uint64_t owner_ = 0;          // our namespace within the cache
  bool private_owner_ = false;       // bytes ctor: evict our frames on dtor
  std::vector<char> touched_;         // frames ever requested here
  std::size_t touched_count_ = 0;
};

/// Human-readable structural summary (the slog2print tool).
std::string to_text(const File& file, bool dump_drawables = false);

/// Stream the to_text() dump of an on-disk SLOG-2 file through `sink`. The
/// file is mapped (util::MappedFile, which reads it into a buffer where mmap
/// is unavailable) and decoded through parse()'s own directory reader and
/// payload decode, one frame at a time, so only the directory and one
/// frame's drawables are ever materialized. A validation pass decodes every
/// payload first, so a file parse() rejects throws the same util::IoError
/// before any output is emitted. Output is byte-identical to
/// to_text(read_file(path), dump_drawables).
void stream_text(const std::filesystem::path& path, bool dump_drawables,
                 const std::function<void(const std::string&)>& sink,
                 const ReadOptions& ro = {});

}  // namespace slog2
