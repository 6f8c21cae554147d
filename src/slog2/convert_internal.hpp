// Internal pieces of the CLOG-2 → SLOG-2 conversion shared by the offline
// converter (convert.cpp) and the streaming OnlineConverter in src/traced/.
// Both run the one Pairer over their instances in InstKey order and feed
// the commit-ordered drawable lists it appends into the same serial
// assemble() tail, which is what makes the online finalize() output
// byte-identical to the offline converter on the same records.
//
// It also holds the one frame-tree window walk, the per-frame visit and
// drawable text the readers in serialize.cpp share with File, and the
// frame-payload codec serialize() shares with the online converter's sealed
// chunks.
//
// Everything here is an implementation detail: the stable surface is
// slog2.hpp. Do not include this header outside src/slog2, src/traced and
// their tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "slog2/slog2.hpp"
#include "util/bytebuf.hpp"

namespace slog2::detail {

/// Warning cap shared by every conversion stage (pathological traces must
/// not flood the caller).
inline constexpr std::size_t kMaxWarningMessages = 50;

void warn(std::vector<std::string>* warnings, const std::string& msg);

/// The converter's working set: every drawable of one conversion, per kind,
/// in global commit order (the chronological order of each drawable's
/// closing instance, with never-closed states appended last).
struct Collected {
  std::vector<StateDrawable> states;
  std::vector<EventDrawable> events;
  std::vector<ArrowDrawable> arrows;
};

/// Global chronological position of an instance record: primary key its
/// timestamp, tie-broken by its position in the file/stream. Processing
/// instances in InstKey order is exactly the stable-sort-by-time order the
/// original sequential converter used.
struct InstKey {
  double t = 0.0;
  std::uint64_t idx = 0;
  bool operator<(const InstKey& o) const {
    if (t != o.t) return t < o.t;
    return idx < o.idx;
  }
};

// Event-id → category lookup. Ids are allocated contiguously from 1 by the
// MPE layer, so the hot path is a dense vector indexed by id, grown on
// demand as definitions arrive; absurd ids (hostile or handcrafted files)
// go to an overflow map instead of forcing a giant allocation.
class EventIdIndex {
public:
  struct Entry {
    std::int32_t state_cat = -1;  // category id, -1 = not a state event
    bool is_start = false;
    std::int32_t solo_cat = -1;  // category id, -1 = not a solo event
    [[nodiscard]] bool used() const { return state_cat >= 0 || solo_cat >= 0; }
  };

  Entry& at(std::int32_t id) {
    if (id < 0 || id >= kDenseLimit) return overflow_[id];
    const auto i = static_cast<std::size_t>(id);
    if (i >= dense_.size()) dense_.resize(i + 1);
    return dense_[i];
  }
  [[nodiscard]] const Entry* find(std::int32_t id) const {
    if (id < 0 || id >= kDenseLimit) {
      const auto it = overflow_.find(id);
      return it == overflow_.end() ? nullptr : &it->second;
    }
    const auto i = static_cast<std::size_t>(id);
    return i < dense_.size() && dense_[i].used() ? &dense_[i] : nullptr;
  }

private:
  static constexpr std::int32_t kDenseLimit = 1 << 20;
  std::vector<Entry> dense_;
  std::map<std::int32_t, Entry> overflow_;
};

/// The one pairing pass of the conversion (clog2TOslog2's analysis step),
/// shared by convert() and the streaming OnlineConverter. StateDef and
/// EventDef records build the category table. Instances, admitted one at a
/// time in InstKey order, pair state start/end events LIFO per rank into
/// rectangles with nesting depth, pair send/receive halves FIFO per
/// (src, dst, tag) into arrows, and keep solo events as bubbles. Each
/// drawable is appended at its commit point, the instance that completes
/// it, so the output lists come out in global commit order (see
/// Collected).
class Pairer {
public:
  /// What one admit() appended to its output.
  enum class Drawn : std::uint8_t { kNothing, kState, kEvent, kArrow };

  /// Throws util::IoError unless clog2::check_nranks accepts `nranks`.
  explicit Pairer(std::int32_t nranks = 0);

  /// Add one category and route its event ids. A later definition of the
  /// same id wins.
  void define(const clog2::StateDef& d);
  void define(const clog2::EventDef& e);

  /// Check an EventRec or MsgRec with clog2::check_record (`record_index`
  /// names it in the error) and give it the next InstKey. The check runs
  /// before any ordering, so no non-finite time reaches an InstKey sort.
  InstKey enter(const clog2::Record& rec, std::uint64_t record_index);

  /// Pair one entered instance; instances must come in InstKey order. The
  /// drawable it completes, if any, is appended to `out`.
  Drawn admit(const clog2::Record& rec, Frame& out);

  /// End of input. Adds the pairing counters to `stats` and emits, in this
  /// order, the scan warnings (chronological), the unmatched sends and then
  /// the unmatched receives (per (src, dst, tag) key), and the never-closed
  /// states, which are closed at the last instance time and appended to
  /// `out.states` rank by rank.
  void finish(ConvertStats& stats, Frame& out, std::vector<std::string>* warnings);

  [[nodiscard]] const std::vector<Category>& categories() const { return categories_; }
  [[nodiscard]] bool any_instance() const { return any_instance_; }
  /// Bytes held by open states and unmatched message halves.
  [[nodiscard]] std::uint64_t open_bytes() const { return open_bytes_; }

private:
  struct OpenState {
    std::int32_t category_id = 0;
    double start_time = 0.0;
    std::string start_text;
    std::int32_t depth = 0;
  };
  // An unmatched message half; its ranks and tag are its queue's key.
  struct Half {
    double t = 0.0;
    std::uint32_t size = 0;
  };
  // Unmatched halves of one (src, dst, tag) key, admitted order. Only one
  // kind can wait at a time: the other kind's next half matches the front.
  struct Queue {
    bool sends = true;
    std::deque<Half> halves;
  };
  using MsgKey = std::tuple<std::int32_t, std::int32_t, std::int32_t>;

  [[nodiscard]] bool warning_fits() const {
    return scan_warnings_.size() < kMaxWarningMessages;
  }
  Drawn pair_event(const clog2::EventRec& e, Frame& out);
  Drawn pair_message(const clog2::MsgRec& m, Frame& out);

  std::int32_t nranks_ = 0;
  std::vector<Category> categories_;
  EventIdIndex index_;
  std::vector<std::vector<OpenState>> stacks_;  // per rank
  std::map<MsgKey, Queue> queues_;
  std::vector<std::string> scan_warnings_;  // first kMaxWarningMessages
  std::uint64_t unmatched_state_ends_ = 0;
  std::uint64_t unknown_event_ids_ = 0;
  std::uint64_t next_instance_ = 0;
  double last_time_ = 0.0;  // latest instance time, never below 0
  bool any_instance_ = false;
  std::uint64_t open_bytes_ = 0;
};

/// Payload accounting shared with Frame::payload_bytes().
std::size_t state_bytes(const StateDrawable& s);
std::size_t event_bytes(const EventDrawable& e);
inline constexpr std::size_t kArrowBytes =
    2 * sizeof(double) + 3 * sizeof(std::int32_t) + 4;

/// assemble()'s time-span fold: the least start and the greatest end, widened
/// in order. NaN never wins a comparison, so NaN bounds are skipped; a span
/// still at (+inf, -inf) has seen no usable time.
struct Span {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  void widen(double start, double end) {
    lo = std::min(lo, start);
    hi = std::max(hi, end);
  }
};

/// Fill every node's preview with its whole subtree (see Frame::preview).
/// `frames` must be a preorder array whose root has depth 0 and whose
/// children lie one level below their parent, as the tree build makes it.
void fill_previews(std::vector<Frame>& frames, int nbuckets);

/// The conversion tail shared by convert() and OnlineConverter::finalize(),
/// one serial pass: Equal-Drawables detection (one sort per kind), drawable
/// totals, the global time span, and the frame tree with its previews.
/// The tree build computes each drawable's extent and payload once,
/// partitions an index array in place down the tree, and moves each
/// drawable once, into its final frame, in commit order. `items` must
/// already be in global commit order per kind (see Collected); `out` must
/// already carry nranks, frame_size, the category table, and the
/// pairing-stage stats (unmatched/unclosed/unknown counters).
void assemble(File& out, Collected items, bool any_instance,
              const ConvertOptions& opts, std::vector<std::string>* warnings);

/// The one frame-tree window walk: calls `fn(i)` for every node of `nodes`
/// (a Frame or DirEntry preorder array, [0] = root, int32 child links,
/// -1 = none) whose interval [t0, t1] intersects [a, b], parent before
/// children and left child first: ascending index order on a preorder
/// array. Subtrees outside the window are pruned without being touched, so
/// a zoomed window costs O(overlap + depth), not O(total frames). The
/// converter puts every drawable inside its frame's interval, so pruning
/// loses none of them.
template <class Node, class Fn>
void walk_window(const std::vector<Node>& nodes, double a, double b, Fn&& fn) {
  if (nodes.empty()) return;
  std::vector<std::int32_t> stack = {0};
  while (!stack.empty()) {
    const auto i = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    const Node& n = nodes[i];
    if (n.t1 < a || n.t0 > b) continue;
    fn(i);
    if (n.right != -1) stack.push_back(n.right);
    if (n.left != -1) stack.push_back(n.left);
  }
}

/// Call back every drawable of `f` whose time range intersects [a, b] —
/// the per-frame step of File::visit_window and Navigator::visit_window.
void visit_frame(const Frame& f, double a, double b,
                 const std::function<void(const StateDrawable&)>& on_state,
                 const std::function<void(const EventDrawable&)>& on_event,
                 const std::function<void(const ArrowDrawable&)>& on_arrow);

/// The one frame-payload codec: a frame's drawables (not its interval,
/// preview or links) in `enc`, as serialize() lays them out in the blob and
/// pilot-traced seals its chunks. read_payload() appends to `f`'s drawable
/// lists and throws util::IoError on truncated, hostile or trailing bytes.
void write_payload(util::ByteWriter& w, const Frame& f, FrameEncoding enc);
void read_payload(const std::uint8_t* data, std::size_t n, FrameEncoding enc,
                  Frame* f);

/// to_text()'s drawable lines for the drawables of `f` that intersect
/// [a, b]; to_text() and stream_text() print each walked frame through it.
std::string drawables_text(const Frame& f, double a, double b);

}  // namespace slog2::detail
