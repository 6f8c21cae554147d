// CLOG-2 → SLOG-2 conversion: pairing, matching, superposition detection,
// and frame-tree construction. See slog2.hpp for the format overview.
//
// Pairing is one serial pass (detail::Pairer) over the instances in global
// chronological order, InstKey order, the same pass the streaming
// OnlineConverter (src/traced/) runs as records arrive. Each drawable is
// appended at its closing instance, so the lists come out commit-ordered
// with no sort of their own. The assemble() tail is serial too: one sort
// per drawable kind finds the Equal Drawables, and the frame tree is built
// by splitting small per-kind index arrays in place, so each drawable moves
// once, into its final frame. Online and offline emit the same bytes.
#include <algorithm>
#include <numeric>
#include <tuple>

#include "slog2/convert_internal.hpp"
#include "slog2/slog2.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace slog2 {

namespace detail {

void warn(std::vector<std::string>* warnings, const std::string& msg) {
  if (warnings && warnings->size() < kMaxWarningMessages) warnings->push_back(msg);
}

std::size_t state_bytes(const StateDrawable& s) {
  return 2 * sizeof(double) + 3 * sizeof(std::int32_t) + s.start_text.size() +
         s.end_text.size();
}
std::size_t event_bytes(const EventDrawable& e) {
  return sizeof(double) + 2 * sizeof(std::int32_t) + e.text.size();
}

Pairer::Pairer(std::int32_t nranks) : nranks_(nranks) {
  clog2::check_nranks(nranks);
  stacks_.resize(static_cast<std::size_t>(nranks));
  categories_.push_back(
      Category{kArrowCategoryId, CategoryKind::kArrow, "message", "white", ""});
}

void Pairer::define(const clog2::StateDef& d) {
  const auto cat = static_cast<std::int32_t>(categories_.size());
  categories_.push_back(Category{cat, CategoryKind::kState, d.name, d.color, d.format});
  index_.at(d.start_event_id) = EventIdIndex::Entry{cat, true, -1};
  index_.at(d.end_event_id) = EventIdIndex::Entry{cat, false, -1};
}

void Pairer::define(const clog2::EventDef& e) {
  const auto cat = static_cast<std::int32_t>(categories_.size());
  categories_.push_back(Category{cat, CategoryKind::kEvent, e.name, e.color, e.format});
  index_.at(e.event_id) = EventIdIndex::Entry{-1, false, cat};
}

InstKey Pairer::enter(const clog2::Record& rec, std::uint64_t record_index) {
  clog2::check_record(rec, nranks_, record_index);
  const auto* e = std::get_if<clog2::EventRec>(&rec);
  const double t = e != nullptr ? e->timestamp : std::get<clog2::MsgRec>(rec).timestamp;
  any_instance_ = true;
  last_time_ = std::max(last_time_, t);
  return InstKey{t, next_instance_++};
}

Pairer::Drawn Pairer::admit(const clog2::Record& rec, Frame& out) {
  if (const auto* e = std::get_if<clog2::EventRec>(&rec)) return pair_event(*e, out);
  return pair_message(std::get<clog2::MsgRec>(rec), out);
}

Pairer::Drawn Pairer::pair_event(const clog2::EventRec& e, Frame& out) {
  const EventIdIndex::Entry* entry = index_.find(e.event_id);
  if (entry != nullptr && entry->solo_cat >= 0) {
    out.events.push_back(EventDrawable{entry->solo_cat, e.rank, e.timestamp, e.text});
    return Drawn::kEvent;
  }
  if (entry == nullptr) {
    ++unknown_event_ids_;
    if (warning_fits())
      scan_warnings_.push_back(util::strprintf("rank %d: event id %d has no definition",
                                               e.rank, e.event_id));
    return Drawn::kNothing;
  }
  auto& stack = stacks_[static_cast<std::size_t>(e.rank)];
  if (entry->is_start) {
    stack.push_back(OpenState{entry->state_cat, e.timestamp, e.text,
                              static_cast<std::int32_t>(stack.size())});
    open_bytes_ += sizeof(OpenState) + e.text.size();
    return Drawn::kNothing;
  }
  if (stack.empty() || stack.back().category_id != entry->state_cat) {
    ++unmatched_state_ends_;
    if (warning_fits())
      scan_warnings_.push_back(util::strprintf(
          "rank %d: end event id %d at t=%.9f has no matching open state", e.rank,
          e.event_id, e.timestamp));
    return Drawn::kNothing;
  }
  OpenState& open = stack.back();
  open_bytes_ -= sizeof(OpenState) + open.start_text.size();
  out.states.push_back(StateDrawable{open.category_id, e.rank, open.start_time,
                                     e.timestamp, open.depth,
                                     std::move(open.start_text), e.text});
  stack.pop_back();
  return Drawn::kState;
}

Pairer::Drawn Pairer::pair_message(const clog2::MsgRec& m, Frame& out) {
  const bool is_send = m.kind == clog2::MsgRec::Kind::kSend;
  const MsgKey key = is_send ? MsgKey{m.rank, m.partner, m.tag}
                             : MsgKey{m.partner, m.rank, m.tag};
  Queue& q = queues_[key];
  if (q.halves.empty() || q.sends == is_send) {
    q.sends = is_send;
    q.halves.push_back(Half{m.timestamp, m.size});
    open_bytes_ += sizeof(Half);
    return Drawn::kNothing;
  }
  // Both kinds arrive in InstKey order, so the front is the i-th half of
  // the other kind: the i-th send pairs with the i-th receive, and the
  // arrow commits at the later half, this one.
  const Half other = q.halves.front();
  q.halves.pop_front();
  open_bytes_ -= sizeof(Half);
  const Half send = is_send ? Half{m.timestamp, m.size} : other;
  const double recv_t = is_send ? other.t : m.timestamp;
  out.arrows.push_back(ArrowDrawable{std::get<0>(key), std::get<1>(key), send.t,
                                     recv_t, std::get<2>(key), send.size});
  return Drawn::kArrow;
}

void Pairer::finish(ConvertStats& stats, Frame& out,
                    std::vector<std::string>* warnings) {
  stats.unmatched_state_ends += unmatched_state_ends_;
  stats.unknown_event_ids += unknown_event_ids_;
  for (const auto& msg : scan_warnings_) warn(warnings, msg);

  for (const auto& [key, q] : queues_) {
    if (!q.sends || q.halves.empty()) continue;
    stats.unmatched_sends += q.halves.size();
    warn(warnings, util::strprintf("%zu send(s) from rank %d to rank %d tag %d "
                                   "were never received",
                                   q.halves.size(), std::get<0>(key),
                                   std::get<1>(key), std::get<2>(key)));
  }
  for (const auto& [key, q] : queues_) {
    if (q.sends || q.halves.empty()) continue;
    stats.unmatched_recvs += q.halves.size();
    warn(warnings, util::strprintf("%zu receive(s) at rank %d from rank %d tag %d "
                                   "have no logged send",
                                   q.halves.size(), std::get<1>(key),
                                   std::get<0>(key), std::get<2>(key)));
  }

  // Close dangling states at the last timestamp so they stay visible.
  for (std::size_t r = 0; r < stacks_.size(); ++r) {
    auto& stack = stacks_[r];
    const auto rank = static_cast<std::int32_t>(r);
    while (!stack.empty()) {
      ++stats.unclosed_states;
      OpenState& open = stack.back();
      warn(warnings,
           util::strprintf("rank %d: state category %d opened at t=%.9f never closed",
                           rank, open.category_id, open.start_time));
      out.states.push_back(StateDrawable{open.category_id, rank, open.start_time,
                                         last_time_, open.depth,
                                         std::move(open.start_text), {}});
      stack.pop_back();
    }
  }
}

}  // namespace detail

namespace {

void add_occupancy(Preview& pv, double node_t0, double node_t1, std::int32_t cat,
                   double s, double e) {
  if (pv.nbuckets <= 0 || node_t1 <= node_t0) return;
  auto& buckets = pv.state_occupancy[cat];
  if (buckets.empty()) buckets.assign(static_cast<std::size_t>(pv.nbuckets), 0.0F);
  const double width = (node_t1 - node_t0) / pv.nbuckets;
  const double lo = std::max(s, node_t0);
  const double hi = std::min(e, node_t1);
  if (hi <= lo) return;
  auto first = static_cast<int>((lo - node_t0) / width);
  auto last = static_cast<int>((hi - node_t0) / width);
  first = std::clamp(first, 0, pv.nbuckets - 1);
  last = std::clamp(last, 0, pv.nbuckets - 1);
  for (int i = first; i <= last; ++i) {
    const double b0 = node_t0 + i * width;
    const double b1 = b0 + width;
    const double overlap = std::min(hi, b1) - std::max(lo, b0);
    if (overlap > 0)
      buckets[static_cast<std::size_t>(i)] += static_cast<float>(overlap);
  }
}

void add_event_count(Preview& pv, double node_t0, double node_t1, std::int32_t cat,
                     double t) {
  if (pv.nbuckets <= 0) return;
  auto& buckets = pv.event_counts[cat];
  if (buckets.empty()) buckets.assign(static_cast<std::size_t>(pv.nbuckets), 0);
  int idx = 0;
  if (node_t1 > node_t0)
    idx = std::clamp(static_cast<int>((t - node_t0) / (node_t1 - node_t0) *
                                      pv.nbuckets),
                     0, pv.nbuckets - 1);
  buckets[static_cast<std::size_t>(idx)]++;
}

// Counts one drawable kind's Equal Drawables, the drawables whose key equals
// an earlier one's, and warns for the first of them in commit order. Sorting
// (key, index) puts each equal run in commit order, so every element after a
// run's first is a duplicate. Keys lead with the times: the lists are close
// to time order already, and any field order finds the same equal runs.
template <class T, class KeyFn, class TextFn>
void equal_drawables(const std::vector<T>& items, ConvertStats& stats,
                     std::vector<std::string>* warnings, KeyFn key, TextFn text) {
  std::vector<std::pair<decltype(key(items.front())), std::uint32_t>> keyed;
  keyed.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    keyed.emplace_back(key(items[i]), static_cast<std::uint32_t>(i));
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint32_t> dups;
  for (std::size_t i = 1; i < keyed.size(); ++i)
    if (!(keyed[i - 1].first < keyed[i].first)) dups.push_back(keyed[i].second);
  stats.equal_drawables += dups.size();
  const auto shown = std::min(dups.size(), detail::kMaxWarningMessages);
  std::partial_sort(dups.begin(), dups.begin() + static_cast<std::ptrdiff_t>(shown),
                    dups.end());
  for (std::size_t i = 0; i < shown; ++i) detail::warn(warnings, text(items[dups[i]]));
}

// Bounded-frame tree builder: drawables that fit entirely inside a child
// half-interval sink down until the payload fits the frame-size bound. Each
// drawable's extent and payload are computed once, under one index: states,
// then events, then arrows, each in commit order. A node partitions its
// range of the index array in place and stably, so every range stays in
// index order, and each drawable is moved once, into its final frame.
class TreeBuilder {
public:
  TreeBuilder(detail::Collected& items, const ConvertOptions& opts, ConvertStats& stats)
      : items_(items), opts_(opts), stats_(stats) {
    extent_.reserve(items.states.size() + items.events.size() + items.arrows.size());
    for (const auto& s : items.states)
      extent_.push_back({s.start_time, s.end_time, detail::state_bytes(s)});
    for (const auto& e : items.events)
      extent_.push_back({e.time, e.time, detail::event_bytes(e)});
    for (const auto& a : items.arrows)
      extent_.push_back({std::min(a.start_time, a.end_time),
                         std::max(a.start_time, a.end_time), detail::kArrowBytes});
    order_.resize(extent_.size());
    scratch_.resize(extent_.size());
    std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  }

  // Sets out's time span, the least start and the greatest end of the
  // drawables folded in order, and builds its tree over that span.
  void build(File& out, bool any_instance) {
    detail::Span span;
    for (const auto& x : extent_) span.widen(x.lo, x.hi);
    if (any_instance && span.lo <= span.hi) {
      out.t_min = span.lo;
      out.t_max = span.hi;
    }
    node(out.frames, order_.begin(), order_.end(), out.t_min, out.t_max, 0);
  }

private:
  struct Extent {
    double lo, hi;
    std::size_t bytes;
  };
  using It = std::vector<std::uint32_t>::iterator;

  // Appends the node for [a, b] and then its subtree to `frames`, left
  // before right, so the array comes out in preorder; returns its index.
  std::int32_t node(std::vector<Frame>& frames, It first, It last, double a,
                    double b, int depth) {
    const auto index = static_cast<std::int32_t>(frames.size());
    Frame& frame = frames.emplace_back();
    frame.t0 = a;
    frame.t1 = b;
    frame.depth = depth;
    ++stats_.frames;
    stats_.tree_depth = std::max(stats_.tree_depth, depth);
    std::size_t bytes = 0;
    for (It it = first; it != last; ++it) bytes += extent_[*it].bytes;
    const bool can_split = depth < opts_.max_depth && b > a &&
                           (b - a) / 2.0 > 0.0 && bytes > opts_.frame_size;
    if (!can_split) {
      ++stats_.leaf_frames;
      take(frame, first, last);
      return index;
    }
    // A drawable ending at or before mid goes left, else one starting at or
    // after mid goes right, else it stays here: [left | right | here], each
    // in order. scratch_ takes the right group from its front and the here
    // group from its back.
    const double mid = 0.5 * (a + b);
    It right = first, to_right = scratch_.begin(), to_here = scratch_.end();
    for (It it = first; it != last; ++it) {
      if (extent_[*it].hi <= mid) *right++ = *it;
      else if (extent_[*it].lo >= mid) *to_right++ = *it;
      else *--to_here = *it;
    }
    const It here = std::copy(scratch_.begin(), to_right, right);
    std::reverse_copy(to_here, scratch_.end(), here);
    take(frame, here, last);
    // The recursion grows `frames`, so the links go in by index afterwards.
    const auto at = static_cast<std::size_t>(index);
    if (right != first) frames[at].left = node(frames, first, right, a, mid, depth + 1);
    if (here != right) frames[at].right = node(frames, right, here, mid, b, depth + 1);
    return index;
  }

  // Moves the drawables of the ascending index range [first, last) into `f`.
  void take(Frame& f, It first, It last) {
    const std::size_t ns = items_.states.size(), ne = items_.events.size();
    const It events = std::lower_bound(first, last, ns);
    const It arrows = std::lower_bound(events, last, ns + ne);
    const auto move_into = [](auto& to, auto& from, It it, It stop, std::size_t base) {
      to.reserve(static_cast<std::size_t>(stop - it));
      for (; it != stop; ++it) to.push_back(std::move(from[*it - base]));
    };
    move_into(f.states, items_.states, first, events, 0);
    move_into(f.events, items_.events, events, arrows, ns);
    move_into(f.arrows, items_.arrows, arrows, last, ns + ne);
  }

  detail::Collected& items_;
  const ConvertOptions& opts_;
  ConvertStats& stats_;
  std::vector<Extent> extent_;
  std::vector<std::uint32_t> order_, scratch_;
};

}  // namespace

std::size_t Frame::payload_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : states) bytes += detail::state_bytes(s);
  for (const auto& e : events) bytes += detail::event_bytes(e);
  bytes += arrows.size() * detail::kArrowBytes;
  return bytes;
}

namespace detail {

// Every drawable contributes to the preview of its own frame and of every
// ancestor, so any node's preview summarizes its whole subtree. In preorder
// the ancestors of a frame at depth d are the last frames seen at depths
// 0..d-1, so one pass adds each frame's drawables to every node on that
// path, and each node's float sums run over its subtree in preorder.
void fill_previews(std::vector<Frame>& frames, int nbuckets) {
  std::vector<Frame*> path;
  for (Frame& f : frames) {
    f.preview.nbuckets = nbuckets;
    path.resize(static_cast<std::size_t>(f.depth));
    path.push_back(&f);
    for (Frame* node : path) {
      for (const auto& s : f.states)
        add_occupancy(node->preview, node->t0, node->t1, s.category_id,
                      s.start_time, s.end_time);
      for (const auto& e : f.events)
        add_event_count(node->preview, node->t0, node->t1, e.category_id, e.time);
      node->preview.arrow_count += static_cast<std::uint32_t>(f.arrows.size());
    }
  }
}

void assemble(File& out, Collected items, bool any_instance,
              const ConvertOptions& opts, std::vector<std::string>* warnings) {
  // --- "Equal Drawables" detection, warned in kind order ---------------------
  equal_drawables(
      items.arrows, out.stats, warnings,
      [](const auto& a) {
        return std::tuple{a.end_time, a.start_time, a.src_rank, a.dst_rank};
      },
      [](const auto& a) {
        return util::strprintf("Equal Drawables: arrows %d->%d share start=%.9f end=%.9f",
                               a.src_rank, a.dst_rank, a.start_time, a.end_time);
      });
  equal_drawables(
      items.states, out.stats, warnings,
      [](const auto& s) {
        return std::tuple{s.end_time, s.start_time, s.category_id, s.rank};
      },
      [](const auto& s) {
        return util::strprintf(
            "Equal Drawables: states cat=%d rank=%d share start=%.9f end=%.9f",
            s.category_id, s.rank, s.start_time, s.end_time);
      });
  equal_drawables(
      items.events, out.stats, warnings,
      [](const auto& e) { return std::tuple{e.time, e.category_id, e.rank}; },
      [](const auto& e) {
        return util::strprintf("Equal Drawables: events cat=%d rank=%d share t=%.9f",
                               e.category_id, e.rank, e.time);
      });

  out.stats.total_states = items.states.size();
  out.stats.total_events = items.events.size();
  out.stats.total_arrows = items.arrows.size();
  TreeBuilder(items, opts, out.stats).build(out, any_instance);
  fill_previews(out.frames, opts.preview_buckets);
}

}  // namespace detail

File convert(const clog2::File& in, const ConvertOptions& opts,
             std::vector<std::string>* warnings) {
  if (opts.frame_size == 0)
    throw util::UsageError("slog2::convert: frame_size must be positive");
  if (opts.max_depth < 0 || opts.max_depth > 48)
    throw util::UsageError("slog2::convert: max_depth out of range");

  File out;
  out.nranks = in.nranks;
  out.frame_size = opts.frame_size;
  out.encoding = opts.encoding;

  // Definitions apply wherever they sit in the file; instances are checked
  // and keyed on the way past.
  detail::Pairer pairer(in.nranks);
  std::vector<std::pair<detail::InstKey, const clog2::Record*>> instances;
  instances.reserve(in.records.size());
  for (std::size_t i = 0; i < in.records.size(); ++i) {
    const clog2::Record& rec = in.records[i];
    if (const auto* d = std::get_if<clog2::StateDef>(&rec)) {
      pairer.define(*d);
    } else if (const auto* e = std::get_if<clog2::EventDef>(&rec)) {
      pairer.define(*e);
    } else if (std::holds_alternative<clog2::EventRec>(rec) ||
               std::holds_alternative<clog2::MsgRec>(rec)) {
      instances.emplace_back(pairer.enter(rec, i), &rec);
    }
  }
  // A merged CLOG-2 file is already in instance order.
  const auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(instances.begin(), instances.end(), by_key))
    std::sort(instances.begin(), instances.end(), by_key);

  Frame drawn;
  for (const auto& [key, rec] : instances) pairer.admit(*rec, drawn);
  pairer.finish(out.stats, drawn, warnings);
  out.categories = pairer.categories();

  detail::assemble(out,
                   detail::Collected{std::move(drawn.states), std::move(drawn.events),
                                     std::move(drawn.arrows)},
                   pairer.any_instance(), opts, warnings);
  return out;
}

const Category* File::category(std::int32_t id) const {
  for (const auto& c : categories)
    if (c.id == id) return &c;
  return nullptr;
}

void detail::visit_frame(const Frame& f, double a, double b,
                         const std::function<void(const StateDrawable&)>& on_state,
                         const std::function<void(const EventDrawable&)>& on_event,
                         const std::function<void(const ArrowDrawable&)>& on_arrow) {
  if (on_state)
    for (const auto& s : f.states)
      if (s.end_time >= a && s.start_time <= b) on_state(s);
  if (on_event)
    for (const auto& e : f.events)
      if (e.time >= a && e.time <= b) on_event(e);
  if (on_arrow)
    for (const auto& ar : f.arrows) {
      const double lo = std::min(ar.start_time, ar.end_time);
      const double hi = std::max(ar.start_time, ar.end_time);
      if (hi >= a && lo <= b) on_arrow(ar);
    }
}

void File::visit_window(
    double a, double b, const std::function<void(const StateDrawable&)>& on_state,
    const std::function<void(const EventDrawable&)>& on_event,
    const std::function<void(const ArrowDrawable&)>& on_arrow) const {
  detail::walk_window(frames, a, b, [&](std::size_t i) {
    detail::visit_frame(frames[i], a, b, on_state, on_event, on_arrow);
  });
}

std::string detail::drawables_text(const Frame& f, double a, double b) {
  std::string out;
  visit_frame(
      f, a, b,
      [&](const StateDrawable& s) {
        out += util::strprintf(
            "  state cat=%d rank=%d [%.9f, %.9f] depth=%d \"%s\"\n", s.category_id,
            s.rank, s.start_time, s.end_time, s.depth, s.start_text.c_str());
      },
      [&](const EventDrawable& e) {
        out += util::strprintf("  event cat=%d rank=%d t=%.9f \"%s\"\n",
                               e.category_id, e.rank, e.time, e.text.c_str());
      },
      [&](const ArrowDrawable& ar) {
        out += util::strprintf("  arrow %d->%d [%.9f, %.9f] tag=%d size=%u\n",
                               ar.src_rank, ar.dst_rank, ar.start_time, ar.end_time,
                               ar.tag, ar.size);
      });
  return out;
}

std::string to_text(const File& file, bool dump_drawables) {
  std::string out;
  out += util::strprintf(
      "SLOG-2  ranks=%d  span=[%.9f, %.9f]  frame_size=%llu\n", file.nranks,
      file.t_min, file.t_max, static_cast<unsigned long long>(file.frame_size));
  out += util::strprintf(
      "  drawables: states=%llu events=%llu arrows=%llu\n",
      static_cast<unsigned long long>(file.stats.total_states),
      static_cast<unsigned long long>(file.stats.total_events),
      static_cast<unsigned long long>(file.stats.total_arrows));
  out += util::strprintf(
      "  frames=%llu leaves=%llu depth=%d\n",
      static_cast<unsigned long long>(file.stats.frames),
      static_cast<unsigned long long>(file.stats.leaf_frames), file.stats.tree_depth);
  out += util::strprintf(
      "  warnings: unmatched_sends=%llu unmatched_recvs=%llu "
      "unmatched_state_ends=%llu unclosed_states=%llu equal_drawables=%llu "
      "unknown_event_ids=%llu\n",
      static_cast<unsigned long long>(file.stats.unmatched_sends),
      static_cast<unsigned long long>(file.stats.unmatched_recvs),
      static_cast<unsigned long long>(file.stats.unmatched_state_ends),
      static_cast<unsigned long long>(file.stats.unclosed_states),
      static_cast<unsigned long long>(file.stats.equal_drawables),
      static_cast<unsigned long long>(file.stats.unknown_event_ids));
  out += "  categories:\n";
  for (const auto& c : file.categories) {
    const char* kind = c.kind == CategoryKind::kState   ? "state"
                       : c.kind == CategoryKind::kEvent ? "event"
                                                        : "arrow";
    out += util::strprintf("    [%d] %-6s %-24s %s\n", c.id, kind, c.name.c_str(),
                           c.color.c_str());
  }
  if (dump_drawables)
    detail::walk_window(file.frames, file.t_min, file.t_max, [&](std::size_t i) {
      out += detail::drawables_text(file.frames[i], file.t_min, file.t_max);
    });
  return out;
}

}  // namespace slog2
