// CLOG-2 → SLOG-2 conversion: pairing, matching, superposition detection,
// and frame-tree construction. See slog2.hpp for the format overview.
//
// Pairing is one serial pass (detail::Pairer) over the instances in global
// chronological order, InstKey order, the same pass the streaming
// OnlineConverter (src/traced/) runs as records arrive. Each drawable is
// appended at its closing instance, so the lists come out commit-ordered
// with no sort of their own. The assemble() tail then fans out across a
// small worker pool (ConvertOptions::threads) where the work is
// independent: the Equal-Drawables scans (one task per drawable kind) and
// the per-node preview fills (one task per frame). Every task writes only
// its own slot and results commit in a fixed order, so the emitted file is
// byte-identical at any thread count, and online and offline emit the
// same bytes.
#include <algorithm>
#include <array>
#include <set>
#include <tuple>

#include "slog2/convert_internal.hpp"
#include "slog2/slog2.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
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

// Recursive bounded-frame builder: drawables that fit entirely inside a
// child half-interval sink down until the payload fits the frame-size bound.
std::unique_ptr<Frame> build_frame(Collected items, double a, double b, int depth,
                                   const ConvertOptions& opts, ConvertStats& stats) {
  auto frame = std::make_unique<Frame>();
  frame->t0 = a;
  frame->t1 = b;
  frame->depth = depth;

  std::size_t bytes = 0;
  for (const auto& s : items.states) bytes += state_bytes(s);
  for (const auto& e : items.events) bytes += event_bytes(e);
  bytes += items.arrows.size() * kArrowBytes;

  const bool can_split = depth < opts.max_depth && b > a &&
                         (b - a) / 2.0 > 0.0 && bytes > opts.frame_size;
  if (!can_split) {
    frame->states = std::move(items.states);
    frame->events = std::move(items.events);
    frame->arrows = std::move(items.arrows);
    ++stats.frames;
    ++stats.leaf_frames;
    stats.tree_depth = std::max(stats.tree_depth, depth);
    return frame;
  }

  const double mid = 0.5 * (a + b);
  Collected left, right, here;
  auto place = [&](auto member, auto&& drawable, double s, double e) {
    if (e <= mid) {
      (left.*member).push_back(std::move(drawable));
    } else if (s >= mid) {
      (right.*member).push_back(std::move(drawable));
    } else {
      (here.*member).push_back(std::move(drawable));
    }
  };
  for (auto& s : items.states) {
    const double st = s.start_time;
    const double en = s.end_time;
    place(&Collected::states, std::move(s), st, en);
  }
  for (auto& e : items.events) {
    const double t = e.time;
    place(&Collected::events, std::move(e), t, t);
  }
  for (auto& ar : items.arrows) {
    const double lo = std::min(ar.start_time, ar.end_time);
    const double hi = std::max(ar.start_time, ar.end_time);
    place(&Collected::arrows, std::move(ar), lo, hi);
  }
  frame->states = std::move(here.states);
  frame->events = std::move(here.events);
  frame->arrows = std::move(here.arrows);

  ++stats.frames;
  if (!left.states.empty() || !left.events.empty() || !left.arrows.empty())
    frame->left = build_frame(std::move(left), a, mid, depth + 1, opts, stats);
  if (!right.states.empty() || !right.events.empty() || !right.arrows.empty())
    frame->right = build_frame(std::move(right), mid, b, depth + 1, opts, stats);
  stats.tree_depth = std::max(stats.tree_depth, depth);
  return frame;
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

// Every drawable contributes to the preview of its own frame and of every
// ancestor, so any node's preview summarizes its whole subtree. Instead of
// pushing contributions up an ancestor path (which serializes on the shared
// ancestors), each node *pulls* from its subtree — node previews are
// independent, so they fan out across the worker pool. The subtree is
// walked in preorder, the same order the ancestor-path formulation added
// contributions in, so the float sums are bit-identical to the sequential
// result.
void fill_preview_from_subtree(Frame& node, int nbuckets) {
  node.preview.nbuckets = nbuckets;
  std::vector<const Frame*> stack = {&node};
  while (!stack.empty()) {
    const Frame* f = stack.back();
    stack.pop_back();
    for (const auto& s : f->states)
      add_occupancy(node.preview, node.t0, node.t1, s.category_id, s.start_time,
                    s.end_time);
    for (const auto& e : f->events)
      add_event_count(node.preview, node.t0, node.t1, e.category_id, e.time);
    node.preview.arrow_count += static_cast<std::uint32_t>(f->arrows.size());
    if (f->right) stack.push_back(f->right.get());
    if (f->left) stack.push_back(f->left.get());
  }
}

void collect_frames(Frame& f, std::vector<Frame*>& out) {
  out.push_back(&f);
  if (f.left) collect_frames(*f.left, out);
  if (f.right) collect_frames(*f.right, out);
}

}  // namespace

std::size_t Frame::payload_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : states) bytes += detail::state_bytes(s);
  for (const auto& e : events) bytes += detail::event_bytes(e);
  bytes += arrows.size() * detail::kArrowBytes;
  return bytes;
}

namespace detail {

void assemble(File& out, Collected items, bool any_instance,
              const ConvertOptions& opts, int nthreads,
              std::vector<std::string>* warnings) {
  // --- "Equal Drawables" detection -------------------------------------------
  // The three drawable kinds are independent scans; fan them out, then emit
  // their warnings in the fixed kind order (arrows, states, events).
  {
    std::array<std::vector<std::string>, 3> kind_warns;
    std::array<std::uint64_t, 3> kind_counts{};
    util::parallel_for(std::size_t{3}, nthreads, [&](std::size_t kind) {
      // Counts one duplicate; true while its message still fits under the
      // cap, so a message is formatted only when it is kept.
      const auto count_duplicate = [&] {
        ++kind_counts[kind];
        return kind_warns[kind].size() < kMaxWarningMessages;
      };
      if (kind == 0) {
        std::set<std::tuple<std::int32_t, std::int32_t, double, double>> seen;
        for (const auto& a : items.arrows)
          if (!seen.insert({a.src_rank, a.dst_rank, a.start_time, a.end_time})
                   .second &&
              count_duplicate())
            kind_warns[kind].push_back(util::strprintf(
                "Equal Drawables: arrows %d->%d share start=%.9f end=%.9f",
                a.src_rank, a.dst_rank, a.start_time, a.end_time));
      } else if (kind == 1) {
        std::set<std::tuple<std::int32_t, std::int32_t, double, double>> seen;
        for (const auto& s : items.states)
          if (!seen.insert({s.category_id, s.rank, s.start_time, s.end_time})
                   .second &&
              count_duplicate())
            kind_warns[kind].push_back(util::strprintf(
                "Equal Drawables: states cat=%d rank=%d share start=%.9f "
                "end=%.9f",
                s.category_id, s.rank, s.start_time, s.end_time));
      } else {
        std::set<std::tuple<std::int32_t, std::int32_t, double>> seen;
        for (const auto& e : items.events)
          if (!seen.insert({e.category_id, e.rank, e.time}).second &&
              count_duplicate())
            kind_warns[kind].push_back(util::strprintf(
                "Equal Drawables: events cat=%d rank=%d share t=%.9f",
                e.category_id, e.rank, e.time));
      }
    });
    for (std::size_t kind = 0; kind < 3; ++kind) {
      out.stats.equal_drawables += kind_counts[kind];
      for (const auto& msg : kind_warns[kind]) warn(warnings, msg);
    }
  }

  out.stats.total_states = items.states.size();
  out.stats.total_events = items.events.size();
  out.stats.total_arrows = items.arrows.size();

  // --- time span -------------------------------------------------------------
  if (any_instance) {
    Span span;
    for (const auto& s : items.states) span.widen(s.start_time, s.end_time);
    for (const auto& e : items.events) span.widen(e.time, e.time);
    for (const auto& a : items.arrows)
      span.widen(std::min(a.start_time, a.end_time),
                 std::max(a.start_time, a.end_time));
    if (span.lo <= span.hi) {
      out.t_min = span.lo;
      out.t_max = span.hi;
    }
  }

  // --- frame tree + previews --------------------------------------------------
  out.root = build_frame(std::move(items), out.t_min, out.t_max, 0, opts, out.stats);
  std::vector<Frame*> nodes;
  nodes.reserve(static_cast<std::size_t>(out.stats.frames));
  collect_frames(*out.root, nodes);
  util::parallel_for(nodes.size(), nthreads, [&](std::size_t i) {
    fill_preview_from_subtree(*nodes[i], opts.preview_buckets);
  });
}

}  // namespace detail

File convert(const clog2::File& in, const ConvertOptions& opts,
             std::vector<std::string>* warnings) {
  if (opts.frame_size == 0)
    throw util::UsageError("slog2::convert: frame_size must be positive");
  if (opts.max_depth < 0 || opts.max_depth > 48)
    throw util::UsageError("slog2::convert: max_depth out of range");
  const int nthreads = util::resolve_threads(opts.threads);

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
                   pairer.any_instance(), opts, nthreads, warnings);
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
  if (!root) return;
  // Iterative preorder descent; subtrees outside [a, b] are pruned without
  // being touched, so a zoomed window costs O(overlap + depth), not
  // O(total frames).
  std::vector<const Frame*> stack = {root.get()};
  while (!stack.empty()) {
    const Frame* f = stack.back();
    stack.pop_back();
    if (f->t1 < a || f->t0 > b) {
      // Frames never contain drawables outside [t0, t1]... except the root,
      // whose interval equals the global span, so pruning here is safe.
      continue;
    }
    detail::visit_frame(*f, a, b, on_state, on_event, on_arrow);
    if (f->right) stack.push_back(f->right.get());
    if (f->left) stack.push_back(f->left.get());
  }
}

void File::visit_frames(const std::function<void(const Frame&)>& fn) const {
  if (!root) return;
  std::function<void(const Frame&)> go = [&](const Frame& f) {
    fn(f);
    if (f.left) go(*f.left);
    if (f.right) go(*f.right);
  };
  go(*root);
}

std::string detail::drawables_text(const File& file) {
  std::string out;
  file.visit_window(
      file.t_min, file.t_max,
      [&](const StateDrawable& s) {
        out += util::strprintf(
            "  state cat=%d rank=%d [%.9f, %.9f] depth=%d \"%s\"\n", s.category_id,
            s.rank, s.start_time, s.end_time, s.depth, s.start_text.c_str());
      },
      [&](const EventDrawable& e) {
        out += util::strprintf("  event cat=%d rank=%d t=%.9f \"%s\"\n",
                               e.category_id, e.rank, e.time, e.text.c_str());
      },
      [&](const ArrowDrawable& a) {
        out += util::strprintf("  arrow %d->%d [%.9f, %.9f] tag=%d size=%u\n",
                               a.src_rank, a.dst_rank, a.start_time, a.end_time,
                               a.tag, a.size);
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
  if (dump_drawables) out += detail::drawables_text(file);
  return out;
}

}  // namespace slog2
