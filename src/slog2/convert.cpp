// CLOG-2 → SLOG-2 conversion: pairing, matching, superposition detection,
// and frame-tree construction. See slog2.hpp for the format overview.
//
// The conversion is parallel and deterministic. Work fans out across a
// small worker pool (ConvertOptions::threads) along the axes that are
// naturally independent:
//   * per-timeline state pairing and solo-event collection (one task per
//     rank),
//   * per-(src,dst,tag) message matching (one task per key),
//   * per-node preview fills over the finished frame tree (one task per
//     frame).
// Every task writes only its own pre-allocated slot; results are then
// committed in a fixed order keyed by each drawable's position in the
// global chronological instance order. The emitted file is byte-identical
// at any thread count — and byte-identical to what the original
// single-threaded scan produced.
//
// The pairing/matching machinery and the assemble() tail live partly in
// convert_internal.hpp so the streaming OnlineConverter (src/traced/) can
// reproduce this output incrementally, byte for byte.
#include <algorithm>
#include <array>
#include <limits>
#include <map>
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

}  // namespace detail

namespace {

using detail::Collected;
using detail::EventIdIndex;
using detail::InstKey;
using detail::kMaxWarningMessages;
using detail::OpenState;
using detail::warn;

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

struct EvInst {
  InstKey key;
  const clog2::EventRec* rec = nullptr;
};
struct MsgInst {
  InstKey key;
  const clog2::MsgRec* rec = nullptr;
};

// Per-timeline task output (one per rank present in the trace).
struct TimelineOut {
  std::vector<EvInst> instances;  // input: this rank's event instances
  std::vector<StateDrawable> states;
  std::vector<InstKey> state_keys;  // commit key = the closing instance
  std::vector<EventDrawable> events;
  std::vector<InstKey> event_keys;
  std::vector<OpenState> open_tail;  // never-closed states, stack order
  struct Warn {
    InstKey key;
    std::string msg;
  };
  std::vector<Warn> warns;
  std::uint64_t unmatched_state_ends = 0;
  std::uint64_t unknown_event_ids = 0;
};

// Per-message-key task output.
struct MsgOut {
  std::vector<MsgInst> sends;  // input halves, file order
  std::vector<MsgInst> recvs;
  std::vector<ArrowDrawable> arrows;
  std::vector<InstKey> arrow_keys;  // commit key = the later (matching) half
  std::size_t unmatched_sends = 0;
  std::size_t unmatched_recvs = 0;
};

void pair_timeline(std::int32_t rank, TimelineOut& tl, const EventIdIndex& index) {
  std::sort(tl.instances.begin(), tl.instances.end(),
            [](const EvInst& a, const EvInst& b) { return a.key < b.key; });
  std::vector<OpenState> stack;
  for (const EvInst& inst : tl.instances) {
    const auto& e = *inst.rec;
    const EventIdIndex::Entry* entry = index.find(e.event_id);
    if (entry != nullptr && entry->state_cat >= 0) {
      if (entry->is_start) {
        stack.push_back(OpenState{entry->state_cat, e.timestamp, e.text,
                                  static_cast<std::int32_t>(stack.size())});
      } else if (!stack.empty() && stack.back().category_id == entry->state_cat) {
        StateDrawable s;
        s.category_id = stack.back().category_id;
        s.rank = rank;
        s.start_time = stack.back().start_time;
        s.end_time = e.timestamp;
        s.depth = stack.back().depth;
        s.start_text = std::move(stack.back().start_text);
        s.end_text = e.text;
        stack.pop_back();
        tl.states.push_back(std::move(s));
        tl.state_keys.push_back(inst.key);
      } else {
        ++tl.unmatched_state_ends;
        if (tl.warns.size() < kMaxWarningMessages)
          tl.warns.push_back(TimelineOut::Warn{
              inst.key,
              util::strprintf("rank %d: end event id %d at t=%.9f has no matching "
                              "open state",
                              rank, e.event_id, e.timestamp)});
      }
    } else if (entry != nullptr && entry->solo_cat >= 0) {
      tl.events.push_back(EventDrawable{entry->solo_cat, rank, e.timestamp, e.text});
      tl.event_keys.push_back(inst.key);
    } else {
      ++tl.unknown_event_ids;
      if (tl.warns.size() < kMaxWarningMessages)
        tl.warns.push_back(TimelineOut::Warn{
            inst.key, util::strprintf("rank %d: event id %d has no definition",
                                      rank, e.event_id)});
    }
  }
  tl.open_tail = std::move(stack);
  tl.instances.clear();
  tl.instances.shrink_to_fit();
}

void pair_messages(MsgOut& mo) {
  auto by_key = [](const MsgInst& a, const MsgInst& b) { return a.key < b.key; };
  std::sort(mo.sends.begin(), mo.sends.end(), by_key);
  std::sort(mo.recvs.begin(), mo.recvs.end(), by_key);
  // FIFO matching of two chronological streams pairs the i-th send with the
  // i-th receive of the key; the arrow "commits" when its later half is
  // scanned, exactly as in the sequential pass.
  const std::size_t npairs = std::min(mo.sends.size(), mo.recvs.size());
  mo.arrows.reserve(npairs);
  mo.arrow_keys.reserve(npairs);
  for (std::size_t i = 0; i < npairs; ++i) {
    const clog2::MsgRec& send = *mo.sends[i].rec;
    const clog2::MsgRec& recv = *mo.recvs[i].rec;
    ArrowDrawable a;
    a.src_rank = send.rank;
    a.dst_rank = recv.rank;
    a.start_time = send.timestamp;
    a.end_time = recv.timestamp;
    a.tag = send.tag;
    a.size = send.size;
    mo.arrows.push_back(a);
    mo.arrow_keys.push_back(std::max(mo.sends[i].key, mo.recvs[i].key,
                                     [](const InstKey& x, const InstKey& y) {
                                       return x < y;
                                     }));
  }
  mo.unmatched_sends = mo.sends.size() - npairs;
  mo.unmatched_recvs = mo.recvs.size() - npairs;
  mo.sends.clear();
  mo.sends.shrink_to_fit();
  mo.recvs.clear();
  mo.recvs.shrink_to_fit();
}

// Move drawables out of per-task slots into one vector ordered by commit
// key. The key sort is what pins the output order regardless of how tasks
// were scheduled.
template <typename Drawable>
void commit_ordered(std::vector<std::pair<InstKey, Drawable*>>& keyed,
                    std::vector<Drawable>& out) {
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.reserve(out.size() + keyed.size());
  for (auto& [key, ptr] : keyed) out.push_back(std::move(*ptr));
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

  // --- category table -------------------------------------------------------
  out.categories.push_back(
      Category{kArrowCategoryId, CategoryKind::kArrow, "message", "white", ""});
  EventIdIndex index;
  for (const auto& rec : in.records) {
    if (const auto* d = std::get_if<clog2::StateDef>(&rec)) {
      index.note_id(d->start_event_id);
      index.note_id(d->end_event_id);
    } else if (const auto* e = std::get_if<clog2::EventDef>(&rec)) {
      index.note_id(e->event_id);
    }
  }
  index.finalize();
  std::int32_t next_cat = 1;
  for (const auto& rec : in.records) {
    if (const auto* d = std::get_if<clog2::StateDef>(&rec)) {
      const std::int32_t cat = next_cat++;
      out.categories.push_back(
          Category{cat, CategoryKind::kState, d->name, d->color, d->format});
      index.at(d->start_event_id) = EventIdIndex::Entry{cat, true, -1};
      index.at(d->end_event_id) = EventIdIndex::Entry{cat, false, -1};
    } else if (const auto* e = std::get_if<clog2::EventDef>(&rec)) {
      const std::int32_t cat = next_cat++;
      out.categories.push_back(
          Category{cat, CategoryKind::kEvent, e->name, e->color, e->format});
      index.at(e->event_id) = EventIdIndex::Entry{-1, false, cat};
    }
  }

  // --- bucket instances by timeline / message key ---------------------------
  // One cheap sequential pass assigns every instance its global (time, file
  // position) key and routes it to the task that will process it.
  using MsgKey = std::tuple<std::int32_t, std::int32_t, std::int32_t>;
  std::map<std::int32_t, TimelineOut> timelines;
  std::map<MsgKey, MsgOut> messages;
  double last_time_seen = 0.0;
  bool any_instance = false;
  std::uint64_t inst_idx = 0;
  for (const auto& rec : in.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      any_instance = true;
      last_time_seen = std::max(last_time_seen, e->timestamp);
      timelines[e->rank].instances.push_back(
          EvInst{InstKey{e->timestamp, inst_idx++}, e});
    } else if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) {
      any_instance = true;
      last_time_seen = std::max(last_time_seen, m->timestamp);
      const bool is_send = m->kind == clog2::MsgRec::Kind::kSend;
      const MsgKey key = is_send ? MsgKey{m->rank, m->partner, m->tag}
                                 : MsgKey{m->partner, m->rank, m->tag};
      auto& mo = messages[key];
      (is_send ? mo.sends : mo.recvs)
          .push_back(MsgInst{InstKey{m->timestamp, inst_idx++}, m});
    }
  }

  // --- fan out: per-timeline pairing, per-key matching ----------------------
  std::vector<std::pair<std::int32_t, TimelineOut*>> timeline_tasks;
  timeline_tasks.reserve(timelines.size());
  for (auto& [rank, tl] : timelines) timeline_tasks.emplace_back(rank, &tl);
  std::vector<MsgOut*> message_tasks;
  message_tasks.reserve(messages.size());
  for (auto& [key, mo] : messages) message_tasks.push_back(&mo);

  util::parallel_for(timeline_tasks.size() + message_tasks.size(), nthreads,
                     [&](std::size_t i) {
                       if (i < timeline_tasks.size()) {
                         pair_timeline(timeline_tasks[i].first,
                                       *timeline_tasks[i].second, index);
                       } else {
                         pair_messages(*message_tasks[i - timeline_tasks.size()]);
                       }
                     });

  // --- commit in instance order ---------------------------------------------
  Collected items;
  {
    std::size_t nstates = 0, nevents = 0, narrows = 0, nwarns = 0;
    for (const auto& [rank, tl] : timeline_tasks) {
      nstates += tl->states.size() + tl->open_tail.size();
      nevents += tl->events.size();
      nwarns += tl->warns.size();
    }
    for (const MsgOut* mo : message_tasks) narrows += mo->arrows.size();

    std::vector<std::pair<InstKey, StateDrawable*>> keyed_states;
    keyed_states.reserve(nstates);
    std::vector<std::pair<InstKey, EventDrawable*>> keyed_events;
    keyed_events.reserve(nevents);
    std::vector<std::pair<InstKey, ArrowDrawable*>> keyed_arrows;
    keyed_arrows.reserve(narrows);
    std::vector<std::pair<InstKey, const std::string*>> keyed_warns;
    keyed_warns.reserve(nwarns);

    for (auto& [rank, tl] : timeline_tasks) {
      for (std::size_t i = 0; i < tl->states.size(); ++i)
        keyed_states.emplace_back(tl->state_keys[i], &tl->states[i]);
      for (std::size_t i = 0; i < tl->events.size(); ++i)
        keyed_events.emplace_back(tl->event_keys[i], &tl->events[i]);
      for (auto& w : tl->warns) keyed_warns.emplace_back(w.key, &w.msg);
      out.stats.unmatched_state_ends += tl->unmatched_state_ends;
      out.stats.unknown_event_ids += tl->unknown_event_ids;
    }
    for (MsgOut* mo : message_tasks)
      for (std::size_t i = 0; i < mo->arrows.size(); ++i)
        keyed_arrows.emplace_back(mo->arrow_keys[i], &mo->arrows[i]);

    items.states.reserve(nstates);
    commit_ordered(keyed_states, items.states);
    items.events.reserve(nevents);
    commit_ordered(keyed_events, items.events);
    items.arrows.reserve(narrows);
    commit_ordered(keyed_arrows, items.arrows);

    // Scan-phase warnings, replayed in global chronological order.
    std::sort(keyed_warns.begin(), keyed_warns.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, msg] : keyed_warns) warn(warnings, *msg);
  }

  for (const auto& [key, mo] : messages) {
    out.stats.unmatched_sends += mo.unmatched_sends;
    if (mo.unmatched_sends > 0)
      warn(warnings, util::strprintf("%zu send(s) from rank %d to rank %d tag %d "
                                     "were never received",
                                     mo.unmatched_sends, std::get<0>(key),
                                     std::get<1>(key), std::get<2>(key)));
  }
  for (const auto& [key, mo] : messages) {
    out.stats.unmatched_recvs += mo.unmatched_recvs;
    if (mo.unmatched_recvs > 0)
      warn(warnings, util::strprintf("%zu receive(s) at rank %d from rank %d tag %d "
                                     "have no logged send",
                                     mo.unmatched_recvs, std::get<1>(key),
                                     std::get<0>(key), std::get<2>(key)));
  }

  // Close dangling states at the last timestamp so they stay visible.
  for (auto& [rank, tl] : timeline_tasks) {
    while (!tl->open_tail.empty()) {
      ++out.stats.unclosed_states;
      auto& open = tl->open_tail.back();
      StateDrawable s;
      s.category_id = open.category_id;
      s.rank = rank;
      s.start_time = open.start_time;
      s.end_time = last_time_seen;
      s.depth = open.depth;
      s.start_text = std::move(open.start_text);
      warn(warnings,
           util::strprintf("rank %d: state category %d opened at t=%.9f never closed",
                           rank, s.category_id, s.start_time));
      tl->open_tail.pop_back();
      items.states.push_back(std::move(s));
    }
  }

  detail::assemble(out, std::move(items), any_instance, opts, nthreads, warnings);
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
