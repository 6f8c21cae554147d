#include "tracegen/tracegen.hpp"

#include <cmath>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace tracegen {

namespace {

constexpr const char* kColors[] = {"red",    "green",  "blue",   "yellow",
                                   "cyan",   "magenta", "orange", "gray",
                                   "purple", "pink"};
constexpr std::size_t kNColors = sizeof(kColors) / sizeof(kColors[0]);

// Real clocks tick. Every clock value is rounded to a 2^-24 s grid (~60 ns,
// the resolution class of the timers finish_log records); a binary tick keeps
// each timestamp exactly representable as a double, so the emitted stream is
// what a finite-resolution timer would have produced rather than a sequence
// of full-entropy mantissas.
constexpr int kClockTickBits = 24;

double quantize(double t) {
  return std::ldexp(std::round(std::ldexp(t, kClockTickBits)), -kClockTickBits);
}

struct PendingMsg {
  double arrival = 0.0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t size = 0;
  bool operator>(const PendingMsg& o) const { return arrival > o.arrival; }
};

struct RankState {
  double clock = 0.0;
  std::vector<int> open;  // stack of open state category indices
  std::priority_queue<PendingMsg, std::vector<PendingMsg>, std::greater<>> inbox;
};

}  // namespace

clog2::File generate(const Options& opts) {
  if (opts.nranks < 1) throw util::UsageError("tracegen: nranks must be >= 1");
  if (opts.nranks > clog2::kMaxRanks)
    throw util::UsageError(util::strprintf(
        "tracegen: nranks must be <= %d (got %d)", clog2::kMaxRanks, opts.nranks));
  if (opts.state_categories < 1)
    throw util::UsageError("tracegen: need at least one state category");
  if (opts.max_depth < 1) throw util::UsageError("tracegen: max_depth must be >= 1");
  if (!(opts.mean_step > 0))
    throw util::UsageError("tracegen: mean_step must be positive");

  clog2::File out;
  out.nranks = opts.nranks;
  out.comment = opts.comment;
  // Rough upper bound: every instance plus a close/drain tail bounded by
  // nranks * max_depth plus in-flight messages.
  out.records.reserve(opts.events + static_cast<std::uint64_t>(opts.nranks) *
                                        static_cast<std::uint64_t>(opts.max_depth) +
                      64);

  // --- definitions -----------------------------------------------------------
  auto start_id = [](int cat) { return 1 + 2 * cat; };
  auto end_id = [](int cat) { return 2 + 2 * cat; };
  const int solo_base = 1 + 2 * opts.state_categories;
  for (int c = 0; c < opts.state_categories; ++c) {
    clog2::StateDef d;
    d.state_id = c + 1;
    d.start_event_id = start_id(c);
    d.end_event_id = end_id(c);
    d.name = util::strprintf("work_%d", c);
    d.color = kColors[static_cast<std::size_t>(c) % kNColors];
    out.records.emplace_back(std::move(d));
  }
  for (int c = 0; c < opts.solo_categories; ++c) {
    clog2::EventDef d;
    d.event_id = solo_base + c;
    d.name = util::strprintf("mark_%d", c);
    d.color = kColors[(static_cast<std::size_t>(opts.state_categories + c)) % kNColors];
    out.records.emplace_back(std::move(d));
  }
  out.records.emplace_back(clog2::ConstDef{"tracegen.seed",
                                           static_cast<std::int64_t>(opts.seed)});
  out.records.emplace_back(
      clog2::ConstDef{"tracegen.events", static_cast<std::int64_t>(opts.events)});

  // --- discrete-event generation --------------------------------------------
  // One PRNG per rank keeps a rank's decision stream independent of how the
  // other ranks interleave, and the next-to-act heap always pops the
  // globally smallest clock, so the emitted stream is time-sorted by
  // construction — the same invariant finish_log's merge guarantees.
  util::SplitMix64 seeder(opts.seed);
  std::vector<util::SplitMix64> rng;
  rng.reserve(static_cast<std::size_t>(opts.nranks));
  for (std::int32_t r = 0; r < opts.nranks; ++r) rng.emplace_back(seeder.next());

  std::vector<RankState> ranks(static_cast<std::size_t>(opts.nranks));
  using HeapItem = std::pair<double, std::int32_t>;  // (clock, rank)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> ready;
  for (std::int32_t r = 0; r < opts.nranks; ++r) {
    ranks[static_cast<std::size_t>(r)].clock =
        quantize(rng[static_cast<std::size_t>(r)].uniform() * opts.mean_step);
    ready.emplace(ranks[static_cast<std::size_t>(r)].clock, r);
  }

  std::uint64_t emitted = 0;
  auto advance = [&](std::int32_t r) {
    auto& st = ranks[static_cast<std::size_t>(r)];
    const double next = quantize(
        st.clock + rng[static_cast<std::size_t>(r)].uniform(0.5, 1.5) * opts.mean_step);
    // A mean_step below the tick can round the increment away; force strict
    // progress (off-grid, but the generator must terminate for any options).
    st.clock = next > st.clock
                   ? next
                   : std::nextafter(st.clock, std::numeric_limits<double>::infinity());
    ready.emplace(st.clock, r);
  };

  while (!ready.empty()) {
    const auto [t, r] = ready.top();
    ready.pop();
    auto& st = ranks[static_cast<std::size_t>(r)];
    if (st.clock != t) continue;  // stale heap entry
    auto& rnd = rng[static_cast<std::size_t>(r)];
    const bool draining = emitted >= opts.events;

    if (!st.inbox.empty() && st.inbox.top().arrival <= t) {
      const PendingMsg m = st.inbox.top();
      st.inbox.pop();
      clog2::MsgRec rec;
      rec.timestamp = t;
      rec.rank = r;
      rec.kind = clog2::MsgRec::Kind::kRecv;
      rec.partner = m.src;
      rec.tag = m.tag;
      rec.size = m.size;
      out.records.emplace_back(rec);
      ++emitted;
      advance(r);
      continue;
    }
    if (draining) {
      if (!st.inbox.empty()) {
        // Wait for the in-flight message to arrive.
        st.clock = st.inbox.top().arrival;
        ready.emplace(st.clock, r);
        continue;
      }
      if (!st.open.empty()) {
        const int cat = st.open.back();
        st.open.pop_back();
        out.records.emplace_back(clog2::EventRec{t, r, end_id(cat), ""});
        ++emitted;
        advance(r);
      }
      // Neither inbox nor open states: this rank is done (not re-queued).
      continue;
    }

    if (opts.nranks > 1 && rnd.chance(opts.arrow_fraction)) {
      const auto dst = static_cast<std::int32_t>(
          (r + 1 + static_cast<std::int32_t>(rnd.below(
                       static_cast<std::uint64_t>(opts.nranks - 1)))) %
          opts.nranks);
      clog2::MsgRec rec;
      rec.timestamp = t;
      rec.rank = r;
      rec.kind = clog2::MsgRec::Kind::kSend;
      rec.partner = dst;
      rec.tag = static_cast<std::int32_t>(rnd.below(4));
      rec.size = static_cast<std::uint32_t>(64 + rnd.below(4096));
      out.records.emplace_back(rec);
      ++emitted;
      ranks[static_cast<std::size_t>(dst)].inbox.push(
          PendingMsg{quantize(t + rnd.uniform(0.2, 5.0) * opts.mean_step), r,
                     rec.tag, rec.size});
    } else if (opts.solo_categories > 0 && rnd.chance(opts.solo_fraction)) {
      const int cat = static_cast<int>(
          rnd.below(static_cast<std::uint64_t>(opts.solo_categories)));
      out.records.emplace_back(clog2::EventRec{t, r, solo_base + cat, ""});
      ++emitted;
    } else {
      const bool push = st.open.empty() ||
                        (static_cast<int>(st.open.size()) < opts.max_depth &&
                         rnd.chance(0.5));
      if (push) {
        const int cat = static_cast<int>(
            rnd.below(static_cast<std::uint64_t>(opts.state_categories)));
        st.open.push_back(cat);
        out.records.emplace_back(clog2::EventRec{t, r, start_id(cat), ""});
      } else {
        const int cat = st.open.back();
        st.open.pop_back();
        out.records.emplace_back(clog2::EventRec{t, r, end_id(cat), ""});
      }
      ++emitted;
    }
    advance(r);
  }

  return out;
}

}  // namespace tracegen
