// The conversion tail (slog2::detail::assemble) against its serial oracle
// in convert_oracle.hpp: the recursive build_frame and the std::set
// Equal-Drawables scan. Every comparison walks both frame trees in step and
// checks each frame's interval and depth, its drawable lists in order, the
// previews bit for bit, the tree stats, the duplicate count and the full
// warning list.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "convert_oracle.hpp"
#include "slog2/convert_internal.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/strings.hpp"

#ifndef PILOT_FIXTURE_DIR
#error "PILOT_FIXTURE_DIR must be defined by the build"
#endif

namespace {

using slog2::detail::Collected;

/// The pairing stage of slog2::convert: its drawables in commit order, the
/// warnings it leaves before the tail runs, and whether any instance came.
struct Paired {
  Collected items;
  bool any_instance = false;
  std::vector<std::string> warnings;
};

Paired pair_up(const clog2::File& in) {
  slog2::detail::Pairer pairer(in.nranks);
  std::vector<std::pair<slog2::detail::InstKey, const clog2::Record*>> instances;
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
  std::stable_sort(instances.begin(), instances.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Paired out;
  slog2::Frame drawn;
  for (const auto& [key, rec] : instances) pairer.admit(*rec, drawn);
  slog2::ConvertStats stats;
  pairer.finish(stats, drawn, &out.warnings);
  out.items = Collected{std::move(drawn.states), std::move(drawn.events),
                        std::move(drawn.arrows)};
  out.any_instance = pairer.any_instance();
  return out;
}

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_frame(const slog2::Frame& want, const slog2::Frame& got,
                       const std::string& where) {
  EXPECT_TRUE(same(want.t0, got.t0)) << where;
  EXPECT_TRUE(same(want.t1, got.t1)) << where;
  EXPECT_EQ(want.depth, got.depth) << where;

  ASSERT_EQ(want.states.size(), got.states.size()) << where;
  for (std::size_t i = 0; i < want.states.size(); ++i) {
    const auto& w = want.states[i];
    const auto& g = got.states[i];
    EXPECT_TRUE(w.category_id == g.category_id && w.rank == g.rank &&
                same(w.start_time, g.start_time) && same(w.end_time, g.end_time) &&
                w.depth == g.depth && w.start_text == g.start_text &&
                w.end_text == g.end_text)
        << where << " state " << i;
  }
  ASSERT_EQ(want.events.size(), got.events.size()) << where;
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    const auto& w = want.events[i];
    const auto& g = got.events[i];
    EXPECT_TRUE(w.category_id == g.category_id && w.rank == g.rank &&
                same(w.time, g.time) && w.text == g.text)
        << where << " event " << i;
  }
  ASSERT_EQ(want.arrows.size(), got.arrows.size()) << where;
  for (std::size_t i = 0; i < want.arrows.size(); ++i) {
    const auto& w = want.arrows[i];
    const auto& g = got.arrows[i];
    EXPECT_TRUE(w.src_rank == g.src_rank && w.dst_rank == g.dst_rank &&
                same(w.start_time, g.start_time) && same(w.end_time, g.end_time) &&
                w.tag == g.tag && w.size == g.size)
        << where << " arrow " << i;
  }

  const auto& wp = want.preview;
  const auto& gp = got.preview;
  EXPECT_EQ(wp.nbuckets, gp.nbuckets) << where;
  EXPECT_EQ(wp.arrow_count, gp.arrow_count) << where;
  EXPECT_EQ(wp.event_counts, gp.event_counts) << where;
  ASSERT_EQ(wp.state_occupancy.size(), gp.state_occupancy.size()) << where;
  for (auto w = wp.state_occupancy.begin(), g = gp.state_occupancy.begin();
       w != wp.state_occupancy.end(); ++w, ++g) {
    ASSERT_EQ(w->first, g->first) << where;
    ASSERT_EQ(w->second.size(), g->second.size()) << where;
    for (std::size_t i = 0; i < w->second.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(w->second[i]),
                std::bit_cast<std::uint32_t>(g->second[i]))
          << where << " category " << w->first << " bucket " << i;
  }

  EXPECT_EQ(want.left, got.left) << where;
  EXPECT_EQ(want.right, got.right) << where;
}

/// Runs the oracle and the conversion tail on copies of `p` and compares
/// everything they produce. Returns the tail's File for extra checks.
slog2::File expect_tail_matches_oracle(const Paired& p,
                                       const slog2::ConvertOptions& opts,
                                       const std::string& label) {
  slog2::File want, got;
  std::vector<std::string> want_warnings = p.warnings;
  std::vector<std::string> got_warnings = p.warnings;
  convert_oracle::assemble(want, p.items, p.any_instance, opts, &want_warnings);
  slog2::detail::assemble(got, p.items, p.any_instance, opts, &got_warnings);

  const auto& ws = want.stats;
  const auto& gs = got.stats;
  EXPECT_EQ(ws.equal_drawables, gs.equal_drawables) << label;
  EXPECT_EQ(ws.total_states, gs.total_states) << label;
  EXPECT_EQ(ws.total_events, gs.total_events) << label;
  EXPECT_EQ(ws.total_arrows, gs.total_arrows) << label;
  EXPECT_EQ(ws.frames, gs.frames) << label;
  EXPECT_EQ(ws.leaf_frames, gs.leaf_frames) << label;
  EXPECT_EQ(ws.tree_depth, gs.tree_depth) << label;
  EXPECT_TRUE(same(want.t_min, got.t_min)) << label;
  EXPECT_TRUE(same(want.t_max, got.t_max)) << label;
  EXPECT_EQ(want_warnings, got_warnings) << label;
  EXPECT_FALSE(got.frames.empty()) << label;
  EXPECT_EQ(want.frames.size(), got.frames.size()) << label;
  for (std::size_t i = 0; i < std::min(want.frames.size(), got.frames.size()); ++i)
    expect_same_frame(want.frames[i], got.frames[i], label + " frame " + std::to_string(i));
  return got;
}

slog2::ConvertOptions options(std::uint64_t frame_size, int max_depth = 24) {
  slog2::ConvertOptions o;
  o.frame_size = frame_size;
  o.max_depth = max_depth;
  return o;
}

slog2::StateDrawable state(double s, double e, std::int32_t cat = 1,
                           std::int32_t rank = 0, std::string text = "s") {
  return slog2::StateDrawable{cat, rank, s, e, 0, std::move(text), "e"};
}
slog2::EventDrawable event(double t, std::int32_t cat = 2, std::int32_t rank = 0) {
  return slog2::EventDrawable{cat, rank, t, "bubble"};
}
slog2::ArrowDrawable arrow(double s, double e, std::int32_t src = 0,
                           std::int32_t dst = 1, std::uint32_t size = 8) {
  return slog2::ArrowDrawable{src, dst, s, e, 7, size};
}

TEST(Convert, TailMatchesOracleOnTracegen) {
  for (const std::uint64_t seed : {7ULL, 501ULL}) {
    tracegen::Options g;
    g.seed = seed;
    g.nranks = 6;
    const Paired p = pair_up(tracegen::generate(g));
    for (const std::uint64_t fs : {std::uint64_t{64 * 1024}, std::uint64_t{2048}}) {
      const auto f = expect_tail_matches_oracle(
          p, options(fs), util::strprintf("seed %llu, frame %llu",
                                          static_cast<unsigned long long>(seed),
                                          static_cast<unsigned long long>(fs)));
      EXPECT_GT(f.stats.tree_depth, 2);
    }
  }
}

TEST(Convert, TailMatchesOracleOnGoldenFixtures) {
  for (const char* name : {"tiny", "messy", "diffpair.a", "diffpair.b"}) {
    const Paired p = pair_up(
        clog2::read_file(std::string(PILOT_FIXTURE_DIR) + "/" + name + ".clog2"));
    for (const std::uint64_t fs : {std::uint64_t{64 * 1024}, std::uint64_t{256}})
      expect_tail_matches_oracle(
          p, options(fs),
          util::strprintf("%s, frame %llu", name, static_cast<unsigned long long>(fs)));
  }
}

TEST(Convert, TailMatchesOracleAtOneInstant) {
  // Every drawable at t = 1: the span is one point, so the root cannot split
  // however small the frame bound.
  Paired p;
  p.any_instance = true;
  for (int i = 0; i < 20; ++i) {
    p.items.states.push_back(state(1.0, 1.0, 1, i % 3));
    p.items.events.push_back(event(1.0, 2, i % 2));
    p.items.arrows.push_back(arrow(1.0, 1.0, i % 4, 3));
  }
  const auto f = expect_tail_matches_oracle(p, options(1), "one instant");
  EXPECT_EQ(f.stats.frames, 1U);
}

TEST(Convert, TailMatchesOracleAtSplitMidpoints) {
  // Span [0, 4]: the root splits at 2, its children at 1 and 3. Drawables
  // end or start exactly on those midpoints, straddle them, or both at once
  // (a point drawable on a midpoint goes left), and arrows run backwards.
  Paired p;
  p.any_instance = true;
  for (const double mid : {2.0, 1.0, 3.0, 0.5, 3.5}) {
    p.items.states.push_back(state(mid - 0.25, mid));
    p.items.states.push_back(state(mid, mid + 0.25));
    p.items.states.push_back(state(mid, mid));
    p.items.states.push_back(state(mid - 0.125, mid + 0.125, 3));
    p.items.events.push_back(event(mid));
    p.items.arrows.push_back(arrow(mid + 0.25, mid));
    p.items.arrows.push_back(arrow(mid, mid - 0.25, 1, 0));
    p.items.arrows.push_back(arrow(mid - 0.0625, mid + 0.0625, 2, 1));
  }
  p.items.states.push_back(state(0.0, 4.0, 4));
  for (const std::uint64_t fs : {std::uint64_t{1}, std::uint64_t{200}, std::uint64_t{1000}})
    expect_tail_matches_oracle(
        p, options(fs),
        util::strprintf("midpoints, frame %llu", static_cast<unsigned long long>(fs)));
}

TEST(Convert, TailMatchesOracleAtDepthAndFrameBounds) {
  tracegen::Options g;
  g.seed = 7;
  g.nranks = 4;
  const Paired p = pair_up(tracegen::generate(g));
  const auto d0 = expect_tail_matches_oracle(p, options(1, 0), "max_depth 0");
  EXPECT_EQ(d0.stats.frames, 1U);
  const auto d1 = expect_tail_matches_oracle(p, options(1, 1), "max_depth 1");
  EXPECT_EQ(d1.stats.tree_depth, 1);
  expect_tail_matches_oracle(p, options(1, 12), "frame_size 1, max_depth 12");
  expect_tail_matches_oracle(p, options(1), "frame_size 1");
}

TEST(Convert, TailMatchesOracleOnEmptyInput) {
  expect_tail_matches_oracle(Paired{}, options(64 * 1024), "empty");
  clog2::File defs;
  defs.nranks = 2;
  defs.records.emplace_back(clog2::StateDef{1, 10, 11, "Work", "red", ""});
  defs.records.emplace_back(clog2::EventDef{30, "Mark", "yellow", ""});
  const Paired p = pair_up(defs);
  EXPECT_FALSE(p.any_instance);
  const auto f = expect_tail_matches_oracle(p, options(1), "definitions only");
  EXPECT_EQ(f.stats.frames, 1U);
}

TEST(Convert, TailMatchesOracleOnManyDuplicates) {
  // 60 copies of one state, event and arrow per kind, spread through other
  // drawables, with different popup texts and sizes (not part of the key):
  // 177 duplicates, and the warnings stop at the cap inside the first kind.
  Paired p;
  p.any_instance = true;
  for (int i = 0; i < 60; ++i) {
    p.items.states.push_back(state(1.0, 2.0, 1, 0, "copy " + std::to_string(i)));
    p.items.states.push_back(state(0.01 * i, 0.01 * i + 0.5, 2, 1));
    p.items.events.push_back(event(1.5));
    p.items.events.push_back(event(0.02 * i, 2, 1));
    p.items.arrows.push_back(arrow(0.5, 0.75, 0, 1, static_cast<std::uint32_t>(i)));
    p.items.arrows.push_back(arrow(0.03 * i, 0.03 * i + 0.1, 1, 0));
  }
  const auto f = expect_tail_matches_oracle(p, options(512), "many duplicates");
  EXPECT_EQ(f.stats.equal_drawables, 177U);

  // With pairing warnings already near the cap, only the first few fit.
  for (int i = 0; i < 45; ++i) p.warnings.push_back("pairing warning");
  expect_tail_matches_oracle(p, options(512), "many duplicates, near the cap");
}

TEST(Convert, TailMatchesOracleOnSignedZeroKeys) {
  // -0.0 and 0.0 are one key; the duplicate's own sign is what the warning
  // prints, in either order of arrival.
  Paired p;
  p.any_instance = true;
  p.items.arrows.push_back(arrow(0.0, 1.0));
  p.items.arrows.push_back(arrow(-0.0, 1.0));
  p.items.arrows.push_back(arrow(-0.0, 2.0));
  p.items.arrows.push_back(arrow(0.0, 2.0));
  p.items.states.push_back(state(-0.0, 0.0));
  p.items.states.push_back(state(0.0, -0.0));
  p.items.events.push_back(event(-0.0));
  p.items.events.push_back(event(0.0));
  p.items.events.push_back(event(-0.0));
  const auto f = expect_tail_matches_oracle(p, options(1), "signed zeros");
  EXPECT_EQ(f.stats.equal_drawables, 5U);
}

}  // namespace
