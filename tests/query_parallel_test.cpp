// Determinism suite for the sharded query engine: each src/query operation
// that shards its work — Trace construction, the per-rank rollups, and the
// legend/occupancy window sweeps — must produce output *identical* to its
// serial oracle (tests/query_oracle.hpp, or a plain serial visit_window
// feed) at every worker count. Doubles are compared with EXPECT_EQ (exact
// bits), because the sharded implementations promise to replay the serial
// accumulation order, not merely to be "close".
//
// The fast 'QueryParallel' and 'FrameCacheConcurrency' suites run under the
// sanitizers (they carry the TSan coverage for the shared decode cache and
// the parallel sweeps); the million-event 'QueryParallelScale' suite is
// heavy — keep 'Scale' out of the sanitizer ctest regexes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "query/clocks.hpp"
#include "query/parallel_sweep.hpp"
#include "query/rollup.hpp"
#include "query/slog2_rollup.hpp"
#include "query/trace.hpp"
#include "query_oracle.hpp"
#include "slog2/frame_cache.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"

namespace {

clog2::File gen_trace(std::uint64_t events, std::int32_t nranks = 8,
                      std::uint64_t seed = 7) {
  tracegen::Options o;
  o.seed = seed;
  o.nranks = nranks;
  o.events = events;
  o.arrow_fraction = 0.3;  // plenty of messages for the clock/edge paths
  return tracegen::generate(o);
}

/// Every worker count the sharded paths are checked at (0 = hardware).
constexpr int kThreadCounts[] = {0, 1, 2, 4, 8};

void expect_trace_matches(const query_oracle::TraceIndex& want,
                          const query::Trace& got) {
  EXPECT_EQ(got.nranks(), want.nranks);
  ASSERT_EQ(got.steps().size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    const query::Step& x = want.steps[i];
    const query::Step& y = got.steps()[i];
    ASSERT_EQ(x.time, y.time) << "step " << i;
    ASSERT_EQ(x.rank, y.rank) << "step " << i;
    ASSERT_EQ(x.kind, y.kind) << "step " << i;
    ASSERT_EQ(x.event_id, y.event_id) << "step " << i;
    ASSERT_EQ(x.text, y.text) << "step " << i;  // same pointer into the file
    ASSERT_EQ(x.partner, y.partner) << "step " << i;
    ASSERT_EQ(x.tag, y.tag) << "step " << i;
    ASSERT_EQ(x.size, y.size) << "step " << i;
  }
  EXPECT_EQ(got.by_rank(), want.by_rank);
  EXPECT_EQ(got.state_names(), want.state_names);
  ASSERT_EQ(got.state_events().size(), want.state_events.size());
  for (const auto& [id, ev] : want.state_events) {
    const query::StateEvent* other = got.state_event(id);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(ev.state_id, other->state_id);
    EXPECT_EQ(ev.name, other->name);
    EXPECT_EQ(ev.is_start, other->is_start);
  }
  for (const auto& [name, id] : want.solo_event_ids)
    EXPECT_EQ(got.event_id_of(name), id) << name;
  EXPECT_EQ(got.has_span(), want.have_span);
  EXPECT_EQ(got.t_min(), want.t_min);
  EXPECT_EQ(got.t_max(), want.t_max);
}

void expect_durations_identical(const query::StateDurations& a,
                                const query::StateDurations& b) {
  ASSERT_EQ(a.by_rank_state.size(), b.by_rank_state.size());
  auto ia = a.by_rank_state.begin();
  auto ib = b.by_rank_state.begin();
  for (; ia != a.by_rank_state.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.count, ib->second.count);
    EXPECT_EQ(ia->second.total_seconds, ib->second.total_seconds);
    EXPECT_EQ(ia->second.histogram, ib->second.histogram);
  }
}

void expect_edges_identical(const query::MessageEdges& a,
                            const query::MessageEdges& b) {
  ASSERT_EQ(a.edges.size(), b.edges.size());
  auto ia = a.edges.begin();
  auto ib = b.edges.begin();
  for (; ia != a.edges.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.sent, ib->second.sent);
    EXPECT_EQ(ia->second.matched, ib->second.matched);
    EXPECT_EQ(ia->second.bytes, ib->second.bytes);
    EXPECT_EQ(ia->second.total_latency, ib->second.total_latency);
  }
}

void expect_totals_identical(
    const std::map<std::int32_t, query::LegendTotals>& a,
    const std::map<std::int32_t, query::LegendTotals>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.count, ib->second.count) << "cat " << ia->first;
    EXPECT_EQ(ia->second.inclusive, ib->second.inclusive) << "cat " << ia->first;
    EXPECT_EQ(ia->second.exclusive, ib->second.exclusive) << "cat " << ia->first;
  }
}

void expect_occupancy_identical(const query::WindowOccupancy& a,
                                const query::WindowOccupancy& b) {
  ASSERT_EQ(a.ranks().size(), b.ranks().size());
  for (std::size_t r = 0; r < a.ranks().size(); ++r) {
    const auto& x = a.ranks()[r];
    const auto& y = b.ranks()[r];
    EXPECT_EQ(x.state_time, y.state_time) << "rank " << r;
    EXPECT_EQ(x.state_count, y.state_count) << "rank " << r;
    EXPECT_EQ(x.event_count, y.event_count) << "rank " << r;
    EXPECT_EQ(x.arrows_out, y.arrows_out) << "rank " << r;
    EXPECT_EQ(x.arrows_in, y.arrows_in) << "rank " << r;
  }
}

/// Legend and occupancy sweeps of [a, b] at every worker count against the
/// serial reference: a single-threaded Navigator visit feeding one
/// LegendSweep and one WindowOccupancy.
void expect_window_sweeps_match(slog2::Navigator& nav, double a, double b) {
  query::LegendSweep ref_sweep;
  query::WindowOccupancy ref_occ(nav.nranks(), a, b);
  nav.visit_window(
      a, b,
      [&](const slog2::StateDrawable& st) {
        ref_sweep.add_state(st);
        ref_occ.add_state(st);
      },
      [&](const slog2::EventDrawable& e) {
        ref_sweep.add_event(e);
        ref_occ.add_event(e);
      },
      [&](const slog2::ArrowDrawable& ar) {
        ref_sweep.add_arrow(ar);
        ref_occ.add_arrow(ar);
      });
  const auto ref_totals = ref_sweep.totals();

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_totals_identical(
        ref_totals, query::legend_window(nav, a, b, threads).totals(threads));
    expect_occupancy_identical(
        ref_occ, query::occupancy_window(nav, nav.nranks(), a, b, threads));
  }
}

// Enough records that every parallel grain (64Ki-record Trace chunks, the
// 64Ki-step/-message rollup floor, the 64Ki-state legend floor) is actually
// crossed — these tests must exercise real multi-worker shards.
constexpr std::uint64_t kFastEvents = 200000;

TEST(QueryParallel, TraceBuildIdenticalAcrossThreadCounts) {
  const clog2::File f = gen_trace(kFastEvents);
  const query_oracle::TraceIndex want = query_oracle::build_trace(f);
  ASSERT_GE(want.steps.size(), std::size_t{1} << 17)
      << "fixture too small to span several Trace chunks";
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_trace_matches(want, query::Trace(f, threads));
  }
}

TEST(QueryParallel, RollupsIdenticalAcrossThreadCounts) {
  const clog2::File f = gen_trace(kFastEvents);
  const query::Trace t(f);
  const query::MsgGraph g = query::match_messages(f);
  const query::StateDurations sd = query_oracle::state_durations(t);
  const query::MessageEdges me = query_oracle::message_edges(g);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_durations_identical(sd, query::state_durations(t, threads));
    expect_edges_identical(me, query::message_edges(g, threads));
  }
}

TEST(QueryParallel, GoldenFixturesMatchOracle) {
  const std::filesystem::path dir = PILOT_FIXTURE_DIR;
  for (const char* name :
       {"tiny.clog2", "messy.clog2", "diffpair.a.clog2", "diffpair.b.clog2"}) {
    SCOPED_TRACE(name);
    const clog2::File f = clog2::read_file(dir / name);
    const query_oracle::TraceIndex want = query_oracle::build_trace(f);
    const query::MsgGraph g = query::match_messages(f);
    const query::StateDurations sd =
        query_oracle::state_durations(query::Trace(f));
    const query::MessageEdges me = query_oracle::message_edges(g);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const query::Trace t(f, threads);
      expect_trace_matches(want, t);
      expect_durations_identical(sd, query::state_durations(t, threads));
      expect_edges_identical(me, query::message_edges(g, threads));
    }
  }
  for (const char* name : {"tiny.slog2", "tiny.v2.slog2"}) {
    SCOPED_TRACE(name);
    slog2::Navigator nav(dir / name);
    expect_window_sweeps_match(nav, nav.t_min(), nav.t_max());
    expect_window_sweeps_match(nav, nav.t_min(),
                               (nav.t_min() + nav.t_max()) / 2.0);
  }
}

TEST(QueryParallel, LegendTotalsIdenticalAcrossThreadCounts) {
  const clog2::File f = gen_trace(kFastEvents);
  slog2::ConvertOptions co;
  const slog2::File s = slog2::convert(f, co);

  query::LegendSweep sweep;
  s.visit_window(
      s.t_min, s.t_max,
      [&](const slog2::StateDrawable& st) { sweep.add_state(st); },
      [&](const slog2::EventDrawable& e) { sweep.add_event(e); },
      [&](const slog2::ArrowDrawable& a) { sweep.add_arrow(a); });

  const auto serial = sweep.totals();
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_totals_identical(serial, sweep.totals(threads));
  }
}

TEST(QueryParallel, WindowSweepsIdenticalAcrossThreadCounts) {
  const clog2::File f = gen_trace(kFastEvents);
  slog2::ConvertOptions co;
  co.frame_size = 16 * 1024;  // many frames, so the parallel decode matters
  const std::vector<std::uint8_t> bytes = slog2::serialize(slog2::convert(f, co));

  slog2::Navigator nav(bytes);
  expect_window_sweeps_match(nav, nav.t_min(),
                             (nav.t_min() + nav.t_max()) / 2.0);
}

// --- the shared decode cache -------------------------------------------------

TEST(FrameCacheConcurrency, ConcurrentSessionsShareOneFile) {
  const clog2::File f = gen_trace(60000, 4, 11);
  slog2::ConvertOptions co;
  co.frame_size = 8 * 1024;
  const std::vector<std::uint8_t> bytes = slog2::serialize(slog2::convert(f, co));

  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "frame_cache_shared.slog2";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  slog2::FrameCache::global().clear();
  const auto before = slog2::FrameCache::global().stats();

  // N sessions over the same on-disk file: same owner id, so the decode work
  // is shared. Every session must see the same totals.
  constexpr int kSessions = 8;
  std::vector<std::uint64_t> state_counts(kSessions, 0);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> pool;
    pool.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      pool.emplace_back([&, s] {
        try {
          slog2::Navigator nav(path);
          std::uint64_t states = 0;
          nav.visit_window(
              nav.t_min(), nav.t_max(),
              [&](const slog2::StateDrawable&) { ++states; },
              [](const slog2::EventDrawable&) {}, [](const slog2::ArrowDrawable&) {});
          state_counts[s] = states;
        } catch (...) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int s = 1; s < kSessions; ++s)
    EXPECT_EQ(state_counts[s], state_counts[0]) << "session " << s;
  EXPECT_GT(state_counts[0], 0u);

  // With 8 sessions touching every frame, the shared cache must have served
  // most decodes from memory: at most one miss per frame, the rest hits.
  const auto after = slog2::FrameCache::global().stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(after.hits - before.hits, after.misses - before.misses);

  std::filesystem::remove(path);
}

TEST(FrameCacheConcurrency, EvictionKeepsServingAndBoundsBytes) {
  const clog2::File f = gen_trace(60000, 4, 13);
  slog2::ConvertOptions co;
  co.frame_size = 4 * 1024;
  const std::vector<std::uint8_t> bytes = slog2::serialize(slog2::convert(f, co));

  slog2::FrameCache& cache = slog2::FrameCache::global();
  const std::size_t saved = cache.capacity();
  cache.clear();
  cache.set_capacity(64 * 1024);  // far smaller than the trace: force eviction

  {
    slog2::Navigator nav(bytes);
    std::uint64_t pass1 = 0, pass2 = 0;
    nav.visit_window(
        nav.t_min(), nav.t_max(),
        [&](const slog2::StateDrawable&) { ++pass1; },
        [](const slog2::EventDrawable&) {}, [](const slog2::ArrowDrawable&) {});
    nav.visit_window(
        nav.t_min(), nav.t_max(),
        [&](const slog2::StateDrawable&) { ++pass2; },
        [](const slog2::EventDrawable&) {}, [](const slog2::ArrowDrawable&) {});
    EXPECT_EQ(pass1, pass2);  // eviction must never change what a visit sees

    const auto st = cache.stats();
    EXPECT_GT(st.evictions, 0u);
    EXPECT_LE(st.bytes, cache.capacity());
  }

  cache.set_capacity(saved);
  cache.clear();
}

// --- scale -------------------------------------------------------------------

TEST(QueryParallelScale, MillionEventByteIdentity) {
  const clog2::File f = gen_trace(1000000, 16, 42);
  const query_oracle::TraceIndex want = query_oracle::build_trace(f);
  const query::MsgGraph g = query::match_messages(f);
  const query::StateDurations sd =
      query_oracle::state_durations(query::Trace(f));
  const query::MessageEdges me = query_oracle::message_edges(g);

  slog2::ConvertOptions co;
  const slog2::File s = slog2::convert(f, co);
  query::LegendSweep sweep;
  s.visit_window(
      s.t_min, s.t_max,
      [&](const slog2::StateDrawable& st) { sweep.add_state(st); },
      [&](const slog2::EventDrawable& e) { sweep.add_event(e); },
      [&](const slog2::ArrowDrawable& a) { sweep.add_arrow(a); });
  const auto serial_totals = sweep.totals();

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const query::Trace t(f, threads);
    expect_trace_matches(want, t);
    expect_durations_identical(sd, query::state_durations(t, threads));
    expect_edges_identical(me, query::message_edges(g, threads));
    expect_totals_identical(serial_totals, sweep.totals(threads));
  }

  slog2::Navigator nav(slog2::serialize(s));
  expect_window_sweeps_match(nav, nav.t_min(), nav.t_max());
}

}  // namespace
