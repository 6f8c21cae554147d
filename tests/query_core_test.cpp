// Unit tests for the src/query/ trace-analysis core: the typed Trace view,
// the shared message-matching and vector-clock engine, and the per-rank
// rollups the differ and the checker are built on.
#include <gtest/gtest.h>

#include <vector>

#include "clog2/clog2.hpp"
#include "query/clocks.hpp"
#include "query/rollup.hpp"
#include "query/slog2_rollup.hpp"
#include "query/trace.hpp"

namespace {

using Kind = clog2::MsgRec::Kind;

/// A 3-rank toy program: one Compute state per rank, a ping 0->1 answered
/// 1->0, one unreceived send 0->2, one sync record (excluded from spans).
clog2::File toy_trace() {
  clog2::File f;
  f.nranks = 3;
  f.records = {
      clog2::EventDef{10, "Round", "yellow", "i%d"},
      clog2::EventDef{20, "Wait", "orange", "%s"},
      clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
      clog2::SyncRec{0, 0.0, 0.0},
      clog2::SyncRec{1, 0.001, 0.0},
      clog2::EventRec{0.010, 0, 11, ""},
      clog2::EventRec{0.011, 1, 11, ""},
      clog2::MsgRec{0.020, 0, Kind::kSend, 1, 3, 8},
      clog2::MsgRec{0.022, 1, Kind::kRecv, 0, 3, 8},
      clog2::MsgRec{0.030, 1, Kind::kSend, 0, 4, 16},
      clog2::MsgRec{0.034, 0, Kind::kRecv, 1, 4, 16},
      clog2::MsgRec{0.040, 0, Kind::kSend, 2, 9, 4},  // never received
      clog2::EventRec{0.050, 0, 12, ""},
      clog2::EventRec{0.052, 1, 12, ""},
      clog2::EventRec{0.060, 2, 10, "i7"},
  };
  return f;
}

TEST(QueryTrace, IndexesStepsDefinitionsAndSpan) {
  const clog2::File f = toy_trace();
  const query::Trace t(f);

  EXPECT_EQ(t.nranks(), 3);
  // 2 syncs + 5 events + 5 message halves.
  EXPECT_EQ(t.steps().size(), 12u);
  ASSERT_EQ(t.by_rank().size(), 3u);
  EXPECT_EQ(t.by_rank()[0].size(), 6u);  // sync + 2 events + 3 msg halves
  EXPECT_EQ(t.by_rank()[2].size(), 1u);

  // The span covers events and messages but never syncs.
  EXPECT_TRUE(t.has_span());
  EXPECT_DOUBLE_EQ(t.t_min(), 0.010);
  EXPECT_DOUBLE_EQ(t.t_max(), 0.060);

  const query::StateEvent* start = t.state_event(11);
  ASSERT_NE(start, nullptr);
  EXPECT_TRUE(start->is_start);
  EXPECT_EQ(start->name, "Compute");
  const query::StateEvent* end = t.state_event(12);
  ASSERT_NE(end, nullptr);
  EXPECT_FALSE(end->is_start);
  EXPECT_EQ(t.state_event(10), nullptr);  // solo event, not a state edge

  ASSERT_TRUE(t.event_id_of("Wait").has_value());
  EXPECT_EQ(*t.event_id_of("Wait"), 20);
  EXPECT_FALSE(t.event_id_of("Nope").has_value());
}

TEST(QueryTrace, EventIdLookupIsLastWins) {
  clog2::File f;
  f.nranks = 1;
  f.records = {clog2::EventDef{20, "Wait", "orange", "%s"},
               clog2::EventDef{21, "Wait", "orange", "%s"}};
  const query::Trace t(f);
  EXPECT_EQ(*t.event_id_of("Wait"), 21);
}

TEST(QueryClocks, MatchingAndVectorClockOrder) {
  const clog2::File f = toy_trace();
  query::MsgGraph g = query::match_messages(f);

  EXPECT_EQ(g.nranks, 3);
  ASSERT_EQ(g.msgs.size(), 3u);  // two matched pairs + one in-flight send
  std::size_t matched = 0;
  for (const auto& m : g.msgs) matched += m.matched ? 1u : 0u;
  EXPECT_EQ(matched, 2u);
  ASSERT_EQ(g.unreceived.size(), 3u);  // all keys ever seen stay present
  EXPECT_EQ(g.unreceived.at({0, 2, 9}).size(), 1u);
  EXPECT_TRUE(g.unreceived.at({0, 1, 3}).empty());
  EXPECT_TRUE(g.unmatched_recvs.empty());

  EXPECT_FALSE(query::stamp_clocks(g));  // no causal cycle
  for (const auto& m : g.msgs) {
    if (!m.matched) continue;
    EXPECT_TRUE(m.stamped);
    // A send happens-before its own receive, never the other way.
    EXPECT_TRUE(query::clock_leq(m.send_stamp, m.recv_stamp));
    EXPECT_FALSE(query::clock_leq(m.recv_stamp, m.send_stamp));
  }
  // The ping and the reply are causally ordered, not concurrent.
  EXPECT_FALSE(query::clock_concurrent(g.msgs[0].send_stamp,
                                       g.msgs[1].send_stamp));
}

TEST(QueryClocks, UnmatchedReceiveIsCounted) {
  clog2::File f;
  f.nranks = 2;
  f.records = {clog2::MsgRec{0.010, 1, Kind::kRecv, 0, 5, 8}};
  const query::MsgGraph g = query::match_messages(f);
  EXPECT_TRUE(g.msgs.empty());
  ASSERT_EQ(g.unmatched_recvs.size(), 1u);
  EXPECT_EQ(g.unmatched_recvs.at({0, 1, 5}), 1u);
}

TEST(QueryRollup, StateDurationsWithHistogram) {
  const clog2::File f = toy_trace();
  const query::Trace t(f);
  const query::StateDurations d = query::state_durations(t);

  const query::StateStats* r0 = d.find(0, 1);
  ASSERT_NE(r0, nullptr);
  EXPECT_EQ(r0->count, 1u);
  EXPECT_DOUBLE_EQ(r0->total_seconds, 0.040);
  EXPECT_EQ(r0->histogram[query::duration_bucket(0.040)], 1u);
  EXPECT_DOUBLE_EQ(d.rank_total(1), 0.041);
  EXPECT_EQ(d.find(2, 1), nullptr);  // rank 2 never entered Compute
}

TEST(QueryRollup, DurationBucketsAreLogScale) {
  EXPECT_EQ(query::duration_bucket(0.0), 0u);          // < 1us
  EXPECT_EQ(query::duration_bucket(5e-7), 0u);         // < 1us
  EXPECT_EQ(query::duration_bucket(5e-6), 1u);         // 1us..10us
  EXPECT_EQ(query::duration_bucket(0.005), 4u);        // 1ms..10ms
  EXPECT_EQ(query::duration_bucket(100.0), 7u);        // clamped at >= 10s
}

TEST(QueryRollup, MessageEdges) {
  const clog2::File f = toy_trace();
  const query::MessageEdges e = query::message_edges(query::match_messages(f));

  ASSERT_EQ(e.edges.size(), 3u);
  const query::EdgeStats& ping = e.edges.at({0, 1, 3});
  EXPECT_EQ(ping.sent, 1u);
  EXPECT_EQ(ping.matched, 1u);
  EXPECT_EQ(ping.bytes, 8u);
  EXPECT_NEAR(ping.mean_latency(), 0.002, 1e-12);
  const query::EdgeStats& lost = e.edges.at({0, 2, 9});
  EXPECT_EQ(lost.sent, 1u);
  EXPECT_EQ(lost.matched, 0u);
  EXPECT_DOUBLE_EQ(lost.mean_latency(), 0.0);
}

TEST(QueryRollup, MergeIntervals) {
  const auto merged = query::merge_intervals(
      {{0.5, 0.9}, {0.1, 0.3}, {0.2, 0.6}, {0.9, 1.0}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.front().begin, 0.1);
  EXPECT_DOUBLE_EQ(merged.front().end, 1.0);

  const auto disjoint = query::merge_intervals({{2.0, 3.0}, {0.0, 1.0}});
  ASSERT_EQ(disjoint.size(), 2u);
  EXPECT_DOUBLE_EQ(disjoint[0].end, 1.0);
  EXPECT_DOUBLE_EQ(disjoint[1].begin, 2.0);
}

TEST(QuerySlog2Rollup, LegendSweepNestingAndWindowOccupancy) {
  // Rank 0: an outer state (cat 1) [0,1] with a nested state (cat 2)
  // [0.25,0.5]; one event of cat 3; one arrow 0->1.
  query::LegendSweep sweep;
  sweep.add_state({1, 0, 0.0, 1.0, 0, "", ""});
  sweep.add_state({2, 0, 0.25, 0.5, 1, "", ""});
  sweep.add_event({3, 0, 0.6, ""});
  sweep.add_arrow({0, 1, 0.3, 0.4, 7, 8});
  const auto totals = sweep.totals();

  ASSERT_TRUE(totals.contains(1));
  EXPECT_EQ(totals.at(1).count, 1u);
  EXPECT_DOUBLE_EQ(totals.at(1).inclusive, 1.0);
  EXPECT_DOUBLE_EQ(totals.at(1).exclusive, 0.75);  // minus the nested 0.25
  EXPECT_DOUBLE_EQ(totals.at(2).exclusive, 0.25);
  EXPECT_EQ(totals.at(3).count, 1u);
  EXPECT_EQ(totals.at(slog2::kArrowCategoryId).count, 1u);

  query::WindowOccupancy occ(2, 0.4, 0.8);
  occ.add_state({1, 0, 0.0, 1.0, 0, "", ""});
  occ.add_state({2, 0, 0.25, 0.5, 1, "", ""});
  occ.add_event({3, 0, 0.6, ""});
  occ.add_arrow({0, 1, 0.3, 0.4, 7, 8});
  ASSERT_EQ(occ.ranks().size(), 2u);
  const auto& r0 = occ.ranks()[0];
  EXPECT_DOUBLE_EQ(r0.state_time.at(1), 0.4);   // clipped to [0.4, 0.8]
  EXPECT_DOUBLE_EQ(r0.state_time.at(2), 0.1);   // clipped to [0.4, 0.5]
  EXPECT_EQ(r0.event_count.at(3), 1u);
  EXPECT_EQ(r0.arrows_out, 1u);
  EXPECT_EQ(occ.ranks()[1].arrows_in, 1u);
}

}  // namespace
