#include "slog2/slog2.hpp"

#include <gtest/gtest.h>

namespace {

// Builders for hand-made CLOG-2 inputs.
clog2::File base_file(int nranks = 2) {
  clog2::File f;
  f.nranks = nranks;
  // State 1: events 10 (start) / 11 (end); state 2: 20/21; solo event 30.
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "Outer", "red", ""});
  f.records.emplace_back(clog2::StateDef{2, 20, 21, "Inner", "green", ""});
  f.records.emplace_back(clog2::EventDef{30, "Mark", "yellow", ""});
  return f;
}

void add_event(clog2::File& f, double t, int rank, int id, std::string text = {}) {
  f.records.emplace_back(clog2::EventRec{t, rank, id, std::move(text)});
}

void add_msg(clog2::File& f, double t, int rank, clog2::MsgRec::Kind kind,
             int partner, int tag, std::uint32_t size) {
  clog2::MsgRec m;
  m.timestamp = t;
  m.rank = rank;
  m.kind = kind;
  m.partner = partner;
  m.tag = tag;
  m.size = size;
  f.records.emplace_back(m);
}

std::vector<slog2::StateDrawable> all_states(const slog2::File& f) {
  std::vector<slog2::StateDrawable> out;
  f.visit_window(
      f.t_min, f.t_max, [&](const slog2::StateDrawable& s) { out.push_back(s); },
      nullptr, nullptr);
  return out;
}

std::vector<slog2::ArrowDrawable> all_arrows(const slog2::File& f) {
  std::vector<slog2::ArrowDrawable> out;
  f.visit_window(f.t_min, f.t_max, nullptr, nullptr,
                 [&](const slog2::ArrowDrawable& a) { out.push_back(a); });
  return out;
}

TEST(Convert, PairsSimpleState) {
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 10, "Line: 5");
  add_event(in, 2.0, 0, 11, "done");

  const auto out = slog2::convert(in);
  EXPECT_TRUE(out.stats.clean());
  EXPECT_EQ(out.stats.total_states, 1u);
  const auto states = all_states(out);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_DOUBLE_EQ(states[0].start_time, 1.0);
  EXPECT_DOUBLE_EQ(states[0].end_time, 2.0);
  EXPECT_EQ(states[0].depth, 0);
  EXPECT_EQ(states[0].start_text, "Line: 5");
  EXPECT_EQ(states[0].end_text, "done");
  EXPECT_EQ(out.category(states[0].category_id)->name, "Outer");
}

TEST(Convert, NestedStatesGetDepths) {
  // The paper: state B (5..8) fully nested in A (3..20) draws inside A.
  clog2::File in = base_file();
  add_event(in, 3.0, 0, 10);   // Outer start
  add_event(in, 5.0, 0, 20);   // Inner start
  add_event(in, 8.0, 0, 21);   // Inner end
  add_event(in, 20.0, 0, 11);  // Outer end

  const auto out = slog2::convert(in);
  EXPECT_TRUE(out.stats.clean());
  const auto states = all_states(out);
  ASSERT_EQ(states.size(), 2u);
  const auto& inner = states[0].start_time == 5.0 ? states[0] : states[1];
  const auto& outer = states[0].start_time == 3.0 ? states[0] : states[1];
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(out.category(inner.category_id)->name, "Inner");
}

TEST(Convert, StatesOnDifferentRanksIndependent) {
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 10);
  add_event(in, 1.5, 1, 10);
  add_event(in, 2.0, 1, 11);
  add_event(in, 3.0, 0, 11);

  const auto out = slog2::convert(in);
  EXPECT_TRUE(out.stats.clean());
  const auto states = all_states(out);
  ASSERT_EQ(states.size(), 2u);
  for (const auto& s : states) EXPECT_EQ(s.depth, 0);  // no cross-rank nesting
}

TEST(Convert, UnmatchedEndReported) {
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 11);  // end with no start
  std::vector<std::string> warnings;
  const auto out = slog2::convert(in, {}, &warnings);
  EXPECT_EQ(out.stats.unmatched_state_ends, 1u);
  EXPECT_FALSE(out.stats.clean());
  EXPECT_FALSE(warnings.empty());
}

TEST(Convert, UnclosedStateClosedAtLastTimestamp) {
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 10);  // never closed
  add_event(in, 9.0, 1, 30);  // later activity moves the horizon
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.unclosed_states, 1u);
  const auto states = all_states(out);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_DOUBLE_EQ(states[0].end_time, 9.0);
}

// Offline conversion sees the whole file, so a definition applies wherever
// it sits; a live stream cannot wait for one (Traced.OnlineRejectsLateDefinitions).
TEST(Convert, DefinitionAfterInstancesStillApplies) {
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 40, "begin");
  add_event(in, 2.0, 0, 41, "end");
  add_event(in, 3.0, 1, 50);
  in.records.emplace_back(clog2::StateDef{3, 40, 41, "Late", "blue", ""});
  in.records.emplace_back(clog2::EventDef{50, "LateMark", "white", ""});
  std::vector<std::string> warnings;
  const auto out = slog2::convert(in, {}, &warnings);
  EXPECT_TRUE(out.stats.clean());
  EXPECT_EQ(out.stats.unknown_event_ids, 0u);
  EXPECT_TRUE(warnings.empty());
  const auto states = all_states(out);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(out.category(states[0].category_id)->name, "Late");
  EXPECT_EQ(states[0].start_text, "begin");
  EXPECT_EQ(states[0].end_text, "end");
  EXPECT_EQ(out.stats.total_events, 1u);
}

TEST(Convert, MismatchedInterleavingReported) {
  // Start Outer, start Inner, end Outer (violates LIFO), end Inner.
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 10);
  add_event(in, 2.0, 0, 20);
  add_event(in, 3.0, 0, 11);  // top of stack is Inner, not Outer
  add_event(in, 4.0, 0, 21);
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.unmatched_state_ends, 1u);
  EXPECT_EQ(out.stats.unclosed_states, 1u);  // Outer left open, auto-closed
  // Inner pairs normally; Outer is auto-closed but still drawn.
  EXPECT_EQ(out.stats.total_states, 2u);
}

TEST(Convert, SoloEventsBecomeBubbles) {
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 30, "Channel: C3");
  add_event(in, 2.0, 1, 30);
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.total_events, 2u);
  std::size_t n = 0;
  out.visit_window(
      out.t_min, out.t_max, nullptr,
      [&](const slog2::EventDrawable& e) {
        ++n;
        EXPECT_EQ(out.category(e.category_id)->name, "Mark");
      },
      nullptr);
  EXPECT_EQ(n, 2u);
}

TEST(Convert, UnknownEventIdCounted) {
  clog2::File in = base_file();
  add_event(in, 1.0, 0, 555);
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.unknown_event_ids, 1u);
}

TEST(Convert, MatchesSendRecvIntoArrow) {
  clog2::File in = base_file();
  add_msg(in, 1.0, 0, clog2::MsgRec::Kind::kSend, 1, 7, 128);
  add_msg(in, 1.5, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 128);
  const auto out = slog2::convert(in);
  EXPECT_TRUE(out.stats.clean());
  const auto arrows = all_arrows(out);
  ASSERT_EQ(arrows.size(), 1u);
  EXPECT_EQ(arrows[0].src_rank, 0);
  EXPECT_EQ(arrows[0].dst_rank, 1);
  EXPECT_DOUBLE_EQ(arrows[0].start_time, 1.0);
  EXPECT_DOUBLE_EQ(arrows[0].end_time, 1.5);
  EXPECT_EQ(arrows[0].tag, 7);
  EXPECT_EQ(arrows[0].size, 128u);
}

TEST(Convert, RecvBeforeSendStillMatches) {
  // Clock skew can order the receive half first in the merged stream.
  clog2::File in = base_file();
  add_msg(in, 0.9, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 64);
  add_msg(in, 1.0, 0, clog2::MsgRec::Kind::kSend, 1, 7, 64);
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.total_arrows, 1u);
  EXPECT_EQ(out.stats.unmatched_sends, 0u);
  EXPECT_EQ(out.stats.unmatched_recvs, 0u);
}

TEST(Convert, FifoMatchingPerChannel) {
  // Two sends then two receives on the same (src,dst,tag): k-th send pairs
  // with k-th receive.
  clog2::File in = base_file();
  add_msg(in, 1.0, 0, clog2::MsgRec::Kind::kSend, 1, 7, 1);
  add_msg(in, 2.0, 0, clog2::MsgRec::Kind::kSend, 1, 7, 2);
  add_msg(in, 3.0, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 1);
  add_msg(in, 4.0, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 2);
  const auto out = slog2::convert(in);
  const auto arrows = all_arrows(out);
  ASSERT_EQ(arrows.size(), 2u);
  for (const auto& a : arrows) {
    if (a.start_time == 1.0) {
      EXPECT_DOUBLE_EQ(a.end_time, 3.0);
    }
    if (a.start_time == 2.0) {
      EXPECT_DOUBLE_EQ(a.end_time, 4.0);
    }
  }
}

TEST(Convert, UnmatchedHalvesCounted) {
  clog2::File in = base_file();
  add_msg(in, 1.0, 0, clog2::MsgRec::Kind::kSend, 1, 7, 1);
  add_msg(in, 2.0, 1, clog2::MsgRec::Kind::kRecv, 0, 9, 1);  // tag differs
  std::vector<std::string> warnings;
  const auto out = slog2::convert(in, {}, &warnings);
  EXPECT_EQ(out.stats.unmatched_sends, 1u);
  EXPECT_EQ(out.stats.unmatched_recvs, 1u);
  EXPECT_EQ(out.stats.total_arrows, 0u);
  EXPECT_EQ(warnings.size(), 2u);
}

TEST(Convert, EqualDrawablesDetected) {
  // The paper's Section III-C: arrows stamped within clock resolution end up
  // with identical coordinates and trigger the "Equal Drawables" warning.
  clog2::File in = base_file();
  for (int i = 0; i < 3; ++i) {
    add_msg(in, 1.0, 0, clog2::MsgRec::Kind::kSend, 1, 7, 4);
    add_msg(in, 2.0, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 4);
  }
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.total_arrows, 3u);
  EXPECT_EQ(out.stats.equal_drawables, 2u);  // 3 identical arrows -> 2 dupes
}

TEST(Convert, SpreadArrowsRaiseNoWarning) {
  // With distinct timestamps (the paper's 1 ms usleep fix) no warning fires.
  clog2::File in = base_file();
  for (int i = 0; i < 3; ++i) {
    add_msg(in, 1.0 + 0.001 * i, 0, clog2::MsgRec::Kind::kSend, 1, 7, 4);
    add_msg(in, 2.0 + 0.001 * i, 1, clog2::MsgRec::Kind::kRecv, 0, 7, 4);
  }
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.equal_drawables, 0u);
}

TEST(Convert, EmptyTrace) {
  clog2::File in = base_file();
  const auto out = slog2::convert(in);
  EXPECT_EQ(out.stats.total_states + out.stats.total_events + out.stats.total_arrows,
            0u);
  EXPECT_DOUBLE_EQ(out.t_min, 0.0);
  EXPECT_DOUBLE_EQ(out.t_max, 0.0);
  ASSERT_FALSE(out.frames.empty());
}

TEST(Convert, BadOptionsRejected) {
  clog2::File in = base_file();
  slog2::ConvertOptions opts;
  opts.frame_size = 0;
  EXPECT_THROW(slog2::convert(in, opts), util::UsageError);
  opts.frame_size = 1024;
  opts.max_depth = 99;
  EXPECT_THROW(slog2::convert(in, opts), util::UsageError);
}

TEST(Convert, CategoryLookup) {
  const auto out = slog2::convert(base_file());
  ASSERT_NE(out.category(slog2::kArrowCategoryId), nullptr);
  EXPECT_EQ(out.category(slog2::kArrowCategoryId)->name, "message");
  EXPECT_EQ(out.category(9999), nullptr);
}

}  // namespace
