// Differential tests of the analysis passes against their record-level
// oracles (tests/query_oracle.hpp):
//
//   * query::match_messages over a Trace's steps, and the clog2::File
//     overload that forwards to it, equal the record-walking matcher field
//     for field (messages, stamps after stamp_clocks, per-rank ops, the
//     unreceived FIFOs in key order, unmatched receive counts), on the
//     shared analysis corpus and on hand-built edge cases: receives with no
//     send, receives logged before their send, a rank floor above the
//     header's count;
//   * a record whose rank or partner falls outside the header's range is a
//     named util::IoError with the same text from parse(), StreamReader,
//     stream_text, the Trace build at any thread count, match_messages,
//     check_trace and diff_traces;
//   * diff_traces' in-place step comparison finds the same first
//     divergence on every rank, with the same shape, as comparing the
//     projections' key strings, including texts that differ only in float
//     digits, texts that differ only after an embedded NUL, and empty texts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis_corpus.hpp"
#include "analyze/tracecheck.hpp"
#include "analyze/tracediff.hpp"
#include "clog2/clog2.hpp"
#include "query/clocks.hpp"
#include "query/trace.hpp"
#include "query_oracle.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace {

using analysis_corpus::fixture;
using Kind = clog2::MsgRec::Kind;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_graph(const query::MsgGraph& want, const query::MsgGraph& got,
                       const std::string& what) {
  EXPECT_EQ(got.nranks, want.nranks) << what;
  ASSERT_EQ(got.msgs.size(), want.msgs.size()) << what;
  for (std::size_t i = 0; i < want.msgs.size(); ++i) {
    const query::MatchedMsg& w = want.msgs[i];
    const query::MatchedMsg& g = got.msgs[i];
    EXPECT_TRUE(same_bits(g.send_time, w.send_time)) << what << " msg " << i;
    EXPECT_TRUE(same_bits(g.recv_time, w.recv_time)) << what << " msg " << i;
    EXPECT_EQ(g.sender, w.sender) << what << " msg " << i;
    EXPECT_EQ(g.receiver, w.receiver) << what << " msg " << i;
    EXPECT_EQ(g.tag, w.tag) << what << " msg " << i;
    EXPECT_EQ(g.size, w.size) << what << " msg " << i;
    EXPECT_EQ(g.matched, w.matched) << what << " msg " << i;
    EXPECT_EQ(g.stamped, w.stamped) << what << " msg " << i;
    EXPECT_EQ(g.send_stamp, w.send_stamp) << what << " msg " << i;
    EXPECT_EQ(g.recv_stamp, w.recv_stamp) << what << " msg " << i;
  }
  ASSERT_EQ(got.ops.size(), want.ops.size()) << what;
  for (std::size_t r = 0; r < want.ops.size(); ++r) {
    ASSERT_EQ(got.ops[r].size(), want.ops[r].size()) << what << " rank " << r;
    for (std::size_t k = 0; k < want.ops[r].size(); ++k) {
      EXPECT_EQ(got.ops[r][k].kind, want.ops[r][k].kind) << what << " rank " << r;
      EXPECT_EQ(got.ops[r][k].msg, want.ops[r][k].msg) << what << " rank " << r;
    }
  }
  EXPECT_EQ(got.unreceived, want.unreceived) << what;
  EXPECT_EQ(got.unmatched_recvs, want.unmatched_recvs) << what;
}

/// `got` equals the oracle's `want`, before and after both are stamped.
void expect_same_stamped(query::MsgGraph want, query::MsgGraph got,
                         const std::string& what) {
  expect_same_graph(want, got, what);
  const bool cycle = query::stamp_clocks(want);
  EXPECT_EQ(query::stamp_clocks(got), cycle) << what;
  expect_same_graph(want, got, what + " (stamped)");
}

/// Both match_messages overloads against the oracle: the Trace overload at
/// the file's own rank count, the File overload at that count and at a
/// wider floor.
void expect_matcher_matches_oracle(const clog2::File& f, const std::string& what) {
  expect_same_stamped(query_oracle::match_messages(f),
                      query::match_messages(query::Trace(f)), what + " (Trace)");
  for (const int floor : {0, f.nranks + 3})
    expect_same_stamped(query_oracle::match_messages(f, floor),
                        query::match_messages(f, floor),
                        what + " (File) floor " + std::to_string(floor));
}

/// The util::IoError text `fn` throws, or "" when it returns.
template <typename Fn>
std::string error_of(const Fn& fn) {
  try {
    fn();
  } catch (const util::IoError& e) {
    return e.what();
  }
  return "";
}

/// `f` breaks the rank language: every reader and every in-memory entry
/// point rejects it with the same `want` text, at 1 and 4 threads.
void expect_rejected_everywhere(const clog2::File& f, const std::string& want) {
  const std::vector<std::uint8_t> bytes = clog2::serialize(f);
  EXPECT_EQ(error_of([&] { clog2::parse(bytes); }), want) << "parse";
  EXPECT_EQ(error_of([&] {
              clog2::StreamReader reader;
              reader.feed(bytes.data(), bytes.size());
              clog2::Record rec;
              while (reader.next(&rec) == clog2::StreamReader::Status::kRecord) {
              }
            }),
            want)
      << "StreamReader";
  util::TempDir dir;
  util::write_file(dir.file("f.clog2"), bytes);
  EXPECT_EQ(error_of([&] {
              clog2::stream_text(dir.file("f.clog2"), [](const std::string&) {});
            }),
            want)
      << "stream_text";
  EXPECT_EQ(error_of([&] { query::match_messages(f); }), want) << "match_messages";
  for (const int threads : {1, 4}) {
    EXPECT_EQ(error_of([&] { const query::Trace t(f, threads); }), want)
        << "Trace at " << threads;
    analyze::TraceCheckOptions co;
    co.threads = threads;
    EXPECT_EQ(error_of([&] { analyze::check_trace(f, co); }), want)
        << "check_trace at " << threads;
    analyze::TraceDiffOptions dopts;
    dopts.threads = threads;
    EXPECT_EQ(error_of([&] { analyze::diff_traces(f, f, dopts); }), want)
        << "diff_traces at " << threads;
  }
}

/// diff_traces(a, b) puts every rank's divergence where the first differing
/// key string of the oracle projection is, with the matching shape.
void expect_projection_matches_oracle(const clog2::File& a, const clog2::File& b,
                                      const std::string& what) {
  const query::Trace ta(a);
  const query::Trace tb(b);
  const int nranks = std::max(ta.nranks(), tb.nranks());
  const analyze::TraceDiffResult res = analyze::diff_traces(a, b);
  if (nranks <= 0) {
    EXPECT_TRUE(res.deltas.empty()) << what;
    return;
  }
  const auto ka = query_oracle::projection_keys(ta, nranks);
  const auto kb = query_oracle::projection_keys(tb, nranks);
  ASSERT_EQ(res.deltas.size(), static_cast<std::size_t>(nranks)) << what;
  bool any = false;
  for (std::size_t r = 0; r < ka.size(); ++r) {
    const analyze::RankDelta& d = res.deltas[r];
    const std::size_t i = query_oracle::first_divergence(ka[r], kb[r]);
    if (i == ka[r].size() && i == kb[r].size()) {
      EXPECT_FALSE(d.structural) << what << " rank " << r;
      continue;
    }
    any = true;
    EXPECT_TRUE(d.structural) << what << " rank " << r;
    EXPECT_EQ(d.ref_pos, i) << what << " rank " << r;
    using Shape = analyze::RankDelta::Shape;
    const Shape shape = i < ka[r].size() && i < kb[r].size() ? Shape::kMismatch
                        : i == kb[r].size()                  ? Shape::kSuspectShort
                                                             : Shape::kSuspectLong;
    EXPECT_EQ(d.shape, shape) << what << " rank " << r;
  }
  EXPECT_EQ(res.structural_diverged, any) << what;
}

/// A hand-built file with every matching corner the corpus lacks.
clog2::File matcher_edge_cases() {
  clog2::File f;
  f.nranks = 3;
  f.records = {
      clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
      clog2::SyncRec{0, 0.0, 0.0},
      // A receive logged a hair before its send (clock correction skew).
      clog2::MsgRec{0.010, 1, Kind::kRecv, 0, 3, 8},
      clog2::MsgRec{0.011, 0, Kind::kSend, 1, 3, 8},
      // Receives with no send on their key at all, and one more receive
      // than its key has sends.
      clog2::MsgRec{0.030, 2, Kind::kRecv, 0, 5, 1},
      clog2::MsgRec{0.031, 2, Kind::kRecv, 0, 5, 1},
      clog2::MsgRec{0.032, 0, Kind::kSend, 2, 6, 2},
      clog2::MsgRec{0.033, 2, Kind::kRecv, 0, 6, 2},
      clog2::MsgRec{0.034, 2, Kind::kRecv, 0, 6, 2},
      // The same pair on two tags, interleaved, and a send never received.
      clog2::MsgRec{0.040, 1, Kind::kSend, 0, 7, 3},
      clog2::MsgRec{0.041, 1, Kind::kSend, 0, 8, 3},
      clog2::MsgRec{0.042, 1, Kind::kSend, 0, 7, 3},
      clog2::MsgRec{0.043, 0, Kind::kRecv, 1, 8, 3},
      clog2::MsgRec{0.044, 0, Kind::kRecv, 1, 7, 3},
      clog2::EventRec{0.050, 0, 11, ""},
      clog2::EventRec{0.060, 0, 12, ""},
  };
  return f;
}

/// Message halves on rank -1; record 2 is the first out-of-range one.
clog2::File negative_rank_trace() {
  clog2::File f;
  f.nranks = 2;
  f.records = {
      clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
      clog2::EventRec{0.001, 0, 11, ""},
      clog2::MsgRec{0.010, -1, Kind::kSend, 0, 3, 8},
      clog2::MsgRec{0.011, 0, Kind::kRecv, -1, 3, 8},
      clog2::MsgRec{0.020, 0, Kind::kSend, -1, 4, 8},
      clog2::MsgRec{0.021, -1, Kind::kRecv, 0, 4, 8},
      clog2::MsgRec{0.030, -1, Kind::kRecv, 1, 5, 8},
      clog2::MsgRec{0.040, 1, Kind::kSend, 0, 6, 8},
      clog2::MsgRec{0.041, 0, Kind::kRecv, 1, 6, 8},
      clog2::EventRec{0.050, 0, 12, ""},
  };
  return f;
}

/// Rank 0 receives from rank 1, then from rank -1, on one tag: a fan-in
/// round (and a wildcard-race group) whose second send is out of range.
clog2::File negative_rank_fan_in_trace() {
  clog2::File f;
  f.nranks = 2;
  f.records = {
      clog2::MsgRec{0.010, 1, Kind::kSend, 0, 3, 8},
      clog2::MsgRec{0.011, -1, Kind::kSend, 0, 3, 8},
      clog2::MsgRec{0.020, 0, Kind::kRecv, 1, 3, 8},
      clog2::MsgRec{0.021, 0, Kind::kRecv, -1, 3, 8},
      clog2::MsgRec{0.030, 1, Kind::kSend, 0, 3, 8},
      clog2::MsgRec{0.031, -1, Kind::kSend, 0, 3, 8},
      clog2::MsgRec{0.040, 0, Kind::kRecv, 1, 3, 8},
      clog2::MsgRec{0.041, 0, Kind::kRecv, -1, 3, 8},
  };
  return f;
}

TEST(QueryClocks, TraceMatcherEqualsRecordOracleOnCorpus) {
  for (const char* name : {"tiny.clog2", "messy.clog2", "diffpair.a.clog2",
                           "diffpair.b.clog2"})
    expect_matcher_matches_oracle(clog2::read_file(fixture(name)), name);
  for (const auto& [seed, set] : analysis_corpus::shared_tracegen_sets()) {
    const std::string s = " " + std::to_string(seed);
    expect_matcher_matches_oracle(set.ref, "tracegen" + s);
    expect_matcher_matches_oracle(set.twin, "twin" + s);
    expect_matcher_matches_oracle(set.tag, "tag flip" + s);
    expect_matcher_matches_oracle(set.size, "size flip" + s);
    expect_matcher_matches_oracle(set.event, "event flip" + s);
  }
  const analysis_corpus::FaultRuns& runs = analysis_corpus::shared_fault_runs();
  ASSERT_TRUE(runs.ok);
  expect_matcher_matches_oracle(runs.clean, "clean run");
  expect_matcher_matches_oracle(runs.delayed, "delayed run");
  expect_matcher_matches_oracle(runs.crashed, "crashed run");
}

TEST(QueryClocks, TraceMatcherEqualsRecordOracleOnEdgeCases) {
  const clog2::File f = matcher_edge_cases();
  expect_matcher_matches_oracle(f, "edge cases");
  const query::MsgGraph g = query::match_messages(query::Trace(f));
  EXPECT_EQ(g.unmatched_recvs.at({0, 2, 5}), 2u);
  EXPECT_EQ(g.unmatched_recvs.at({0, 2, 6}), 1u);
  EXPECT_EQ(g.unreceived.at({1, 0, 7}).size(), 1u);
  EXPECT_TRUE(g.unreceived.at({0, 1, 3}).empty());
  EXPECT_TRUE(g.msgs[0].matched);  // the receive logged before its send

  clog2::File empty;
  expect_matcher_matches_oracle(empty, "empty file");
  clog2::File defs_only;
  defs_only.records = {clog2::EventDef{10, "Round", "yellow", ""}};
  expect_matcher_matches_oracle(defs_only, "definitions only");
}

TEST(QueryClocks, OutOfRangeRanksAreRejectedAtEveryEntry) {
  // Partners outside [0, nranks), on both halves (negative message ranks:
  // the TraceCheck tests below).
  for (const auto& [m, want] :
       {std::pair{clog2::MsgRec{0.020, 0, Kind::kSend, 99, 4, 16},
                  "clog2: record 2: partner 99 outside [0, 3)"},
        std::pair{clog2::MsgRec{0.021, 2, Kind::kSend, -4, 4, 16},
                  "clog2: record 2: partner -4 outside [0, 3)"},
        std::pair{clog2::MsgRec{0.022, 1, Kind::kRecv, 77, 4, 16},
                  "clog2: record 2: partner 77 outside [0, 3)"}}) {
    clog2::File f;
    f.nranks = 3;
    f.records = {clog2::StateDef{1, 11, 12, "Compute", "gray", ""},
                 clog2::SyncRec{0, 0.0, 0.0}, m};
    expect_rejected_everywhere(f, want);
  }
  // Event and sync ranks are held to the same range.
  clog2::File f;
  f.nranks = 2;
  f.records = {clog2::EventRec{0.1, 2, 11, ""}};
  expect_rejected_everywhere(f, "clog2: record 0: rank 2 outside [0, 2)");
  f.records = {clog2::SyncRec{-1, 0.0, 0.0}};
  expect_rejected_everywhere(f, "clog2: record 0: rank -1 outside [0, 2)");
  // Header counts below zero or above kMaxRanks.
  f.records.clear();
  for (const std::int32_t n : {-1, clog2::kMaxRanks + 1}) {
    f.nranks = n;
    expect_rejected_everywhere(
        f, "clog2: rank count " + std::to_string(n) + " outside [0, 16384]");
  }
  f.nranks = clog2::kMaxRanks;
  EXPECT_EQ(query::Trace(f).nranks(), clog2::kMaxRanks);
}

TEST(QueryTrace, OutOfRangeRankErrorIsTheSameAtAnyThreadCount) {
  // Bad records in three 64K-record shards of the build: whichever shard a
  // worker finishes first, the lowest record index is the one reported.
  clog2::File f;
  f.nranks = 2;
  f.records.assign(4 * 65536, clog2::EventRec{0.5, 1, 11, ""});
  f.records[70000] = clog2::EventRec{0.5, 5, 11, ""};
  f.records[150000] = clog2::MsgRec{0.5, 0, Kind::kSend, -1, 3, 8};
  f.records[200000] = clog2::SyncRec{-3, 0.0, 0.0};
  for (const int threads : {1, 2, 4, 0})
    EXPECT_EQ(error_of([&] { const query::Trace t(f, threads); }),
              "clog2: record 70000: rank 5 outside [0, 2)")
        << threads << " threads";
}

TEST(TraceCheck, NegativeRankMessageIsRejected) {
  expect_rejected_everywhere(negative_rank_trace(),
                             "clog2: record 2: rank -1 outside [0, 2)");
}

TEST(TraceCheck, NegativeRankSendAfterValidSendIsRejected) {
  expect_rejected_everywhere(negative_rank_fan_in_trace(),
                             "clog2: record 1: rank -1 outside [0, 2)");
}

TEST(TraceDiff, NegativeRankMessageIsRejected) {
  const clog2::File f = negative_rank_trace();
  const clog2::File clean = clog2::read_file(fixture("diffpair.a.clog2"));
  const std::string want = "clog2: record 2: rank -1 outside [0, 2)";
  EXPECT_EQ(error_of([&] { analyze::diff_traces(clean, f); }), want);
  EXPECT_EQ(error_of([&] { analyze::diff_traces(f, clean); }), want);
  EXPECT_EQ(error_of([&] { analyze::diff_traces(f, negative_rank_fan_in_trace()); }),
            want);
}

TEST(TraceDiff, InPlaceComparisonEqualsKeyStringOracleOnCorpus) {
  const clog2::File tiny = clog2::read_file(fixture("tiny.clog2"));
  const clog2::File messy = clog2::read_file(fixture("messy.clog2"));
  const clog2::File a = clog2::read_file(fixture("diffpair.a.clog2"));
  const clog2::File b = clog2::read_file(fixture("diffpair.b.clog2"));
  expect_projection_matches_oracle(a, b, "diffpair a b");
  expect_projection_matches_oracle(b, a, "diffpair b a");
  expect_projection_matches_oracle(tiny, messy, "tiny messy");
  expect_projection_matches_oracle(messy, a, "messy diffpair.a");
  for (const auto& [seed, set] : analysis_corpus::shared_tracegen_sets()) {
    const std::string s = " " + std::to_string(seed);
    expect_projection_matches_oracle(set.ref, set.twin, "twin" + s);
    expect_projection_matches_oracle(set.twin, set.ref, "twin reversed" + s);
    expect_projection_matches_oracle(set.ref, set.tag, "tag flip" + s);
    expect_projection_matches_oracle(set.ref, set.size, "size flip" + s);
    expect_projection_matches_oracle(set.ref, set.event, "event flip" + s);
  }
  const analysis_corpus::FaultRuns& runs = analysis_corpus::shared_fault_runs();
  ASSERT_TRUE(runs.ok);
  expect_projection_matches_oracle(runs.clean, runs.delayed, "clean delayed");
  expect_projection_matches_oracle(runs.clean, runs.crashed, "clean crashed");
  expect_projection_matches_oracle(runs.crashed, runs.clean, "crashed clean");
}

TEST(TraceDiff, InPlaceComparisonKeepsKeyStringTextSemantics) {
  // One rank per text pair: rank r logs event 20 with texts[r].first in the
  // reference and texts[r].second in the suspect, between two equal events.
  using namespace std::string_literals;
  const std::vector<std::pair<std::string, std::string>> texts = {
      {"t=1.25 s", "t=3.5 s"},          // float digits only: equal
      {"abc\0xyz"s, "abc\0uvw"s},       // differ after a NUL: equal
      {"abc\0xyz"s, "abd\0xyz"s},       // differ before the NUL: differ
      {"", ""},                         // empty: equal
      {"", "L12"},                      // empty vs text: differ
      {"n=12", "n=13"},                 // integers are not masked: differ
      {"1.", "1.0"},                    // "1." is no float: differ
      {"x 1.5e-3", "x 2.0E+7"},         // exponents masked: equal
      {"1.5\0"s, "2.5"},                // float before a trailing NUL: equal
      {"same", "same"},                 // byte-identical: equal
  };
  const auto build = [&](bool suspect) {
    clog2::File f;
    f.nranks = static_cast<std::int32_t>(texts.size());
    f.records.push_back(clog2::EventDef{20, "Note", "white", "%s"});
    double t = 0.0;
    for (std::int32_t r = 0; r < f.nranks; ++r) {
      const auto& [ref_text, sus_text] = texts[static_cast<std::size_t>(r)];
      f.records.push_back(clog2::EventRec{t += 0.001, r, 20, "L7 before"});
      f.records.push_back(
          clog2::EventRec{t += 0.001, r, 20, suspect ? sus_text : ref_text});
      f.records.push_back(clog2::EventRec{t += 0.001, r, 20, "after 0.5"});
    }
    return f;
  };
  const clog2::File ref = build(false);
  const clog2::File sus = build(true);
  expect_projection_matches_oracle(ref, sus, "texts");
  expect_projection_matches_oracle(sus, ref, "texts reversed");

  const analyze::TraceDiffResult res = analyze::diff_traces(ref, sus);
  const std::vector<bool> differ = {false, false, true,  false, true,
                                    true,  true,  false, false, false};
  ASSERT_EQ(res.deltas.size(), differ.size());
  for (std::size_t r = 0; r < differ.size(); ++r) {
    EXPECT_EQ(res.deltas[r].structural, differ[r]) << "rank " << r;
    if (differ[r]) {
      EXPECT_EQ(res.deltas[r].ref_pos, 1u) << "rank " << r;
      EXPECT_EQ(res.deltas[r].line, 7) << "rank " << r;
    }
  }
}

}  // namespace
