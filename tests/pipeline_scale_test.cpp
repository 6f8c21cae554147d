// Determinism guarantees of the scale-out pipeline: the parallel converter
// must emit byte-identical .slog2 at any thread count, and the logger's
// encoded k-way merge (mpe::merge_streams) must reproduce, byte for byte,
// both the record-level merge in merge_oracle.hpp and the seed's
// concat+stable_sort order — including on a million-event pilot-tracegen
// trace (suite PipelineLarge, kept out of the sanitizer legs by name).
#include <gtest/gtest.h>

#include <vector>

#include "merge_oracle.hpp"
#include "mpe/mpe.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/error.hpp"

#ifndef PILOT_FIXTURE_DIR
#error "PILOT_FIXTURE_DIR must be defined by the build"
#endif

namespace {

std::vector<std::uint8_t> convert_bytes(const clog2::File& trace, int threads,
                                        std::uint64_t frame_size = 64 * 1024) {
  slog2::ConvertOptions opts;
  opts.threads = threads;
  opts.frame_size = frame_size;
  return slog2::serialize(slog2::convert(trace, opts));
}

void expect_thread_invariant(const clog2::File& trace,
                             std::uint64_t frame_size = 64 * 1024) {
  const auto t1 = convert_bytes(trace, 1, frame_size);
  EXPECT_EQ(t1, convert_bytes(trace, 2, frame_size));
  EXPECT_EQ(t1, convert_bytes(trace, 8, frame_size));
}

clog2::File fixture_trace() {
  return clog2::read_file(std::string(PILOT_FIXTURE_DIR) + "/tiny.clog2");
}

/// The seed's merge: concatenate per-rank streams and stable_sort by time.
std::vector<clog2::Record> sort_path(
    std::vector<std::vector<clog2::Record>> streams) {
  std::vector<clog2::Record> out;
  for (auto& s : streams)
    out.insert(out.end(), std::make_move_iterator(s.begin()),
               std::make_move_iterator(s.end()));
  std::stable_sort(out.begin(), out.end(),
                   [](const clog2::Record& a, const clog2::Record& b) {
                     return merge_oracle::record_time(a) < merge_oracle::record_time(b);
                   });
  return out;
}

std::vector<std::vector<clog2::Record>> split_by_rank(const clog2::File& f) {
  std::vector<std::vector<clog2::Record>> streams(
      static_cast<std::size_t>(f.nranks));
  for (const auto& rec : f.records) {
    int rank = -1;
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) rank = e->rank;
    if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) rank = m->rank;
    if (rank >= 0) streams[static_cast<std::size_t>(rank)].push_back(rec);
  }
  return streams;
}

/// The encoded merge equals the record-level oracle and the sort path.
void expect_merges_agree(const std::vector<std::vector<clog2::Record>>& streams) {
  const auto encoded = merge_oracle::merge_encoded(streams);
  EXPECT_EQ(encoded, merge_oracle::encode_records(merge_oracle::merge_timed(streams)));
  EXPECT_EQ(encoded, merge_oracle::encode_records(sort_path(streams)));
}

TEST(PipelineScale, FixtureThreadsByteIdentical) {
  expect_thread_invariant(fixture_trace());
  // A small frame size stresses the tree layout under partitioning too.
  expect_thread_invariant(fixture_trace(), 256);
}

TEST(PipelineScale, TracegenThreadsByteIdentical) {
  tracegen::Options opts;
  opts.seed = 11;
  opts.nranks = 6;
  opts.events = 100000;  // the generator's floor
  expect_thread_invariant(tracegen::generate(opts));
}

TEST(PipelineScale, TracegenDeterministicAcrossCalls) {
  tracegen::Options opts;
  opts.seed = 5;
  const auto a = tracegen::generate(opts);
  const auto b = tracegen::generate(opts);
  EXPECT_EQ(clog2::serialize(a), clog2::serialize(b));

  opts.seed = 6;
  EXPECT_NE(clog2::serialize(a), clog2::serialize(tracegen::generate(opts)));
}

TEST(PipelineScale, TracegenRejectsOutOfRangeRanks) {
  tracegen::Options opts;
  opts.nranks = 0;
  EXPECT_THROW(tracegen::generate(opts), util::UsageError);
  opts.nranks = clog2::kMaxRanks + 1;
  EXPECT_THROW(tracegen::generate(opts), util::UsageError);
  // The cap itself is usable — a tiny event budget keeps this instant.
  opts.nranks = clog2::kMaxRanks;
  opts.events = 10;
  EXPECT_EQ(tracegen::generate(opts).nranks, clog2::kMaxRanks);
}

TEST(PipelineScale, TracegenOutputIsTimeOrderedAndClean) {
  tracegen::Options opts;
  opts.seed = 3;
  opts.nranks = 4;
  const auto trace = tracegen::generate(opts);
  ASSERT_EQ(trace.nranks, 4);
  double last = 0;
  for (const auto& rec : trace.records) {
    const double t = merge_oracle::record_time(rec);
    EXPECT_GE(t, last);
    last = t;
  }
  // Every send is received, every state closed: conversion is warning-free.
  std::vector<std::string> warnings;
  const auto slog = slog2::convert(trace, {}, &warnings);
  EXPECT_TRUE(slog.stats.clean());
  EXPECT_TRUE(warnings.empty()) << warnings.front();
}

TEST(PipelineScale, KwayMergeMatchesSortPathOnFixture) {
  expect_merges_agree(split_by_rank(fixture_trace()));
}

TEST(PipelineScale, KwayMergeMatchesSortPathOnTracegen) {
  tracegen::Options opts;
  opts.seed = 21;
  opts.nranks = 8;
  expect_merges_agree(split_by_rank(tracegen::generate(opts)));
}

TEST(PipelineScale, KwayMergeRepairsLocalInversion) {
  // A stream with an out-of-order record (as a degenerate clock fit can
  // produce) must still come out globally sorted, ties across streams in
  // stream order.
  std::vector<std::vector<clog2::Record>> streams(3);
  streams[0] = {clog2::EventRec{1.0, 0, 7, "a"}, clog2::EventRec{0.5, 0, 7, ""},
                clog2::MsgRec{2.0, 0, clog2::MsgRec::Kind::kSend, 1, 3, 8}};
  streams[1] = {clog2::EventRec{0.7, 1, 7, "popup"}, clog2::EventRec{1.5, 1, 7, ""}};
  streams[2] = {clog2::EventRec{0.5, 2, 7, ""}, clog2::EventRec{0.5, 2, 8, "tie"},
                clog2::MsgRec{1.0, 2, clog2::MsgRec::Kind::kRecv, 0, 3, 8}};
  expect_merges_agree(streams);
  util::ByteWriter w;
  clog2::append_header(w, 3, "", 8);
  const auto merged = merge_oracle::merge_encoded(streams);
  w.raw(merged.data(), merged.size());
  clog2::append_end(w);
  const clog2::File back = clog2::parse(w.bytes());
  ASSERT_EQ(back.records.size(), 8u);
  double last = 0;
  for (const auto& rec : back.records) {
    EXPECT_GE(merge_oracle::record_time(rec), last);
    last = merge_oracle::record_time(rec);
  }
}

TEST(PipelineScale, KwayMergeSkipsEmptyStreams) {
  std::vector<std::vector<clog2::Record>> streams(4);
  streams[1] = {clog2::EventRec{0.25, 1, 7, "x"}};
  streams[3] = {clog2::EventRec{0.25, 3, 7, "y"}, clog2::EventRec{0.5, 3, 7, ""}};
  expect_merges_agree(streams);
  expect_merges_agree({});
}

// The headline acceptance check: a 10^6-event synthetic trace converts
// byte-identically at 1, 2, and 8 threads. Heavy (three full conversions),
// so it lives in its own suite with a ctest TIMEOUT and is excluded from
// the sanitizer legs.
TEST(PipelineLarge, MillionEventThreadsByteIdentical) {
  tracegen::Options opts;
  opts.seed = 1;
  opts.nranks = 8;
  opts.events = 1000000;
  const auto trace = tracegen::generate(opts);
  EXPECT_GE(trace.records.size(), 1000000u);
  expect_thread_invariant(trace);
}

}  // namespace
