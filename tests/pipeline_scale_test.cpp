// Determinism guarantees of the scale-out pipeline: the parallel converter
// must emit byte-identical .slog2 at any thread count, and the k-way heap
// merge must reproduce the seed's concat+stable_sort order exactly —
// including on a million-event pilot-tracegen trace (suite PipelineLarge,
// kept out of the sanitizer legs by name).
#include <gtest/gtest.h>

#include <vector>

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
                     return mpe::record_time(a) < mpe::record_time(b);
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

std::vector<std::uint8_t> records_bytes(std::vector<clog2::Record> records,
                                        std::int32_t nranks) {
  clog2::File f;
  f.nranks = nranks;
  f.records = std::move(records);
  return clog2::serialize(f);
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
    const double t = mpe::record_time(rec);
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
  const auto trace = fixture_trace();
  auto streams = split_by_rank(trace);
  const auto expected = records_bytes(sort_path(streams), trace.nranks);
  EXPECT_EQ(records_bytes(mpe::merge_timed(std::move(streams)), trace.nranks),
            expected);
}

TEST(PipelineScale, KwayMergeMatchesSortPathOnTracegen) {
  tracegen::Options opts;
  opts.seed = 21;
  opts.nranks = 8;
  const auto trace = tracegen::generate(opts);
  auto streams = split_by_rank(trace);
  const auto expected = records_bytes(sort_path(streams), trace.nranks);
  EXPECT_EQ(records_bytes(mpe::merge_timed(std::move(streams)), trace.nranks),
            expected);
}

TEST(PipelineScale, KwayMergeRepairsLocalInversion) {
  // A stream with an out-of-order record (as a degenerate clock fit can
  // produce) must still come out globally sorted.
  std::vector<std::vector<clog2::Record>> streams(2);
  streams[0] = {clog2::EventRec{1.0, 0, 7, ""}, clog2::EventRec{0.5, 0, 7, ""},
                clog2::EventRec{2.0, 0, 7, ""}};
  streams[1] = {clog2::EventRec{0.7, 1, 7, ""}, clog2::EventRec{1.5, 1, 7, ""}};
  const auto merged = mpe::merge_timed(std::move(streams));
  ASSERT_EQ(merged.size(), 5u);
  double last = 0;
  for (const auto& rec : merged) {
    EXPECT_GE(mpe::record_time(rec), last);
    last = mpe::record_time(rec);
  }
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
