// pilot-tracedigest's library half: budgeted, deterministic summaries.
//
//   * determinism: same trace + same Options (seed included) is
//     byte-identical, in text and JSON, across repeated runs and across
//     the v1/v2 frame encodings of the same trace;
//   * budget property: for budgets swept 256..64k (plus hostile tiny
//     values) over mixed traces, the rendered digest NEVER exceeds the
//     budget, and a generous budget produces an untruncated digest;
//   * dedup correctness: a hand-built trace where every rank runs the same
//     repeated motif collapses to ONE motif line with a rank range and a
//     repeat count;
//   * anomaly scoring: a hand-built straggler rank and slow edge are
//     surfaced, highest score first.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "clog2/clog2.hpp"
#include "digest/digest.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

#ifndef PILOT_FIXTURE_DIR
#error "PILOT_FIXTURE_DIR must be defined by the build"
#endif

namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(PILOT_FIXTURE_DIR) / name;
}

std::vector<std::uint8_t> tracegen_slog2(std::uint64_t events,
                                         std::int32_t ranks,
                                         std::uint64_t seed,
                                         slog2::FrameEncoding enc) {
  tracegen::Options o;
  o.events = events;
  o.nranks = ranks;
  o.seed = seed;
  slog2::ConvertOptions co;
  co.encoding = enc;
  return slog2::serialize(slog2::convert(tracegen::generate(o), co));
}

/// nranks ranks each running `reps` iterations of Compute-then-Exchange,
/// with per-rank state durations scaled by `stretch[rank]` (1.0 = normal).
/// The shape the motif collapser and the skew scorer exist for.
clog2::File motif_trace(std::int32_t nranks, int reps,
                        const std::vector<double>& stretch) {
  clog2::File f;
  f.nranks = nranks;
  f.records.push_back(clog2::StateDef{1, 11, 12, "Compute", "gray", ""});
  f.records.push_back(clog2::StateDef{2, 13, 14, "Exchange", "green", ""});
  for (std::int32_t r = 0; r < nranks; ++r)
    f.records.push_back(clog2::SyncRec{r, 0.0, 0.0});
  for (std::int32_t r = 0; r < nranks; ++r) {
    const double scale =
        r < static_cast<std::int32_t>(stretch.size())
            ? stretch[static_cast<std::size_t>(r)]
            : 1.0;
    double t = 0.001 * (r + 1);
    for (int i = 0; i < reps; ++i) {
      f.records.push_back(clog2::EventRec{t, r, 11, ""});
      t += 0.010 * scale;
      f.records.push_back(clog2::EventRec{t, r, 12, ""});
      t += 0.001;
      f.records.push_back(clog2::EventRec{t, r, 13, ""});
      t += 0.002 * scale;
      f.records.push_back(clog2::EventRec{t, r, 14, ""});
      t += 0.001;
    }
  }
  return f;
}

slog2::Navigator navigator_of(const clog2::File& clog) {
  return slog2::Navigator(slog2::serialize(slog2::convert(clog)));
}

TEST(TraceDigest, DeterministicPerSeedAndAcrossEncodings) {
  for (const bool json : {false, true}) {
    digest::Options opts;
    opts.json = json;
    opts.seed = 99;
    opts.budget = 64 * 1024;
    const auto v1 = tracegen_slog2(4000, 6, 13, slog2::FrameEncoding::kV1);
    const auto v2 = tracegen_slog2(4000, 6, 13, slog2::FrameEncoding::kV2);
    slog2::Navigator n1a(v1), n1b(v1), n2(v2);
    const std::string a = digest::summarize(n1a, opts);
    const std::string b = digest::summarize(n1b, opts);
    EXPECT_EQ(a, b) << "digest not deterministic (json=" << json << ")";
    // The digest reports the encoding, so v1 and v2 digests differ only in
    // that one token: everything derived from the drawables is identical.
    std::string c = digest::summarize(n2, opts);
    std::size_t pos;
    while ((pos = c.find("v2")) != std::string::npos) c.replace(pos, 2, "v1");
    EXPECT_EQ(a, c) << "digest differs across frame encodings";
    EXPECT_FALSE(a.empty());
  }
}

TEST(TraceDigest, SeedChangesOnlySampling) {
  // Different seeds must still be internally deterministic; on a trace with
  // no popup texts they are byte-identical (the seed only drives exemplar
  // sampling).
  const auto bytes = tracegen_slog2(2000, 4, 3, slog2::FrameEncoding::kV1);
  digest::Options a, b;
  a.seed = 1;
  b.seed = 2;
  slog2::Navigator na(bytes), nb(bytes);
  // tracegen states carry no popup text, so exemplars never differ.
  EXPECT_EQ(digest::summarize(na, a), digest::summarize(nb, b));
}

TEST(TraceDigest, BudgetNeverExceeded) {
  struct Case {
    const char* label;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Case> cases;
  cases.push_back({"tracegen-mid",
                   tracegen_slog2(6000, 12, 21, slog2::FrameEncoding::kV2)});
  cases.push_back({"tracegen-small",
                   tracegen_slog2(500, 2, 4, slog2::FrameEncoding::kV1)});
  cases.push_back(
      {"messy", slog2::serialize(slog2::convert(
                    clog2::read_file(fixture("messy.clog2"))))});
  cases.push_back({"motif", slog2::serialize(slog2::convert(
                                motif_trace(64, 20, {})))});

  for (const Case& c : cases) {
    for (const bool json : {false, true}) {
      for (std::size_t budget = 256; budget <= 64 * 1024; budget *= 2) {
        digest::Options opts;
        opts.budget = budget;
        opts.json = json;
        slog2::Navigator nav(c.bytes);
        const std::string out = digest::summarize(nav, opts);
        EXPECT_LE(out.size(), budget)
            << c.label << " json=" << json << " budget=" << budget;
        EXPECT_FALSE(out.empty())
            << c.label << " json=" << json << " budget=" << budget;
      }
      // Hostile tiny budgets: still never exceeded (possibly empty).
      for (const std::size_t budget : {std::size_t{0}, std::size_t{1},
                                       std::size_t{8}, std::size_t{40}}) {
        digest::Options opts;
        opts.budget = budget;
        opts.json = json;
        slog2::Navigator nav(c.bytes);
        EXPECT_LE(digest::summarize(nav, opts).size(), budget)
            << c.label << " json=" << json << " budget=" << budget;
      }
    }
  }
}

TEST(TraceDigest, GenerousBudgetIsNotTruncated) {
  const auto bytes = tracegen_slog2(2000, 4, 8, slog2::FrameEncoding::kV1);
  digest::Options opts;
  opts.budget = 1 << 20;
  slog2::Navigator nav(bytes);
  const std::string out = digest::summarize(nav, opts);
  EXPECT_EQ(out.find("[truncated]"), std::string::npos);
  digest::Options jopts = opts;
  jopts.json = true;
  slog2::Navigator nav2(bytes);
  EXPECT_NE(digest::summarize(nav2, jopts).find("\"truncated\":false"),
            std::string::npos);
}

TEST(TraceDigest, SpmdRanksCollapseToOneMotif) {
  // 16 identical ranks, 12 iterations of Compute Exchange each: the motif
  // section must be ONE line covering ranks 0-15 with an x12 repeat.
  slog2::Navigator nav = navigator_of(motif_trace(16, 12, {}));
  const digest::Digest d = digest::analyze(nav);
  ASSERT_EQ(d.motifs.size(), 1u) << "identical ranks did not dedup";
  EXPECT_EQ(d.motifs[0].ranks.size(), 16u);
  EXPECT_EQ(d.motifs[0].ranks.front(), 0);
  EXPECT_EQ(d.motifs[0].ranks.back(), 15);
  EXPECT_NE(d.motifs[0].motif.find("Compute"), std::string::npos)
      << d.motifs[0].motif;
  EXPECT_NE(d.motifs[0].motif.find("Exchange"), std::string::npos)
      << d.motifs[0].motif;
  EXPECT_NE(d.motifs[0].motif.find("x12"), std::string::npos)
      << d.motifs[0].motif;
  // And the rendered line uses a compact rank range.
  digest::Options opts;
  opts.budget = 64 * 1024;
  const std::string out = digest::render(d, opts);
  EXPECT_NE(out.find("ranks 0-15:"), std::string::npos) << out;
}

TEST(TraceDigest, DivergentRankGetsItsOwnMotif) {
  // 4 ranks; rank 3 runs 20 Compute iterations, ranks 0-2 run 10.
  clog2::File g;
  g.nranks = 4;
  g.records.push_back(clog2::StateDef{1, 11, 12, "Compute", "gray", ""});
  g.records.push_back(clog2::StateDef{2, 13, 14, "Exchange", "green", ""});
  for (std::int32_t r = 0; r < 4; ++r)
    g.records.push_back(clog2::SyncRec{r, 0.0, 0.0});
  for (std::int32_t r = 0; r < 4; ++r) {
    double t = 0.001 * (r + 1);
    const int reps = r == 3 ? 20 : 10;
    for (int i = 0; i < reps; ++i) {
      g.records.push_back(clog2::EventRec{t, r, 11, ""});
      t += 0.010;
      g.records.push_back(clog2::EventRec{t, r, 12, ""});
      t += 0.001;
    }
  }
  slog2::Navigator nav = navigator_of(g);
  const digest::Digest d = digest::analyze(nav);
  ASSERT_EQ(d.motifs.size(), 2u);
  EXPECT_EQ(d.motifs[0].ranks, (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(d.motifs[1].ranks, (std::vector<std::int32_t>{3}));
  EXPECT_NE(d.motifs[0].motif.find("x10"), std::string::npos);
  EXPECT_NE(d.motifs[1].motif.find("x20"), std::string::npos);
}

TEST(TraceDigest, StragglerRankIsTopAnomaly) {
  // Rank 2 of 8 runs 5x-stretched states: busy skew flags it first.
  std::vector<double> stretch(8, 1.0);
  stretch[2] = 5.0;
  slog2::Navigator nav = navigator_of(motif_trace(8, 10, stretch));
  const digest::Digest d = digest::analyze(nav);
  ASSERT_FALSE(d.anomalies.empty()) << "straggler not flagged";
  EXPECT_EQ(d.anomalies[0].kind, "rank_busy_high");
  EXPECT_NE(d.anomalies[0].detail.find("rank 2"), std::string::npos)
      << d.anomalies[0].detail;
  EXPECT_GT(d.anomalies[0].score, 2.0);
}

TEST(TraceDigest, UniformTraceHasNoAnomalies) {
  slog2::Navigator nav = navigator_of(motif_trace(8, 10, {}));
  const digest::Digest d = digest::analyze(nav);
  EXPECT_TRUE(d.anomalies.empty())
      << d.anomalies[0].kind << ": " << d.anomalies[0].detail;
}

TEST(TraceDigest, SlowEdgeIsFlagged) {
  // Four edges with ~1ms latency, one with 40ms: edge_latency anomaly.
  clog2::File f;
  f.nranks = 4;
  using Kind = clog2::MsgRec::Kind;
  for (std::int32_t r = 0; r < 4; ++r)
    f.records.push_back(clog2::SyncRec{r, 0.0, 0.0});
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    for (std::int32_t r = 0; r < 3; ++r) {
      f.records.push_back(clog2::MsgRec{t, r, Kind::kSend, r + 1, 1, 8});
      f.records.push_back(
          clog2::MsgRec{t + 0.001, r + 1, Kind::kRecv, r, 1, 8});
    }
    f.records.push_back(clog2::MsgRec{t, 3, Kind::kSend, 0, 1, 8});
    f.records.push_back(clog2::MsgRec{t + 0.040, 0, Kind::kRecv, 3, 1, 8});
    t += 0.050;
  }
  slog2::Navigator nav = navigator_of(f);
  const digest::Digest d = digest::analyze(nav);
  ASSERT_FALSE(d.anomalies.empty());
  EXPECT_EQ(d.anomalies[0].kind, "edge_latency");
  EXPECT_NE(d.anomalies[0].detail.find("3->0"), std::string::npos)
      << d.anomalies[0].detail;
}

TEST(TraceDigest, WindowRestrictsTheDigest) {
  const auto bytes = tracegen_slog2(4000, 4, 17, slog2::FrameEncoding::kV1);
  slog2::Navigator whole(bytes), windowed(bytes);
  const digest::Digest all = digest::analyze(whole);
  digest::Options opts;
  opts.t1 = (all.t_min + all.t_max) / 2;
  const digest::Digest half = digest::analyze(windowed, opts);
  EXPECT_LT(half.states, all.states);
  EXPECT_LT(half.arrows, all.arrows);
}

}  // namespace
