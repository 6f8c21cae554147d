// SLOG-2 v2 (columnar delta-varint) frame payloads, held to the v1 format's
// byte-level rigor:
//
//   * codec level: seeded random drawable sets round-trip through
//     encode_drawables_v2/decode_drawables_v2 bit-exactly (NaNs, signed
//     zeros, infinities included), the decoder consumes exactly the bytes
//     the encoder wrote, and re-encoding the decode is byte-identical;
//   * format level: a v2 conversion of any CLOG-2 input is semantically
//     identical to the v1 conversion — same to_text dump, same render_svg,
//     same LegendSweep / WindowOccupancy rollups, same stats — with v1 as
//     the ground-truth oracle, across frame sizes and via both parse() and
//     the lazy Navigator;
//   * online level: traced::OnlineConverter sealing v2 chunks finalizes to
//     the same bytes as the offline v2 conversion at every seal size;
//   * scale (V2Scale, heavy): the million-event tracegen trace converts
//     identically under both encodings and v2's frame payload bytes are at
//     least 3x smaller.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "clog2/clog2.hpp"
#include "jumpshot/render.hpp"
#include "query/slog2_rollup.hpp"
#include "slog2/frame_codec.hpp"
#include "slog2/slog2.hpp"
#include "traced/online_convert.hpp"
#include "tracegen/tracegen.hpp"
#include "util/bytebuf.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/varint.hpp"

#ifndef PILOT_FIXTURE_DIR
#error "PILOT_FIXTURE_DIR must be defined by the build"
#endif

namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(PILOT_FIXTURE_DIR) / name;
}

// --- random drawables (codec-level property tests) ---------------------------

struct SplitMix64 {
  std::uint64_t x;
  explicit SplitMix64(std::uint64_t seed) : x(seed) {}
  std::uint64_t next() {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Mostly near-sorted small times (the real workload), salted with the
/// doubles a lossy codec would mangle: NaN, infinities, signed zero,
/// denormals, and full-range bit patterns.
double random_time(SplitMix64& rng, double* clock) {
  switch (rng.below(16)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4: return std::numeric_limits<double>::denorm_min();
    case 5: {
      const std::uint64_t bits = rng.next();
      double v;
      std::memcpy(&v, &bits, sizeof v);
      return v;
    }
    default:
      *clock += static_cast<double>(rng.below(1000)) * 1e-6;
      return *clock;
  }
}

std::string random_text(SplitMix64& rng) {
  if (rng.below(4) != 0) return "";  // the common case: no popup text
  std::string s;
  const std::uint64_t n = rng.below(24);
  for (std::uint64_t i = 0; i < n; ++i)
    s.push_back(static_cast<char>('a' + rng.below(26)));
  return s;
}

struct DrawableSet {
  std::vector<slog2::StateDrawable> states;
  std::vector<slog2::EventDrawable> events;
  std::vector<slog2::ArrowDrawable> arrows;
};

DrawableSet random_set(std::uint64_t seed, std::size_t ns, std::size_t ne,
                       std::size_t na) {
  SplitMix64 rng(seed);
  double clock = 0.0;
  DrawableSet d;
  for (std::size_t i = 0; i < ns; ++i) {
    slog2::StateDrawable s;
    s.category_id = static_cast<std::int32_t>(rng.below(64)) - 8;
    s.rank = static_cast<std::int32_t>(rng.below(1 << 20));
    s.depth = static_cast<std::int32_t>(rng.below(24));
    s.start_time = random_time(rng, &clock);
    s.end_time = random_time(rng, &clock);
    s.start_text = random_text(rng);
    s.end_text = random_text(rng);
    d.states.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < ne; ++i) {
    slog2::EventDrawable e;
    e.category_id = static_cast<std::int32_t>(rng.below(64)) - 8;
    e.rank = static_cast<std::int32_t>(rng.below(1 << 20));
    e.time = random_time(rng, &clock);
    e.text = random_text(rng);
    d.events.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < na; ++i) {
    slog2::ArrowDrawable a;
    a.src_rank = static_cast<std::int32_t>(rng.below(1 << 20));
    a.dst_rank = static_cast<std::int32_t>(rng.below(1 << 20));
    a.tag = static_cast<std::int32_t>(rng.below(1 << 16)) - 4;
    a.size = static_cast<std::uint32_t>(rng.next());
    a.start_time = random_time(rng, &clock);
    a.end_time = random_time(rng, &clock);
    d.arrows.push_back(a);
  }
  return d;
}

bool same_bits(double a, double b) {
  std::uint64_t x, y;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

void expect_same(const DrawableSet& a, const DrawableSet& b) {
  ASSERT_EQ(a.states.size(), b.states.size());
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.arrows.size(), b.arrows.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    const auto& x = a.states[i];
    const auto& y = b.states[i];
    EXPECT_EQ(x.category_id, y.category_id) << "state " << i;
    EXPECT_EQ(x.rank, y.rank) << "state " << i;
    EXPECT_EQ(x.depth, y.depth) << "state " << i;
    EXPECT_TRUE(same_bits(x.start_time, y.start_time)) << "state " << i;
    EXPECT_TRUE(same_bits(x.end_time, y.end_time)) << "state " << i;
    EXPECT_EQ(x.start_text, y.start_text) << "state " << i;
    EXPECT_EQ(x.end_text, y.end_text) << "state " << i;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    EXPECT_EQ(x.category_id, y.category_id) << "event " << i;
    EXPECT_EQ(x.rank, y.rank) << "event " << i;
    EXPECT_TRUE(same_bits(x.time, y.time)) << "event " << i;
    EXPECT_EQ(x.text, y.text) << "event " << i;
  }
  for (std::size_t i = 0; i < a.arrows.size(); ++i) {
    const auto& x = a.arrows[i];
    const auto& y = b.arrows[i];
    EXPECT_EQ(x.src_rank, y.src_rank) << "arrow " << i;
    EXPECT_EQ(x.dst_rank, y.dst_rank) << "arrow " << i;
    EXPECT_EQ(x.tag, y.tag) << "arrow " << i;
    EXPECT_EQ(x.size, y.size) << "arrow " << i;
    EXPECT_TRUE(same_bits(x.start_time, y.start_time)) << "arrow " << i;
    EXPECT_TRUE(same_bits(x.end_time, y.end_time)) << "arrow " << i;
  }
}

TEST(V2Codec, RandomSetsRoundTripBitExactly) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SplitMix64 shape(seed * 1000003);
    const DrawableSet in = random_set(seed, shape.below(200), shape.below(120),
                                      shape.below(120));
    util::ByteWriter w;
    slog2::detail::encode_drawables_v2(w, in.states, in.events, in.arrows);
    const std::vector<std::uint8_t> bytes = w.bytes();

    DrawableSet out;
    util::ByteReader r(bytes);
    slog2::detail::decode_drawables_v2(r, &out.states, &out.events,
                                       &out.arrows);
    EXPECT_TRUE(r.at_end()) << "decoder did not consume the whole payload";
    expect_same(in, out);

    // Re-encoding the decode is byte-identical (canonical varints).
    util::ByteWriter w2;
    slog2::detail::encode_drawables_v2(w2, out.states, out.events, out.arrows);
    EXPECT_EQ(w2.bytes(), bytes);
  }
}

TEST(V2Codec, EmptyPayloadIsThreeBytes) {
  util::ByteWriter w;
  slog2::detail::encode_drawables_v2(w, {}, {}, {});
  EXPECT_EQ(w.bytes().size(), 3u);  // three zero counts
  DrawableSet out;
  util::ByteReader r(w.bytes());
  slog2::detail::decode_drawables_v2(r, &out.states, &out.events, &out.arrows);
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(out.states.empty());
  EXPECT_TRUE(out.events.empty());
  EXPECT_TRUE(out.arrows.empty());
}

// --- differential: v1 is the ground-truth oracle -----------------------------

/// Sum of the on-disk payload bytes each encoding produces for the same
/// frame tree (the honest compression metric: headers, category tables and
/// directories are identical between the two files).
std::size_t v1_payload_bytes(const slog2::File& f) {
  std::size_t total = 0;
  for (const slog2::Frame& fr : f.frames) total += fr.payload_bytes();
  return total;
}

std::size_t v2_payload_bytes(const slog2::File& f) {
  std::size_t total = 0;
  for (const slog2::Frame& fr : f.frames) {
    util::ByteWriter w;
    slog2::detail::encode_drawables_v2(w, fr.states, fr.events, fr.arrows);
    total += w.bytes().size();
  }
  return total;
}

void expect_rollups_equal(slog2::Navigator& v1, slog2::Navigator& v2,
                          const std::string& label) {
  query::LegendSweep sweep1, sweep2;
  query::WindowOccupancy occ1(v1.nranks(), v1.t_min(), v1.t_max());
  query::WindowOccupancy occ2(v2.nranks(), v2.t_min(), v2.t_max());
  const double lo = -std::numeric_limits<double>::infinity();
  const double hi = std::numeric_limits<double>::infinity();
  v1.visit_window(
      lo, hi, [&](const slog2::StateDrawable& s) { sweep1.add_state(s); occ1.add_state(s); },
      [&](const slog2::EventDrawable& e) { sweep1.add_event(e); occ1.add_event(e); },
      [&](const slog2::ArrowDrawable& a) { sweep1.add_arrow(a); occ1.add_arrow(a); });
  v2.visit_window(
      lo, hi, [&](const slog2::StateDrawable& s) { sweep2.add_state(s); occ2.add_state(s); },
      [&](const slog2::EventDrawable& e) { sweep2.add_event(e); occ2.add_event(e); },
      [&](const slog2::ArrowDrawable& a) { sweep2.add_arrow(a); occ2.add_arrow(a); });

  const auto t1 = sweep1.totals();
  const auto t2 = sweep2.totals();
  ASSERT_EQ(t1.size(), t2.size()) << label;
  for (const auto& [cat, tot] : t1) {
    ASSERT_TRUE(t2.count(cat)) << label << ": category " << cat;
    const auto& o = t2.at(cat);
    EXPECT_EQ(tot.count, o.count) << label << ": category " << cat;
    EXPECT_TRUE(same_bits(tot.inclusive, o.inclusive))
        << label << ": category " << cat;
    EXPECT_TRUE(same_bits(tot.exclusive, o.exclusive))
        << label << ": category " << cat;
  }
  const auto& r1 = occ1.ranks();
  const auto& r2 = occ2.ranks();
  ASSERT_EQ(r1.size(), r2.size()) << label;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].state_count, r2[i].state_count) << label << " rank " << i;
    EXPECT_EQ(r1[i].event_count, r2[i].event_count) << label << " rank " << i;
    EXPECT_EQ(r1[i].arrows_out, r2[i].arrows_out) << label << " rank " << i;
    EXPECT_EQ(r1[i].arrows_in, r2[i].arrows_in) << label << " rank " << i;
    ASSERT_EQ(r1[i].state_time.size(), r2[i].state_time.size())
        << label << " rank " << i;
    for (const auto& [cat, t] : r1[i].state_time)
      EXPECT_TRUE(same_bits(t, r2[i].state_time.at(cat)))
          << label << " rank " << i << " cat " << cat;
  }
}

void expect_v2_matches_v1(const clog2::File& clog, std::uint64_t frame_size,
                          const std::string& label) {
  slog2::ConvertOptions v1o, v2o;
  v1o.frame_size = v2o.frame_size = frame_size;
  v2o.encoding = slog2::FrameEncoding::kV2;
  std::vector<std::string> w1, w2;
  const slog2::File f1 = slog2::convert(clog, v1o, &w1);
  const slog2::File f2 = slog2::convert(clog, v2o, &w2);
  EXPECT_EQ(w1, w2) << label;

  const std::vector<std::uint8_t> b1 = slog2::serialize(f1);
  const std::vector<std::uint8_t> b2 = slog2::serialize(f2);
  ASSERT_NE(b1, b2) << label << ": v2 must actually change the bytes";

  // Round trip through parse(): encodings survive, drawables identical.
  const slog2::File p1 = slog2::parse(b1);
  const slog2::File p2 = slog2::parse(b2);
  EXPECT_EQ(p1.encoding, slog2::FrameEncoding::kV1) << label;
  EXPECT_EQ(p2.encoding, slog2::FrameEncoding::kV2) << label;
  // Re-serializing each parse is byte-identical (both codecs canonical).
  EXPECT_EQ(slog2::serialize(p1), b1) << label;
  EXPECT_EQ(slog2::serialize(p2), b2) << label;

  // The structural dump does not depend on the payload encoding.
  EXPECT_EQ(slog2::to_text(p1, true), slog2::to_text(p2, true)) << label;

  // Neither do the renderer or the rollups, driven through the lazy
  // Navigator (which exercises the per-frame decode path).
  slog2::Navigator n1(b1), n2(b2);
  EXPECT_EQ(n1.encoding(), slog2::FrameEncoding::kV1);
  EXPECT_EQ(n2.encoding(), slog2::FrameEncoding::kV2);
  EXPECT_EQ(jumpshot::render_svg(n1), jumpshot::render_svg(n2)) << label;
  expect_rollups_equal(n1, n2, label);
}

TEST(V2Differential, FixturesAcrossFrameSizes) {
  for (const char* name :
       {"tiny.clog2", "messy.clog2", "diffpair.a.clog2", "diffpair.b.clog2"}) {
    const clog2::File clog = clog2::read_file(fixture(name));
    for (const std::uint64_t fs : {std::uint64_t{256}, std::uint64_t{4096},
                                   std::uint64_t{64} * 1024}) {
      SCOPED_TRACE(std::string(name) + " framesize " + std::to_string(fs));
      expect_v2_matches_v1(clog, fs, name);
    }
  }
}

TEST(V2Differential, TracegenAcrossFrameSizes) {
  tracegen::Options o;
  o.events = 20000;
  o.nranks = 8;
  o.seed = 42;
  const clog2::File clog = tracegen::generate(o);
  for (const std::uint64_t fs :
       {std::uint64_t{2048}, std::uint64_t{64} * 1024}) {
    SCOPED_TRACE("framesize " + std::to_string(fs));
    expect_v2_matches_v1(clog, fs, "tracegen");
  }
}

TEST(V2Differential, GoldenV2FixtureMatchesV1Fixture) {
  // The checked-in v2 golden must be exactly what converting the checked-in
  // CLOG-2 with v2 produces, and must dump identically to the v1 golden.
  const clog2::File clog = clog2::read_file(fixture("tiny.clog2"));
  slog2::ConvertOptions co;
  co.encoding = slog2::FrameEncoding::kV2;
  EXPECT_EQ(util::read_file(fixture("tiny.v2.slog2")),
            slog2::serialize(slog2::convert(clog, co)));
  const slog2::File v1 = slog2::read_file(fixture("tiny.slog2"));
  const slog2::File v2 = slog2::read_file(fixture("tiny.v2.slog2"));
  EXPECT_EQ(slog2::to_text(v1, true), slog2::to_text(v2, true));
}

TEST(V2Differential, ReadOptionsEnforceEncoding) {
  slog2::ReadOptions want_v1, want_v2;
  want_v1.require_encoding = slog2::FrameEncoding::kV1;
  want_v2.require_encoding = slog2::FrameEncoding::kV2;
  const auto v1b = util::read_file(fixture("tiny.slog2"));
  const auto v2b = util::read_file(fixture("tiny.v2.slog2"));
  EXPECT_NO_THROW(slog2::parse(v1b, want_v1));
  EXPECT_NO_THROW(slog2::parse(v2b, want_v2));
  try {
    slog2::parse(v2b, want_v1);
    FAIL() << "forced-v1 reader accepted a v2 file";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("frame-encoding mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(slog2::parse(v1b, want_v2), util::Error);
}

TEST(V2Differential, UnknownVersionAndEncodingFailLoudly) {
  auto bytes = util::read_file(fixture("tiny.v2.slog2"));
  // Bytes 8..11 are the little-endian version (4 for v2 files).
  ASSERT_GE(bytes.size(), 13u);
  EXPECT_EQ(bytes[8], 4u);
  auto future = bytes;
  future[8] = 9;  // version 9: from a future we do not speak for
  try {
    slog2::parse(future);
    FAIL() << "unknown version accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
  auto alien = bytes;
  alien[12] = 7;  // version-4 header carrying an encoding byte we never wrote
  try {
    slog2::parse(alien);
    FAIL() << "unknown frame encoding accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown frame encoding"),
              std::string::npos)
        << e.what();
  }
}

TEST(V2Differential, ParseFrameEncodingNames) {
  EXPECT_EQ(slog2::parse_frame_encoding("v1"), slog2::FrameEncoding::kV1);
  EXPECT_EQ(slog2::parse_frame_encoding("v2"), slog2::FrameEncoding::kV2);
  EXPECT_STREQ(slog2::to_string(slog2::FrameEncoding::kV1), "v1");
  EXPECT_STREQ(slog2::to_string(slog2::FrameEncoding::kV2), "v2");
  EXPECT_THROW(slog2::parse_frame_encoding("v3"), util::Error);
  EXPECT_THROW(slog2::parse_frame_encoding(""), util::Error);
}

// --- online path -------------------------------------------------------------

/// Same chunked drive as traced_test's helper: StreamReader + OnlineConverter.
slog2::File online_convert(const std::vector<std::uint8_t>& bytes,
                           std::size_t chunk, const traced::OnlineOptions& oo,
                           std::vector<std::string>* warnings = nullptr,
                           traced::OnlineUsage* usage_out = nullptr) {
  clog2::StreamReader reader;
  traced::OnlineConverter conv(oo);
  bool begun = false;
  clog2::Record rec;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    reader.feed(bytes.data() + off, n);
    for (;;) {
      const auto st = reader.next(&rec);
      if (reader.header_done() && !begun) {
        conv.begin(reader.nranks());
        begun = true;
      }
      if (st != clog2::StreamReader::Status::kRecord) break;
      conv.push(rec);
    }
  }
  EXPECT_TRUE(reader.finished());
  if (usage_out != nullptr) *usage_out = conv.usage();
  return conv.finalize(warnings);
}

TEST(V2Online, FinalizeMatchesOfflineAcrossSealSizes) {
  tracegen::Options o;
  o.events = 20000;
  o.nranks = 8;
  o.seed = 5;
  const std::vector<std::uint8_t> bytes =
      clog2::serialize(tracegen::generate(o));
  const clog2::File parsed = clog2::parse(bytes);

  traced::OnlineOptions oo;
  oo.convert.encoding = slog2::FrameEncoding::kV2;
  oo.convert.threads = 2;
  // tracegen streams span milliseconds; shrink the reorder window so the
  // admit/seal steady state actually runs (see the zero-seal hint test).
  oo.max_disorder = 1e-6;

  std::vector<std::string> offline_warnings;
  const slog2::File offline =
      slog2::convert(parsed, oo.convert, &offline_warnings);
  ASSERT_EQ(offline.encoding, slog2::FrameEncoding::kV2);
  const std::vector<std::uint8_t> offline_bytes = slog2::serialize(offline);

  bool sealed_somewhere = false;
  for (const std::uint64_t seal :
       {std::uint64_t{1024}, std::uint64_t{64} * 1024,
        std::uint64_t{1} << 30}) {
    SCOPED_TRACE("seal " + std::to_string(seal));
    traced::OnlineOptions run = oo;
    run.seal_bytes = seal;
    std::vector<std::string> warnings;
    traced::OnlineUsage usage;
    const slog2::File online =
        online_convert(bytes, 4096, run, &warnings, &usage);
    if (usage.sealed_chunks > 0) sealed_somewhere = true;
    EXPECT_EQ(slog2::serialize(online), offline_bytes);
    EXPECT_EQ(warnings, offline_warnings);
  }
  EXPECT_TRUE(sealed_somewhere)
      << "no seal size exercised the sealed-chunk path";
}

// --- scale (heavy; keep 'V2Scale' out of the sanitizer ctest regexes) --------

TEST(V2Scale, MillionEventDifferentialAndCompressionRatio) {
  tracegen::Options o;
  o.events = 1000000;
  o.nranks = 16;
  o.seed = 9;
  const clog2::File clog = tracegen::generate(o);

  slog2::ConvertOptions v1o, v2o;
  v1o.threads = v2o.threads = 0;
  v2o.encoding = slog2::FrameEncoding::kV2;
  const slog2::File f1 = slog2::convert(clog, v1o);
  const slog2::File f2 = slog2::convert(clog, v2o);

  // Same frame tree, same structural dump.
  EXPECT_EQ(slog2::to_text(f1), slog2::to_text(f2));

  const std::vector<std::uint8_t> b1 = slog2::serialize(f1);
  const std::vector<std::uint8_t> b2 = slog2::serialize(f2);

  // Acceptance floor: v2 frame payloads at least 3x smaller than v1's on
  // the million-event benchmark.
  const std::size_t p1 = v1_payload_bytes(f1);
  const std::size_t p2 = v2_payload_bytes(f2);
  ASSERT_GT(p2, 0u);
  EXPECT_GE(static_cast<double>(p1) / static_cast<double>(p2), 3.0)
      << "v1 payload " << p1 << " bytes, v2 payload " << p2 << " bytes";
  EXPECT_LT(b2.size(), b1.size());

  // Full-file semantic identity through the Navigator.
  slog2::Navigator n1(b1), n2(b2);
  expect_rollups_equal(n1, n2, "million-event");
}

}  // namespace
