// Navigator: partial (lazy) loading from the frame directory — the real
// SLOG-2's defining capability.
#include <gtest/gtest.h>

#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace {

clog2::File random_trace(std::uint64_t seed, int n) {
  util::SplitMix64 rng(seed);
  clog2::File f;
  f.nranks = 4;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "S", "red", ""});
  struct Timed {
    double t;
    clog2::Record rec;
  };
  std::vector<Timed> timed;
  for (int i = 0; i < n; ++i) {
    const int rank = static_cast<int>(rng.below(4));
    const double s = rng.uniform(0, 9);
    const double e = s + rng.uniform(1e-5, 0.5);
    timed.push_back({s, clog2::EventRec{s, rank, 10, "some popup text"}});
    timed.push_back({e, clog2::EventRec{e, rank, 11, ""}});
  }
  std::sort(timed.begin(), timed.end(),
            [](const Timed& a, const Timed& b) { return a.t < b.t; });
  for (auto& t : timed) f.records.emplace_back(std::move(t.rec));
  return f;
}

slog2::File small_frames(int n_states, std::uint64_t seed = 3) {
  slog2::ConvertOptions opts;
  opts.frame_size = 1024;  // many small frames
  return slog2::convert(random_trace(seed, n_states), opts);
}

TEST(Navigator, HeaderMatchesFile) {
  const auto file = small_frames(2000);
  slog2::Navigator nav(slog2::serialize(file));
  EXPECT_EQ(nav.nranks(), file.nranks);
  EXPECT_DOUBLE_EQ(nav.t_min(), file.t_min);
  EXPECT_DOUBLE_EQ(nav.t_max(), file.t_max);
  EXPECT_EQ(nav.categories().size(), file.categories.size());
  EXPECT_EQ(nav.stats().total_states, file.stats.total_states);
  EXPECT_EQ(nav.total_frames(), file.stats.frames);
  ASSERT_NE(nav.category(1), nullptr);
  EXPECT_EQ(nav.category(1)->name, "S");
}

TEST(Navigator, FullWindowMatchesEagerParse) {
  const auto file = small_frames(1500);
  slog2::Navigator nav(slog2::serialize(file));

  auto collect = [](auto&& visit) {
    std::vector<std::tuple<int, double, double>> sig;
    visit([&](const slog2::StateDrawable& s) {
      sig.emplace_back(s.rank, s.start_time, s.end_time);
    });
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  const auto eager = collect([&](auto cb) {
    file.visit_window(file.t_min, file.t_max, cb, nullptr, nullptr);
  });
  const auto lazy = collect([&](auto cb) {
    nav.visit_window(nav.t_min(), nav.t_max(), cb, nullptr, nullptr);
  });
  EXPECT_EQ(eager, lazy);
  EXPECT_EQ(nav.frames_decoded(), nav.total_frames());
}

TEST(Navigator, ZoomedWindowDecodesOnlyAFewFrames) {
  const auto file = small_frames(4000);
  slog2::Navigator nav(slog2::serialize(file));
  ASSERT_GT(nav.total_frames(), 20u);

  const double span = nav.t_max() - nav.t_min();
  const double a = nav.t_min() + span * 0.50;
  const double b = a + span * 0.01;
  std::size_t hits = 0;
  nav.visit_window(a, b, [&](const slog2::StateDrawable&) { ++hits; }, nullptr,
                   nullptr);
  EXPECT_GT(hits, 0u);
  // The whole point: a narrow window touches a small fraction of frames.
  EXPECT_LT(nav.frames_decoded(), nav.total_frames() / 2);
}

TEST(Navigator, DecodedFramesAreCached) {
  const auto file = small_frames(1000);
  slog2::Navigator nav(slog2::serialize(file));
  const double span = nav.t_max() - nav.t_min();
  const double a = nav.t_min() + span * 0.3;
  const double b = a + span * 0.05;

  nav.visit_window(a, b, [](const slog2::StateDrawable&) {}, nullptr, nullptr);
  const std::size_t first = nav.frames_decoded();
  nav.visit_window(a, b, [](const slog2::StateDrawable&) {}, nullptr, nullptr);
  EXPECT_EQ(nav.frames_decoded(), first);  // repeat query decodes nothing new
}

TEST(Navigator, PreviewCoveringNeedsNoLeafDecoding) {
  const auto file = small_frames(4000);
  slog2::Navigator nav(slog2::serialize(file));

  const auto view = nav.preview_covering(nav.t_min(), nav.t_max());
  ASSERT_NE(view.preview, nullptr);
  EXPECT_EQ(view.preview->arrow_count, nav.stats().total_arrows);
  EXPECT_EQ(nav.frames_decoded(), 0u);  // previews come from the directory

  // A narrow window resolves to a deeper (smaller) covering frame.
  const double span = nav.t_max() - nav.t_min();
  const auto deep =
      nav.preview_covering(nav.t_min() + span * 0.2, nav.t_min() + span * 0.21);
  ASSERT_NE(deep.preview, nullptr);
  EXPECT_LT(deep.t1 - deep.t0, span * 0.9);
  EXPECT_EQ(nav.frames_decoded(), 0u);
}

TEST(Navigator, FileConstructor) {
  util::TempDir dir;
  const auto file = small_frames(500);
  slog2::write_file(dir.file("t.slog2"), file);
  slog2::Navigator nav(dir.file("t.slog2"));
  EXPECT_EQ(nav.stats().total_states, file.stats.total_states);
}

/// Byte offset of directory entry 0 in serialize(file): a rootless copy
/// serializes to the same header and node-count field, followed only by the
/// u64 length of its empty blob.
std::size_t first_entry_offset(const slog2::File& file) {
  slog2::File head;
  head.encoding = file.encoding;
  head.categories = file.categories;
  return slog2::serialize(head).size() - 8;
}

void patch_i32(std::vector<std::uint8_t>& bytes, std::size_t at, std::int32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >> (8 * i));
}

std::int32_t read_i32(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  return static_cast<std::int32_t>(v);
}

/// The util::IoError message `fn` throws ("" when it does not throw).
template <typename Fn>
std::string io_error(const Fn& fn) {
  try {
    fn();
  } catch (const util::IoError& e) {
    return e.what();
  }
  return "";
}

// Entry layout: t0, t1 (f64), depth, left, right (i32), offset, length (u64).
constexpr std::size_t kLeftAt = 20;
constexpr std::size_t kRightAt = 24;
constexpr std::size_t kLengthAt = 36;

TEST(Navigator, RejectsCorruptDirectory) {
  util::TempDir dir;
  for (const auto enc : {slog2::FrameEncoding::kV1, slog2::FrameEncoding::kV2}) {
    auto file = small_frames(200);
    file.encoding = enc;
    const auto bytes = slog2::serialize(file);
    const std::size_t left = first_entry_offset(file) + kLeftAt;
    ASSERT_EQ(bytes[left], 1) << "entry 0's left child is entry 1";
    const std::int32_t right_child = read_i32(bytes, first_entry_offset(file) + kRightAt);
    ASSERT_GT(right_child, 1) << "entry 0 has a right child";
    // A self link, an out-of-range link, and the right child linked twice,
    // which leaves entry 1 with no parent.
    for (const std::int32_t link : {0, 1 << 20, right_child}) {
      SCOPED_TRACE("left link " + std::to_string(link));
      auto bad = bytes;
      patch_i32(bad, left, link);
      EXPECT_NE(io_error([&] { slog2::parse(bad); })
                    .find("corrupt frame directory links"),
                std::string::npos);
      EXPECT_NE(io_error([&] { slog2::Navigator nav(bad); })
                    .find("corrupt frame directory links"),
                std::string::npos);
      const auto path = dir.file("bad.slog2");
      util::write_file(path, bad);
      EXPECT_NE(io_error([&] {
                  slog2::stream_text(path, true, [](const std::string&) {});
                }).find("corrupt frame directory links"),
                std::string::npos);
    }
  }
}

TEST(Navigator, RejectsTrailingPayloadBytesOnFirstVisit) {
  for (const auto enc : {slog2::FrameEncoding::kV1, slog2::FrameEncoding::kV2}) {
    auto file = small_frames(200);
    file.encoding = enc;
    auto bytes = slog2::serialize(file);
    // Grow entry 0's extent by one byte into entry 1's payload: the extent
    // stays inside the blob, but the decode leaves that byte over.
    const std::size_t length = first_entry_offset(file) + kLengthAt;
    ++bytes[length];
    ASSERT_NE(bytes[length], 0) << "length low byte wrapped";
    EXPECT_NE(io_error([&] { slog2::parse(bytes); })
                  .find("frame payload has trailing bytes"),
              std::string::npos);
    slog2::Navigator nav(bytes);  // the directory itself is well formed
    EXPECT_NE(io_error([&] {
                nav.visit_window(nav.t_min(), nav.t_max(),
                                 [](const slog2::StateDrawable&) {}, nullptr,
                                 nullptr);
              }).find("frame payload has trailing bytes"),
              std::string::npos);
  }
}

/// Every drawable `visit` feeds, one line each, in feed order.
template <typename Visit>
std::vector<std::string> feed(const Visit& visit) {
  std::vector<std::string> out;
  visit(
      [&](const slog2::StateDrawable& s) {
        out.push_back(util::strprintf("state %d %d %.17g %.17g %d %s %s",
                                      s.category_id, s.rank, s.start_time,
                                      s.end_time, s.depth, s.start_text.c_str(),
                                      s.end_text.c_str()));
      },
      [&](const slog2::EventDrawable& e) {
        out.push_back(util::strprintf("event %d %d %.17g %s", e.category_id, e.rank,
                                      e.time, e.text.c_str()));
      },
      [&](const slog2::ArrowDrawable& a) {
        out.push_back(util::strprintf("arrow %d %d %.17g %.17g %d %u", a.src_rank,
                                      a.dst_rank, a.start_time, a.end_time, a.tag,
                                      a.size));
      });
  return out;
}

// Every reader walks the frame tree the same way, so parse(), the Navigator
// and stream_text feed the same drawables in the same order, not just the
// same multiset.
TEST(Navigator, VisitOrderMatchesParseAndStreamText) {
  util::TempDir dir;
  tracegen::Options g;
  g.seed = 7;
  g.nranks = 6;
  g.events = 20000;
  const clog2::File trace = tracegen::generate(g);
  for (const auto enc : {slog2::FrameEncoding::kV1, slog2::FrameEncoding::kV2}) {
    SCOPED_TRACE(slog2::to_string(enc));
    slog2::ConvertOptions opts;
    opts.frame_size = 4096;
    opts.encoding = enc;
    const auto bytes = slog2::serialize(slog2::convert(trace, opts));
    const slog2::File file = slog2::parse(bytes);
    slog2::Navigator nav(bytes);
    ASSERT_GT(nav.total_frames(), 16u);

    const double t0 = file.t_min;
    const double span = file.t_max - file.t_min;
    const std::pair<double, double> windows[] = {
        {file.t_min, file.t_max},
        {t0 + span * 0.10, t0 + span * 0.20},
        {t0 + span * 0.45, t0 + span * 0.46},
        {t0 + span * 0.80, t0 + span * 0.95},
    };
    for (const auto& [a, b] : windows) {
      SCOPED_TRACE(util::strprintf("window [%.9f, %.9f]", a, b));
      const auto eager = feed([&](const auto& on_s, const auto& on_e, const auto& on_a) {
        file.visit_window(a, b, on_s, on_e, on_a);
      });
      const auto lazy = feed([&](const auto& on_s, const auto& on_e, const auto& on_a) {
        nav.visit_window(a, b, on_s, on_e, on_a);
      });
      EXPECT_FALSE(eager.empty());
      EXPECT_EQ(eager, lazy);
    }

    const auto path = dir.file("t.slog2");
    util::write_file(path, bytes);
    std::string streamed;
    slog2::stream_text(path, true, [&](const std::string& s) { streamed += s; });
    EXPECT_EQ(streamed, slog2::to_text(file, true));
  }
}

TEST(Navigator, EmptyTrace) {
  clog2::File empty;
  empty.nranks = 0;
  const auto file = slog2::convert(empty);
  slog2::Navigator nav(slog2::serialize(file));
  std::size_t hits = 0;
  nav.visit_window(0, 1, [&](const slog2::StateDrawable&) { ++hits; }, nullptr,
                   nullptr);
  EXPECT_EQ(hits, 0u);
}

}  // namespace
