#include "jumpshot/render.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "jumpshot/search.hpp"
#include "tracegen/tracegen.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace {

clog2::File demo_trace() {
  clog2::File f;
  f.nranks = 3;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "PI_Read", "red", "Line: %d"});
  f.records.emplace_back(clog2::StateDef{2, 20, 21, "PI_Write", "green", ""});
  f.records.emplace_back(clog2::EventDef{30, "MsgArrive", "yellow", ""});
  f.records.emplace_back(clog2::EventRec{0.10, 1, 10, "Line: 12"});
  f.records.emplace_back(clog2::EventRec{0.15, 1, 30, "Channel: C1"});
  f.records.emplace_back(clog2::EventRec{0.20, 1, 11, ""});
  f.records.emplace_back(clog2::EventRec{0.05, 0, 20, ""});
  f.records.emplace_back(clog2::EventRec{0.12, 0, 21, ""});
  clog2::MsgRec send;
  send.timestamp = 0.06;
  send.rank = 0;
  send.kind = clog2::MsgRec::Kind::kSend;
  send.partner = 1;
  send.tag = 3;
  send.size = 40;
  f.records.emplace_back(send);
  clog2::MsgRec recv = send;
  recv.timestamp = 0.15;
  recv.rank = 1;
  recv.kind = clog2::MsgRec::Kind::kRecv;
  recv.partner = 0;
  f.records.emplace_back(recv);
  return f;
}

TEST(Render, ProducesWellFormedSvgWithAllObjectKinds) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::RenderOptions opts;
  opts.title = "demo";
  const std::string svg = jumpshot::render_svg(file, opts);

  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);    // state rectangles
  EXPECT_NE(svg.find("<circle"), std::string::npos);  // event bubbles
  EXPECT_NE(svg.find("marker-end"), std::string::npos);  // message arrow
  // Category colours appear (red and green themes).
  EXPECT_NE(svg.find("#ff0000"), std::string::npos);
  EXPECT_NE(svg.find("#00ff00"), std::string::npos);
  // Popup (tooltip) contents.
  EXPECT_NE(svg.find("Line: 12"), std::string::npos);
  EXPECT_NE(svg.find("PI_Read"), std::string::npos);
  // Legend present.
  EXPECT_NE(svg.find("legend:"), std::string::npos);
}

TEST(Render, RankNamesUsedWhenProvided) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::RenderOptions opts;
  opts.rank_names = {"PI_MAIN", "worker", "C"};
  const std::string svg = jumpshot::render_svg(file, opts);
  EXPECT_NE(svg.find("PI_MAIN"), std::string::npos);
  EXPECT_NE(svg.find("worker"), std::string::npos);
}

TEST(Render, ZoomWindowCullsOutside) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::RenderOptions opts;
  opts.t0 = 0.0;
  opts.t1 = 0.04;  // before everything
  opts.draw_legend = false;
  const std::string svg = jumpshot::render_svg(file, opts);
  EXPECT_EQ(svg.find("PI_Read  rank"), std::string::npos);
  EXPECT_EQ(svg.find("<circle"), std::string::npos);
}

TEST(Render, PreviewStripingKicksInForDenseRows) {
  // Build a dense single-rank trace exceeding the preview threshold.
  clog2::File f;
  f.nranks = 1;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "Busy", "gray", ""});
  for (int i = 0; i < 2000; ++i) {
    f.records.emplace_back(clog2::EventRec{i * 0.001, 0, 10, ""});
    f.records.emplace_back(clog2::EventRec{i * 0.001 + 0.0005, 0, 11, ""});
  }
  const auto file = slog2::convert(f);
  jumpshot::RenderOptions opts;
  opts.preview_threshold = 100;
  opts.draw_legend = false;
  const std::string striped = jumpshot::render_svg(file, opts);
  // Preview mode: no per-state tooltips, but an outline rect and stripes.
  EXPECT_EQ(striped.find("Busy  rank"), std::string::npos);
  EXPECT_NE(striped.find("fill='none'"), std::string::npos);

  opts.preview_threshold = 100000;
  const std::string full = jumpshot::render_svg(file, opts);
  EXPECT_NE(full.find("Busy  rank"), std::string::npos);
}

TEST(Render, EmptyFileStillRenders) {
  clog2::File f;
  f.nranks = 0;
  const auto file = slog2::convert(f);
  const std::string svg = jumpshot::render_svg(file);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Render, WritesFile) {
  util::TempDir dir;
  const auto file = slog2::convert(demo_trace());
  jumpshot::render_to_file(dir.file("out.svg"), file);
  const auto text = util::read_text_file(dir.file("out.svg"));
  EXPECT_NE(text.find("<svg"), std::string::npos);
}

TEST(Render, XmlSpecialCharsEscapedInTooltips) {
  clog2::File f;
  f.nranks = 1;
  f.records.emplace_back(clog2::EventDef{30, "Odd<&>", "yellow", ""});
  f.records.emplace_back(clog2::EventRec{1.0, 0, 30, "a<b & c>\"d\""});
  const auto file = slog2::convert(f);
  const std::string svg = jumpshot::render_svg(file);
  EXPECT_EQ(svg.find("a<b"), std::string::npos);
  EXPECT_NE(svg.find("a&lt;b"), std::string::npos);
}

// --- windowed rendering through the Navigator --------------------------------

clog2::File dense_trace(int n) {
  util::SplitMix64 rng(17);
  clog2::File f;
  f.nranks = 4;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "Work", "gray", ""});
  struct Timed {
    double t;
    clog2::Record rec;
  };
  std::vector<Timed> timed;
  for (int i = 0; i < n; ++i) {
    const int rank = static_cast<int>(rng.below(4));
    const double s = rng.uniform(0, 10);
    const double e = s + rng.uniform(1e-4, 1e-2);
    timed.push_back({s, clog2::EventRec{s, rank, 10, ""}});
    timed.push_back({e, clog2::EventRec{e, rank, 11, ""}});
  }
  std::sort(timed.begin(), timed.end(),
            [](const Timed& a, const Timed& b) { return a.t < b.t; });
  for (auto& t : timed) f.records.emplace_back(std::move(t.rec));
  return f;
}

TEST(RenderWindowed, NavigatorDecodesOnlyWindowFrames) {
  util::TempDir dir;
  slog2::ConvertOptions copts;
  copts.frame_size = 2048;  // many frames, so a window is a strict subset
  slog2::write_file(dir.file("t.slog2"), slog2::convert(dense_trace(4000), copts));

  slog2::Navigator nav(dir.file("t.slog2"));
  jumpshot::RenderOptions opts;
  opts.t0 = 4.9;
  opts.t1 = 5.1;
  const std::string svg = jumpshot::render_svg(nav, opts);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_EQ(svg.find("preview-lod"), std::string::npos);
  EXPECT_GT(nav.frames_decoded(), 0u);
  EXPECT_LT(nav.frames_decoded(), nav.total_frames());
}

TEST(RenderWindowed, PreviewLodUnderBudgetDecodesNothing) {
  util::TempDir dir;
  slog2::ConvertOptions copts;
  copts.frame_size = 2048;
  slog2::write_file(dir.file("t.slog2"), slog2::convert(dense_trace(4000), copts));

  slog2::Navigator nav(dir.file("t.slog2"));
  jumpshot::RenderOptions opts;
  opts.lod_payload_budget = 1;  // every window exceeds this
  const std::string svg = jumpshot::render_svg(nav, opts);
  EXPECT_NE(svg.find("preview-lod"), std::string::npos);
  EXPECT_NE(svg.find("outline form"), std::string::npos);
  EXPECT_EQ(nav.frames_decoded(), 0u);
}

TEST(RenderWindowed, MatchesWholeFileDrawing) {
  // Without the legend (whose style differs), the Navigator path draws the
  // whole-file picture byte for byte.
  util::TempDir dir;
  const auto file = slog2::convert(demo_trace());
  slog2::write_file(dir.file("t.slog2"), file);
  slog2::Navigator nav(dir.file("t.slog2"));

  jumpshot::RenderOptions opts;
  opts.draw_legend = false;
  EXPECT_EQ(jumpshot::render_svg(file, opts), jumpshot::render_svg(nav, opts));
}

TEST(RenderWindowed, PictureIndependentOfFrameLayout) {
  // One trace converted at three frame sizes, both payload encodings and
  // two thread counts: every reader hands the drawables out in a different
  // order, and the picture must not show it.
  tracegen::Options g;
  g.seed = 5;
  g.nranks = 6;
  g.events = 20000;
  const clog2::File trace = tracegen::generate(g);
  const slog2::File ref = slog2::convert(trace);
  const double span = ref.t_max - ref.t_min;
  std::vector<jumpshot::RenderOptions> windows(3);
  windows[1].t0 = ref.t_min + 0.3 * span;
  windows[1].t1 = windows[1].t0 + span / 64;
  windows[2].t0 = ref.t_min + 0.7 * span;
  windows[2].t1 = windows[2].t0 + span / 8;
  std::vector<std::string> expected;
  for (auto& w : windows) {
    w.draw_legend = false;
    expected.push_back(jumpshot::render_svg(ref, w));
  }
  EXPECT_NE(expected[0].find("fill='none'"), std::string::npos)
      << "the whole view should include outline-form rows";

  for (const std::uint64_t frame_size : {64U * 1024, 16U * 1024, 4U * 1024})
    for (const auto enc : {slog2::FrameEncoding::kV1, slog2::FrameEncoding::kV2})
      for (const int threads : {1, 4}) {
        slog2::ConvertOptions copts;
        copts.frame_size = frame_size;
        copts.encoding = enc;
        copts.threads = threads;
        const slog2::File file = slog2::convert(trace, copts);
        slog2::Navigator nav(slog2::serialize(file));
        for (std::size_t i = 0; i < windows.size(); ++i) {
          auto w = windows[i];
          w.threads = threads;
          const std::string where = util::strprintf(
              "frame_size %llu, %s, threads %d, window %zu",
              static_cast<unsigned long long>(frame_size), slog2::to_string(enc),
              threads, i);
          EXPECT_EQ(jumpshot::render_svg(file, w), expected[i]) << where << " (File)";
          EXPECT_EQ(jumpshot::render_svg(nav, w), expected[i])
              << where << " (Navigator)";
        }
      }
}

TEST(RenderWindowed, PictureIndependentOfDrawableOrderWithNanAndSignedZero) {
  // Hostile times: NaN of both signs, -0.0 and +0.0 side by side. The same
  // drawables pushed in two orders must draw the same bytes.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto build = [&](bool reversed) {
    slog2::File f;
    f.nranks = 2;
    f.t_min = -1.0;
    f.t_max = 2.0;
    f.categories = {
        {slog2::kArrowCategoryId, slog2::CategoryKind::kArrow, "message", "white", ""},
        {1, slog2::CategoryKind::kState, "Work", "red", ""},
        {2, slog2::CategoryKind::kState, "Wait", "blue", ""},
        {3, slog2::CategoryKind::kEvent, "Tick", "yellow", ""},
    };
    f.frames.emplace_back();
    f.frames[0].t0 = -1.0;
    f.frames[0].t1 = 2.0;
    f.frames[0].states = {
        {1, 0, -0.0, 1.0, 0, "", ""},  {1, 0, 0.0, 1.0, 0, "", ""},
        {2, 0, -0.0, 1.0, 0, "", ""},  {1, 0, 0.0, 1.0, 0, "b", ""},
        {1, 0, 0.0, 1.0, 0, "a", ""},  {1, 1, nan, 1.5, 0, "", ""},
        {1, 1, -nan, 1.5, 0, "", ""},  {2, 1, 0.5, nan, 0, "", ""},
        {1, 1, 0.25, 0.75, 1, "", ""}, {2, 1, 0.25, 0.75, 1, "", ""},
    };
    f.frames[0].events = {
        {3, 0, 0.0, ""},  {3, 0, -0.0, ""}, {3, 0, 0.0, "x"},
        {3, 1, nan, ""},  {3, 1, -nan, ""}, {3, 1, 1.0, ""},
    };
    f.frames[0].arrows = {
        {0, 1, 0.0, 1.0, 1, 8},  {0, 1, -0.0, 1.0, 1, 8}, {1, 0, 0.0, 1.0, 1, 8},
        {0, 1, 0.0, 1.0, 2, 8},  {0, 1, 0.0, 1.0, 1, 16}, {0, 1, nan, 1.0, 1, 8},
        {0, 1, -nan, 1.0, 1, 8}, {0, 1, 0.5, -0.0, 1, 8},
    };
    if (reversed) {
      std::reverse(f.frames[0].states.begin(), f.frames[0].states.end());
      std::reverse(f.frames[0].events.begin(), f.frames[0].events.end());
      std::reverse(f.frames[0].arrows.begin(), f.frames[0].arrows.end());
    }
    return f;
  };
  const slog2::File forward = build(false);
  const slog2::File backward = build(true);
  jumpshot::RenderOptions opts;
  opts.draw_legend = false;
  const std::string svg = jumpshot::render_svg(forward, opts);
  EXPECT_EQ(jumpshot::render_svg(backward, opts), svg);
  slog2::Navigator fwd_nav(slog2::serialize(forward));
  slog2::Navigator back_nav(slog2::serialize(backward));
  EXPECT_EQ(jumpshot::render_svg(fwd_nav, opts), svg);
  EXPECT_EQ(jumpshot::render_svg(back_nav, opts), svg);
}

// --- pinned output -----------------------------------------------------------
//
// The renderer's bytes are part of its contract (figures are regenerated and
// diffed), so every emitter path is pinned: two checked-in goldens written by
// pilot-genfixtures, and FNV-1a hashes of renders of a seeded tracegen trace
// and of a hand-built file full of XML specials and lookup misses.

std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return util::strprintf("%016llx", static_cast<unsigned long long>(h));
}

std::filesystem::path fixture(const char* name) {
  return std::filesystem::path(PILOT_FIXTURE_DIR) / name;
}

TEST(RenderGolden, TinyFixturesByteForByte) {
  jumpshot::RenderOptions opts;
  opts.title = "tiny <golden> & co";
  EXPECT_EQ(jumpshot::render_svg(slog2::read_file(fixture("tiny.slog2")), opts),
            util::read_text_file(fixture("tiny.svg")));
  slog2::Navigator nav(fixture("tiny.slog2"));
  opts.t0 = 0.011;
  opts.t1 = 0.031;
  EXPECT_EQ(jumpshot::render_svg(nav, opts),
            util::read_text_file(fixture("tiny.window.svg")));
}

TEST(RenderGolden, TracegenRendersPinned) {
  tracegen::Options g;
  g.seed = 7;
  g.nranks = 8;
  g.events = 20000;
  const slog2::File file = slog2::convert(tracegen::generate(g));
  slog2::Navigator nav(slog2::serialize(file));
  const double span = file.t_max - file.t_min;
  const auto window = [&](double at, double frac) {
    jumpshot::RenderOptions o;
    o.t0 = file.t_min + at * span;
    o.t1 = o.t0 + frac * span;
    return o;
  };

  jumpshot::RenderOptions full;
  full.title = "tracegen <seed 7>";
  const std::string full_file = jumpshot::render_svg(file, full);
  // Every rank holds well over preview_threshold states: outline form.
  EXPECT_NE(full_file.find("fill='none'"), std::string::npos);
  EXPECT_EQ(full_file.find("  rank 0  ["), std::string::npos);
  EXPECT_EQ(fnv1a(full_file), "58639a95d8a2d6a1") << "full view (File)";
  EXPECT_EQ(fnv1a(jumpshot::render_svg(nav, full)), "98113cb1b6afbf88")
      << "full view (Navigator)";

  const jumpshot::RenderOptions windows[] = {window(0.1, 1.0 / 128),
                                             window(0.5, 1.0 / 32),
                                             window(0.9, 1.0 / 16)};
  const char* const file_hashes[] = {"d5dd9e07340c51dc", "339d2a54bda3cbeb",
                                     "b087236ccd09e4da"};
  const char* const nav_hashes[] = {"799baf9ca06635ab", "f4e333d430d015f6",
                                    "f4b1428ff67a7f1d"};
  for (int i = 0; i < 3; ++i) {
    const std::string svg = jumpshot::render_svg(file, windows[i]);
    EXPECT_NE(svg.find("  rank 0  ["), std::string::npos) << "window " << i;
    EXPECT_EQ(fnv1a(svg), file_hashes[i]) << "window " << i << " (File)";
    auto threaded = windows[i];
    for (const int threads : {1, 4}) {
      threaded.threads = threads;
      EXPECT_EQ(fnv1a(jumpshot::render_svg(nav, threaded)), nav_hashes[i])
          << "window " << i << " (Navigator, threads=" << threads << ")";
    }
  }

  auto dense = window(0.25, 0.5);
  dense.preview_threshold = 50;
  EXPECT_EQ(fnv1a(jumpshot::render_svg(nav, dense)), "b1bf924c6c76760b")
      << "dense rows over preview_threshold";

  auto lod = window(0.2, 0.6);
  lod.lod_payload_budget = 1;
  const std::string lod_svg = jumpshot::render_svg(nav, lod);
  EXPECT_NE(lod_svg.find("preview-lod"), std::string::npos);
  EXPECT_EQ(fnv1a(lod_svg), "05651b74a6995391") << "preview LOD";

  auto named = window(0.3, 1.0 / 64);
  named.rank_names = {"PI_MAIN", "w<1>", "w&2", "'w3'", "\"w4\""};
  EXPECT_EQ(fnv1a(jumpshot::render_svg(file, named)), "3e6978cce7de312d")
      << "rank_names";

  jumpshot::StatsRenderOptions stats;
  stats.t0 = windows[1].t0;
  stats.t1 = windows[1].t1;
  EXPECT_EQ(fnv1a(jumpshot::render_stats_svg(file, stats)), "1de4377338831d6d")
      << "statistics picture";
}

// Hand-built: XML specials in every text the renderer prints, a category id
// with no definition, a colour name outside the palette, a duplicated
// category id (the first definition wins), mixed-case colour names, out-of-
// range ranks, and durations in each of the s / ms / us / ns units.
slog2::File hostile_file() {
  using slog2::CategoryKind;
  slog2::File f;
  f.nranks = 2;
  f.t_min = 0.0;
  f.t_max = 2.0;
  f.categories = {
      {slog2::kArrowCategoryId, CategoryKind::kArrow, "message", "white", ""},
      {1, CategoryKind::kState, "Read<&>'\"", "Red", ""},
      {2, CategoryKind::kState, "Odd colour", "chartreuse", ""},
      {2, CategoryKind::kState, "Shadowed", "blue", ""},
      {3, CategoryKind::kEvent, "Bubble \"q\"", "YELLOW", ""},
      {4, CategoryKind::kState, "Unused & idle", "ForestGreen", ""},
  };
  f.frames.emplace_back();
  f.frames[0].t0 = 0.0;
  f.frames[0].t1 = 2.0;
  f.frames[0].states = {
      {1, 0, 0.5, 1.75, 0, "a<b", "c&d'\""},
      {1, 0, 1.0, 1.000000012, 1, "", "nested"},
      {2, 1, 0.1, 0.1025, 0, "ms <dur>", ""},
      {99, 1, 0.2, 0.2000456, 0, "", ""},
      {1, 7, 0.3, 0.4, 0, "", ""},
  };
  f.frames[0].events = {
      {3, 0, 0.3, "x>y & 'z'"},
      {42, 1, 1.5, ""},
      {3, 5, 1.6, "off-row"},
  };
  f.frames[0].arrows = {
      {0, 1, 0.4, 0.4003, 7, 64},
      {1, 0, 1.2, 1.9, -1, 4000000000U},
      {0, 5, 0.5, 0.6, 1, 8},
  };
  return f;
}

TEST(RenderGolden, HostileTextsAndLookupMissesPinned) {
  const slog2::File file = hostile_file();
  jumpshot::RenderOptions opts;
  opts.title = "t <&> '\"";
  opts.rank_names = {"r<0>"};
  const std::string svg = jumpshot::render_svg(file, opts);
  EXPECT_NE(svg.find("Read&lt;&amp;&gt;&apos;&quot;"), std::string::npos);
  EXPECT_NE(svg.find("#888888"), std::string::npos);
  EXPECT_NE(svg.find("?  rank 1"), std::string::npos);
  for (const char* unit : {" s ", " ms", " us", " ns"})
    EXPECT_NE(svg.find(unit), std::string::npos) << unit;
  EXPECT_EQ(fnv1a(svg), "9103cd2655d0bff6") << "File render";

  opts.t0 = 0.05;
  opts.t1 = 0.45;
  opts.draw_legend = false;
  EXPECT_EQ(fnv1a(jumpshot::render_svg(file, opts)), "29e8702bb215db93")
      << "window, no legend";

  jumpshot::StatsRenderOptions stats;
  stats.title = "stats <&>";
  stats.rank_names = {"a&b"};
  EXPECT_EQ(fnv1a(jumpshot::render_stats_svg(file, stats)), "d66f60cd5ddaef22")
      << "statistics picture";
}

TEST(RenderGolden, EmbeddedNulEndsATextLikePrintfDid) {
  // Texts reach the SVG as if through printf's %s: an embedded NUL (legal in
  // CLOG-2's length-prefixed strings) ends the text there.
  using namespace std::string_literals;
  const slog2::File clean = hostile_file();
  slog2::File nul = hostile_file();
  for (auto& c : nul.categories) c.name += "\0junk<"s;
  for (auto& st : nul.frames[0].states)
    if (!st.start_text.empty()) st.start_text += "\0&"s;
  nul.frames[0].states[1].end_text += "\0x"s;
  nul.frames[0].events[0].text += "\0'"s;
  jumpshot::RenderOptions opts;
  opts.title = "t <&>";
  opts.rank_names = {"r<0>"};
  jumpshot::RenderOptions nul_opts = opts;
  nul_opts.title += "\0hidden"s;
  nul_opts.rank_names[0] += "\0y"s;
  EXPECT_EQ(jumpshot::render_svg(nul, nul_opts), jumpshot::render_svg(clean, opts));
  jumpshot::StatsRenderOptions stats;
  EXPECT_EQ(jumpshot::render_stats_svg(nul, stats),
            jumpshot::render_stats_svg(clean, stats));
}

// --- search ------------------------------------------------------------------

TEST(Search, FindsByCategoryName) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.needle = "pi_read";
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, jumpshot::SearchHit::Kind::kState);
  EXPECT_EQ(hits[0].rank, 1);
}

TEST(Search, FindsByPopupText) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.needle = "channel: c1";
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, jumpshot::SearchHit::Kind::kEvent);
}

TEST(Search, RankAndWindowFilters) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.rank = 0;
  auto hits = jumpshot::search(file, q);
  for (const auto& h : hits) EXPECT_EQ(h.rank, 0);

  jumpshot::SearchQuery win;
  win.t0 = 0.0;
  win.t1 = 0.04;
  EXPECT_TRUE(jumpshot::search(file, win).empty());
}

TEST(Search, ResultsSortedByTimeAndCapped) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;  // empty needle: everything
  q.max_results = 2;
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_LE(hits[0].start_time, hits[1].start_time);
}

TEST(Search, ArrowsSearchable) {
  const auto file = slog2::convert(demo_trace());
  jumpshot::SearchQuery q;
  q.needle = "message";
  const auto hits = jumpshot::search(file, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, jumpshot::SearchHit::Kind::kArrow);
  EXPECT_NE(hits[0].text.find("tag=3"), std::string::npos);
}

}  // namespace
