#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "util/prng.hpp"

namespace {

TEST(Strings, SplitBasic) {
  const auto parts = util::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  const auto parts = util::split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(util::trim("  hi \t\n"), "hi");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("   "), "");
  EXPECT_EQ(util::trim("x"), "x");
}

TEST(Strings, Join) {
  EXPECT_EQ(util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(util::join({}, ","), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(util::starts_with("-pisvc=cj", "-pisvc="));
  EXPECT_FALSE(util::starts_with("-pi", "-pisvc="));
  EXPECT_TRUE(util::ends_with("trace.slog2", ".slog2"));
  EXPECT_FALSE(util::ends_with("x", ".slog2"));
}

TEST(Strings, XmlEscape) {
  EXPECT_EQ(util::xml_escape(R"(<a & "b">)"), "&lt;a &amp; &quot;b&quot;&gt;");
  EXPECT_EQ(util::xml_escape("plain"), "plain");
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(util::strprintf("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(util::strprintf("%s", ""), "");
}

TEST(Strings, TruncateBytes) {
  // The MPE popup-text limit the paper mentions is 40 bytes.
  const std::string long_text(100, 'a');
  EXPECT_EQ(util::truncate_bytes(long_text, 40).size(), 40u);
  EXPECT_EQ(util::truncate_bytes("short", 40), "short");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(util::human_seconds(3.21), "3.210 s");
  EXPECT_EQ(util::human_seconds(0.00123), "1.230 ms");
  EXPECT_EQ(util::human_seconds(45.6e-6), "45.600 us");
  EXPECT_EQ(util::human_seconds(12e-9), "12.0 ns");
}

// append_fixed must write exactly printf's "%.*f" digits: the SVG renderer
// relies on it for byte-identical output.
void expect_fixed_parity(double v) {
  for (const int prec : {1, 2, 3}) {
    std::string out = "x";
    util::append_fixed(out, v, prec);
    std::string expected = "x";
    expected += util::strprintf("%.*f", prec, v);
    EXPECT_EQ(out, expected)
        << "prec " << prec << " value " << util::strprintf("%a", v);
  }
}

TEST(Strings, AppendFixedMatchesPrintfOnEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double v :
       {0.0, -0.0, 0.125, 0.375, 1.005, 2.675, -0.125, -2.675, 0.05, 0.95, 9.995,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3, 1e300, -1e300, 1e308,
        std::numeric_limits<double>::max(), kNaN, -kNaN, kInf, -kInf})
    expect_fixed_parity(v);
  // Nothing truncated: 1e300 prints all 301 integer digits.
  std::string big;
  util::append_fixed(big, 1e300, 3);
  EXPECT_EQ(big.size(), 301u + 4u);
}

TEST(Strings, AppendFixedMatchesPrintfOnSeededSweep) {
  util::SplitMix64 rng(2017);
  for (int i = 0; i < 100000; ++i) {
    double v = 0.0;
    switch (i % 4) {
      case 0:  // screen coordinates
        v = rng.uniform(-2000.0, 4000.0);
        break;
      case 1:  // trace timestamps, scaled like human_seconds
        v = rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform(-9.0, 4.0));
        break;
      case 2: {  // values near a rounding tie at 3 decimals
        v = static_cast<double>(rng.below(2000000)) / 1000.0 + 0.0005;
        break;
      }
      default: {  // arbitrary bit patterns, NaN and inf included
        const std::uint64_t bits = rng.next();
        std::memcpy(&v, &bits, sizeof v);
        break;
      }
    }
    expect_fixed_parity(v);
    if (HasFailure()) break;
  }
}

TEST(Strings, AppendHelpersMatchTheirStringForms) {
  // Both append after what `out` already holds.
  std::string out = "kept";
  util::append_xml_escaped(out, "a<b & 'c' \"d\">");
  EXPECT_EQ(out, "kepta&lt;b &amp; &apos;c&apos; &quot;d&quot;&gt;");
  EXPECT_EQ(util::xml_escape("a<b & 'c' \"d\">"), out.substr(4));
  for (const double s : {3.21, 0.00123, 45.6e-6, 12e-9, -2.5, 0.0}) {
    std::string h = "kept";
    util::append_human_seconds(h, s);
    EXPECT_EQ(h.substr(0, 4), "kept");
    EXPECT_EQ(h.substr(4), util::human_seconds(s));
  }
}

TEST(Strings, StrprintfLongOutputTakesSecondPass) {
  const std::string long_arg(1000, 'z');
  EXPECT_EQ(util::strprintf("<%s>", long_arg.c_str()), std::string("<") + long_arg + ">");
  const std::string exact(255, 'q');  // fills the stack buffer to the byte
  EXPECT_EQ(util::strprintf("%s", exact.c_str()), exact);
  EXPECT_EQ(util::strprintf("%s!", exact.c_str()), exact + "!");
}

}  // namespace
