// Adversarial-input tests for the three on-disk formats (CLOG-2, SLOG-2,
// .prl) and the spill salvager, driven from the checked-in golden corpus in
// tests/fixtures (regenerate with the `fixtures` target):
//
//   * library level: parse() of every truncation length and of single-bit
//     flips at every byte either succeeds or throws util::Error — never a
//     crash, never UB (the sanitize presets run this suite too); the lazy
//     Navigator and the printers' stream_text readers track parse()'s
//     verdict on the same variants;
//   * tool level: pilot-clog2print / pilot-slog2print / pilot-replayprint
//     exit nonzero with a diagnostic exactly when the library rejects the
//     bytes, and never die on a signal;
//   * hostile rank counts in either header are one named error from every
//     reader;
//   * mpe::salvage tolerates torn and corrupted spill streams (that is its
//     job), writes a header that covers every rank and partner it keeps,
//     and pilot-logsalvage refuses an empty spill set loudly instead of
//     writing a hollow trace.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clog2/clog2.hpp"
#include "mpe/mpe.hpp"
#include "replay/prl.hpp"
#include "slog2/frame_codec.hpp"
#include "slog2/slog2.hpp"
#include "util/bytebuf.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/varint.hpp"

#ifndef PILOT_TOOL_DIR
#error "PILOT_TOOL_DIR must be defined by the build"
#endif
#ifndef PILOT_FIXTURE_DIR
#error "PILOT_FIXTURE_DIR must be defined by the build"
#endif

namespace {

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(PILOT_FIXTURE_DIR) / name;
}

std::string tool(const std::string& name) {
  return std::string(PILOT_TOOL_DIR) + "/" + name;
}

std::vector<std::uint8_t> load(const std::string& name) {
  const auto bytes = util::read_file(fixture(name));
  EXPECT_FALSE(bytes.empty()) << "missing fixture " << name
                              << " (run the `fixtures` target)";
  return bytes;
}

/// Exit status of `cmd` with output captured (-1 if killed by a signal —
/// always a test failure here).
int run_status(const std::string& cmd, std::string* out = nullptr) {
  static const std::string capture =
      "/tmp/pilot_fuzz_test." + std::to_string(::getpid()) + ".out";
  const int rc = std::system((cmd + " > " + capture + " 2>&1").c_str());
  if (out) *out = util::read_text_file(capture);
  std::filesystem::remove(capture);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// parse() under corruption must either succeed or throw util::Error.
/// Returns true when the bytes parsed cleanly.
template <typename ParseFn>
bool parses(const ParseFn& parse, const std::vector<std::uint8_t>& bytes) {
  try {
    parse(bytes);
    return true;
  } catch (const util::Error&) {
    return false;
  }
  // Anything else (std::bad_alloc from a hostile length field, a raw
  // std::exception, a sanitizer report) escapes and fails the test.
}

/// Run `check` on every corrupted variant of `bytes`: each truncation
/// length (including the empty file), single-bit and whole-byte flips at
/// every position, and trailing garbage.
template <typename CheckFn>
void for_each_variant(const std::string& name,
                      const std::vector<std::uint8_t>& bytes,
                      const CheckFn& check) {
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    SCOPED_TRACE(name + " truncated to " + std::to_string(n));
    check(std::vector<std::uint8_t>(bytes.begin(),
                                    bytes.begin() + static_cast<long>(n)));
  }
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                  std::uint8_t{0xff}}) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      SCOPED_TRACE(name + ": flip 0x" + std::to_string(mask) + " at byte " +
                   std::to_string(i));
      auto mutated = bytes;
      mutated[i] ^= mask;
      check(mutated);
    }
  }
  SCOPED_TRACE(name + " with trailing garbage");
  auto padded = bytes;
  padded.insert(padded.end(), {0xde, 0xad, 0xbe, 0xef});
  check(padded);
}

template <typename ParseFn>
void fuzz_format(const std::string& name, const ParseFn& parse) {
  const auto bytes = load(name);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(parses(parse, bytes)) << name << " fixture does not parse";
  for_each_variant(name, bytes, [&](const std::vector<std::uint8_t>& v) {
    parses(parse, v);
  });
}

TEST(FuzzParsers, Clog2SurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.clog2",
              [](const std::vector<std::uint8_t>& b) { clog2::parse(b); });
  // The fixture must reject every strict prefix: the format carries an
  // explicit record count and end marker.
  const auto bytes = load("tiny.clog2");
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_FALSE(parses(
        [](const std::vector<std::uint8_t>& b) { clog2::parse(b); },
        {bytes.begin(), bytes.begin() + static_cast<long>(n)}))
        << "prefix length " << n << " accepted";
}

TEST(FuzzParsers, Slog2SurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.slog2",
              [](const std::vector<std::uint8_t>& b) { slog2::parse(b); });
}

TEST(FuzzParsers, Slog2V2SurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.v2.slog2",
              [](const std::vector<std::uint8_t>& b) { slog2::parse(b); });
}

/// Every drawable of a full-span visit, one exact line each, sorted: the
/// Navigator and File::visit_window walk the same tree in different orders.
template <typename Visitable>
std::vector<std::string> full_visit(Visitable& v) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::string> out;
  const auto line = [&](const char* fmt, auto... args) {
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, args...);
    out.emplace_back(buf);
  };
  const auto on_state = [&](const slog2::StateDrawable& s) {
    line("s %d %d %a %a %d %zu %zu", s.category_id, s.rank, s.start_time,
         s.end_time, s.depth, std::hash<std::string>{}(s.start_text),
         std::hash<std::string>{}(s.end_text));
  };
  const auto on_event = [&](const slog2::EventDrawable& e) {
    line("e %d %d %a %zu", e.category_id, e.rank, e.time,
         std::hash<std::string>{}(e.text));
  };
  const auto on_arrow = [&](const slog2::ArrowDrawable& a) {
    line("a %d %d %a %a %d %u", a.src_rank, a.dst_rank, a.start_time,
         a.end_time, a.tag, a.size);
  };
  v.visit_window(-inf, inf, on_state, on_event, on_arrow);
  std::sort(out.begin(), out.end());
  return out;
}

/// The lazy Navigator under corruption: each variant either throws
/// util::Error (at load or on the visit) or visits (-inf, +inf); and
/// whenever parse() accepts a variant, the Navigator accepts it too and
/// visits exactly parse()'s drawables.
void fuzz_navigator(const std::string& name) {
  const auto bytes = load(name);
  ASSERT_FALSE(bytes.empty());
  std::size_t accepted = 0;
  const auto check = [&](const std::vector<std::uint8_t>& variant) {
    std::optional<std::vector<std::string>> want;
    try {
      const slog2::File file = slog2::parse(variant);
      want = full_visit(file);
    } catch (const util::Error&) {
    }
    try {
      slog2::Navigator nav(variant);
      const std::vector<std::string> got = full_visit(nav);
      if (want) {
        ++accepted;
        EXPECT_EQ(got, *want);
      }
    } catch (const util::Error& e) {
      EXPECT_FALSE(want) << "Navigator rejects what parse() accepts: "
                         << e.what();
    }
  };
  check(bytes);
  EXPECT_EQ(accepted, 1u) << name << " fixture does not load";
  for_each_variant(name, bytes, check);
  EXPECT_GT(accepted, 1u) << "no corrupted variant was accepted";
}

TEST(FuzzParsers, Slog2NavigatorSurvivesTruncationAndBitFlips) {
  fuzz_navigator("tiny.slog2");
}

TEST(FuzzParsers, Slog2NavigatorV2SurvivesTruncationAndBitFlips) {
  fuzz_navigator("tiny.v2.slog2");
}

/// A reader's verdict on one input: "" when `read` returns its text,
/// otherwise the util::Error message.
template <typename ReadFn>
std::string verdict(const ReadFn& read, std::string* text) {
  try {
    *text = read();
    return "";
  } catch (const util::Error& e) {
    return std::string("rejected: ") + e.what();
  }
}

/// The printers' file readers against the whole-buffer parse() on every
/// corrupted variant: the same accept/reject decision, the same diagnostic
/// text, and on acceptance the same dump.
template <typename StreamFn, typename ParseFn>
void fuzz_stream_text_parity(const std::string& name, const StreamFn& stream,
                             const ParseFn& parse_text) {
  const auto bytes = load(name);
  ASSERT_FALSE(bytes.empty());
  util::TempDir dir;
  const auto path = dir.file("variant.bin");
  const auto check = [&](const std::vector<std::uint8_t>& variant) {
    util::write_file(path, variant);
    std::string streamed, parsed;
    const std::string stream_v = verdict([&] { return stream(path); }, &streamed);
    const std::string parse_v = verdict([&] { return parse_text(variant); }, &parsed);
    EXPECT_EQ(stream_v, parse_v);
    if (stream_v.empty() && parse_v.empty()) {
      EXPECT_EQ(streamed, parsed);
    }
  };
  check(bytes);
  for_each_variant(name, bytes, check);
}

void fuzz_slog2_stream_text(const std::string& name) {
  fuzz_stream_text_parity(
      name,
      [](const std::filesystem::path& p) {
        std::string out;
        slog2::stream_text(p, true, [&](const std::string& s) { out += s; });
        return out;
      },
      [](const std::vector<std::uint8_t>& b) {
        return slog2::to_text(slog2::parse(b), true);
      });
}

TEST(FuzzParsers, Slog2StreamTextMatchesParse) {
  fuzz_slog2_stream_text("tiny.slog2");
}

TEST(FuzzParsers, Slog2V2StreamTextMatchesParse) {
  fuzz_slog2_stream_text("tiny.v2.slog2");
}

TEST(FuzzParsers, Clog2StreamTextMatchesParse) {
  fuzz_stream_text_parity(
      "tiny.clog2",
      [](const std::filesystem::path& p) {
        std::string out;
        clog2::stream_text(p, [&](const std::string& s) { out += s; });
        return out;
      },
      [](const std::vector<std::uint8_t>& b) {
        return clog2::to_text(clog2::parse(b));
      });
}

// The v2 payload codec's varint layer, fed hostile encodings directly.
// Every rejection must be a util::Error with the overrun caught before any
// allocation or write — the sanitizer presets run this suite too.
TEST(FuzzParsers, HostileVarintsRejected) {
  const auto decode = [](const std::vector<std::uint8_t>& b) {
    util::ByteReader r(b);
    return util::get_varint(r);
  };
  // Canonical encodings round-trip.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    util::ByteWriter w;
    util::put_varint(w, v);
    EXPECT_EQ(decode(w.bytes()), v);
  }
  // Overlong (non-canonical) encoding of 0 and of 1.
  EXPECT_THROW(decode({0x80, 0x00}), util::Error);
  EXPECT_THROW(decode({0x81, 0x80, 0x00}), util::Error);
  // 10-byte encoding whose final byte pushes past 64 bits.
  EXPECT_THROW(decode({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                       0x02}),
               util::Error);
  // Continuation bit never drops: reader runs past 10 bytes.
  EXPECT_THROW(decode({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                       0xff, 0xff, 0x01}),
               util::Error);
  // Truncated mid-varint.
  EXPECT_THROW(decode({0xff}), util::Error);
  EXPECT_THROW(decode({}), util::Error);
  // 32-bit field decoders refuse silent truncation.
  {
    util::ByteWriter w;
    util::put_varint(w, std::uint64_t{1} << 40);
    util::ByteReader r(w.bytes());
    EXPECT_THROW(util::get_varint32(r), util::Error);
  }
  {
    util::ByteWriter w;
    util::put_svarint(w, std::int64_t{1} << 40);
    util::ByteReader r(w.bytes());
    EXPECT_THROW(util::get_svarint32(r), util::Error);
  }
}

// Hostile drawable counts in a v2 payload: a count claiming more elements
// than the remaining bytes could hold must be rejected up front (no giant
// resize), and text lengths past the payload end must throw, not read OOB.
TEST(FuzzParsers, HostileV2CountsRejected) {
  const auto decode = [](const std::vector<std::uint8_t>& payload) {
    util::ByteReader r(payload);
    std::vector<slog2::StateDrawable> s;
    std::vector<slog2::EventDrawable> e;
    std::vector<slog2::ArrowDrawable> a;
    slog2::detail::decode_drawables_v2(r, &s, &e, &a);
  };
  {
    util::ByteWriter w;  // claims 2^40 states in a payload of a few bytes
    util::put_varint(w, std::uint64_t{1} << 40);
    util::put_varint(w, 0);
    util::put_varint(w, 0);
    EXPECT_THROW(decode(w.bytes()), util::Error);
  }
  {
    util::ByteWriter w;  // one event whose text length runs past the end
    util::put_varint(w, 0);
    util::put_varint(w, 1);
    util::put_varint(w, 0);
    util::put_svarint(w, 1);                    // cat
    util::put_svarint(w, 0);                    // rank
    util::put_varint(w, 0);                     // time delta
    util::put_varint(w, std::uint64_t{1} << 20);  // text length: hostile
    EXPECT_THROW(decode(w.bytes()), util::Error);
  }
}

// Hostile rank counts in both headers. Every reader rejects each with the
// same named error before anything is sized by it; unchecked, the count
// reached per-rank tables downstream and died in std::bad_alloc.
TEST(FuzzParsers, HostileRankCountsRejected) {
  const auto with_nranks = [](std::vector<std::uint8_t> bytes, std::size_t at,
                              std::int32_t n) {
    const auto u = static_cast<std::uint32_t>(n);
    for (std::size_t i = 0; i < 4; ++i)
      bytes[at + i] = static_cast<std::uint8_t>(u >> (8 * i));
    return bytes;
  };
  util::TempDir dir;
  const auto path = dir.file("hostile.bin");
  std::string text;
  for (const std::int32_t n : {-1, clog2::kMaxRanks + 1, 50000000,
                               std::numeric_limits<std::int32_t>::max()}) {
    SCOPED_TRACE("nranks " + std::to_string(n));
    // CLOG-2: nranks follows the magic and the version word. The fixture,
    // and a header with no records at all.
    const std::string clog2_want = "rejected: clog2: rank count " +
                                   std::to_string(n) + " outside [0, 16384]";
    for (const auto& bytes : {with_nranks(load("tiny.clog2"), 12, n),
                              with_nranks(clog2::serialize(clog2::File{}), 12, n)}) {
      EXPECT_EQ(verdict([&] { return clog2::to_text(clog2::parse(bytes)); }, &text),
                clog2_want);
      EXPECT_EQ(verdict(
                    [&] {
                      clog2::StreamReader reader;
                      reader.feed(bytes.data(), bytes.size());
                      clog2::Record rec;
                      while (reader.next(&rec) ==
                             clog2::StreamReader::Status::kRecord) {
                      }
                      return std::string();
                    },
                    &text),
                clog2_want);
      util::write_file(path, bytes);
      EXPECT_EQ(verdict(
                    [&] {
                      clog2::stream_text(path, [](const std::string&) {});
                      return std::string();
                    },
                    &text),
                clog2_want);
    }
    // SLOG-2: nranks follows the version word, and in v2 the encoding byte.
    const std::string slog2_want = "rejected: slog2: rank count " +
                                   std::to_string(n) + " outside [0, 16384]";
    for (const auto& [name, at] :
         {std::pair{"tiny.slog2", 12}, std::pair{"tiny.v2.slog2", 13}}) {
      SCOPED_TRACE(name);
      const auto bytes = with_nranks(load(name), static_cast<std::size_t>(at), n);
      EXPECT_EQ(verdict([&] { return slog2::to_text(slog2::parse(bytes), true); },
                        &text),
                slog2_want);
      EXPECT_EQ(verdict(
                    [&] {
                      const slog2::Navigator nav(bytes);
                      return std::string();
                    },
                    &text),
                slog2_want);
      util::write_file(path, bytes);
      EXPECT_EQ(verdict(
                    [&] {
                      slog2::stream_text(path, true, [](const std::string&) {});
                      return std::string();
                    },
                    &text),
                slog2_want);
    }
  }
}

TEST(FuzzParsers, PrlSurvivesTruncationAndBitFlips) {
  fuzz_format("tiny.prl",
              [](const std::vector<std::uint8_t>& b) { replay::parse(b); });
  const auto bytes = load("tiny.prl");
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_FALSE(parses(
        [](const std::vector<std::uint8_t>& b) { replay::parse(b); },
        {bytes.begin(), bytes.begin() + static_cast<long>(n)}))
        << "prefix length " << n << " accepted";
}

// --- the print tools must track the library's verdict ------------------------

struct ToolCase {
  const char* fixture_name;
  const char* tool_name;
  bool (*lib_ok)(const std::vector<std::uint8_t>&);
};

void fuzz_tool(const ToolCase& tc) {
  const auto bytes = load(tc.fixture_name);
  ASSERT_FALSE(bytes.empty());
  util::TempDir dir;
  const auto probe = [&](const std::vector<std::uint8_t>& mutated,
                         const std::string& label) {
    const auto path = dir.file("corrupt.bin");
    util::write_file(path, mutated);
    std::string out;
    const int status =
        run_status(tool(tc.tool_name) + " " + path.string(), &out);
    ASSERT_GE(status, 0) << tc.tool_name << " died on a signal (" << label
                         << ")";
    if (tc.lib_ok(mutated)) {
      EXPECT_EQ(status, 0) << label << "\n" << out;
    } else {
      EXPECT_NE(status, 0) << label << " accepted\n" << out;
      EXPECT_NE(out.find("error"), std::string::npos)
          << label << ": no diagnostic printed:\n"
          << out;
    }
  };

  // A spread of truncation lengths (every 7th byte plus the edges) and a
  // few corrupting flips; the exhaustive sweep is library-level above.
  std::vector<std::size_t> cuts = {0, 1, bytes.size() / 2, bytes.size() - 1};
  for (std::size_t n = 0; n < bytes.size(); n += 7) cuts.push_back(n);
  for (const std::size_t n : cuts)
    probe({bytes.begin(), bytes.begin() + static_cast<long>(n)},
          "truncated to " + std::to_string(n));
  for (const std::size_t i :
       {std::size_t{0}, bytes.size() / 3, (2 * bytes.size()) / 3,
        bytes.size() - 1}) {
    auto mutated = bytes;
    mutated[i] ^= 0x80;
    probe(mutated, "bit flip at byte " + std::to_string(i));
  }
  probe(bytes, "pristine fixture");
}

TEST(FuzzTools, Clog2PrintNeverCrashes) {
  fuzz_tool({"tiny.clog2", "pilot-clog2print",
             [](const std::vector<std::uint8_t>& b) {
               return parses(
                   [](const std::vector<std::uint8_t>& x) { clog2::parse(x); },
                   b);
             }});
}

TEST(FuzzTools, Slog2PrintNeverCrashes) {
  fuzz_tool({"tiny.slog2", "pilot-slog2print",
             [](const std::vector<std::uint8_t>& b) {
               return parses(
                   [](const std::vector<std::uint8_t>& x) { slog2::parse(x); },
                   b);
             }});
}

TEST(FuzzTools, Slog2PrintV2NeverCrashes) {
  fuzz_tool({"tiny.v2.slog2", "pilot-slog2print",
             [](const std::vector<std::uint8_t>& b) {
               return parses(
                   [](const std::vector<std::uint8_t>& x) { slog2::parse(x); },
                   b);
             }});
}

// Version-mismatch contract: a v1-only reader (modeled by forcing
// --frame-encoding=v1) must refuse a v2 file with a named diagnostic and a
// nonzero exit — never decode garbage. And symmetrically for forced v2.
TEST(FuzzTools, Slog2PrintForcedEncodingMismatchFailsLoudly) {
  std::string out;
  int status = run_status(tool("pilot-slog2print") + " --frame-encoding=v1 " +
                              fixture("tiny.v2.slog2").string(),
                          &out);
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find("frame-encoding mismatch"), std::string::npos) << out;

  status = run_status(tool("pilot-slog2print") + " --frame-encoding=v2 " +
                          fixture("tiny.slog2").string(),
                      &out);
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find("frame-encoding mismatch"), std::string::npos) << out;

  // Matching forces succeed.
  EXPECT_EQ(run_status(tool("pilot-slog2print") + " --frame-encoding=v2 " +
                           fixture("tiny.v2.slog2").string(),
                       &out),
            0)
      << out;
  EXPECT_EQ(run_status(tool("pilot-slog2print") + " --frame-encoding=v1 " +
                           fixture("tiny.slog2").string(),
                       &out),
            0)
      << out;
}

TEST(FuzzTools, ReplayPrintNeverCrashes) {
  fuzz_tool({"tiny.prl", "pilot-replayprint",
             [](const std::vector<std::uint8_t>& b) {
               return parses(
                   [](const std::vector<std::uint8_t>& x) { replay::parse(x); },
                   b);
             }});
}

// --- salvage under corruption ------------------------------------------------

void copy_salvage_fixtures(const util::TempDir& dir, const std::string& base) {
  for (const char* suffix : {".defs.spill", ".rank0.spill", ".rank1.spill"})
    std::filesystem::copy_file(
        fixture("salvage" + std::string(suffix)), dir.file(base + suffix),
        std::filesystem::copy_options::overwrite_existing);
}

TEST(FuzzSalvage, ToleratesTornAndCorruptedSpills) {
  const auto rank0 = load("salvage.rank0.spill");
  util::TempDir dir;
  copy_salvage_fixtures(dir, "s");
  const clog2::File whole = mpe::salvage(dir.file("s").string());
  const std::size_t whole_count =
      whole.count<clog2::EventRec>() + whole.count<clog2::MsgRec>();
  ASSERT_GT(whole_count, 0u);

  // Any torn tail on one rank's stream: salvage keeps the prefix, drops the
  // tail, and never reports more than the intact stream held.
  for (std::size_t n = 0; n < rank0.size(); ++n) {
    SCOPED_TRACE("rank0 spill truncated to " + std::to_string(n));
    util::write_file(dir.file("s.rank0.spill"),
                     std::vector<std::uint8_t>(
                         rank0.begin(), rank0.begin() + static_cast<long>(n)));
    clog2::File got;
    ASSERT_NO_THROW(got = mpe::salvage(dir.file("s").string()));
    EXPECT_LE(got.count<clog2::EventRec>() + got.count<clog2::MsgRec>(),
              whole_count);
    EXPECT_NO_THROW(clog2::parse(clog2::serialize(got)));
  }
  // Bit flips may corrupt a record mid-stream; salvage must still come back
  // with a File (possibly shorter) that the checked reader accepts, never
  // crash.
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                  std::uint8_t{0xff}}) {
    for (std::size_t i = 0; i < rank0.size(); ++i) {
      SCOPED_TRACE("rank0 spill flip 0x" + std::to_string(mask) + " at " +
                   std::to_string(i));
      auto mutated = rank0;
      mutated[i] ^= mask;
      util::write_file(dir.file("s.rank0.spill"), mutated);
      try {
        const clog2::File got = mpe::salvage(dir.file("s").string());
        EXPECT_NO_THROW(clog2::parse(clog2::serialize(got)));
      } catch (const util::Error&) {
        // A corrupted definition/record the salvager cannot skip is allowed
        // to fail loudly — just never crash or hang.
      }
    }
  }
}

TEST(FuzzSalvage, HeaderCoversEveryKeptRankAndPartner) {
  using Kind = clog2::MsgRec::Kind;
  util::TempDir dir;
  const auto spill = [&](const std::string& suffix,
                         const std::vector<clog2::Record>& records) {
    util::ByteWriter w;
    for (const clog2::Record& rec : records) clog2::append_record(w, rec);
    util::write_file(dir.file("h" + suffix), w.bytes());
  };
  spill(".defs.spill", {clog2::EventDef{1, "ping", "green", ""}});
  // Rank 0 sends to rank 3, which never logged a record (no spill file).
  spill(".rank0.spill", {clog2::EventRec{0.1, 0, 1, ""},
                         clog2::MsgRec{0.2, 0, Kind::kSend, 3, 7, 8}});
  // A record logged under another rank ends rank 1's stream, like a torn
  // tail...
  spill(".rank1.spill", {clog2::EventRec{0.1, 1, 1, ""},
                         clog2::EventRec{0.2, 5, 1, ""},
                         clog2::EventRec{0.3, 1, 1, ""}});
  // ...and so does a partner no header could cover.
  spill(".rank2.spill", {clog2::EventRec{0.1, 2, 1, ""},
                         clog2::MsgRec{0.2, 2, Kind::kSend, clog2::kMaxRanks, 7, 8},
                         clog2::EventRec{0.3, 2, 1, ""}});
  const clog2::File f = mpe::salvage(dir.file("h").string());
  EXPECT_EQ(f.nranks, 4);
  EXPECT_EQ(f.count<clog2::EventRec>(), 3u);
  EXPECT_EQ(f.count<clog2::MsgRec>(), 1u);
  const clog2::File back = clog2::parse(clog2::serialize(f));
  EXPECT_EQ(clog2::to_text(back), clog2::to_text(f));
}

// A non-finite time ends a rank's stream like a torn tail: in an instance,
// in a sync sample (it would poison the clock fit), or once a clock
// correction overflows. The salvaged trace passes the checked reader.
TEST(FuzzSalvage, NonFiniteTimeEndsTheStream) {
  util::TempDir dir;
  const auto spill = [&](const std::string& suffix,
                         const std::vector<clog2::Record>& records) {
    util::ByteWriter w;
    for (const clog2::Record& rec : records) clog2::append_record(w, rec);
    util::write_file(dir.file("n" + suffix), w.bytes());
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  spill(".defs.spill", {clog2::EventDef{1, "ping", "green", ""}});
  spill(".rank0.spill", {clog2::EventRec{0.1, 0, 1, "kept"},
                         clog2::EventRec{nan, 0, 1, ""},
                         clog2::EventRec{0.3, 0, 1, ""}});
  spill(".rank1.spill", {clog2::EventRec{0.1, 1, 1, "kept"},
                         clog2::SyncRec{1, inf, 0.1},
                         clog2::EventRec{0.3, 1, 1, ""}});
  // One sample: the fit is a pure offset of 1.7e308, so 1e308 overflows.
  spill(".rank2.spill", {clog2::SyncRec{2, 0.0, 1.7e308},
                         clog2::EventRec{0.1, 2, 1, "kept"},
                         clog2::EventRec{1e308, 2, 1, ""},
                         clog2::EventRec{0.2, 2, 1, ""}});
  const clog2::File f = mpe::salvage(dir.file("n").string());
  EXPECT_EQ(f.nranks, 3);
  ASSERT_EQ(f.count<clog2::EventRec>(), 3u);
  for (const auto& rec : f.records)
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      EXPECT_EQ(e->text, "kept");
    }
  const clog2::File back = clog2::parse(clog2::serialize(f));
  EXPECT_EQ(clog2::to_text(back), clog2::to_text(f));
}

TEST(FuzzSalvage, LogsalvageToolRefusesEmptyAndAcceptsFixture) {
  util::TempDir dir;
  // Genuinely empty spill set: defs present, zero-byte rank streams.
  copy_salvage_fixtures(dir, "e");
  util::write_file(dir.file("e.rank0.spill"), std::vector<std::uint8_t>{});
  util::write_file(dir.file("e.rank1.spill"), std::vector<std::uint8_t>{});
  std::string out;
  int status = run_status(
      tool("pilot-logsalvage") + " " + dir.file("e").string(), &out);
  EXPECT_EQ(status, 1) << out;
  EXPECT_NE(out.find("no salvageable records"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(dir.file("e.salvaged.clog2")))
      << "a hollow trace was written anyway";

  // No spill files at all is an error too (not a success with 0 records).
  status = run_status(
      tool("pilot-logsalvage") + " " + dir.file("missing").string(), &out);
  EXPECT_NE(status, 0) << out;

  // The pristine fixture set salvages fine and round-trips through the
  // regular reader.
  copy_salvage_fixtures(dir, "s");
  status = run_status(tool("pilot-logsalvage") + " " + dir.file("s").string(),
                      &out);
  EXPECT_EQ(status, 0) << out;
  const clog2::File f = clog2::read_file(dir.file("s.salvaged.clog2"));
  EXPECT_EQ(f.nranks, 2);
  EXPECT_GT(f.count<clog2::EventRec>() + f.count<clog2::MsgRec>(), 0u);
}

}  // namespace
