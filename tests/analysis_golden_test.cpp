// Pinned analysis reports. The text and JSON renderings of check_trace and
// diff_traces (plus each rank's divergence shape and position), and
// digest::render where the trace has a SLOG-2 form, are hashed with FNV-1a
// over a fixed corpus:
//
//   * the golden fixtures (tiny, messy, diffpair) and tiny's v1/v2 SLOG-2;
//   * seeded tracegen traces (20k records, 8 ranks) and the crash-style
//     twin the postmortem benchmark diffs them against (one rank loses the
//     second half of its records);
//   * twins with one flipped message tag, message size or event id;
//   * two seeded fault-injected runs of a Pilot farm (a message delay and a
//     rank crash, both on the deterministic tasks substrate) diffed against
//     their fault-free twin.
//
// A rework of the analysis code must keep every hash: a hash that moves
// means a report changed. On a mismatch the test prints the whole table of
// actual hashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis_corpus.hpp"
#include "analyze/tracecheck.hpp"
#include "analyze/tracediff.hpp"
#include "clog2/clog2.hpp"
#include "digest/digest.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace {

using analysis_corpus::fixture;

std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return util::strprintf("%016llx", static_cast<unsigned long long>(h));
}

using Table = std::vector<std::pair<std::string, std::string>>;

void pin_check(Table& t, const std::string& name, const clog2::File& f) {
  const analyze::Report rep = analyze::check_trace(f);
  t.emplace_back("check " + name + " text", fnv1a(rep.to_text()));
  t.emplace_back("check " + name + " json", fnv1a(rep.to_json()));
}

void pin_diff(Table& t, const std::string& name, const clog2::File& a,
              const clog2::File& b) {
  const analyze::TraceDiffResult res = analyze::diff_traces(a, b);
  std::string deltas;
  for (const analyze::RankDelta& d : res.deltas)
    deltas += util::strprintf("%d %d %zu %d;", d.rank, static_cast<int>(d.shape),
                              d.ref_pos, d.line);
  t.emplace_back("diff " + name + " text", fnv1a(res.report.to_text()));
  t.emplace_back("diff " + name + " json", fnv1a(res.report.to_json()));
  t.emplace_back("diff " + name + " deltas", fnv1a(deltas));
}

void pin_digest(Table& t, const std::string& name,
                const std::vector<std::uint8_t>& slog2_bytes) {
  slog2::Navigator nav(slog2_bytes);
  digest::Options o;
  const digest::Digest d = digest::analyze(nav, o);
  t.emplace_back("digest " + name + " text", fnv1a(digest::render(d, o)));
  o.json = true;
  t.emplace_back("digest " + name + " json", fnv1a(digest::render(d, o)));
}

void expect_pinned(const Table& actual, const Table& want) {
  std::string table;
  for (const auto& [label, hash] : actual)
    table += util::strprintf("      {\"%s\", \"%s\"},\n", label.c_str(),
                             hash.c_str());
  ASSERT_EQ(actual.size(), want.size()) << "actual table:\n" << table;
  bool all = true;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, want[i].first);
    EXPECT_EQ(actual[i].second, want[i].second) << actual[i].first;
    all = all && actual[i] == want[i];
  }
  if (!all) ADD_FAILURE() << "actual table:\n" << table;
}

TEST(TraceCheck, ReportHashesArePinned) {
  Table t;
  for (const char* name : {"tiny.clog2", "messy.clog2", "diffpair.a.clog2",
                           "diffpair.b.clog2"})
    pin_check(t, name, clog2::read_file(fixture(name)));
  expect_pinned(t, {
      {"check tiny.clog2 text", "cbf29ce484222325"},
      {"check tiny.clog2 json", "09612b07b5ecb5a5"},
      {"check messy.clog2 text", "2de9fcd7014419a9"},
      {"check messy.clog2 json", "e53af314ba5698ac"},
      {"check diffpair.a.clog2 text", "1dad68fba14a1c88"},
      {"check diffpair.a.clog2 json", "834771024bd2fa3b"},
      {"check diffpair.b.clog2 text", "54db79f68334d657"},
      {"check diffpair.b.clog2 json", "3bb5d33e36eee943"},
  });
}

TEST(TraceDiff, FixtureReportHashesArePinned) {
  const clog2::File tiny = clog2::read_file(fixture("tiny.clog2"));
  const clog2::File messy = clog2::read_file(fixture("messy.clog2"));
  const clog2::File a = clog2::read_file(fixture("diffpair.a.clog2"));
  const clog2::File b = clog2::read_file(fixture("diffpair.b.clog2"));
  Table t;
  pin_diff(t, "diffpair a b", a, b);
  pin_diff(t, "diffpair b a", b, a);
  pin_diff(t, "tiny messy", tiny, messy);
  pin_diff(t, "messy tiny", messy, tiny);
  pin_diff(t, "messy diffpair.a", messy, a);
  pin_digest(t, "tiny.slog2", util::read_file(fixture("tiny.slog2")));
  pin_digest(t, "tiny.v2.slog2", util::read_file(fixture("tiny.v2.slog2")));
  expect_pinned(t, {
      {"diff diffpair a b text", "b01a0c5c64f1e4b6"},
      {"diff diffpair a b json", "2247513219114d4d"},
      {"diff diffpair a b deltas", "6552cbd74e243381"},
      {"diff diffpair b a text", "c8ac35f4aababbb7"},
      {"diff diffpair b a json", "3254784d359d4ee5"},
      {"diff diffpair b a deltas", "6c392c210499ede8"},
      {"diff tiny messy text", "0e0645ee999e76d9"},
      {"diff tiny messy json", "c87f92a5681a3909"},
      {"diff tiny messy deltas", "45bd332a5e4a8d4c"},
      {"diff messy tiny text", "8be7f091ad134b63"},
      {"diff messy tiny json", "3db64b05c4d3c95f"},
      {"diff messy tiny deltas", "3ddfd70bc424afe5"},
      {"diff messy diffpair.a text", "83eb7dac4f2491da"},
      {"diff messy diffpair.a json", "f55eaf0430211214"},
      {"diff messy diffpair.a deltas", "7ab5dca3807059fa"},
      {"digest tiny.slog2 text", "37c1dbd36725e247"},
      {"digest tiny.slog2 json", "16122ac2fe4ae2ac"},
      {"digest tiny.v2.slog2 text", "dad44ff3fdb2b9fc"},
      {"digest tiny.v2.slog2 json", "9f58d7149afef587"},
  });
}

TEST(TraceDiff, TracegenReportHashesArePinned) {
  Table t;
  for (const auto& [seed, set] : analysis_corpus::shared_tracegen_sets()) {
    const clog2::File& ref = set.ref;
    const clog2::File& twin = set.twin;
    const std::string s = std::to_string(seed);
    pin_check(t, "tracegen " + s, ref);
    pin_check(t, "twin " + s, twin);
    pin_diff(t, "tracegen twin " + s, ref, twin);
    pin_diff(t, "twin tracegen " + s, twin, ref);
    pin_digest(t, "tracegen " + s, slog2::serialize(slog2::convert(ref)));
    pin_digest(t, "twin " + s, slog2::serialize(slog2::convert(twin)));
    const clog2::File& tag = set.tag;
    const clog2::File& size = set.size;
    const clog2::File& event = set.event;
    pin_check(t, "tag flip " + s, tag);
    pin_diff(t, "tag flip " + s, ref, tag);
    pin_check(t, "size flip " + s, size);
    pin_diff(t, "size flip " + s, ref, size);
    pin_check(t, "event flip " + s, event);
    pin_diff(t, "event flip " + s, ref, event);
  }
  expect_pinned(t, {
      {"check tracegen 7 text", "7f2bb81a43420991"},
      {"check tracegen 7 json", "45709d4c068868b7"},
      {"check twin 7 text", "cc4bfaf8333168cc"},
      {"check twin 7 json", "319a832819245573"},
      {"diff tracegen twin 7 text", "6ba7ade8008edde6"},
      {"diff tracegen twin 7 json", "f69dbb6ddb8049f4"},
      {"diff tracegen twin 7 deltas", "52cb6a85aae59baa"},
      {"diff twin tracegen 7 text", "761132fa3002a374"},
      {"diff twin tracegen 7 json", "0317df1388fea10a"},
      {"diff twin tracegen 7 deltas", "4ad148978f6f22cd"},
      {"digest tracegen 7 text", "e44b7624d9c0396f"},
      {"digest tracegen 7 json", "58a42180e6478c52"},
      {"digest twin 7 text", "eee08150ad44b958"},
      {"digest twin 7 json", "a43efb2256c1ded0"},
      {"check tag flip 7 text", "317254157914a096"},
      {"check tag flip 7 json", "1cc8df1fe3ed0408"},
      {"diff tag flip 7 text", "0347329f0ff87aba"},
      {"diff tag flip 7 json", "3f0728b2004766d2"},
      {"diff tag flip 7 deltas", "3d771dd1be5a0474"},
      {"check size flip 7 text", "7f2bb81a43420991"},
      {"check size flip 7 json", "45709d4c068868b7"},
      {"diff size flip 7 text", "ba01a0214789eda9"},
      {"diff size flip 7 json", "de3eb3542b9b978d"},
      {"diff size flip 7 deltas", "7eac4558a9dadf7a"},
      {"check event flip 7 text", "882d1b8341a46d77"},
      {"check event flip 7 json", "8ee53d99101ccf64"},
      {"diff event flip 7 text", "90c9084ca471e701"},
      {"diff event flip 7 json", "62250655dbd23157"},
      {"diff event flip 7 deltas", "240c8238e92e9ba1"},
      {"check tracegen 501 text", "69dd88ab670fa5a1"},
      {"check tracegen 501 json", "abf9d7b1d904a5db"},
      {"check twin 501 text", "434f8619eff13dc2"},
      {"check twin 501 json", "a1da359d11a767ab"},
      {"diff tracegen twin 501 text", "dce7ac61cac90eb9"},
      {"diff tracegen twin 501 json", "e85a72df28ececd1"},
      {"diff tracegen twin 501 deltas", "60863b41cee7636b"},
      {"diff twin tracegen 501 text", "14ad7914f434bf9d"},
      {"diff twin tracegen 501 json", "df1cfd320d1b8fed"},
      {"diff twin tracegen 501 deltas", "e26fae1efaa399b0"},
      {"digest tracegen 501 text", "4ba4882ff368f42c"},
      {"digest tracegen 501 json", "ef95c12e3e4d0ab9"},
      {"digest twin 501 text", "859bf216a8499114"},
      {"digest twin 501 json", "d7a1ce34490eeb8f"},
      {"check tag flip 501 text", "9ce3d3ec81437481"},
      {"check tag flip 501 json", "8a8721f63d7001d9"},
      {"diff tag flip 501 text", "35e819f1983d72ae"},
      {"diff tag flip 501 json", "ed352908e44e1022"},
      {"diff tag flip 501 deltas", "ca1427ed2939f710"},
      {"check size flip 501 text", "69dd88ab670fa5a1"},
      {"check size flip 501 json", "abf9d7b1d904a5db"},
      {"diff size flip 501 text", "c5aab02f9ca8dea7"},
      {"diff size flip 501 json", "c6f80fd6f127700b"},
      {"diff size flip 501 deltas", "fdbdeb4244d1230c"},
      {"check event flip 501 text", "69dd88ab670fa5a1"},
      {"check event flip 501 json", "abf9d7b1d904a5db"},
      {"diff event flip 501 text", "5a25fac193e56b75"},
      {"diff event flip 501 json", "e87abd6cf764baf7"},
      {"diff event flip 501 deltas", "47c23ddcbee610f0"},
  });
}

TEST(TraceDiff, FaultRunReportHashesArePinned) {
  const analysis_corpus::FaultRuns& runs = analysis_corpus::shared_fault_runs();
  ASSERT_TRUE(runs.ok);
  const clog2::File& clean = runs.clean;
  const clog2::File& delayed = runs.delayed;
  const clog2::File& crashed = runs.crashed;

  Table t;
  pin_check(t, "clean", clean);
  pin_check(t, "delay", delayed);
  pin_check(t, "crash", crashed);
  pin_diff(t, "clean delay", clean, delayed);
  pin_diff(t, "clean crash", clean, crashed);
  pin_diff(t, "crash clean", crashed, clean);
  expect_pinned(t, {
      {"check clean text", "cbf29ce484222325"},
      {"check clean json", "09612b07b5ecb5a5"},
      {"check delay text", "cbf29ce484222325"},
      {"check delay json", "09612b07b5ecb5a5"},
      {"check crash text", "569077cc0e2fb3f7"},
      {"check crash json", "3b70ea263ca819b2"},
      {"diff clean delay text", "20fe503c016ea1d8"},
      {"diff clean delay json", "ddd6de68d29e4ff6"},
      {"diff clean delay deltas", "95cf61e4eb672fa9"},
      {"diff clean crash text", "4304e19dbb9d701b"},
      {"diff clean crash json", "b83357e12a4dcf12"},
      {"diff clean crash deltas", "e405336962a8bc45"},
      {"diff crash clean text", "788f0667f4799c43"},
      {"diff crash clean json", "5cff852610a21706"},
      {"diff crash clean deltas", "7acb7cce8d841dce"},
  });
}

}  // namespace
