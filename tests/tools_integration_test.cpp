// End-to-end through the installed CLI binaries: generate a trace with a
// real Pilot program, then drive pilot-clog2print / pilot-clog2toslog2 /
// pilot-slog2print / pilot-jumpshot / pilot-logsalvage exactly as a user
// would. Tool paths are injected by CMake (PILOT_TOOL_DIR).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "clog2/clog2.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "replay/crosscheck.hpp"
#include "replay/prl.hpp"
#include "slog2/slog2.hpp"
#include "traced/protocol.hpp"
#include "util/fs.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"
#include "workloads/collision_app.hpp"

#ifndef PILOT_TOOL_DIR
#error "PILOT_TOOL_DIR must be defined by the build"
#endif
#ifndef PILOT_EXAMPLE_DIR
#error "PILOT_EXAMPLE_DIR must be defined by the build"
#endif

namespace {

std::string tool(const std::string& name) {
  return std::string(PILOT_TOOL_DIR) + "/" + name;
}

std::string example(const std::string& name) {
  return std::string(PILOT_EXAMPLE_DIR) + "/" + name;
}

int run_cmd(const std::string& cmd, std::string* out = nullptr) {
  // Unique per process: ctest runs tests from this binary concurrently, and a
  // shared capture path lets parallel tests clobber each other's output.
  static const std::string capture =
      "/tmp/pilot_tool_test." + std::to_string(::getpid()) + ".out";
  const std::string with_capture = cmd + " > " + capture + " 2>&1";
  const int rc = std::system(with_capture.c_str());
  if (out) *out = util::read_text_file(capture);
  std::filesystem::remove(capture);
  return rc;
}

/// Exit status of the command (-1 if it did not exit normally).
int run_status(const std::string& cmd, std::string* out = nullptr) {
  const int rc = run_cmd(cmd, out);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

PI_CHANNEL* g_to_worker = nullptr;
PI_CHANNEL* g_from_worker = nullptr;

int echo_worker(int, void*) {
  int v = 0;
  PI_Read(g_to_worker, "%d", &v);
  PI_Write(g_from_worker, "%d", v * 3);
  return 0;
}

void make_trace(const util::TempDir& dir, const std::string& extra = "") {
  std::vector<std::string> args = {"prog", "-pisvc=j",
                                   "-piout=" + dir.path().string(),
                                   "-piwatchdog=30"};
  if (!extra.empty()) args.push_back(extra);
  const auto res = pilot::run(args, [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(echo_worker, 0, nullptr);
    g_to_worker = PI_CreateChannel(PI_MAIN, w);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    PI_Write(g_to_worker, "%d", 14);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    EXPECT_EQ(v, 42);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(res.aborted);
}

TEST(Tools, FullPipeline) {
  util::TempDir dir;
  make_trace(dir);
  const std::string clog = dir.file("pilot.clog2").string();
  const std::string slog = dir.file("pilot.slog2").string();
  const std::string svg = dir.file("view.svg").string();

  std::string out;
  // clog2print shows the raw records.
  ASSERT_EQ(run_cmd(tool("pilot-clog2print") + " " + clog, &out), 0) << out;
  EXPECT_NE(out.find("PI_Read"), std::string::npos);
  EXPECT_NE(out.find("msg t="), std::string::npos);

  // Conversion succeeds cleanly (exit 0 = no warnings).
  ASSERT_EQ(run_cmd(tool("pilot-clog2toslog2") + " " + clog, &out), 0) << out;
  EXPECT_NE(out.find("drawables"), std::string::npos);

  // slog2print summarizes the converted file.
  ASSERT_EQ(run_cmd(tool("pilot-slog2print") + " " + slog, &out), 0) << out;
  EXPECT_NE(out.find("SLOG-2"), std::string::npos);

  // The viewer renders and prints the legend.
  ASSERT_EQ(run_cmd(tool("pilot-jumpshot") + " " + slog + " --out=" + svg, &out), 0)
      << out;
  EXPECT_NE(out.find("incl"), std::string::npos) << out;  // legend table
  EXPECT_NE(util::read_text_file(svg).find("<svg"), std::string::npos);

  // Search and window statistics modes.
  ASSERT_EQ(run_cmd(tool("pilot-jumpshot") + " " + slog + " --search=PI_Write", &out),
            0);
  EXPECT_NE(out.find("hit(s)"), std::string::npos);
  ASSERT_EQ(run_cmd(tool("pilot-jumpshot") + " " + slog + " --stats", &out), 0);
  EXPECT_NE(out.find("imbalance"), std::string::npos);

  // Statistics picture.
  const std::string statsvg = dir.file("stats.svg").string();
  ASSERT_EQ(
      run_cmd(tool("pilot-jumpshot") + " " + slog + " --statsvg=" + statsvg, &out), 0);
  EXPECT_NE(util::read_text_file(statsvg).find("imbalance"), std::string::npos);

  // Combined HTML report.
  const std::string report = dir.file("report.html").string();
  ASSERT_EQ(run_cmd(tool("pilot-report") + " " + slog + " --out=" + report, &out), 0)
      << out;
  const std::string html = util::read_text_file(report);
  EXPECT_NE(html.find("<html>"), std::string::npos);
  EXPECT_NE(html.find("Timeline"), std::string::npos);
  EXPECT_NE(html.find("Duration statistics"), std::string::npos);
  EXPECT_NE(html.find("PI_Read"), std::string::npos);
}

TEST(Tools, TracegenThreadedConvertWindowedRender) {
  // The scale pipeline end-to-end: synthesize a trace, convert it with an
  // explicit thread count, and render a window through the Navigator.
  util::TempDir dir;
  const std::string clog = dir.file("gen.clog2").string();
  const std::string slog = dir.file("gen.slog2").string();
  const std::string svg = dir.file("win.svg").string();

  std::string out;
  ASSERT_EQ(run_status(tool("pilot-tracegen") + " " + clog +
                           " --events=5000 --ranks=4 --seed=9", &out), 0)
      << out;
  EXPECT_NE(out.find("wrote"), std::string::npos);

  // Same seed reproduces the same bytes (tools-level determinism).
  const std::string clog2_path = dir.file("gen2.clog2").string();
  ASSERT_EQ(run_status(tool("pilot-tracegen") + " " + clog2_path +
                           " --events=5000 --ranks=4 --seed=9 --quiet", &out), 0);
  EXPECT_EQ(util::read_text_file(clog), util::read_text_file(clog2_path));

  ASSERT_EQ(run_status(tool("pilot-clog2toslog2") + " " + clog + " --out=" +
                           slog + " --threads=2 --quiet", &out), 0) << out;

  ASSERT_EQ(run_status(tool("pilot-jumpshot") + " " + slog +
                           " --windowed --out=" + svg, &out), 0) << out;
  EXPECT_NE(out.find("decoded"), std::string::npos) << out;
  EXPECT_NE(util::read_text_file(svg).find("<svg"), std::string::npos);

  // A 1-byte LOD budget forces the preview path: no frame decodes at all.
  ASSERT_EQ(run_status(tool("pilot-jumpshot") + " " + slog +
                           " --windowed --lod-budget=1 --out=" + svg, &out), 0)
      << out;
  EXPECT_NE(out.find("decoded 0 of"), std::string::npos) << out;
  EXPECT_NE(util::read_text_file(svg).find("preview-lod"), std::string::npos);
}

TEST(Tools, StreamedPrintersMatchLibraryText) {
  // clog2print/slog2print stream through a bounded buffer; their output must
  // stay exactly the library's to_text rendering.
  util::TempDir dir;
  make_trace(dir);
  const std::string clog = dir.file("pilot.clog2").string();
  const std::string slog = dir.file("pilot.slog2").string();
  ASSERT_EQ(run_status(tool("pilot-clog2toslog2") + " " + clog + " --quiet"), 0);

  std::string out;
  ASSERT_EQ(run_cmd(tool("pilot-clog2print") + " " + clog, &out), 0);
  EXPECT_EQ(out, clog2::to_text(clog2::read_file(clog)));

  ASSERT_EQ(run_cmd(tool("pilot-slog2print") + " " + slog + " --drawables", &out),
            0);
  EXPECT_EQ(out, slog2::to_text(slog2::read_file(slog), true));
}

TEST(Tools, BadInputsFailGracefully) {
  util::TempDir dir;
  util::write_file(dir.file("junk.clog2"), std::string("this is not a trace"));
  std::string out;
  EXPECT_NE(run_cmd(tool("pilot-clog2print") + " " + dir.file("junk.clog2").string(),
                    &out),
            0);
  EXPECT_NE(out.find("error"), std::string::npos);
  EXPECT_NE(run_cmd(tool("pilot-jumpshot") + " /nonexistent.slog2", &out), 0);

  // A missing file and a directory: both printers exit 1 naming the path.
  for (const std::string& path :
       {dir.file("missing.trace").string(), dir.path().string()}) {
    for (const char* printer : {"pilot-clog2print", "pilot-slog2print"}) {
      EXPECT_EQ(run_status(tool(printer) + " " + path, &out), 1)
          << printer << " " << path << "\n" << out;
      EXPECT_NE(out.find("error: " + path), std::string::npos) << out;
      if (path == dir.path().string()) {
        EXPECT_NE(out.find("is a directory"), std::string::npos) << out;
      }
    }
  }
}

TEST(Tools, TruncatedTracesFailWithClearErrors) {
  util::TempDir dir;
  make_trace(dir);
  const std::string clog = dir.file("pilot.clog2").string();
  std::string out;
  ASSERT_EQ(run_cmd(tool("pilot-clog2toslog2") + " " + clog, &out), 0) << out;
  const std::string slog = dir.file("pilot.slog2").string();

  // Chop both files in half; the printers must name the file and fail.
  for (const std::string& path : {clog, slog}) {
    const std::string whole = util::read_text_file(path);
    ASSERT_GT(whole.size(), 16u);
    util::write_file(dir.file("cut" + std::filesystem::path(path).extension().string()),
                     whole.substr(0, whole.size() / 2));
  }
  EXPECT_EQ(run_status(tool("pilot-clog2print") + " " +
                           dir.file("cut.clog2").string(), &out), 1);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
  EXPECT_NE(out.find("cut.clog2"), std::string::npos) << out;

  EXPECT_EQ(run_status(tool("pilot-slog2print") + " " +
                           dir.file("cut.slog2").string(), &out), 1);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
  EXPECT_NE(out.find("cut.slog2"), std::string::npos) << out;
}

TEST(Tools, TraceCheckEndToEnd) {
  namespace wc = workloads::collisions;
  util::TempDir dir_a;
  util::TempDir dir_fixed;

  wc::AppConfig cfg;
  cfg.workers = 3;
  cfg.records = 5000;
  cfg.query_rounds = 3;
  cfg.costs.parse_per_byte = 0;  // TC202 is structural; no timing needed
  cfg.costs.query_per_record = 0;
  cfg.variant = wc::Variant::kInstanceA;
  cfg.pilot_args = {"-piwatchdog=30", "-pisvc=j",
                    "-piout=" + dir_a.path().string()};
  ASSERT_FALSE(wc::run_app(cfg).run.aborted);
  cfg.variant = wc::Variant::kFixed;
  cfg.pilot_args.back() = "-piout=" + dir_fixed.path().string();
  ASSERT_FALSE(wc::run_app(cfg).run.aborted);

  // Instance A: findings -> exit 1, TC202 named in the text report.
  std::string out;
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " " +
                           dir_a.file("pilot.clog2").string(), &out), 1);
  EXPECT_NE(out.find("TC202"), std::string::npos) << out;
  EXPECT_NE(out.find("finding(s)"), std::string::npos) << out;

  // --json mode emits the same findings machine-readably.
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --json " +
                           dir_a.file("pilot.clog2").string(), &out), 1);
  EXPECT_NE(out.find("\"id\": \"TC202\""), std::string::npos) << out;

  // The fixed variant is clean -> exit 0. A generous --min-stall keeps
  // scheduler noise on loaded machines out of this exit-code check.
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --min-stall=0.5 " +
                           dir_fixed.file("pilot.clog2").string(), &out), 0)
      << out;
  EXPECT_NE(out.find("0 finding(s)"), std::string::npos) << out;

  // Usage and input errors -> exit 2.
  EXPECT_EQ(run_status(tool("pilot-tracecheck"), &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --bogus " +
                           dir_a.file("pilot.clog2").string(), &out), 2);
  EXPECT_NE(out.find("unknown option"), std::string::npos) << out;
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " /nonexistent.clog2", &out), 2);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
}

TEST(Tools, TraceCheckJsonReportShape) {
  const std::string messy = std::string(PILOT_FIXTURE_DIR) + "/messy.clog2";
  std::string out;
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --json " + messy, &out), 1);
  // One wrapping object with verdict + counts + implicated ranks, findings
  // still one per line for line-oriented consumers.
  EXPECT_NE(out.find("\"tool\": \"pilot-tracecheck\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"verdict\": \"error\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ranks\": [0, 1, 2]"), std::string::npos) << out;
  EXPECT_NE(out.find("\"id\": \"TC301\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"findings\": ["), std::string::npos) << out;
}

TEST(Tools, TraceDiffEndToEnd) {
  const std::string fx = std::string(PILOT_FIXTURE_DIR);
  const std::string a = fx + "/diffpair.a.clog2";
  const std::string b = fx + "/diffpair.b.clog2";
  std::string out;

  // Identical traces: exit 0, says so.
  EXPECT_EQ(run_status(tool("pilot-tracediff") + " " + a + " " + a, &out), 0);
  EXPECT_NE(out.find("identical"), std::string::npos) << out;

  // The golden pair: exit 1 and byte-for-byte the checked-in diagnostics.
  EXPECT_EQ(run_status(tool("pilot-tracediff") + " " + a + " " + b, &out), 1);
  const std::string golden =
      util::read_text_file(fx + "/diffpair.tracediff.txt");
  EXPECT_EQ(out.substr(0, golden.size()), golden) << out;
  EXPECT_NE(out.find("structural-divergence"), std::string::npos) << out;

  // JSON mode carries the verdict and the ranked suspect.
  EXPECT_EQ(
      run_status(tool("pilot-tracediff") + " --json " + a + " " + b, &out), 1);
  EXPECT_NE(out.find("\"verdict\": \"structural-divergence\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"id\": \"TD301\""), std::string::npos) << out;

  // N-way: reference vs. two suspects, one clean, one diverged.
  EXPECT_EQ(run_status(tool("pilot-tracediff") + " " + a + " " + a + " " + b,
                       &out),
            1);
  EXPECT_NE(out.find("identical"), std::string::npos) << out;
  EXPECT_NE(out.find("TD102"), std::string::npos) << out;

  // Usage and input errors -> exit 2.
  EXPECT_EQ(run_status(tool("pilot-tracediff") + " " + a, &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  EXPECT_EQ(run_status(tool("pilot-tracediff") + " " + a + " /nope.clog2",
                       &out),
            2);
}

TEST(Tools, TraceCheckSilentOnCleanLab2Trace) {
  util::TempDir dir;
  std::string out;
  ASSERT_EQ(run_status(example("lab2") + " -pisvc=j -piout=" +
                           dir.path().string(), &out), 0) << out;
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " " +
                           dir.file("pilot.clog2").string(), &out), 0) << out;
  EXPECT_NE(out.find("0 finding(s)"), std::string::npos) << out;
}

TEST(Tools, PilintCleanExampleExitsZero) {
  std::string out;
  EXPECT_EQ(run_status(example("quickstart") + " -pilint", &out), 0) << out;
  // It linted and exited before the execution phase — no program output.
  EXPECT_NE(out.find("pilot-lint"), std::string::npos) << out;
  EXPECT_EQ(out.find("CSP"), std::string::npos) << out;
}

TEST(Tools, PilintFlagsSmellyExample) {
  std::string out;
  EXPECT_EQ(run_status(example("lint_demo") + " -pilint -picheck=0", &out), 1)
      << out;
  EXPECT_NE(out.find("PL01"), std::string::npos) << out;  // self-loop channel
  EXPECT_NE(out.find("PL02"), std::string::npos) << out;  // isolated process
}

int salvage_abort_worker(int, void*) {
  int v = 0;
  PI_Read(g_to_worker, "%d", &v);
  PI_Abort(3, "crash for salvage test");
  return 0;
}

TEST(Tools, LogSalvageAfterAbort) {
  util::TempDir dir;
  const auto res = pilot::run(
      {"prog", "-pisvc=j", "-pirobust", "-piout=" + dir.path().string(),
       "-piwatchdog=30"},
      [](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* w = PI_CreateProcess(salvage_abort_worker, 0, nullptr);
        g_to_worker = PI_CreateChannel(PI_MAIN, w);
        g_from_worker = PI_CreateChannel(w, PI_MAIN);
        PI_StartAll();
        PI_Write(g_to_worker, "%d", 1);
        int v = 0;
        PI_Read(g_from_worker, "%d", &v);  // abort wakes us
        PI_StopMain(0);
        return 0;
      });
  ASSERT_TRUE(res.aborted);

  std::string out;
  const std::string base = (dir.path() / "pilot").string();
  ASSERT_EQ(run_cmd(tool("pilot-logsalvage") + " " + base, &out), 0) << out;
  EXPECT_NE(out.find("salvaged"), std::string::npos);
  ASSERT_EQ(run_cmd(tool("pilot-clog2print") + " " + base + ".salvaged.clog2", &out),
            0);
  EXPECT_NE(out.find("PI_Write"), std::string::npos);
}

// --- record/replay (-pirecord / -pireplay, pilot-replayprint) ----------------

/// The lines of a tracecheck --json report whose finding has the given ID.
std::vector<std::string> json_findings(const std::string& json,
                                       const std::string& id) {
  std::vector<std::string> hits;
  std::size_t pos = 0;
  while ((pos = json.find('\n', pos)) != std::string::npos) {
    const std::size_t end = json.find('\n', pos + 1);
    const std::string line = json.substr(pos + 1, end - pos - 1);
    if (line.find("\"id\": \"" + id + "\"") != std::string::npos)
      hits.push_back(line);
    pos += 1;
  }
  return hits;
}

TEST(Tools, ReplayReproducesInstanceABugIdentically) {
  util::TempDir dir;
  const std::string prl = dir.file("run.prl").string();
  const std::string base = example("collision_query") +
      " --variant=a --workers=3 --records=5000 --rounds=3"
      " -pisvc=cj -piwatchdog=30 -piout=" + dir.path().string();

  std::string out;
  ASSERT_EQ(run_status(base + " -piname=rec -pirecord=" + prl, &out), 0) << out;

  // Three replays of the buggy run: identical CLOG-2 event orderings
  // (timestamps excluded) and the identical TC202 serialized-fan-in finding.
  std::vector<std::string> fingerprints;
  std::vector<std::vector<std::string>> tc202;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "rep" + std::to_string(i);
    ASSERT_EQ(run_status(base + " -piname=" + name + " -pireplay=" + prl, &out),
              0) << out;
    const std::string clog = dir.file(name + ".clog2").string();
    fingerprints.push_back(
        replay::trace_fingerprint(clog2::read_file(clog)));
    EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --json " + clog, &out), 1);
    tc202.push_back(json_findings(out, "TC202"));
    EXPECT_FALSE(tc202.back().empty()) << out;
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[1], fingerprints[2]);
  EXPECT_EQ(tc202[0], tc202[1]);
  EXPECT_EQ(tc202[1], tc202[2]);
}

TEST(Tools, ReplayPrintDumpsAndRejectsCorruptInput) {
  util::TempDir dir;
  const std::string prl = dir.file("farm.prl").string();
  std::string out;
  ASSERT_EQ(run_status(example("select_farm") + " -piout=" + dir.path().string() +
                           " -pirecord=" + prl, &out), 0) << out;

  ASSERT_EQ(run_status(tool("pilot-replayprint") + " " + prl, &out), 0) << out;
  EXPECT_NE(out.find("select"), std::string::npos);
  EXPECT_NE(out.find("rank"), std::string::npos);

  // Usage -> 2; unreadable/corrupt input -> 1 (like clog2print/slog2print).
  EXPECT_EQ(run_status(tool("pilot-replayprint"), &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  EXPECT_EQ(run_status(tool("pilot-replayprint") + " /nonexistent.prl", &out), 1);
  EXPECT_NE(out.find("error"), std::string::npos) << out;

  const auto bytes = util::read_file(prl);
  ASSERT_GT(bytes.size(), 8u);
  const auto cut = dir.file("cut.prl");
  util::write_file(cut, std::vector<std::uint8_t>(bytes.begin(),
                                                  bytes.end() - 5));
  EXPECT_EQ(run_status(tool("pilot-replayprint") + " " + cut.string(), &out), 1);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
}

TEST(Tools, TraceCheckReplayCrossCheck) {
  util::TempDir dir;
  const std::string prl = dir.file("farm.prl").string();
  std::string out;
  ASSERT_EQ(run_status(example("select_farm") + " -pisvc=cj -piout=" +
                           dir.path().string() + " -pirecord=" + prl, &out), 0)
      << out;
  const std::string clog = dir.file("pilot.clog2").string();

  // A trace checked against its own log agrees.
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --replay=" + prl + " " +
                           clog, &out), 0) << out;
  EXPECT_NE(out.find("0 finding(s)"), std::string::npos) << out;

  // Tamper with one recorded select branch: the cross-check flags RP22.
  replay::Log log = replay::read_file(prl);
  bool flipped = false;
  for (auto& events : log.per_rank) {
    for (auto& e : events)
      if (e.kind == replay::EventKind::kSelect) {
        e.b = e.b == 0 ? 1 : 0;
        flipped = true;
        break;
      }
    if (flipped) break;
  }
  ASSERT_TRUE(flipped);
  const auto tampered = dir.file("tampered.prl");
  replay::write_file(tampered, log);
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --replay=" +
                           tampered.string() + " " + clog, &out), 1) << out;
  EXPECT_NE(out.find("RP22"), std::string::npos) << out;

  // Unreadable replay log -> usage/input error.
  EXPECT_EQ(run_status(tool("pilot-tracecheck") + " --replay=/nonexistent.prl " +
                           clog, &out), 2);
  EXPECT_NE(out.find("error"), std::string::npos) << out;
}

TEST(Tools, TracedLiveIngestMatchesOfflinePipeline) {
  // The streaming pipeline end-to-end through the real binaries:
  // pilot-tracegen --stream paces a CLOG-2 byte stream into a FIFO that
  // pilot-traced ingests as a live session; a protocol client watches the
  // session fill, renders mid-run, and finalizes — and the finalized
  // SLOG-2 file, its jumpshot render, and the tracecheck verdict must all
  // match the offline pilot-clog2toslog2 pipeline over the same trace.
  util::TempDir dir;
  const std::string fifo = dir.file("in.fifo").string();
  const std::string sock = dir.file("d.sock").string();
  const std::string off_clog = dir.file("off.clog2").string();
  const std::string off_slog = dir.file("off.slog2").string();
  const std::string live_slog = dir.file("live.slog2").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);

  // Offline reference: tracegen is seed-deterministic, so this file holds
  // the exact bytes the --stream run below will emit.
  const std::string gen_args = " --events=4000 --ranks=4 --seed=33 --quiet";
  std::string out;
  ASSERT_EQ(run_status(tool("pilot-tracegen") + " " + off_clog + gen_args, &out),
            0) << out;
  ASSERT_EQ(run_status(tool("pilot-clog2toslog2") + " " + off_clog + " --out=" +
                           off_slog + " --threads=2 --quiet", &out), 0) << out;

  // Daemon with the FIFO attached as session "run1"; a tight disorder
  // bound (tracegen streams are sorted) keeps the live view current.
  std::thread daemon([&] {
    run_cmd(tool("pilot-traced") + " --socket=" + sock + " --ingest=run1:" +
            fifo + " --workers=2 --disorder=0.000001 --quiet");
  });
  // Paced streamer: ~2000 records/s makes the run last about two seconds,
  // long enough to observe the session mid-stream.
  std::thread streamer([&] {
    run_cmd(tool("pilot-tracegen") + " " + fifo + gen_args + " --stream=2000");
  });

  util::UnixConn conn;
  for (int i = 0; i < 100 && !conn.valid(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    try {
      conn = util::UnixConn::connect_to(sock);
    } catch (const util::Error&) {
    }
  }
  ASSERT_TRUE(conn.valid()) << "pilot-traced never opened its socket";

  auto request = [&](const std::string& line) {
    conn.write_line(line);
    std::string resp;
    EXPECT_TRUE(conn.read_line(&resp)) << "daemon hung up on: " << line;
    return traced::JsonObject::parse(resp);
  };

  ASSERT_TRUE(request(R"({"op":"ping"})").boolean("ok"));

  // Wait until ingest has visibly started, then render mid-run.
  bool saw_live = false;
  for (int i = 0; i < 100 && !saw_live; ++i) {
    const auto st = request(R"({"op":"status","session":"run1"})");
    if (st.boolean("ok") && st.num_or("records", 0) > 0 &&
        st.str("phase") == "open")
      saw_live = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(saw_live) << "never observed the session mid-stream";
  const auto mid = request(R"({"op":"render","session":"run1","width":640})");
  ASSERT_TRUE(mid.boolean("ok"));
  EXPECT_NE(mid.str("svg").find("<svg"), std::string::npos);
  EXPECT_TRUE(request(R"({"op":"query","session":"run1","kind":"legend"})")
                  .boolean("ok"));

  // Wait for the writer to close the FIFO and the stream to complete.
  std::string phase;
  for (int i = 0; i < 300 && phase != "complete"; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    phase = request(R"({"op":"status","session":"run1","sync":true})").str("phase");
  }
  ASSERT_EQ(phase, "complete") << "stream never completed";

  // Finalize: byte-identical to the offline converter (defaults match
  // pilot-clog2toslog2's; thread count provably does not affect bytes).
  const auto fin = request(traced::JsonWriter()
                               .field("op", "finalize")
                               .field("session", "run1")
                               .field("out", live_slog)
                               .done());
  ASSERT_TRUE(fin.boolean("ok"));
  EXPECT_EQ(util::read_file(live_slog), util::read_file(off_slog));

  ASSERT_TRUE(request(R"({"op":"shutdown"})").boolean("ok"));
  conn.close();
  daemon.join();
  streamer.join();

  // Downstream agreement: identical renders and tracecheck verdicts.
  const std::string svg_live = dir.file("live.svg").string();
  const std::string svg_off = dir.file("off.svg").string();
  // Fixed --title: jumpshot otherwise embeds the (differing) input path.
  ASSERT_EQ(run_status(tool("pilot-jumpshot") + " " + live_slog +
                           " --title=run --out=" + svg_live, &out), 0) << out;
  ASSERT_EQ(run_status(tool("pilot-jumpshot") + " " + off_slog +
                           " --title=run --out=" + svg_off, &out), 0) << out;
  EXPECT_EQ(util::read_text_file(svg_live), util::read_text_file(svg_off));

  // The streamed bytes ARE off_clog (seed determinism), so tracecheck's
  // verdict on it is the verdict for the ingested trace; pin that it runs
  // and is deterministic across two invocations.
  std::string verdict1, verdict2;
  const int rc1 = run_status(tool("pilot-tracecheck") + " --json " + off_clog,
                             &verdict1);
  const int rc2 = run_status(tool("pilot-tracecheck") + " --json " + off_clog,
                             &verdict2);
  EXPECT_LE(rc1, 1);
  EXPECT_EQ(rc1, rc2);
  EXPECT_EQ(verdict1, verdict2);
}

TEST(Tools, TracedigestEndToEndOnV2) {
  // The summary pipeline as a user runs it: synthesize, convert with the
  // columnar v2 frames, digest. The digest must be deterministic at the
  // binary level and honor its byte budget exactly.
  util::TempDir dir;
  const std::string clog = dir.file("gen.clog2").string();
  const std::string slog = dir.file("gen.slog2").string();
  std::string out;
  ASSERT_EQ(run_status(tool("pilot-tracegen") + " " + clog +
                           " --events=20000 --ranks=8 --seed=5 --quiet", &out), 0)
      << out;
  ASSERT_EQ(run_status(tool("pilot-clog2toslog2") + " " + clog + " --out=" + slog +
                           " --frame-encoding=v2 --quiet", &out), 0)
      << out;

  std::string digest1, digest2;
  ASSERT_EQ(run_status(tool("pilot-tracedigest") + " " + slog + " --budget=2048",
                       &digest1), 0) << digest1;
  EXPECT_LE(digest1.size(), 2048U);
  EXPECT_NE(digest1.find("v2 payloads"), std::string::npos) << digest1;
  EXPECT_NE(digest1.find("ranks:"), std::string::npos) << digest1;
  ASSERT_EQ(run_status(tool("pilot-tracedigest") + " " + slog + " --budget=2048",
                       &digest2), 0);
  EXPECT_EQ(digest1, digest2) << "digest is not deterministic";

  std::string json;
  ASSERT_EQ(run_status(tool("pilot-tracedigest") + " " + slog +
                           " --json --budget=600", &json), 0) << json;
  EXPECT_LE(json.size(), 600U);
  EXPECT_EQ(json.front(), '{') << json;

  // Unknown flags are rejected loudly, not ignored.
  EXPECT_NE(run_status(tool("pilot-tracedigest") + " " + slog + " --bogus=1",
                       &out), 0);
}

constexpr int kDigestWorkers = 3;
constexpr int kDigestRounds = 12;
PI_CHANNEL* g_dig_to[kDigestWorkers];
PI_CHANNEL* g_dig_from[kDigestWorkers];

int digest_farm_worker(int index, void*) {
  for (int r = 0; r < kDigestRounds; ++r) {
    int base = 0;
    PI_Read(g_dig_to[index], "%d", &base);
    PI_Write(g_dig_from[index], "%d", base * 2);
  }
  return 0;
}

TEST(Tools, TracedigestSurfacesInjectedDelayFault) {
  // A targeted delay= fault plan on one worker of a deterministic farm (the
  // tasks substrate makes the injected jitter exact virtual time) must show
  // up in the digest's anomaly section naming the victim rank.
  util::TempDir dir;
  constexpr int kVictim = 2;
  const auto res = pilot::run(
      {"prog", "-piexec=tasks", "-pisvc=j", "-piwatchdog=30",
       "-piout=" + dir.path().string(), "-piname=delayed",
       util::strprintf("-pifault=seed=7;delay=1:5@%d", kVictim)},
      [](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        for (int i = 0; i < kDigestWorkers; ++i) {
          PI_PROCESS* w = PI_CreateProcess(digest_farm_worker, i, nullptr);
          g_dig_to[i] = PI_CreateChannel(PI_MAIN, w);
          g_dig_from[i] = PI_CreateChannel(w, PI_MAIN);
        }
        PI_StartAll();
        for (int r = 0; r < kDigestRounds; ++r) {
          for (int i = 0; i < kDigestWorkers; ++i)
            PI_Write(g_dig_to[i], "%d", r * 10 + i);
          for (int i = 0; i < kDigestWorkers; ++i) {
            int v = 0;
            PI_Read(g_dig_from[i], "%d", &v);
          }
        }
        PI_StopMain(0);
        return 0;
      });
  ASSERT_FALSE(res.aborted);

  const std::string slog = dir.file("delayed.slog2").string();
  std::string out;
  // Exit 3 = converted with warnings (a faulted run is rarely "clean");
  // anything else is a real failure.
  const int conv_rc = run_status(
      tool("pilot-clog2toslog2") + " " + dir.file("delayed.clog2").string() +
          " --out=" + slog + " --frame-encoding=v2 --quiet", &out);
  ASSERT_TRUE(conv_rc == 0 || conv_rc == 3) << conv_rc << "\n" << out;
  std::string digest;
  ASSERT_EQ(run_status(tool("pilot-tracedigest") + " " + slog + " --budget=8192",
                       &digest), 0) << digest;

  // Extract the anomaly section and look for the victim inside it.
  const std::size_t anom = digest.find("anomalies (");
  ASSERT_NE(anom, std::string::npos) << digest;
  const std::size_t ranks = digest.find("ranks:", anom);
  ASSERT_NE(ranks, std::string::npos) << digest;
  const std::string section = digest.substr(anom, ranks - anom);
  const std::string victim = util::strprintf("rank %d ", kVictim);
  const std::string victim_edge_in = util::strprintf("->%d ", kVictim);
  const std::string victim_edge_out = util::strprintf("edge %d->", kVictim);
  EXPECT_TRUE(section.find(victim) != std::string::npos ||
              section.find(victim_edge_in) != std::string::npos ||
              section.find(victim_edge_out) != std::string::npos)
      << "victim rank " << kVictim << " absent from anomaly section:\n"
      << digest;
}

}  // namespace
