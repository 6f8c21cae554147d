// pilot-tracecheck: offline happens-before checker for CLOG-2 traces.
//
// Loads a trace (including salvaged ones from -pirobust spills), rebuilds
// the causal order with per-rank vector clocks, and prints the TCxxx
// diagnostics from docs/ANALYZE.md: unmatched messages, wildcard-receive
// races, serialized fan-in (Instance A), majority-idle stalls (Instance B),
// wait-for cycles from -pisvc=a "Wait" events, and per-state interval
// anomalies.
//
// Exit status: 0 = clean, 1 = findings (warnings or errors), 2 = bad usage
// or unreadable input.
#include <cstdio>
#include <exception>

#include "analyze/tracecheck.hpp"
#include "replay/crosscheck.hpp"
#include "replay/prl.hpp"
#include "util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr,
                 "usage: %s <trace.clog2> [--json] [--replay=FILE.prl]\n"
                 "           [--stall-fraction=F] [--min-stall=SECONDS] "
                 "[--min-rounds=N] [--threads=N]\n"
                 "--threads=N shards only the trace build across N workers\n"
                 "(0 = hardware); the verdict is identical at any value.\n"
                 "--replay cross-checks the trace against a .prl replay log\n"
                 "(RP20-RP22 findings on disagreement).\n"
                 "exit status: 0 clean, 1 findings, 2 usage/input error\n",
                 args.program().c_str());
    return 2;
  }

  analyze::TraceCheckOptions opts;
  opts.stall_fraction = args.get_double_or("stall-fraction", opts.stall_fraction);
  opts.min_stall_seconds = args.get_double_or("min-stall", opts.min_stall_seconds);
  opts.min_serialized_rounds = static_cast<int>(
      args.get_int_or("min-rounds", opts.min_serialized_rounds));
  opts.threads = util::parse_threads(args);
  const bool json = args.has("json");
  const std::string replay_path = args.get_or("replay", "");
  for (const auto& key : args.unused_keys()) {
    std::fprintf(stderr, "error: unknown option --%s\n", key.c_str());
    return 2;
  }

  const std::string& path = args.positional()[0];
  clog2::File file;
  try {
    file = clog2::read_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  analyze::Report rep = analyze::check_trace(file, opts);
  if (!replay_path.empty()) {
    replay::Log log;
    try {
      log = replay::read_file(replay_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: %s\n", replay_path.c_str(), e.what());
      return 2;
    }
    rep.merge(replay::cross_check(file, log));
  }
  if (json) {
    const char* verdict = rep.count(analyze::Severity::kError) > 0 ? "error"
                          : rep.finding_count() > 0                ? "suspicious"
                                                                   : "clean";
    std::fprintf(stdout, "%s\n",
                 analyze::to_json_report(rep, "pilot-tracecheck", path, verdict)
                     .c_str());
  } else {
    std::fputs(rep.to_text().c_str(), stdout);
    std::fprintf(stdout, "%zu finding(s) in %s (%zu error(s), %zu warning(s))\n",
                 rep.finding_count(), path.c_str(),
                 rep.count(analyze::Severity::kError),
                 rep.count(analyze::Severity::kWarning));
  }
  return rep.finding_count() > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
