// perfbench: parses the command line, runs one workload, and prints
// its result as the last line of stdout:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (and writes the run's spans as a CLOG-2 self-trace).
//
//   perfbench --workload apps|postmortem|live --seed N --seconds S --trace 0|1
//             [--tiny] [--truncate-live] [--self-trace FILE] [--workdir DIR]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.hpp"
#include "clog2/clog2.hpp"
#include "jumpshot/render.hpp"
#include "slog2/slog2.hpp"
#include "util/strings.hpp"

namespace {

using perfbench::Metric;

// The metric tables BENCHMARK.json declares, in print order.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},      {"wall_s", "s"},        {"first_view_s", "s"},
    {"query_p50_ms", "ms"}, {"query_tail_ms", "ms"}, {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"run_s", "s"},
    {"analyze_s", "s"},
    {"ingest_mb_s", "MB/s"},
    {"out_mb", "MB"},
    {"trace.wall_s", "s"},
    {"trace.spans", "count"},
    {"pilot.run_nolog_s", "s"},
    {"pilot.messages", "count"},
    {"mpe.log_s", "s"},
    {"clog2.records", "count"},
    {"clog2.mb", "MB"},
    {"clog2.read_s", "s"},
    {"clog2.stream_records", "count"},
    {"slog2.convert_s", "s"},
    {"slog2.convert_warnings", "count"},
    {"slog2.serialize_s", "s"},
    {"slog2.mb", "MB"},
    {"slog2.open_ms", "ms"},
    {"slog2.frames_decoded", "count"},
    {"slog2.cache_hits", "count"},
    {"slog2.cache_misses", "count"},
    {"slog2.cache_evictions", "count"},
    {"slog2.cache_hit_ratio", "ratio"},
    {"jumpshot.zoom_ms", "ms"},
    {"jumpshot.lod_ms", "ms"},
    {"jumpshot.lod_share", "ratio"},
    {"jumpshot.svg_mb", "MB"},
    {"query.trace_build_s", "s"},
    {"query.match_s", "s"},
    {"query.clocks_s", "s"},
    {"query.durations_s", "s"},
    {"query.edges_s", "s"},
    {"query.legend_ms", "ms"},
    {"query.occupancy_ms", "ms"},
    {"analyze.check_s", "s"},
    {"analyze.diff_s", "s"},
    {"digest.analyze_s", "s"},
    {"traced.feed_p50_ms", "ms"},
    {"traced.feed_p99_ms", "ms"},
    {"traced.query_ms", "ms"},
    {"traced.render_ms", "ms"},
    {"traced.finalize_s", "s"},
    {"traced.peak_live_mb", "MB"},
    {"traced.sealed_chunks", "count"},
    {"traced.frontier_lag_s", "s"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload apps|postmortem|live "
               "--seed N --seconds S --trace 0|1 [--tiny] [--truncate-live] "
               "[--self-trace FILE] [--workdir DIR]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Config parse(int argc, char** argv) {
  perfbench::Config cfg;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!util::starts_with(arg, "--")) usage("unexpected argument " + arg);
    arg = arg.substr(2);
    if (arg == "tiny" || arg == "truncate-live") {
      kv[arg] = "1";
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      if (i + 1 >= argc) usage("--" + arg + " needs a value");
      kv[arg] = argv[++i];
    }
  }
  auto take = [&](const std::string& key, const std::string& fallback) {
    const auto it = kv.find(key);
    std::string v = it == kv.end() ? fallback : it->second;
    if (it != kv.end()) kv.erase(it);
    return v;
  };
  try {
    cfg.workload = take("workload", "");
    cfg.seed = std::stoull(take("seed", "1"));
    cfg.seconds = std::stod(take("seconds", "10"));
    cfg.trace = take("trace", "0") == "1";
    cfg.tiny = take("tiny", "0") == "1";
    cfg.truncate_live = take("truncate-live", "0") == "1";
    cfg.setups = cfg.tiny ? 1 : 5;
    cfg.workdir = take("workdir", ".bench_build/work-" + std::to_string(::getpid()));
    cfg.self_trace = take("self-trace", "");
  } catch (const std::exception&) {
    usage("malformed option value");
  }
  if (!kv.empty()) usage("unknown option --" + kv.begin()->first);
  if (cfg.workload != "apps" && cfg.workload != "postmortem" && cfg.workload != "live")
    usage("unknown workload '" + cfg.workload + "'");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
  if (cfg.self_trace.empty())
    cfg.self_trace = ".bench_build/selftrace/" + cfg.workload + "-seed" +
                     std::to_string(cfg.seed) + ".clog2";
  return cfg;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Config cfg = parse(argc, argv);
  perfbench::Outcome out;
  if (cfg.trace) perfbench::Tracer::get().enable();
  perfbench::Tracer::bind_thread(0);

  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", cfg.workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  int status = 0;
  try {
    if (cfg.workload == "apps") perfbench::run_apps(cfg, out);
    if (cfg.workload == "postmortem") perfbench::run_postmortem(cfg, out);
    if (cfg.workload == "live") perfbench::run_live(cfg, out);
    if (cfg.trace) {
      std::filesystem::create_directories(cfg.self_trace.parent_path());
      perfbench::Tracer::get().write_clog2(
          cfg.self_trace, "perfbench self-trace workload=" + cfg.workload +
                              " seed=" + std::to_string(cfg.seed));
      out.note("self_trace", cfg.self_trace.string());
      // The self-trace must go through the converter and renderer cleanly,
      // as pilot-clog2toslog2 and pilot-jumpshot read it.
      const slog2::File slog = slog2::convert(clog2::read_file(cfg.self_trace));
      out.check(slog.stats.clean() && slog.stats.total_states > 0 &&
                    !jumpshot::render_svg(slog).empty(),
                "self-trace converts cleanly to SLOG-2 and renders");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    status = 1;
  }
  std::filesystem::remove_all(cfg.workdir, ec);
  if (status != 0) return status;

  // Provenance first, then the result line.
  std::string prov = "{";
  for (const auto& [k, v] : out.provenance())
    prov += (prov.size() > 1 ? ", " : "") + json_string(k) + ": " + json_string(v);
  std::printf("provenance %s}\n", prov.c_str());

  std::map<std::string, Metric> got;
  for (const Metric& m : out.metrics()) got[m.name] = m;
  const auto& table = cfg.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const auto& [name, unit] : table) {
    double value = 0.0;  // per-layer metric of a layer this workload never calls
    if (const auto it = got.find(name); it != got.end()) {
      if (it->second.unit != unit) {
        std::fprintf(stderr, "perfbench: metric %s has unit %s, table says %s\n",
                     name.c_str(), it->second.unit.c_str(), unit.c_str());
        return 1;
      }
      value = it->second.value;
      got.erase(it);
    } else if (!cfg.trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
    if (!std::isfinite(value)) value = 0.0;
    metrics += util::strprintf("%s%s: {\"value\": %.17g, \"unit\": %s}",
                               metrics.empty() ? "" : ", ", json_string(name).c_str(),
                               value, json_string(unit).c_str());
  }
  for (const auto& [name, m] : got)
    std::fprintf(stderr, "perfbench: metric %s is not in the table\n", name.c_str());
  if (!got.empty()) return 1;

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failures()), metrics.c_str());
  return 0;
}
