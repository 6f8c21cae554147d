// perfbench: one end-to-end benchmark of the Pilot log pipeline.
//
// Three seeded workloads (apps, postmortem, live) drive the public
// functions of each library module, check every output, and report
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// See README.md in this directory for the metric glossary and design notes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "jumpshot/render.hpp"

namespace perfbench {

// --- configuration ----------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;            ///< self-test sizes: seconds of work, not minutes
  bool truncate_live = false;   ///< self-test: cut one live stream short
  int setups = 5;               ///< set-up repetitions (setup_s is their median)
  std::filesystem::path workdir;     ///< working files of this run
  std::filesystem::path self_trace;  ///< CLOG-2 written by the traced run
};

// --- outcome ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: operation counts, correctness, metrics, and
/// provenance lines.
class Outcome {
 public:
  /// One operation was attempted; call failed() when it did not succeed.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void failed(const std::string& why);
  /// An output check did not hold: the run is not correct.
  void wrong(const std::string& why);
  /// Check `ok`; when false, the run is not correct.
  void check(bool ok, const std::string& what) {
    if (!ok) wrong(what);
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    provenance_.emplace_back(key, value);
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failures() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& provenance()
      const {
    return provenance_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<bool> correct_{true};
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> provenance_;
};

// --- tracing ----------------------------------------------------------------

/// Benchmark phases; every span records the phase it started in, so the
/// per-layer numbers can be taken from the measured phase alone.
enum class Phase : std::uint8_t { kSetup = 0, kWarmup = 1, kMeasure = 2, kVerify = 3 };

/// Every function the benchmark times. Each becomes one state category in
/// the self-trace, named layer::function.
enum class Fn : std::uint16_t {
  kSetup,
  kRound,
  kRequest,
  kFirstView,
  kAnalysis,
  kTracegen,
  kPilotRunLogged,
  kPilotRunNolog,
  kClog2Read,
  kSlog2Convert,
  kFileWrite,
  kSlog2Serialize,
  kSlog2Open,
  kRenderZoom,
  kRenderLod,
  kLegend,
  kOccupancy,
  kTraceBuild,
  kMatch,
  kClocks,
  kDurations,
  kEdges,
  kCheck,
  kDiff,
  kDigest,
  kTracedOpen,
  kTracedFeed,
  kTracedStatus,
  kTracedQuery,
  kTracedRender,
  kTracedEnd,
  kTracedFinalize,
  kTracedClose,
  kCount
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process-wide span recorder. Spans are kept in per-thread buffers (each
/// benchmark thread binds its own timeline index before recording) and are
/// only recorded when enabled; timing itself always happens, because the
/// untraced run reads its end-to-end samples from the same Span objects.
class Tracer {
 public:
  static constexpr int kMaxThreads = 16;

  static Tracer& get();

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_phase(Phase p) { phase_.store(static_cast<std::uint8_t>(p)); }

  /// Bind the calling thread to timeline `tid` (0 = main).
  static void bind_thread(int tid);

  void begin(Fn fn, std::uint64_t req);
  void end(Fn fn);

  /// Durations (seconds) of every completed span of `fn` that began in
  /// `phase`, over all timelines.
  [[nodiscard]] std::vector<double> durations(Fn fn, Phase phase) const;

  /// Write every span as a CLOG-2 trace: one timeline (rank) per benchmark
  /// thread, one state category per Fn, the request id as popup text.
  void write_clog2(const std::filesystem::path& path, const std::string& comment) const;

  [[nodiscard]] std::size_t span_count() const;

 private:
  struct Ev {
    double t = 0.0;
    std::uint64_t req = 0;
    Fn fn = Fn::kSetup;
    std::uint8_t phase = 0;
    bool begin = false;
  };
  Tracer() : epoch_(Clock::now()) {}

  bool enabled_ = false;
  std::atomic<std::uint8_t> phase_{0};
  Clock::time_point epoch_;
  std::vector<Ev> bufs_[kMaxThreads];
};

/// One timed call. Always measures; records begin/end events when tracing
/// is enabled.
class Span {
 public:
  explicit Span(Fn fn, std::uint64_t req = 0) : fn_(fn), t0_(Clock::now()) {
    if (Tracer::get().enabled()) Tracer::get().begin(fn, req);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span (idempotent) and return its duration in seconds.
  double stop() {
    if (!done_) {
      done_ = true;
      elapsed_ = seconds_between(t0_, Clock::now());
      if (Tracer::get().enabled()) Tracer::get().end(fn_);
    }
    return elapsed_;
  }

 private:
  Fn fn_;
  Clock::time_point t0_;
  double elapsed_ = 0.0;
  bool done_ = false;
};

// --- statistics and helpers ---------------------------------------------------

double median_of(std::vector<double> v);  ///< 0 for an empty sample
/// Percentile p (0..100) by the nearest-rank rule; 0 for an empty sample.
double percentile_of(std::vector<double> v, double p);

/// The median of each round's samples, averaged over the rounds that have
/// any. The host runs this code fast or slow in stretches of seconds; a
/// median over the whole run jumps between the two levels when slow
/// stretches cover about half of it, while this average moves in step with
/// the share they cover.
double mean_round_median(const std::vector<std::vector<double>>& rounds);

/// Tail latency: the highest percentile up to `p` (and at least the median)
/// that leaves at least ten samples beyond it. Records the percentile used
/// and the sample count in `out`.
double tail_of(const std::vector<double>& v, double p, const std::string& name,
               Outcome& out);

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);
inline std::uint64_t fnv1a(const std::string& s) { return fnv1a(s.data(), s.size()); }

double peak_rss_mb();
double mb(double bytes);

/// Run `fn` as one attempted operation: an exception counts as a failed
/// operation (reported with `what`) instead of ending the run.
template <typename F>
bool guarded(Outcome& out, const std::string& what, F&& fn) {
  out.attempt();
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    out.failed(what + ": " + e.what());
    return false;
  }
}

/// Total converter warnings (unmatched halves, unclosed states, Equal
/// Drawables, unknown event ids).
std::uint64_t warning_count(const slog2::ConvertStats& st);

/// Per-layer metrics shared by every workload, taken from the spans.
void report_span_metrics(Outcome& out);

/// Process-wide slog2::FrameCache counters; report_cache_metrics prints the
/// change since `before`, per measured round.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  static CacheCounters now();
};
void report_cache_metrics(Outcome& out, const CacheCounters& before, double rounds);

/// Render `ro`'s window of `nav` (the whole file when unset) at hardware
/// threads, timed as a zoom render when the window's frames fit the LOD
/// budget and as a preview-LOD render otherwise.
std::string render_view(slog2::Navigator& nav, jumpshot::RenderOptions ro);

/// Move the calling thread to the next of the process's cores in turn, then
/// allow it every core again; it stays where it was put until the scheduler
/// has a reason to move it, and threads it starts may run anywhere. On a
/// shared 4-core VM each core ran fast or slow in stretches of its own (the
/// same postmortem render took 12-13 ms on one core and 19-20 ms on another
/// at the same moment), and a busy thread was left on one core for a whole
/// run, so the run measured that core. The serial steps of apps and postmortem
/// call this between steps, so one run visits every core. Returns the
/// number of cores in the turn (1: nothing to rotate).
int next_core();

/// Provenance shared by every workload: cores, resolved threads, seed, cache.
void note_common(const Config& cfg, Outcome& out);

// --- workloads ----------------------------------------------------------------

void run_apps(const Config& cfg, Outcome& out);
void run_postmortem(const Config& cfg, Outcome& out);
void run_live(const Config& cfg, Outcome& out);

}  // namespace perfbench
