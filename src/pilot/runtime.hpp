// The Pilot runtime: entity tables, phase rules, the message engine behind
// PI_Read/PI_Write and the collectives, and the integration points for the
// three services (native log, deadlock detector, MPE/Jumpshot log).
//
// One Runtime exists per Pilot program run (installed globally so the
// C-style PI_* API can find it; pilot::run manages the lifecycle). Pilot
// programs go through three phases:
//
//   Config   — after PI_Configure: create processes/channels/bundles.
//   Running  — after PI_StartAll: work functions execute, I/O allowed.
//   Done     — after PI_StopMain: logs finalized, world joined.
//
// Misuse of any API raises PilotError with source file:line context.
#pragma once

#include <cstdarg>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "analyze/topology.hpp"
#include "fault/injector.hpp"
#include "mpisim/world.hpp"
#include "pilot/entities.hpp"
#include "replay/engine.hpp"
#include "pilot/errors.hpp"
#include "pilot/format.hpp"
#include "pilot/logviz.hpp"
#include "pilot/options.hpp"
#include "pilot/service.hpp"

namespace pilot {

class Runtime {
public:
  explicit Runtime(Options opts);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- global instance management (used by the PI_* layer and pilot::run) --
  static Runtime* current();
  static void install(std::unique_ptr<Runtime> rt);
  static std::unique_ptr<Runtime> uninstall();
  /// current() or a PilotError explaining that PI_Configure must run first.
  static Runtime& require(const CallSite& site);

  // --- configuration phase ---------------------------------------------------
  /// Finish PI_Configure: records the config-phase epoch and creates
  /// PI_MAIN. Returns the process budget (options.np, 0 = unbounded).
  int configure(const CallSite& site);

  Process* create_process(const CallSite& site, WorkFunc work, int index, void* arg2);
  Channel* create_channel(const CallSite& site, Process* from, Process* to);
  Bundle* create_bundle(const CallSite& site, PI_BUNUSE usage,
                        PI_CHANNEL* const channels[], int size);
  Channel** copy_channels(const CallSite& site, PI_COPYDIR direction,
                          PI_CHANNEL* const channels[], int size);

  void set_name(const CallSite& site, Process* p, const char* name);
  void set_name(const CallSite& site, Channel* c, const char* name);
  void set_name(const CallSite& site, Bundle* b, const char* name);

  /// Custom user state (PI_DefineState / PI_StateBegin / PI_StateEnd).
  int define_user_state(const CallSite& site, const char* name, const char* color);
  void state_begin(const CallSite& site, int handle);
  void state_end(const CallSite& site, int handle);

  // --- execution phase ---------------------------------------------------------
  void start_all(const CallSite& site);
  void stop_main(const CallSite& site, int status);

  /// Tear down an abandoned run (abort + join) and harvest abort/deadlock
  /// state into run_info(). Idempotent; called by the destructor and by
  /// pilot::run's exception paths.
  void teardown();

  void write(const CallSite& site, Channel* chan, const char* fmt, std::va_list ap);
  void read(const CallSite& site, Channel* chan, const char* fmt, std::va_list ap);
  void broadcast(const CallSite& site, Bundle* b, const char* fmt, std::va_list ap);
  void scatter(const CallSite& site, Bundle* b, const char* fmt, std::va_list ap);
  void gather(const CallSite& site, Bundle* b, const char* fmt, std::va_list ap);
  void reduce(const CallSite& site, Bundle* b, PI_REDOP op, const char* fmt,
              std::va_list ap);

  int select(const CallSite& site, Bundle* b);
  int try_select(const CallSite& site, Bundle* b);
  int channel_has_data(const CallSite& site, Channel* chan);

  double start_time(const CallSite& site);
  double end_time(const CallSite& site);
  void log(const CallSite& site, const char* text);
  [[nodiscard]] bool is_logging() const;
  [[noreturn]] void abort(const CallSite& site, int errcode, const char* text);
  void compute(const CallSite& site, double seconds);

  // --- results (valid after stop_main; benches and tests read these) -----------
  struct RunInfo {
    bool completed = false;  ///< stop_main ran to the end
    bool aborted = false;
    int abort_code = 0;
    bool deadlock = false;
    std::string deadlock_report;
    double mpe_wrapup_seconds = 0.0;  ///< MPE finish cost (rank-0 clock)
    std::vector<int> exit_codes;
    /// Analyze-service findings (-pisvc=a): topology lint from PI_StartAll
    /// plus usage lint from PI_StopMain. Empty without the service.
    analyze::Report lint;
    /// Replay divergence diagnostics (-pireplay=): RP-series findings, plus
    /// the RP06 unused-events warning. Empty without replay.
    analyze::Report replay;
    bool replay_diverged = false;
    /// Fault-injection outcome (-pifault=): FJ-series diagnostics for every
    /// fault that fired, the ranks killed, and the deterministic schedule
    /// dump chaos tests compare across runs. Empty without the option.
    analyze::Report fault;
    std::vector<int> crashed_ranks;
    std::string fault_schedule;
  };
  [[nodiscard]] const RunInfo& run_info() const { return run_info_; }
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] Process* main_process() { return main_; }
  [[nodiscard]] mpisim::World* world() { return world_.get(); }

  /// Rank names (for the renderer's Y axis), in rank order.
  [[nodiscard]] std::vector<std::string> rank_names() const;

  /// Copy of the entity graph (plus traffic counters once the run is
  /// over) in the analyze library's plain form.
  [[nodiscard]] analyze::Topology build_topology() const;

private:
  enum class Phase { kPreConfig, kConfig, kRunning, kDone };

  // Validation helpers; all throw PilotError with site context.
  [[noreturn]] void fail(const CallSite& site, const std::string& msg) const;
  void require_phase(const CallSite& site, Phase want, const char* what) const;
  Process* current_process(const CallSite& site, const char* what) const;
  /// The Process of the acting execution context, or nullptr (service rank,
  /// outside any rank). During the execution phase this derives from
  /// World::current() — correct on both substrates, where thread-locals
  /// would misattribute fibers sharing the carrier thread.
  Process* acting_process() const;
  mpisim::Comm& comm(const CallSite& site, const char* what) const;
  void check_pointer(const CallSite& site, const void* p, const char* what) const;

  // Wire helpers.
  struct ParsedArg {
    FormatSpec spec;
    std::size_t count = 0;       // resolved element count (writer side)
    const void* data = nullptr;  // writer source
    // reader-side destinations:
    void* dest = nullptr;     // scalar/fixed/star target
    int* len_out = nullptr;   // caret: length destination
    void** buf_out = nullptr; // caret: allocated-buffer destination
    double scalar_store = 0;  // staging for scalar writes
    std::vector<std::uint8_t> staged;  // staging for promoted scalars
  };
  std::vector<ParsedArg> parse_write_args(const CallSite& site, const char* fmt,
                                          std::va_list ap);
  std::vector<ParsedArg> parse_read_args(const CallSite& site, const char* fmt,
                                         std::va_list ap);
  std::vector<std::uint8_t> build_wire(const ParsedArg& arg) const;
  /// Deliver one received message into a reader ParsedArg; returns element
  /// count. Validates sizes and (level>=2) signature compatibility.
  std::size_t deliver_wire(const CallSite& site, const Channel& chan,
                           const ParsedArg& arg,
                           const std::vector<std::uint8_t>& wire);

  // Service-event helpers (no-ops when the service rank is absent).
  /// Call line for -pisvc=c, printf-style: formatted only when it is sent.
  void svc_call_line(const CallSite& site, const char* what, ...)
      __attribute__((format(printf, 3, 4)));
  void svc_write_event(int channel_id);
  void svc_wait(const std::vector<int>& channel_ids, const CallSite& site);
  void svc_consume(int channel_id, std::uint32_t count);
  void svc_resume();
  void svc_done();

  /// Per-rank tail work: DONE + MPE sync/finish (the dispatcher and
  /// stop_main share it).
  void finalize_rank(mpisim::Comm& c);

  /// Collect fault-injection outcomes (FJ diagnostics, crashed ranks, the
  /// schedule dump) into run_info(). Idempotent; stop_main and teardown
  /// both call it.
  void harvest_fault();

  /// Replay enforcement: spin until `chan` has data, or raise RP04 via the
  /// engine once its timeout elapses without the recorded outcome.
  void wait_channel_ready(mpisim::Comm& c, const Channel& chan, int subject_id,
                          int branch, const CallSite& site);

  int dispatch_rank(mpisim::Comm& c);

  Options opts_;
  Phase phase_ = Phase::kPreConfig;
  std::chrono::steady_clock::time_point config_epoch_;

  std::deque<Process> processes_;  // [0] = PI_MAIN
  std::deque<Channel> channels_;
  std::deque<Bundle> bundles_;
  Process* main_ = nullptr;
  std::vector<std::pair<std::string, std::string>> user_state_defs_;  // name,color

  std::unique_ptr<mpisim::World> world_;
  std::vector<double> start_times_;  ///< PI_StartTime per rank (TLS would
                                     ///< be shared by fibers under tasks)
  std::unique_ptr<LogViz> logviz_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<replay::Engine> replay_;
  std::unique_ptr<fault::Injector> fault_;
  int service_rank_ = -1;

  RunInfo run_info_;
};

/// Result of running a whole Pilot program via pilot::run.
struct RunResult {
  int status = 0;  ///< program_main's return value (or abort code)
  bool aborted = false;
  int abort_code = 0;
  bool deadlock = false;
  std::string deadlock_report;
  double mpe_wrapup_seconds = 0.0;
  std::vector<int> exit_codes;
  analyze::Report lint;    ///< analyze-service findings (-pisvc=a)
  analyze::Report replay;  ///< replay divergence findings (-pireplay=)
  bool replay_diverged = false;
  analyze::Report fault;           ///< fault-injection findings (-pifault=)
  std::vector<int> crashed_ranks;  ///< ranks killed by fault injection
  std::string fault_schedule;      ///< deterministic fault-schedule dump
};

/// Run a Pilot program (its "main") under a fresh runtime with the given
/// command-line arguments; args[0] should be a program name. Catches aborts
/// and converts them to a RunResult, and guarantees teardown even when the
/// program errors out mid-run.
RunResult run(const std::vector<std::string>& args,
              const std::function<int(int, char**)>& program_main);

}  // namespace pilot
