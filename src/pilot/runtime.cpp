// Runtime core: lifecycle, entity creation, phase rules, services wiring.
// The message engine (read/write/collectives) lives in runtime_io.cpp.
#include "pilot/runtime.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/color.hpp"
#include "util/strings.hpp"

namespace pilot {

namespace {

std::unique_ptr<Runtime> g_runtime;

// Only meaningful outside the execution phase (the configuring thread is
// PI_MAIN). While ranks run, the acting process is derived from
// mpisim::World::current() instead — see Runtime::acting_process.
thread_local Process* tls_process = nullptr;

std::string site_str(const CallSite& site) {
  const std::filesystem::path p(site.file ? site.file : "?");
  return util::strprintf("%s:%d", p.filename().string().c_str(), site.line);
}

}  // namespace

Runtime* Runtime::current() { return g_runtime.get(); }

void Runtime::install(std::unique_ptr<Runtime> rt) {
  if (g_runtime)
    throw PilotError("a Pilot program is already active in this process");
  g_runtime = std::move(rt);
}

std::unique_ptr<Runtime> Runtime::uninstall() {
  tls_process = nullptr;
  return std::move(g_runtime);
}

Runtime& Runtime::require(const CallSite& site) {
  if (!g_runtime)
    throw PilotError(util::strprintf(
        "%s: Pilot API called before PI_Configure", site_str(site).c_str()));
  return *g_runtime;
}

Runtime::Runtime(Options opts) : opts_(std::move(opts)) {}

Runtime::~Runtime() { teardown(); }

void Runtime::teardown() {
  if (world_ && phase_ == Phase::kRunning) {
    // Unblock and join without running the cooperative finalize path (the
    // MPE gather cannot run once the job aborted — the log is lost, as the
    // paper documents for PI_Abort). A fault-killed rank gets the dead-peer
    // code so the outcome matches the reaper path deterministically.
    if (!world_->is_aborted())
      world_->force_abort(world_->crashed_ranks().empty()
                              ? -13
                              : mpisim::World::kPeerDeadAbortCode);
    try {
      (void)world_->finish();
    } catch (...) {
      // Teardown must not throw; diagnostics were already reported.
    }
    run_info_.aborted = world_->is_aborted();
    run_info_.abort_code = world_->abort_code();
    phase_ = Phase::kDone;
  }
  if (service_) {
    run_info_.deadlock = service_->deadlock_detected();
    if (run_info_.deadlock_report.empty())
      run_info_.deadlock_report = service_->deadlock_report();
  }
  if (replay_) {
    // A partial recording of an aborted run still replays up to the abort;
    // saving is best-effort here (teardown must not throw).
    if (replay_->mode() == replay::Engine::Mode::kRecord) {
      try {
        replay_->save();
      } catch (...) {
      }
    }
    run_info_.replay = replay_->report();
    run_info_.replay_diverged = run_info_.replay_diverged || replay_->diverged();
  }
  harvest_fault();
  tls_process = nullptr;
}

void Runtime::fail(const CallSite& site, const std::string& msg) const {
  throw PilotError(site_str(site) + ": " + msg);
}

void Runtime::require_phase(const CallSite& site, Phase want, const char* what) const {
  if (phase_ == want) return;
  const char* names[] = {"before PI_Configure", "configuration phase",
                         "execution phase", "after PI_StopMain"};
  fail(site, util::strprintf("%s may only be called in the %s (currently %s)", what,
                             names[static_cast<int>(want)],
                             names[static_cast<int>(phase_)]));
}

Process* Runtime::acting_process() const {
  if (phase_ == Phase::kRunning) {
    mpisim::Comm* c = mpisim::World::current();
    if (c == nullptr || c->rank() == service_rank_) return nullptr;
    const auto r = static_cast<std::size_t>(c->rank());
    if (r >= processes_.size()) return nullptr;
    return const_cast<Process*>(&processes_[r]);
  }
  return tls_process;
}

Process* Runtime::current_process(const CallSite& site, const char* what) const {
  Process* p = acting_process();
  if (p == nullptr)
    fail(site, util::strprintf("%s called outside any Pilot process", what));
  return p;
}

mpisim::Comm& Runtime::comm(const CallSite& site, const char* what) const {
  mpisim::Comm* c = mpisim::World::current();
  if (c == nullptr)
    fail(site, util::strprintf("%s called outside the execution phase", what));
  return *c;
}

void Runtime::check_pointer(const CallSite& site, const void* p,
                            const char* what) const {
  if (opts_.check_level >= 3 && p == nullptr)
    fail(site, util::strprintf("%s: pointer argument seems invalid (null)", what));
}

// --- configuration phase -------------------------------------------------------

int Runtime::configure(const CallSite& site) {
  require_phase(site, Phase::kPreConfig, "PI_Configure");
  config_epoch_ = std::chrono::steady_clock::now();
  processes_.push_back(Process{});
  main_ = &processes_.back();
  main_->rank = 0;
  main_->name = "PI_MAIN";
  phase_ = Phase::kConfig;
  // PI_MAIN's thread is this one during the configuration phase.
  tls_process = main_;
  return opts_.np;
}

Process* Runtime::create_process(const CallSite& site, WorkFunc work, int index,
                                 void* arg2) {
  require_phase(site, Phase::kConfig, "PI_CreateProcess");
  if (work == nullptr) fail(site, "PI_CreateProcess: work function is null");
  const int new_rank = static_cast<int>(processes_.size());
  if (opts_.np > 0) {
    const int budget = opts_.np - (opts_.needs_service_rank() ? 1 : 0);
    if (new_rank + 1 > budget)
      fail(site, util::strprintf(
                     "PI_CreateProcess: process budget exhausted (-pinp=%d%s allows "
                     "%d worker process(es))",
                     opts_.np, opts_.needs_service_rank() ? " minus 1 service rank" : "",
                     budget - 1));
  }
  processes_.push_back(Process{});
  Process* p = &processes_.back();
  p->rank = new_rank;
  p->index = index;
  p->arg2 = arg2;
  p->work = work;
  p->name = "P" + std::to_string(new_rank);
  p->src_file = site.file;
  p->src_line = site.line;
  return p;
}

Channel* Runtime::create_channel(const CallSite& site, Process* from, Process* to) {
  require_phase(site, Phase::kConfig, "PI_CreateChannel");
  if (from == nullptr || to == nullptr)
    fail(site, "PI_CreateChannel: endpoint is null");
  // A self-loop channel is always a bug, but at -picheck=0 it is allowed to
  // exist so the topology linter (-pisvc=a / -pilint) can diagnose it
  // instead of the construction call aborting the program.
  if (from == to && opts_.check_level >= 1)
    fail(site, "PI_CreateChannel: a channel needs two distinct processes");
  channels_.push_back(Channel{});
  Channel* c = &channels_.back();
  c->id = static_cast<int>(channels_.size());
  c->from = from;
  c->to = to;
  c->name = "C" + std::to_string(c->id);
  c->src_file = site.file;
  c->src_line = site.line;
  return c;
}

Bundle* Runtime::create_bundle(const CallSite& site, PI_BUNUSE usage,
                               PI_CHANNEL* const channels[], int size) {
  require_phase(site, Phase::kConfig, "PI_CreateBundle");
  if (usage < PI_BROADCAST || usage > PI_SELECT_B)
    fail(site, "PI_CreateBundle: invalid bundle usage");
  if (channels == nullptr || size <= 0)
    fail(site, "PI_CreateBundle: needs a non-empty channel array");

  const bool common_is_from = usage == PI_BROADCAST || usage == PI_SCATTER;
  Process* common = nullptr;
  std::vector<Channel*> members;
  members.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    Channel* c = channels[i];
    if (c == nullptr)
      fail(site, util::strprintf("PI_CreateBundle: channel %d is null", i));
    Process* endpoint = common_is_from ? c->from : c->to;
    if (common == nullptr) {
      common = endpoint;
    } else if (common != endpoint) {
      fail(site, util::strprintf(
                     "PI_CreateBundle: channel %d (%s) does not share the bundle's "
                     "common %s endpoint (%s)",
                     i, c->name.c_str(), common_is_from ? "writer" : "reader",
                     common->name.c_str()));
    }
    for (const Channel* seen : members)
      if (seen == c)
        fail(site, util::strprintf("PI_CreateBundle: channel %s appears twice",
                                   c->name.c_str()));
    members.push_back(c);
  }

  bundles_.push_back(Bundle{});
  Bundle* b = &bundles_.back();
  b->id = static_cast<int>(bundles_.size());
  b->usage = usage;
  b->channels = std::move(members);
  b->common = common;
  b->name = "B" + std::to_string(b->id);
  b->src_file = site.file;
  b->src_line = site.line;
  return b;
}

void Runtime::set_name(const CallSite& site, Process* p, const char* name) {
  if (p == nullptr || name == nullptr) fail(site, "PI_SetName: null argument");
  p->name = name;
}
void Runtime::set_name(const CallSite& site, Channel* c, const char* name) {
  if (c == nullptr || name == nullptr) fail(site, "PI_SetName: null argument");
  c->name = name;
}
void Runtime::set_name(const CallSite& site, Bundle* b, const char* name) {
  if (b == nullptr || name == nullptr) fail(site, "PI_SetName: null argument");
  b->name = name;
}

Channel** Runtime::copy_channels(const CallSite& site, PI_COPYDIR direction,
                                 PI_CHANNEL* const channels[], int size) {
  require_phase(site, Phase::kConfig, "PI_CopyChannels");
  if (direction != PI_SAME && direction != PI_REVERSE)
    fail(site, "PI_CopyChannels: invalid direction");
  if (channels == nullptr || size <= 0)
    fail(site, "PI_CopyChannels: needs a non-empty channel array");

  auto** out = static_cast<Channel**>(
      std::malloc(static_cast<std::size_t>(size) * sizeof(Channel*)));
  if (out == nullptr) fail(site, "PI_CopyChannels: out of memory");
  for (int i = 0; i < size; ++i) {
    const Channel* src = channels[i];
    if (src == nullptr) {
      std::free(out);
      fail(site, util::strprintf("PI_CopyChannels: channel %d is null", i));
    }
    Process* from = direction == PI_SAME ? src->from : src->to;
    Process* to = direction == PI_SAME ? src->to : src->from;
    out[i] = create_channel(site, from, to);
  }
  return out;
}

int Runtime::define_user_state(const CallSite& site, const char* name,
                               const char* color) {
  require_phase(site, Phase::kConfig, "PI_DefineState");
  if (name == nullptr || color == nullptr)
    fail(site, "PI_DefineState: null argument");
  if (!util::is_known_color(color))
    fail(site, util::strprintf("PI_DefineState: unknown colour '%s'", color));
  user_state_defs_.emplace_back(name, color);
  return static_cast<int>(user_state_defs_.size()) - 1;
}

void Runtime::state_begin(const CallSite& site, int handle) {
  require_phase(site, Phase::kRunning, "PI_StateBegin");
  if (handle < 0 || handle >= static_cast<int>(user_state_defs_.size()))
    fail(site, util::strprintf("PI_StateBegin: invalid state handle %d", handle));
  Process* me = current_process(site, "PI_StateBegin");
  mpisim::Comm& c = comm(site, "PI_StateBegin");
  svc_call_line(site, "PI_StateBegin %s",
                user_state_defs_[static_cast<std::size_t>(handle)].first.c_str());
  if (logviz_) logviz_->begin_user_state(c, handle, site, *me);
}

void Runtime::state_end(const CallSite& site, int handle) {
  require_phase(site, Phase::kRunning, "PI_StateEnd");
  if (handle < 0 || handle >= static_cast<int>(user_state_defs_.size()))
    fail(site, util::strprintf("PI_StateEnd: invalid state handle %d", handle));
  current_process(site, "PI_StateEnd");
  mpisim::Comm& c = comm(site, "PI_StateEnd");
  svc_call_line(site, "PI_StateEnd %s",
                user_state_defs_[static_cast<std::size_t>(handle)].first.c_str());
  if (logviz_) logviz_->end_user_state(c, handle);
}

analyze::Topology Runtime::build_topology() const {
  analyze::Topology topo;
  for (const auto& p : processes_) {
    analyze::ProcessInfo pi;
    pi.rank = p.rank;
    pi.name = p.name;
    if (p.src_file != nullptr) pi.site = {p.src_file, p.src_line};
    topo.processes.push_back(std::move(pi));
  }
  for (const auto& c : channels_) {
    analyze::ChannelInfo ci;
    ci.id = c.id;
    ci.writer = c.from->rank;
    ci.reader = c.to->rank;
    ci.name = c.name;
    if (c.src_file != nullptr) ci.site = {c.src_file, c.src_line};
    ci.writes = c.writes;
    ci.reads = c.reads;
    ci.write_sigs = c.write_sigs;
    ci.read_sigs = c.read_sigs;
    topo.channels.push_back(std::move(ci));
  }
  for (const auto& b : bundles_) {
    analyze::BundleInfo bi;
    bi.id = b.id;
    bi.name = b.name;
    switch (b.usage) {
      case PI_BROADCAST: bi.usage = analyze::BundleUsage::kBroadcast; break;
      case PI_SCATTER: bi.usage = analyze::BundleUsage::kScatter; break;
      case PI_GATHER: bi.usage = analyze::BundleUsage::kGather; break;
      case PI_REDUCE: bi.usage = analyze::BundleUsage::kReduce; break;
      case PI_SELECT_B: bi.usage = analyze::BundleUsage::kSelect; break;
    }
    for (const Channel* c : b.channels) bi.channel_ids.push_back(c->id);
    if (b.src_file != nullptr) bi.site = {b.src_file, b.src_line};
    topo.bundles.push_back(std::move(bi));
  }
  return topo;
}

std::vector<std::string> Runtime::rank_names() const {
  std::vector<std::string> names;
  names.reserve(processes_.size() + 1);
  for (const auto& p : processes_) names.push_back(p.name);
  if (service_rank_ >= 0) names.emplace_back("(log)");
  return names;
}

// --- execution phase -------------------------------------------------------------

void Runtime::start_all(const CallSite& site) {
  require_phase(site, Phase::kConfig, "PI_StartAll");
  if (tls_process != main_)
    fail(site, "PI_StartAll must be called by the configuring (main) thread");

  if (opts_.svc_analyze) {
    run_info_.lint = analyze::lint_topology(build_topology());
    if (!run_info_.lint.empty())
      std::fprintf(stderr, "pilot-analyze (topology):\n%s",
                   run_info_.lint.to_text().c_str());
    if (opts_.lint_only) {
      const std::size_t findings = run_info_.lint.finding_count();
      std::fprintf(stderr, "pilot-lint: %zu finding(s), exiting before the "
                           "execution phase\n", findings);
      std::exit(findings > 0 ? 1 : 0);
    }
  }

  const int compute_ranks = static_cast<int>(processes_.size());
  const int nranks = compute_ranks + (opts_.needs_service_rank() ? 1 : 0);
  service_rank_ = opts_.needs_service_rank() ? nranks - 1 : -1;

  // Record/replay engine. Both construction (RP07: corrupt log) and
  // begin_run (RP05: rank count changed) fail fast here, before any rank
  // thread exists.
  if (!opts_.record_path.empty())
    replay_ = replay::Engine::make_recorder(opts_.record_path);
  else if (!opts_.replay_path.empty())
    replay_ = replay::Engine::make_replayer(opts_.replay_path, opts_.replay_timeout);
  if (replay_) replay_->begin_run(nranks);

  // Fault injection: the injector validates rank bounds against the final
  // rank count (FJ02) here, before any rank thread exists.
  if (opts_.fault_enabled)
    fault_ = std::make_unique<fault::Injector>(opts_.fault_plan, nranks);

  mpisim::World::Config cfg;
  cfg.nprocs = nranks;
  cfg.cpu_cores =
      opts_.sim_cores != 0 ? opts_.sim_cores : static_cast<unsigned>(compute_ranks);
  cfg.time_scale = opts_.sim_scale;
  cfg.msg_latency = opts_.sim_latency;
  cfg.msg_bandwidth = opts_.sim_bandwidth;
  cfg.clock_max_offset = opts_.sim_drift;
  cfg.clock_max_skew = opts_.sim_skew;
  cfg.seed = opts_.sim_seed;
  cfg.watchdog_seconds = opts_.watchdog;
  cfg.replay = replay_.get();
  cfg.fault = fault_.get();
  cfg.exec = opts_.exec_tasks ? mpisim::ExecMode::kTasks
                              : mpisim::ExecMode::kThreads;

  world_ = std::make_unique<mpisim::World>(cfg);
  if (opts_.exec_tasks) {
    // Virtual time: a wall-measured configuration duration would make two
    // otherwise-identical runs diverge, so charge a canonical 1 ms.
    world_->clock().backdate(0.001);
  } else {
    const double config_duration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      config_epoch_)
            .count();
    world_->clock().backdate(config_duration);
  }
  world_->clock().set_quantum(opts_.sim_clockres);
  start_times_.assign(static_cast<std::size_t>(nranks), 0.0);

  if (opts_.svc_jumpshot) {
    mpe::Logger::Options mpe_opts;
    mpe_opts.comment = "Pilot MPE log (" + opts_.log_basename + ")";
    if (opts_.robust_log) mpe_opts.spill_base = opts_.spill_base();
    if (fault_) {
      fault::Injector* inj = fault_.get();
      mpe_opts.on_record = [inj](int rank, std::uint64_t nth) {
        inj->on_logged_record(rank, nth);
      };
      mpe_opts.spill_fault = [inj](int rank, std::uint64_t nth, std::size_t nbytes) {
        return inj->spill_write_bytes(rank, nth, nbytes);
      };
    }
    logviz_ = std::make_unique<LogViz>(*world_, mpe_opts);
    for (const auto& [name, color] : user_state_defs_)
      logviz_->define_user_state(name, color);
    if (opts_.robust_log) logviz_->logger().write_spill_defs();
  }
  if (opts_.needs_service_rank()) {
    std::vector<Service::ChannelMeta> metas;
    metas.reserve(channels_.size());
    for (const auto& c : channels_)
      metas.push_back(Service::ChannelMeta{c.from->rank, c.to->rank, c.name});
    service_ = std::make_unique<Service>(opts_, std::move(metas), rank_names());
  }

  phase_ = Phase::kRunning;
  mpisim::Comm& c0 = world_->start([this](mpisim::Comm& c) { return dispatch_rank(c); });

  if (logviz_) {
    logviz_->logger().log_sync_clocks(c0);
    // The Configuration Phase rectangle on rank 0, back-dated to t=0.
    logviz_->configure_phase(c0, 0.0, c0.wtime());
    logviz_->begin_compute(c0, *main_);
  }
  svc_call_line(site, "PI_StartAll");
}

int Runtime::dispatch_rank(mpisim::Comm& c) {
  if (logviz_) logviz_->logger().log_sync_clocks(c);

  if (c.rank() == service_rank_) {
    const int status = service_->run(c);
    if (logviz_) {
      logviz_->logger().log_sync_clocks(c);
      logviz_->logger().finish_log(c, opts_.clog2_path());
    }
    return status;
  }

  Process* proc = &processes_[static_cast<std::size_t>(c.rank())];
  if (logviz_) logviz_->begin_compute(c, *proc);
  const int status = proc->work(proc->index, proc->arg2);
  if (logviz_) logviz_->end_compute(c);
  finalize_rank(c);
  return status;
}

void Runtime::finalize_rank(mpisim::Comm& c) {
  svc_done();
  if (logviz_) {
    logviz_->logger().log_sync_clocks(c);
    const double wrapup = logviz_->logger().finish_log(c, opts_.clog2_path());
    if (c.rank() == 0) run_info_.mpe_wrapup_seconds = wrapup;
  }
}

void Runtime::harvest_fault() {
  if (!fault_) return;
  run_info_.fault_schedule = fault_->schedule_text();
  if (world_) run_info_.crashed_ranks = world_->crashed_ranks();

  analyze::Report rep;
  for (const auto& f : fault_->fired()) {
    const std::string subject = util::strprintf("rank %d", f.rank);
    switch (f.kind) {
      case fault::Injector::Fired::Kind::kCrashCall:
        rep.add("FJ10", analyze::Severity::kError,
                util::strprintf(
                    "fault injection killed rank %d at substrate call #%llu (%s)",
                    f.rank, static_cast<unsigned long long>(f.n), f.detail.c_str()),
                subject);
        break;
      case fault::Injector::Fired::Kind::kCrashEvent:
        rep.add("FJ10", analyze::Severity::kError,
                util::strprintf(
                    "fault injection killed rank %d after logged event #%llu",
                    f.rank, static_cast<unsigned long long>(f.n)),
                subject);
        break;
      case fault::Injector::Fired::Kind::kTrunc:
        rep.add("FJ20", analyze::Severity::kWarning,
                util::strprintf(
                    "fault injection truncated rank %d's spill write #%llu (%s); "
                    "spill stream disabled, salvage keeps the prefix",
                    f.rank, static_cast<unsigned long long>(f.n), f.detail.c_str()),
                subject);
        break;
    }
  }
  if (world_ && world_->abort_code() == mpisim::World::kPeerDeadAbortCode) {
    std::string names;
    for (int r : run_info_.crashed_ranks)
      names += (names.empty() ? "" : ", ") + std::to_string(r);
    rep.add("FJ11", analyze::Severity::kError,
            util::strprintf(
                "surviving ranks aborted after the dead-peer grace period: "
                "crashed rank(s) %s never rejoined",
                names.empty() ? "?" : names.c_str()),
            names.empty() ? "" : ("rank " + names));
  }
  // Print once (stop_main and teardown both harvest), mirroring the replay
  // engine's stderr diagnostics.
  if (!rep.empty() && run_info_.fault.empty())
    std::fprintf(stderr, "pilot-fault:\n%s", rep.to_text().c_str());
  run_info_.fault = rep;
}

void Runtime::stop_main(const CallSite& site, int status) {
  require_phase(site, Phase::kRunning, "PI_StopMain");
  if (acting_process() != main_)
    fail(site, "PI_StopMain must be called by PI_MAIN");
  mpisim::Comm& c = comm(site, "PI_StopMain");

  if (!world_->is_aborted()) {
    svc_call_line(site, "PI_StopMain status=%d", status);
    if (logviz_) logviz_->end_compute(c);
    finalize_rank(c);
  }

  tls_process = nullptr;
  const auto result = world_->finish();
  run_info_.completed = true;
  run_info_.aborted = result.aborted;
  run_info_.abort_code = result.abort_code;
  run_info_.exit_codes = result.exit_codes;
  if (service_) {
    run_info_.deadlock = service_->deadlock_detected();
    run_info_.deadlock_report = service_->deadlock_report();
  }
  if (replay_) {
    if (replay_->mode() == replay::Engine::Mode::kRecord)
      replay_->save();
    else
      replay_->finish();  // RP06 warning when recorded events went unused
    run_info_.replay = replay_->report();
    run_info_.replay_diverged = replay_->diverged();
  }
  harvest_fault();
  if (opts_.svc_analyze) {
    // The world join above published every rank's traffic counters.
    const analyze::Report usage = analyze::lint_usage(build_topology());
    if (!usage.empty())
      std::fprintf(stderr, "pilot-analyze (usage):\n%s", usage.to_text().c_str());
    run_info_.lint.merge(usage);
  }
  phase_ = Phase::kDone;
}

// --- utilities -------------------------------------------------------------------

double Runtime::start_time(const CallSite& site) {
  mpisim::Comm& c = comm(site, "PI_StartTime");
  const double t = c.wtime();
  if (static_cast<std::size_t>(c.rank()) < start_times_.size())
    start_times_[static_cast<std::size_t>(c.rank())] = t;
  if (logviz_) logviz_->utility(c, "PI_StartTime", site, t, 9);
  svc_call_line(site, "PI_StartTime");
  return t;
}

double Runtime::end_time(const CallSite& site) {
  mpisim::Comm& c = comm(site, "PI_EndTime");
  const double started =
      static_cast<std::size_t>(c.rank()) < start_times_.size()
          ? start_times_[static_cast<std::size_t>(c.rank())]
          : 0.0;
  const double dt = c.wtime() - started;
  if (logviz_) logviz_->utility(c, "PI_EndTime", site, dt, 9);
  svc_call_line(site, "PI_EndTime");
  return dt;
}

void Runtime::log(const CallSite& site, const char* text) {
  if (text == nullptr) fail(site, "PI_Log: null text");
  mpisim::Comm& c = comm(site, "PI_Log");
  if (logviz_) logviz_->user_log(c, site, text);
  svc_call_line(site, "PI_Log \"%s\"", text);
}

bool Runtime::is_logging() const {
  return opts_.svc_jumpshot || opts_.svc_calls;
}

void Runtime::abort(const CallSite& site, int errcode, const char* text) {
  const Process* proc = acting_process();
  std::fprintf(stderr, "PI_Abort(%d) by %s at %s: %s\n", errcode,
               proc ? proc->name.c_str() : "?", site_str(site).c_str(),
               text ? text : "");
  mpisim::Comm* c = mpisim::World::current();
  if (phase_ == Phase::kRunning && c != nullptr) {
    // MPI_Abort semantics: tear down all messaging. The MPE log, which
    // needs messages to be gathered at finalize, is unavoidably lost —
    // the limitation the paper documents.
    c->abort(errcode);  // never returns
  }
  throw PilotAborted(errcode, util::strprintf("PI_Abort(%d): %s", errcode,
                                              text ? text : ""));
}

void Runtime::compute(const CallSite& site, double seconds) {
  if (seconds < 0) fail(site, "PI_Compute: negative duration");
  mpisim::Comm& c = comm(site, "PI_Compute");
  c.compute(seconds);
}

// --- service-event helpers ---------------------------------------------------------

void Runtime::svc_call_line(const CallSite& site, const char* what, ...) {
  // Formats nothing unless call lines reach the service rank.
  if (!opts_.svc_calls || service_rank_ < 0) return;
  mpisim::Comm* c = mpisim::World::current();
  if (c == nullptr || c->rank() == service_rank_) return;
  const Process* proc = acting_process();
  std::va_list ap;
  va_start(ap, what);
  const std::string text = util::vstrprintf(what, ap);
  va_end(ap);
  const auto line = util::strprintf("%s %s %s", proc ? proc->name.c_str() : "?",
                                    text.c_str(), site_str(site).c_str());
  const auto bytes = Service::encode_call(line);
  c->send(service_rank_, kTagService, bytes.data(), bytes.size());
}

void Runtime::svc_write_event(int channel_id) {
  if (!opts_.svc_deadlock || service_rank_ < 0) return;
  mpisim::Comm* c = mpisim::World::current();
  if (c == nullptr) return;
  const auto bytes = Service::encode_write(channel_id);
  c->send(service_rank_, kTagService, bytes.data(), bytes.size());
}

void Runtime::svc_wait(const std::vector<int>& channel_ids, const CallSite& site) {
  if (!opts_.svc_deadlock || service_rank_ < 0) return;
  mpisim::Comm* c = mpisim::World::current();
  if (c == nullptr) return;
  const Process* proc = acting_process();
  const auto bytes = Service::encode_wait(channel_ids, site_str(site),
                                          proc ? proc->name : "?");
  c->send(service_rank_, kTagService, bytes.data(), bytes.size());
}

void Runtime::svc_consume(int channel_id, std::uint32_t count) {
  if (!opts_.svc_deadlock || service_rank_ < 0) return;
  mpisim::Comm* c = mpisim::World::current();
  if (c == nullptr) return;
  const auto bytes = Service::encode_consume(channel_id, count);
  c->send(service_rank_, kTagService, bytes.data(), bytes.size());
}

void Runtime::svc_resume() {
  if (!opts_.svc_deadlock || service_rank_ < 0) return;
  mpisim::Comm* c = mpisim::World::current();
  if (c == nullptr) return;
  const auto bytes = Service::encode_resume();
  c->send(service_rank_, kTagService, bytes.data(), bytes.size());
}

void Runtime::svc_done() {
  if (service_rank_ < 0) return;
  mpisim::Comm* c = mpisim::World::current();
  if (c == nullptr || c->rank() == service_rank_) return;
  const auto bytes = Service::encode_done();
  c->send(service_rank_, kTagService, bytes.data(), bytes.size());
}

// --- whole-program harness ----------------------------------------------------------

RunResult run(const std::vector<std::string>& args,
              const std::function<int(int, char**)>& program_main) {
  if (Runtime::current())
    throw PilotError("pilot::run: another Pilot program is active");

  std::vector<std::string> storage = args;
  if (storage.empty()) storage.emplace_back("pilot-program");
  std::vector<char*> ptrs;
  ptrs.reserve(storage.size() + 1);
  for (auto& s : storage) ptrs.push_back(s.data());
  ptrs.push_back(nullptr);

  RunResult res;
  try {
    res.status = program_main(static_cast<int>(storage.size()), ptrs.data());
  } catch (const mpisim::AbortedError& e) {
    res.aborted = true;
    res.abort_code = e.code();
    res.status = e.code();
  } catch (const PilotAborted& e) {
    res.aborted = true;
    res.abort_code = e.code();
    res.status = e.code();
  } catch (const replay::DivergenceError& e) {
    // Fail-fast divergence on the main thread (RP05/RP07 at PI_StartAll, or
    // a mid-run divergence in one of PI_MAIN's own operations).
    res.replay_diverged = true;
    res.replay.add(e.diagnostic());
    res.status = 1;
  } catch (const mpisim::RankKilledError& e) {
    // The fault plan's victim was rank 0 (PI_MAIN) itself. Mark it dead so
    // teardown below reports the crash like any other; unlike worker kills
    // there is no grace period — the host thread is gone.
    res.aborted = true;
    res.abort_code = mpisim::World::kPeerDeadAbortCode;
    res.status = mpisim::World::kPeerDeadAbortCode;
    if (Runtime* cur = Runtime::current())
      if (auto* w = cur->world()) w->kill_rank(e.rank());
  } catch (...) {
    // Join the rank threads before moving g_runtime: their reads of the
    // installed pointer must happen-before the uninstall() write.
    if (Runtime* cur = Runtime::current()) cur->teardown();
    Runtime::uninstall();
    throw;
  }

  // Teardown first (joins any still-running world, harvesting abort state):
  // rank threads read g_runtime via Runtime::require(), so they must be
  // joined before uninstall() writes it.
  if (Runtime* cur = Runtime::current()) cur->teardown();
  if (auto rt = Runtime::uninstall()) {
    const auto& info = rt->run_info();
    res.aborted = res.aborted || info.aborted;
    if (res.abort_code == 0) res.abort_code = info.abort_code;
    res.deadlock = info.deadlock;
    res.deadlock_report = info.deadlock_report;
    res.mpe_wrapup_seconds = info.mpe_wrapup_seconds;
    res.exit_codes = info.exit_codes;
    res.lint = info.lint;
    // The engine's own report is authoritative when it exists (it includes
    // every divergence seen on any rank); the catch above only covers the
    // case where the engine never came to life (corrupt .prl).
    if (!info.replay.empty()) res.replay = info.replay;
    res.replay_diverged = res.replay_diverged || info.replay_diverged;
    res.fault = info.fault;
    res.crashed_ranks = info.crashed_ranks;
    res.fault_schedule = info.fault_schedule;
  }
  return res;
}

}  // namespace pilot
