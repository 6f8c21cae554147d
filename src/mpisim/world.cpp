#include "mpisim/world.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <system_error>
#include <thread>

#include "util/strings.hpp"

namespace mpisim {

namespace {
// Under threads this is genuinely per-rank; under tasks all ranks share the
// carrier thread and the scheduler's switch hook rewrites it per dispatch.
thread_local Comm* tls_comm = nullptr;

struct TlsCommGuard {
  explicit TlsCommGuard(Comm* c) { tls_comm = c; }
  ~TlsCommGuard() { tls_comm = nullptr; }
};

std::unique_ptr<TaskScheduler> make_sched(const World::Config& cfg) {
  if (cfg.exec != ExecMode::kTasks) return nullptr;
  TaskScheduler::Config sc;
  sc.ntasks = cfg.nprocs;
  sc.seed = cfg.seed;
  sc.stack_bytes = cfg.task_stack_bytes;
  sc.wall_deadline_seconds = cfg.watchdog_seconds;
  return std::make_unique<TaskScheduler>(sc);
}
}  // namespace

Comm* World::current() { return tls_comm; }

World::World(Config cfg)
    : cfg_(cfg),
      sched_(make_sched(cfg)),
      clock_(cfg.nprocs, cfg.clock_max_offset, cfg.clock_max_skew, cfg.seed),
      cpu_(cfg.cpu_cores == 0 ? static_cast<unsigned>(cfg.nprocs) : cfg.cpu_cores,
           cfg.time_scale, sched_.get()) {
  if (cfg_.nprocs < 1) throw util::UsageError("World needs at least one rank");
  clock_.bind_scheduler(sched_.get());
  mailboxes_.reserve(static_cast<std::size_t>(cfg_.nprocs));
  for (int r = 0; r < cfg_.nprocs; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>(&clock_, sched_.get()));
}

World::~World() {
  // Safety net: a World abandoned mid-job (exception between start() and
  // finish()) must not terminate the process via ~thread on a joinable
  // thread — and under tasks, live fibers must unwind so their stack
  // objects are destroyed. Abort the job and wait everyone out.
  if (!threads_.empty()) {
    abort_from(-13);
    for (auto& t : threads_)
      if (t.joinable()) t.join();
    stop_watchdog_.store(true, std::memory_order_release);
  }
  if (sched_ != nullptr && sched_->live_tasks() > 0 &&
      ran_.load(std::memory_order_acquire)) {
    abort_from(-13);
    tls_comm = nullptr;
    sched_->drain();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void World::check_rank(int rank, const char* what) const {
  if (rank < 0 || rank >= cfg_.nprocs)
    throw util::UsageError(util::strprintf("%s: rank %d out of range [0,%d)", what,
                                           rank, cfg_.nprocs));
}

void World::abort_from(int code) {
  bool expected = false;
  if (aborted_.compare_exchange_strong(expected, true)) {
    abort_code_.store(code);
  }
  for (auto& mb : mailboxes_) mb->interrupt();
  cpu_.shutdown();
  { std::lock_guard lk(barrier_mu_); }  // see Mailbox::interrupt
  barrier_cv_.notify_all();
  if (sched_ != nullptr) sched_->wake_all();
}

void World::kill_rank(int rank) {
  {
    std::lock_guard lk(crashed_mu_);
    crashed_ranks_.push_back(rank);
    std::sort(crashed_ranks_.begin(), crashed_ranks_.end());
  }
  const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  std::int64_t expected = 0;
  first_crash_ns_.compare_exchange_strong(expected, now_ns);
  // Count released after the timestamp so the grace reaper never observes a
  // crash without its clock.
  crashed_count_.fetch_add(1, std::memory_order_release);
}

std::vector<int> World::crashed_ranks() const {
  std::lock_guard lk(crashed_mu_);
  return crashed_ranks_;
}

void World::spawn_rank(const std::function<int(Comm&)>& fn, int rank) {
  if (cfg_.debug_fail_spawn_at == rank)
    throw std::system_error(
        std::make_error_code(std::errc::resource_unavailable_try_again),
        "debug_fail_spawn_at");
  threads_.emplace_back([this, &fn, rank] {
    Comm comm(this, rank);
    TlsCommGuard guard(&comm);
    try {
      exit_codes_[static_cast<std::size_t>(rank)] = fn(comm);
    } catch (const RankKilledError& e) {
      // Injected crash: mark the rank dead but do not poison the job —
      // survivors keep running until the fault hook's grace period expires.
      kill_rank(e.rank());
    } catch (const AbortedError&) {
      // Expected unwind path once the job is aborted.
    } catch (...) {
      {
        std::lock_guard lk(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      abort_from(-1);
    }
    ranks_done_.fetch_add(1, std::memory_order_release);
  });
}

void World::spawn_threads_or_cleanup(const char* who, int first) {
  for (int r = first; r < cfg_.nprocs; ++r) {
    try {
      spawn_rank(rank_fn_, r);
    } catch (const std::system_error& e) {
      // Thread creation failed mid-spawn (EAGAIN at large nprocs, or the
      // debug seam). Already-spawned ranks are running and possibly blocked
      // on peers that will never exist: abort them, join them, and report a
      // named diagnostic instead of leaking joinable threads.
      abort_from(kSpawnFailAbortCode);
      for (auto& t : threads_)
        if (t.joinable()) t.join();
      threads_.clear();
      if (rank0_comm_) {
        tls_comm = nullptr;
        rank0_comm_.reset();
      }
      throw SpawnError(
          r, util::strprintf(
                 "World::%s: could not create a thread for rank %d of %d (%s); "
                 "the %d already-spawned rank(s) were aborted and joined — "
                 "consider -piexec=tasks for worlds this large",
                 who, r, cfg_.nprocs, e.what(), r - first));
    }
  }
}

void World::spawn_watchdog(int expected_done) {
  const bool deadline_enabled = cfg_.watchdog_seconds > 0.0;
  // With a fault hook the watchdog doubles as the dead-peer reaper, so it
  // runs even when the deadline is disabled.
  if (!deadline_enabled && cfg_.fault == nullptr) return;
  watchdog_ = std::thread([this, expected_done, deadline_enabled] {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(cfg_.watchdog_seconds));
    while (!stop_watchdog_.load(std::memory_order_acquire)) {
      const bool done = ranks_done_.load(std::memory_order_acquire) >= expected_done;
      const int crashed = crashed_count_.load(std::memory_order_acquire);
      if (done && crashed == 0) return;
      if (crashed > 0) {
        // A killed rank dooms the job. Survivors get the hook's grace period
        // to flush what they can; once it expires — or once every other rank
        // has already finished — the dead peer is "detected" and the job is
        // torn down. Blocked survivors then unwind with AbortedError carrying
        // kPeerDeadAbortCode, the simulated MPI_Abort-on-dead-peer.
        const auto first = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(first_crash_ns_.load(std::memory_order_acquire)));
        const auto grace_end =
            first + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(cfg_.fault->grace_seconds()));
        if (done || std::chrono::steady_clock::now() >= grace_end) {
          abort_from(kPeerDeadAbortCode);
          return;
        }
      }
      if (deadline_enabled && std::chrono::steady_clock::now() >= deadline) {
        timeout_what_ = util::strprintf(
            "watchdog: job did not finish within %.1f s (deadlock?)",
            cfg_.watchdog_seconds);
        timed_out_.store(true);
        abort_from(kWatchdogAbortCode);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

// --- tasks substrate ---------------------------------------------------------

void World::task_body(int rank) {
  Comm& comm = *task_comms_[static_cast<std::size_t>(rank)];
  try {
    exit_codes_[static_cast<std::size_t>(rank)] = rank_fn_(comm);
  } catch (const RankKilledError& e) {
    kill_rank(e.rank());
  } catch (const AbortedError&) {
    // Expected unwind path once the job is aborted.
  } catch (...) {
    {
      std::lock_guard lk(error_mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    abort_from(-1);
  }
  ranks_done_.fetch_add(1, std::memory_order_release);
}

void World::on_stall(TaskScheduler::Stall kind) {
  // Nothing in the world can make progress. Decide why and abort — the
  // tasks-mode replacement for the watchdog thread, except deadlock is
  // detected instantly instead of after a wall timeout.
  if (!aborted_.load(std::memory_order_acquire)) {
    if (kind == TaskScheduler::Stall::kWallDeadline) {
      timeout_what_ = util::strprintf(
          "watchdog: job did not finish within %.1f s of wall time (deadlock "
          "or runaway loop?)",
          cfg_.watchdog_seconds);
      timed_out_.store(true);
      abort_from(kWatchdogAbortCode);
    } else if (crashed_count_.load(std::memory_order_acquire) > 0) {
      // Survivors of an injected crash are blocked on the dead rank: that is
      // the moment the dead peer is "detected" under tasks.
      abort_from(kPeerDeadAbortCode);
    } else {
      timeout_what_ =
          "task scheduler: every live rank is blocked with no message or "
          "timer that could wake one (deadlock)";
      timed_out_.store(true);
      abort_from(kWatchdogAbortCode);
    }
  }
  // abort_from already woke everyone; make sure of it even on the
  // already-aborted path so the scheduler never sees an unresolvable stall.
  sched_->wake_all();
}

void World::launch_tasks(int first) {
  task_comms_.resize(static_cast<std::size_t>(cfg_.nprocs));
  for (int r = first; r < cfg_.nprocs; ++r)
    task_comms_[static_cast<std::size_t>(r)] =
        std::unique_ptr<Comm>(new Comm(this, r));
  sched_->set_switch_hook([this](int task) {
    if (task < 0) {
      tls_comm = nullptr;
    } else if (task == 0 && rank0_comm_) {
      tls_comm = rank0_comm_.get();
    } else {
      tls_comm = task_comms_[static_cast<std::size_t>(task)].get();
    }
  });
  sched_->set_stall_handler([this](TaskScheduler::Stall k) { on_stall(k); });
  for (int r = first; r < cfg_.nprocs; ++r) {
    try {
      if (cfg_.debug_fail_spawn_at == r)
        throw util::Error("debug_fail_spawn_at");
      sched_->spawn(r, [this, r] { task_body(r); });
    } catch (const util::Error& e) {
      // No fiber has run yet (ranks only execute once the scheduler is
      // driven). Mark the job aborted so ~World's drain unwinds the
      // already-spawned fibers at their first substrate call.
      abort_from(kSpawnFailAbortCode);
      throw SpawnError(
          r, util::strprintf(
                 "World::launch: could not create a task stack for rank %d of "
                 "%d (%s); no rank has run yet",
                 r, cfg_.nprocs, e.what()));
    }
  }
}

World::Result World::conclude() {
  if (sched_ == nullptr) {
    for (auto& t : threads_) t.join();
  }
  // A fault-killed rank always ends the job in an abort, even when every
  // surviving rank finished cleanly before the reaper fired — a chaos run's
  // outcome must not depend on how that race falls.
  if (crashed_count_.load(std::memory_order_acquire) > 0 &&
      !aborted_.load(std::memory_order_acquire))
    abort_from(kPeerDeadAbortCode);
  threads_.clear();
  stop_watchdog_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();

  if (first_error_) std::rethrow_exception(first_error_);
  if (timed_out_.load())
    throw TimeoutError(timeout_what_.empty()
                           ? util::strprintf(
                                 "watchdog: job did not finish within %.1f s "
                                 "(deadlock?)",
                                 cfg_.watchdog_seconds)
                           : timeout_what_);

  Result result;
  result.exit_codes = exit_codes_;
  result.aborted = aborted_.load();
  result.abort_code = abort_code_.load();
  result.timed_out = false;
  result.crashed_ranks = crashed_ranks();
  return result;
}

World::Result World::run(const std::function<int(Comm&)>& fn) {
  bool expected = false;
  if (!ran_.compare_exchange_strong(expected, true))
    throw util::UsageError("World::run may only be called once");

  exit_codes_.assign(static_cast<std::size_t>(cfg_.nprocs), 0);
  rank_fn_ = fn;
  if (sched_ != nullptr) {
    launch_tasks(0);
    sched_->run_all();
    return conclude();
  }
  threads_.reserve(static_cast<std::size_t>(cfg_.nprocs));
  spawn_threads_or_cleanup("run", 0);
  spawn_watchdog(cfg_.nprocs);
  return conclude();
}

Comm& World::start(const std::function<int(Comm&)>& fn) {
  bool expected = false;
  if (!ran_.compare_exchange_strong(expected, true))
    throw util::UsageError("World::start: job already launched");

  exit_codes_.assign(static_cast<std::size_t>(cfg_.nprocs), 0);
  rank_fn_ = fn;
  rank0_comm_.reset(new Comm(this, 0));
  tls_comm = rank0_comm_.get();
  if (sched_ != nullptr) {
    // Rank 0 *is* the calling context: the scheduler adopts it as an
    // external task and ranks 1..n-1 become fibers dispatched whenever
    // rank 0 blocks.
    sched_->adopt_external(0);
    if (cfg_.nprocs > 1) launch_tasks(1);
    return *rank0_comm_;
  }
  threads_.reserve(static_cast<std::size_t>(cfg_.nprocs - 1));
  spawn_threads_or_cleanup("start", 1);
  // Rank 0 is the caller and never bumps ranks_done_; the watchdog only
  // waits for the spawned ranks (a stuck rank 0 still trips the deadline).
  spawn_watchdog(cfg_.nprocs - 1);
  return *rank0_comm_;
}

World::Result World::finish() {
  if (!rank0_comm_)
    throw util::UsageError("World::finish without a matching start()");
  if (sched_ != nullptr) {
    // Rank 0's body is complete; drive every remaining fiber to completion.
    sched_->finish_external(0);
    tls_comm = nullptr;
    rank0_comm_.reset();
    return conclude();
  }
  tls_comm = nullptr;
  rank0_comm_.reset();
  return conclude();
}

// --- Comm -------------------------------------------------------------------

int Comm::size() const { return world_->nprocs(); }

void Comm::fault_check(const char* what) {
  if (FaultHook* f = world_->cfg_.fault) f->at_call(rank_, what);
}

void Comm::send(int dst, int tag, const void* data, std::size_t n) {
  fault_check("send");
  world_->check_rank(dst, "send");
  if (world_->aborted_.load(std::memory_order_acquire))
    throw AbortedError(world_->abort_code_.load(), "send after abort");
  if (n > 0 && data == nullptr) throw util::UsageError("send: null data with n > 0");

  Envelope env;
  env.src = rank_;
  env.tag = tag;
  env.payload.assign(static_cast<const std::uint8_t*>(data),
                     static_cast<const std::uint8_t*>(data) + n);
  env.send_time = wtime();
  env.seq = world_->send_seq_.fetch_add(1, std::memory_order_relaxed);
  env.pair_seq = pair_seq_by_dst_[dst]++;

  double delay = world_->cfg_.msg_latency;
  if (world_->cfg_.msg_bandwidth > 0.0)
    delay += static_cast<double>(n) / world_->cfg_.msg_bandwidth;
  if (FaultHook* f = world_->cfg_.fault)
    delay += f->message_delay(rank_, dst, env.pair_seq, n);
  env.deliver_at = world_->clock_.true_time() + delay;

  world_->mailbox(dst).post(std::move(env));
}

namespace {
double replay_deadline(const VirtualClock& clock, const ReplayHook& hook) {
  return clock.true_time() + hook.timeout_seconds();
}
}  // namespace

Envelope Comm::fetch_envelope(int src, int tag) {
  fault_check("receive");
  ReplayHook* hook = world_->cfg_.replay;
  Mailbox& mb = world_->mailbox(rank_);
  const bool wildcard = src == kAnySource || tag == kAnyTag;
  if (hook != nullptr && wildcard && hook->replaying()) {
    const ReplayHook::Match m = hook->replay_recv(rank_);
    auto env = mb.receive_exact(m.src, m.pair_seq,
                                replay_deadline(world_->clock_, *hook),
                                world_->aborted_, world_->abort_code_.load());
    if (!env) hook->replay_failed(rank_, "receive", m);
    if ((src != kAnySource && env->src != src) || (tag != kAnyTag && env->tag != tag))
      hook->replay_failed(rank_, "receive-filter", m);
    return std::move(*env);
  }
  Envelope env = mb.receive(src, tag, world_->aborted_, world_->abort_code_.load());
  if (hook != nullptr && wildcard) hook->record_recv(rank_, {env.src, env.pair_seq});
  return env;
}

Status Comm::recv(int src, int tag, void* buf, std::size_t cap) {
  if (src != kAnySource) world_->check_rank(src, "recv");
  Envelope env = fetch_envelope(src, tag);
  if (env.payload.size() > cap)
    throw util::UsageError(util::strprintf(
        "recv: message from rank %d tag %d is %zu bytes but buffer holds %zu",
        env.src, env.tag, env.payload.size(), cap));
  if (!env.payload.empty()) std::memcpy(buf, env.payload.data(), env.payload.size());
  world_->delivered_.fetch_add(1, std::memory_order_relaxed);

  Status st;
  st.source = env.src;
  st.tag = env.tag;
  st.count = env.payload.size();
  st.send_time = env.send_time;
  st.pair_seq = env.pair_seq;
  return st;
}

std::pair<Status, std::vector<std::uint8_t>> Comm::recv_any_size(int src, int tag) {
  if (src != kAnySource) world_->check_rank(src, "recv_any_size");
  Envelope env = fetch_envelope(src, tag);
  world_->delivered_.fetch_add(1, std::memory_order_relaxed);
  Status st;
  st.source = env.src;
  st.tag = env.tag;
  st.count = env.payload.size();
  st.send_time = env.send_time;
  st.pair_seq = env.pair_seq;
  return {st, std::move(env.payload)};
}

Status Comm::probe(int src, int tag) {
  fault_check("probe");
  if (src != kAnySource) world_->check_rank(src, "probe");
  ReplayHook* hook = world_->cfg_.replay;
  Mailbox& mb = world_->mailbox(rank_);
  const bool wildcard = src == kAnySource || tag == kAnyTag;
  if (hook != nullptr && wildcard && hook->replaying()) {
    const ReplayHook::Match m = hook->replay_probe(rank_);
    auto st = mb.probe_exact(m.src, m.pair_seq,
                             replay_deadline(world_->clock_, *hook),
                             world_->aborted_, world_->abort_code_.load());
    if (!st) hook->replay_failed(rank_, "probe", m);
    if ((src != kAnySource && st->source != src) || (tag != kAnyTag && st->tag != tag))
      hook->replay_failed(rank_, "probe-filter", m);
    return *st;
  }
  Status st = mb.probe(src, tag, world_->aborted_, world_->abort_code_.load());
  if (hook != nullptr && wildcard) hook->record_probe(rank_, {st.source, st.pair_seq});
  return st;
}

std::optional<Status> Comm::iprobe(int src, int tag) {
  fault_check("iprobe");
  if (src != kAnySource) world_->check_rank(src, "iprobe");
  // Cooperative substrate: a poll is a yield point, or spin loops built on
  // iprobe would starve the very senders they are waiting for.
  if (TaskScheduler* s = world_->sched_.get()) s->yield();
  if (world_->aborted_.load(std::memory_order_acquire))
    throw AbortedError(world_->abort_code_.load(), "iprobe after abort");
  return world_->mailbox(rank_).try_probe(src, tag);
}

std::optional<std::size_t> Comm::probe_any(
    const std::vector<std::pair<int, int>>& wants, double timeout_seconds) {
  fault_check("probe");
  for (const auto& [src, tag] : wants)
    if (src != kAnySource) world_->check_rank(src, "probe_any");
  const double deadline =
      timeout_seconds < 0.0
          ? -1.0
          : world_->clock_.true_time() + timeout_seconds;
  return world_->mailbox(rank_).probe_any(wants, deadline, world_->aborted_,
                                          world_->abort_code_.load());
}

void Comm::barrier() {
  fault_check("barrier");
  World& w = *world_;
  if (w.sched_ != nullptr) {
    barrier_tasks();
    return;
  }
  ReplayHook* hook = w.cfg_.replay;
  std::unique_lock lk(w.barrier_mu_);
  const std::uint64_t my_generation = w.barrier_generation_;
  if (hook != nullptr) {
    if (hook->replaying()) {
      // Wait for this rank's recorded arrival slot. Recorded positions form
      // a permutation of 0..nprocs-1 per barrier instance, so every waiter
      // eventually gets its turn (or the deadline names the divergence).
      const int pos = hook->replay_barrier(rank_);
      const auto deadline =
          w.clock_.steady_of(replay_deadline(w.clock_, *hook));
      w.barrier_cv_.wait_until(lk, deadline, [&] {
        return w.aborted_.load(std::memory_order_acquire) ||
               w.barrier_waiting_ == pos;
      });
      if (w.aborted_.load(std::memory_order_acquire))
        throw AbortedError(w.abort_code_.load(), "barrier interrupted by abort");
      if (w.barrier_waiting_ != pos)
        hook->replay_failed(
            rank_, "barrier",
            {pos, static_cast<std::uint64_t>(w.barrier_waiting_)});
    } else {
      hook->record_barrier(rank_, w.barrier_waiting_);
    }
  }
  if (++w.barrier_waiting_ == w.nprocs()) {
    w.barrier_waiting_ = 0;
    ++w.barrier_generation_;
    lk.unlock();
    w.barrier_cv_.notify_all();
    return;
  }
  // Replaying peers block on the arrival count, not just the generation.
  if (hook != nullptr && hook->replaying()) w.barrier_cv_.notify_all();
  w.barrier_cv_.wait(lk, [&] {
    return w.barrier_generation_ != my_generation ||
           w.aborted_.load(std::memory_order_acquire);
  });
  if (w.barrier_generation_ == my_generation)
    throw AbortedError(w.abort_code_.load(), "barrier interrupted by abort");
}

void Comm::barrier_tasks() {
  // Single carrier: the barrier counters need no mutex, and no lock may be
  // held across a block anyway. Semantics mirror the threads barrier above.
  World& w = *world_;
  TaskScheduler& s = *w.sched_;
  ReplayHook* hook = w.cfg_.replay;
  const std::uint64_t my_generation = w.barrier_generation_;
  const auto is_aborted = [&] {
    return w.aborted_.load(std::memory_order_acquire);
  };
  if (hook != nullptr) {
    if (hook->replaying()) {
      const int pos = hook->replay_barrier(rank_);
      const double deadline =
          w.clock_.sched_time_of(replay_deadline(w.clock_, *hook));
      bool in_time = true;
      while (!is_aborted() && w.barrier_waiting_ != pos &&
             w.barrier_generation_ == my_generation && in_time)
        in_time = s.block_until(w.barrier_wq_, deadline);
      if (is_aborted())
        throw AbortedError(w.abort_code_.load(), "barrier interrupted by abort");
      if (w.barrier_waiting_ != pos)
        hook->replay_failed(
            rank_, "barrier",
            {pos, static_cast<std::uint64_t>(w.barrier_waiting_)});
    } else {
      hook->record_barrier(rank_, w.barrier_waiting_);
    }
  }
  if (++w.barrier_waiting_ == w.nprocs()) {
    w.barrier_waiting_ = 0;
    ++w.barrier_generation_;
    s.notify_all(w.barrier_wq_);
    return;
  }
  // Replaying peers block on the arrival count, not just the generation.
  if (hook != nullptr && hook->replaying()) s.notify_all(w.barrier_wq_);
  while (w.barrier_generation_ == my_generation && !is_aborted())
    s.block(w.barrier_wq_);
  if (w.barrier_generation_ == my_generation)
    throw AbortedError(w.abort_code_.load(), "barrier interrupted by abort");
}

double Comm::wtime() const { return world_->clock_.now(rank_); }
double Comm::true_time() const { return world_->clock_.true_time(); }
void Comm::compute(double virtual_seconds) {
  fault_check("compute");
  world_->cpu_.execute(virtual_seconds);
  if (world_->aborted_.load(std::memory_order_acquire))
    throw AbortedError(world_->abort_code_.load(), "compute interrupted by abort");
}

void Comm::sleep(double seconds) {
  if (seconds > 0.0) {
    if (TaskScheduler* s = world_->sched_.get())
      s->sleep_until(s->now() + seconds);
    else
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  if (world_->aborted_.load(std::memory_order_acquire))
    throw AbortedError(world_->abort_code_.load(), "sleep interrupted by abort");
}

void Comm::abort(int code) {
  world_->abort_from(code);
  throw AbortedError(code, util::strprintf("rank %d called abort(%d)", rank_, code));
}

}  // namespace mpisim
