// Session layer of pilot-traced: one Session per ingest stream, a
// SessionManager owning them, and an IngestPool sharding decode+convert
// work across a fixed set of worker threads.
//
// Concurrency model: a Session's reader/converter state is guarded by a
// per-session mutex, and the IngestPool routes every chunk of one session
// to the same worker (by name hash), so feeds of one session are applied
// in arrival order while different sessions proceed in parallel. Query
// threads take the same mutex, so a query observes a record-aligned prefix
// of the stream, never a half-applied record. Byte-capped backpressure in
// submit() bounds the bytes in flight; the converter bounds everything
// else (docs/TRACED.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clog2/clog2.hpp"
#include "traced/online_convert.hpp"

namespace traced {

/// Lifecycle of one ingest session.
enum class SessionPhase : std::uint8_t {
  kOpen = 0,       ///< accepting bytes
  kComplete = 1,   ///< end-of-log marker seen; awaiting finalize
  kFinalized = 2,  ///< finalize() ran; trace written/retrievable
  kFailed = 3,     ///< stream error; error() says why
};

class Session {
public:
  Session(std::string name, const OnlineOptions& opts)
      : name_(std::move(name)), conv_(opts) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Apply a chunk of raw stream bytes: decode every record that completes
  /// and push it through the converter. A stream error moves the session
  /// to kFailed (sticky) instead of throwing — ingest is asynchronous, so
  /// errors surface through status().
  void feed(const std::uint8_t* data, std::size_t n);
  /// The writer closed its stream. Valid only once; a stream that ends
  /// before the end-of-log marker fails the session.
  void end_of_stream();

  struct Status {
    SessionPhase phase = SessionPhase::kOpen;
    std::string error;
    std::int32_t nranks = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    double watermark = 0.0;
    double frontier = 0.0;
    OnlineUsage usage;
  };
  [[nodiscard]] Status status();

  /// Run `fn` with the converter under the session lock (queries,
  /// renders). Throws util::UsageError if the stream never produced a
  /// header or the session failed.
  void with_converter(const std::function<void(OnlineConverter&)>& fn);

  /// Finalize the conversion (stream must be kComplete) and hand the file
  /// to `consume` under the lock. Moves the session to kFinalized.
  void finalize(std::vector<std::string>* warnings,
                const std::function<void(slog2::File&)>& consume);

  /// Idle-eviction clock, in caller-defined seconds (the daemon passes a
  /// monotonic clock; tests pass a fake one).
  void touch(double now);
  [[nodiscard]] double last_active();

private:
  void fail(const std::string& why);

  std::string name_;
  std::mutex mu_;
  clog2::StreamReader reader_;
  OnlineConverter conv_;
  bool begun_ = false;
  bool eof_ = false;
  SessionPhase phase_ = SessionPhase::kOpen;
  std::string error_;
  std::uint64_t bytes_ = 0;
  double last_active_ = 0.0;
};

/// Name → session registry. All operations are safe to call from any
/// thread; sessions are handed out as shared_ptr so eviction never races
/// an in-flight feed or query.
class SessionManager {
public:
  explicit SessionManager(std::size_t max_sessions = 64)
      : max_sessions_(max_sessions) {}

  /// Create a session. Throws util::UsageError on duplicate name or at the
  /// session cap.
  std::shared_ptr<Session> open(const std::string& name, const OnlineOptions& opts);
  /// nullptr if absent.
  std::shared_ptr<Session> find(const std::string& name);
  bool erase(const std::string& name);
  [[nodiscard]] std::vector<std::string> names();

  /// Drop every session idle since before `now - ttl`. Returns the evicted
  /// names (the daemon logs them).
  std::vector<std::string> evict_idle(double now, double ttl);

private:
  std::mutex mu_;
  std::size_t max_sessions_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
};

/// Fixed worker pool applying ingest chunks. Chunks of one session always
/// land on the same worker (name-hash sharding), which serializes that
/// session's stream while letting distinct sessions run concurrently.
class IngestPool {
public:
  /// `max_queued_bytes` caps bytes buffered across all workers; submit()
  /// blocks (backpressure onto the ingest socket/FIFO) when full.
  explicit IngestPool(std::size_t workers = 4,
                      std::size_t max_queued_bytes = 64 * 1024 * 1024);
  ~IngestPool();
  IngestPool(const IngestPool&) = delete;
  IngestPool& operator=(const IngestPool&) = delete;

  void submit(const std::shared_ptr<Session>& s, std::vector<std::uint8_t> bytes);
  void submit_eof(const std::shared_ptr<Session>& s);
  /// Block until every queued chunk has been applied.
  void drain();

  [[nodiscard]] std::size_t workers() const { return queues_.size(); }

private:
  struct Job {
    std::shared_ptr<Session> session;
    std::vector<std::uint8_t> bytes;
    bool eof = false;
  };
  struct Queue {
    std::deque<Job> jobs;
    bool busy = false;
  };

  void run_worker(std::size_t idx);
  void enqueue(const std::shared_ptr<Session>& s, Job job);

  std::mutex mu_;
  std::condition_variable cv_work_;   // workers wait for jobs
  std::condition_variable cv_space_;  // submitters wait for backpressure/drain
  std::vector<Queue> queues_;
  std::vector<std::thread> threads_;
  std::size_t queued_bytes_ = 0;
  std::size_t max_queued_bytes_;
  bool stopping_ = false;
};

}  // namespace traced
