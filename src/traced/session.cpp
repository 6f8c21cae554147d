#include "traced/session.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace traced {

// --- Session ----------------------------------------------------------------

void Session::fail(const std::string& why) {
  phase_ = SessionPhase::kFailed;
  if (error_.empty()) error_ = why;
}

void Session::feed(const std::uint8_t* data, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == SessionPhase::kFailed) return;  // sticky; drop the rest
  if (phase_ != SessionPhase::kOpen) {
    fail("bytes arrived after the stream completed");
    return;
  }
  try {
    reader_.feed(data, n);
    bytes_ += n;
    clog2::Record rec;
    for (;;) {
      const clog2::StreamReader::Status st = reader_.next(&rec);
      if (reader_.header_done() && !begun_) {
        conv_.begin(reader_.nranks());
        begun_ = true;
      }
      if (st == clog2::StreamReader::Status::kNeedMoreData) break;
      if (st == clog2::StreamReader::Status::kEnd) {
        phase_ = SessionPhase::kComplete;
        break;
      }
      conv_.push(std::move(rec));
    }
  } catch (const util::Error& e) {
    fail(e.what());
  }
}

void Session::end_of_stream() {
  std::lock_guard<std::mutex> lock(mu_);
  if (eof_) return;
  eof_ = true;
  if (phase_ == SessionPhase::kOpen)
    fail("stream ended before the CLOG-2 end-of-log marker");
}

Session::Status Session::status() {
  std::lock_guard<std::mutex> lock(mu_);
  Status st;
  st.phase = phase_;
  st.error = error_;
  st.nranks = begun_ ? conv_.nranks() : 0;
  st.records = reader_.records_read();
  st.bytes = bytes_;
  if (begun_) {
    st.watermark = conv_.watermark();
    st.frontier = conv_.admitted_frontier();
    st.usage = conv_.usage();
  }
  return st;
}

void Session::with_converter(const std::function<void(OnlineConverter&)>& fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == SessionPhase::kFailed)
    throw util::UsageError("session " + name_ + " failed: " + error_);
  if (!begun_)
    throw util::UsageError("session " + name_ + " has no stream header yet");
  fn(conv_);
}

void Session::finalize(std::vector<std::string>* warnings,
                       const std::function<void(slog2::File&)>& consume) {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == SessionPhase::kFailed)
    throw util::UsageError("session " + name_ + " failed: " + error_);
  if (phase_ == SessionPhase::kFinalized)
    throw util::UsageError("session " + name_ + " already finalized");
  if (phase_ != SessionPhase::kComplete)
    throw util::UsageError("session " + name_ +
                           " is still streaming (no end-of-log marker yet)");
  slog2::File out = conv_.finalize(warnings);
  phase_ = SessionPhase::kFinalized;
  consume(out);
}

void Session::touch(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  last_active_ = std::max(last_active_, now);
}

double Session::last_active() {
  std::lock_guard<std::mutex> lock(mu_);
  return last_active_;
}

// --- SessionManager ---------------------------------------------------------

std::shared_ptr<Session> SessionManager::open(const std::string& name,
                                              const OnlineOptions& opts) {
  if (name.empty()) throw util::UsageError("session name must not be empty");
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(name) != 0)
    throw util::UsageError("session " + name + " already exists");
  if (sessions_.size() >= max_sessions_)
    throw util::UsageError("session cap reached (" +
                           std::to_string(max_sessions_) + ")");
  auto s = std::make_shared<Session>(name, opts);
  sessions_.emplace(name, s);
  return s;
}

std::shared_ptr<Session> SessionManager::find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionManager::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.erase(name) != 0;
}

std::vector<std::string> SessionManager::names() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, s] : sessions_) out.push_back(name);
  return out;
}

std::vector<std::string> SessionManager::evict_idle(double now, double ttl) {
  // Collect candidates under the registry lock, but read each session's
  // clock outside it (last_active takes the session lock).
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(sessions_.size());
    for (const auto& [name, s] : sessions_) all.push_back(s);
  }
  std::vector<std::string> evicted;
  for (const auto& s : all)
    if (s->last_active() + ttl < now) evicted.push_back(s->name());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& name : evicted) sessions_.erase(name);
  }
  return evicted;
}

// --- IngestPool -------------------------------------------------------------

IngestPool::IngestPool(std::size_t workers, std::size_t max_queued_bytes)
    : queues_(std::max<std::size_t>(1, workers)),
      max_queued_bytes_(std::max<std::size_t>(1, max_queued_bytes)) {
  threads_.reserve(queues_.size());
  for (std::size_t i = 0; i < queues_.size(); ++i)
    threads_.emplace_back([this, i] { run_worker(i); });
}

IngestPool::~IngestPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void IngestPool::enqueue(const std::shared_ptr<Session>& s, Job job) {
  const std::size_t shard =
      std::hash<std::string>{}(s->name()) % queues_.size();
  const std::size_t cost = job.bytes.size();
  std::unique_lock<std::mutex> lock(mu_);
  cv_space_.wait(lock, [&] {
    return stopping_ || queued_bytes_ + cost <= max_queued_bytes_ ||
           queued_bytes_ == 0;
  });
  if (stopping_) return;
  queued_bytes_ += cost;
  queues_[shard].jobs.push_back(std::move(job));
  lock.unlock();
  cv_work_.notify_all();
}

void IngestPool::submit(const std::shared_ptr<Session>& s,
                        std::vector<std::uint8_t> bytes) {
  Job job;
  job.session = s;
  job.bytes = std::move(bytes);
  enqueue(s, std::move(job));
}

void IngestPool::submit_eof(const std::shared_ptr<Session>& s) {
  Job job;
  job.session = s;
  job.eof = true;
  enqueue(s, std::move(job));
}

void IngestPool::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_space_.wait(lock, [&] {
    if (queued_bytes_ != 0) return false;
    for (const Queue& q : queues_)
      if (!q.jobs.empty() || q.busy) return false;
    return true;
  });
}

void IngestPool::run_worker(std::size_t idx) {
  Queue& q = queues_[idx];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stopping_ || !q.jobs.empty(); });
      if (q.jobs.empty()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(q.jobs.front());
      q.jobs.pop_front();
      q.busy = true;
    }
    if (job.eof)
      job.session->end_of_stream();
    else if (!job.bytes.empty())
      job.session->feed(job.bytes.data(), job.bytes.size());
    {
      std::lock_guard<std::mutex> lock(mu_);
      q.busy = false;
      queued_bytes_ -= job.bytes.size();
    }
    cv_space_.notify_all();
  }
}

}  // namespace traced
