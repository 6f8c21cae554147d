#include "mpisim/mailbox.hpp"

#include <algorithm>
#include <limits>

namespace mpisim {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

Status status_of(const Envelope& e) {
  Status st;
  st.source = e.src;
  st.tag = e.tag;
  st.count = e.payload.size();
  st.send_time = e.send_time;
  st.pair_seq = e.pair_seq;
  return st;
}

bool matches(const Envelope& e, int src, int tag) {
  return (src == kAnySource || e.src == src) && (tag == kAnyTag || e.tag == tag);
}
}  // namespace

Mailbox::Mailbox(const VirtualClock* clock, TaskScheduler* sched)
    : clock_(clock), sched_(sched) {}

void Mailbox::post(Envelope env) {
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(env));
    ++post_count_;
  }
  cv_.notify_all();
  if (sched_ != nullptr) sched_->notify_all(wq_);
}

std::size_t Mailbox::find_match(int src, int tag) const {
  for (std::size_t i = 0; i < queue_.size(); ++i)
    if (matches(queue_[i], src, tag)) return i;
  return kNpos;
}

Envelope Mailbox::receive(int src, int tag, const std::atomic<bool>& aborted,
                          int abort_code) {
  if (sched_ != nullptr) return receive_tasks(src, tag, aborted, abort_code);
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] {
      return aborted.load(std::memory_order_acquire) || find_match(src, tag) != kNpos;
    });
    if (aborted.load(std::memory_order_acquire))
      throw AbortedError(abort_code, "receive interrupted by abort");
    const std::size_t i = find_match(src, tag);
    const double now = clock_->true_time();
    if (queue_[i].deliver_at > now) {
      // Matching message in flight: wait out its latency, abort-wakeable.
      // Other arrivals bump post_count_, so an earlier-deliverable match is
      // picked up by the re-scan.
      const std::uint64_t seen = post_count_;
      cv_.wait_until(lk, clock_->steady_of(queue_[i].deliver_at), [&] {
        return aborted.load(std::memory_order_acquire) || post_count_ != seen;
      });
      continue;
    }
    Envelope out = std::move(queue_[i]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }
}

Envelope Mailbox::receive_tasks(int src, int tag, const std::atomic<bool>& aborted,
                                int abort_code) {
  for (;;) {
    if (aborted.load(std::memory_order_acquire))
      throw AbortedError(abort_code, "receive interrupted by abort");
    const std::size_t i = find_match(src, tag);
    if (i == kNpos) {
      sched_->block(wq_);
      continue;
    }
    const double now = clock_->true_time();
    if (queue_[i].deliver_at > now) {
      sched_->block_until(wq_, clock_->sched_time_of(queue_[i].deliver_at));
      continue;
    }
    Envelope out = std::move(queue_[i]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }
}

Status Mailbox::probe(int src, int tag, const std::atomic<bool>& aborted,
                      int abort_code) {
  if (sched_ != nullptr) return probe_tasks(src, tag, aborted, abort_code);
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] {
      return aborted.load(std::memory_order_acquire) || find_match(src, tag) != kNpos;
    });
    if (aborted.load(std::memory_order_acquire))
      throw AbortedError(abort_code, "probe interrupted by abort");
    const std::size_t i = find_match(src, tag);
    const double now = clock_->true_time();
    if (queue_[i].deliver_at > now) {
      const std::uint64_t seen = post_count_;
      cv_.wait_until(lk, clock_->steady_of(queue_[i].deliver_at), [&] {
        return aborted.load(std::memory_order_acquire) || post_count_ != seen;
      });
      continue;
    }
    return status_of(queue_[i]);
  }
}

Status Mailbox::probe_tasks(int src, int tag, const std::atomic<bool>& aborted,
                            int abort_code) {
  for (;;) {
    if (aborted.load(std::memory_order_acquire))
      throw AbortedError(abort_code, "probe interrupted by abort");
    const std::size_t i = find_match(src, tag);
    if (i == kNpos) {
      sched_->block(wq_);
      continue;
    }
    const double now = clock_->true_time();
    if (queue_[i].deliver_at > now) {
      sched_->block_until(wq_, clock_->sched_time_of(queue_[i].deliver_at));
      continue;
    }
    return status_of(queue_[i]);
  }
}

std::size_t Mailbox::find_exact(int src, std::uint64_t pair_seq) const {
  for (std::size_t i = 0; i < queue_.size(); ++i)
    if (queue_[i].src == src && queue_[i].pair_seq == pair_seq) return i;
  return kNpos;
}

std::size_t Mailbox::wait_exact(std::unique_lock<std::mutex>& lk, int src,
                                std::uint64_t pair_seq, double deadline,
                                const std::atomic<bool>& aborted, int abort_code) {
  for (;;) {
    if (aborted.load(std::memory_order_acquire))
      throw AbortedError(abort_code, "replay receive interrupted by abort");
    const std::size_t i = find_exact(src, pair_seq);
    const double now = clock_->true_time();
    if (now >= deadline) return i != kNpos && queue_[i].deliver_at <= now ? i : kNpos;
    if (i == kNpos) {
      cv_.wait_until(lk, clock_->steady_of(deadline), [&] {
        return aborted.load(std::memory_order_acquire) ||
               find_exact(src, pair_seq) != kNpos;
      });
      continue;
    }
    if (queue_[i].deliver_at > now) {
      cv_.wait_until(lk, clock_->steady_of(std::min(queue_[i].deliver_at, deadline)),
                     [&] { return aborted.load(std::memory_order_acquire); });
      continue;
    }
    return i;
  }
}

std::size_t Mailbox::wait_exact_tasks(int src, std::uint64_t pair_seq,
                                      double deadline,
                                      const std::atomic<bool>& aborted,
                                      int abort_code) {
  for (;;) {
    if (aborted.load(std::memory_order_acquire))
      throw AbortedError(abort_code, "replay receive interrupted by abort");
    const std::size_t i = find_exact(src, pair_seq);
    const double now = clock_->true_time();
    if (now >= deadline) return i != kNpos && queue_[i].deliver_at <= now ? i : kNpos;
    // The deadline is a virtual timer: if the recorded message can never
    // arrive, every task blocks, virtual time jumps straight to the deadline
    // and the divergence is diagnosed without a wall-clock wait.
    const double bound =
        i == kNpos ? deadline : std::min(queue_[i].deliver_at, deadline);
    sched_->block_until(wq_, clock_->sched_time_of(bound));
  }
}

std::optional<Envelope> Mailbox::receive_exact(int src, std::uint64_t pair_seq,
                                               double deadline,
                                               const std::atomic<bool>& aborted,
                                               int abort_code) {
  std::size_t i = kNpos;
  if (sched_ != nullptr) {
    i = wait_exact_tasks(src, pair_seq, deadline, aborted, abort_code);
  } else {
    std::unique_lock lk(mu_);
    i = wait_exact(lk, src, pair_seq, deadline, aborted, abort_code);
    if (i != kNpos) {
      Envelope out = std::move(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      return out;
    }
    return std::nullopt;
  }
  if (i == kNpos) return std::nullopt;
  Envelope out = std::move(queue_[i]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  return out;
}

std::optional<Status> Mailbox::probe_exact(int src, std::uint64_t pair_seq,
                                           double deadline,
                                           const std::atomic<bool>& aborted,
                                           int abort_code) {
  if (sched_ != nullptr) {
    const std::size_t i = wait_exact_tasks(src, pair_seq, deadline, aborted, abort_code);
    if (i == kNpos) return std::nullopt;
    return status_of(queue_[i]);
  }
  std::unique_lock lk(mu_);
  const std::size_t i = wait_exact(lk, src, pair_seq, deadline, aborted, abort_code);
  if (i == kNpos) return std::nullopt;
  return status_of(queue_[i]);
}

std::optional<std::size_t> Mailbox::scan_any(
    const std::vector<std::pair<int, int>>& wants, double now,
    double* soonest) const {
  *soonest = kInf;
  for (std::size_t k = 0; k < wants.size(); ++k) {
    for (const Envelope& e : queue_) {
      if (!matches(e, wants[k].first, wants[k].second)) continue;
      if (e.deliver_at <= now) return k;
      *soonest = std::min(*soonest, e.deliver_at);
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> Mailbox::probe_any(
    const std::vector<std::pair<int, int>>& wants, double deadline,
    const std::atomic<bool>& aborted, int abort_code) {
  const bool bounded = deadline >= 0.0;
  if (sched_ != nullptr) {
    for (;;) {
      if (aborted.load(std::memory_order_acquire))
        throw AbortedError(abort_code, "select interrupted by abort");
      const double now = clock_->true_time();
      double soonest = kInf;
      if (auto k = scan_any(wants, now, &soonest)) return k;
      if (bounded && now >= deadline) return std::nullopt;
      double bound = soonest;
      if (bounded) bound = std::min(bound, deadline);
      if (bound == kInf)
        sched_->block(wq_);
      else
        sched_->block_until(wq_, clock_->sched_time_of(bound));
    }
  }
  std::unique_lock lk(mu_);
  for (;;) {
    if (aborted.load(std::memory_order_acquire))
      throw AbortedError(abort_code, "select interrupted by abort");
    const double now = clock_->true_time();
    double soonest = kInf;
    if (auto k = scan_any(wants, now, &soonest)) return k;
    if (bounded && now >= deadline) return std::nullopt;
    double bound = soonest;
    if (bounded) bound = std::min(bound, deadline);
    const std::uint64_t seen = post_count_;
    const auto pred = [&] {
      return aborted.load(std::memory_order_acquire) || post_count_ != seen;
    };
    if (bound == kInf)
      cv_.wait(lk, pred);
    else
      cv_.wait_until(lk, clock_->steady_of(bound), pred);
  }
}

std::optional<Status> Mailbox::try_probe(int src, int tag) {
  std::lock_guard lk(mu_);
  const std::size_t i = find_match(src, tag);
  if (i == kNpos) return std::nullopt;
  if (queue_[i].deliver_at > clock_->true_time()) return std::nullopt;
  return status_of(queue_[i]);
}

std::size_t Mailbox::pending() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

void Mailbox::interrupt() {
  // Pass through mu_ first: a receiver tests the abort flag under mu_, so the
  // notify cannot fall between its test and its wait and be lost.
  { std::lock_guard lk(mu_); }
  cv_.notify_all();
  if (sched_ != nullptr) sched_->notify_all(wq_);
}

}  // namespace mpisim
