#include "slog2/frame_cache.hpp"

#include <atomic>
#include <map>
#include <string>
#include <system_error>

namespace slog2 {

std::shared_ptr<const Frame> FrameCache::get(
    Owner owner, std::uint64_t index, std::size_t weight,
    const std::function<std::shared_ptr<const Frame>()>& decode) {
  const Key key{owner, index};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->frame;
    }
    ++misses_;
  }
  std::shared_ptr<const Frame> frame = decode();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Another session decoded the same frame while we did; keep the
      // canonical copy so all holders share one allocation.
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->frame;
    }
    lru_.push_front(Entry{key, frame, weight});
    index_[key] = lru_.begin();
    bytes_ += weight;
    evict_locked();
  }
  return frame;
}

void FrameCache::evict_locked() {
  // Evict from the cold end; never the entry just inserted (a single frame
  // larger than the whole capacity still has to be usable).
  while (bytes_ > capacity_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.weight;
    ++evictions_;
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

void FrameCache::erase_owner(Owner owner) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.owner == owner) {
      bytes_ -= it->weight;
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void FrameCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

FrameCache::Stats FrameCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.bytes = bytes_;
  s.entries = lru_.size();
  return s;
}

void FrameCache::set_capacity(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = bytes;
  evict_locked();
}

std::size_t FrameCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

FrameCache& FrameCache::global() {
  static FrameCache cache;
  return cache;
}

FrameCache::Owner FrameCache::fresh_owner() {
  static std::atomic<Owner> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

FrameCache::Owner FrameCache::owner_for_path(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::path canon = std::filesystem::weakly_canonical(path, ec);
  if (ec) canon = path;
  std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) size = 0;
  long long mtime = 0;
  const auto t = std::filesystem::last_write_time(path, ec);
  if (!ec) mtime = static_cast<long long>(t.time_since_epoch().count());
  const std::string version = std::to_string(size) + '|' + std::to_string(mtime);
  // One entry per path (a registry, not a hash, so two files can never
  // collide into one owner). A rewritten file gets a fresh owner and the
  // previous version's frames are dropped: no reader can ask for them under
  // the new owner, and keeping them would let every rewrite of a file add
  // resident frames until the LRU got round to them.
  struct Version {
    std::string stamp;
    Owner owner = 0;
  };
  static std::mutex reg_mu;
  static auto* registry = new std::map<std::string, Version>();
  Owner stale = 0;
  Owner owner = 0;
  {
    std::lock_guard<std::mutex> lock(reg_mu);
    Version& v = (*registry)[canon.string()];
    if (v.owner == 0 || v.stamp != version) {
      stale = v.owner;
      v.stamp = version;
      v.owner = fresh_owner();
    }
    owner = v.owner;
  }
  if (stale != 0) global().erase_owner(stale);
  return owner;
}

}  // namespace slog2
