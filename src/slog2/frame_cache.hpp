// One process-wide decode cache for SLOG-2 frames.
//
// Every consumer that lazily decodes frame payloads — the jumpshot
// Navigator, the parallel query sweeps, and all concurrent pilot-traced
// sessions — shares this one sized, thread-safe LRU instead of each keeping
// a private unbounded (or tiny per-session) cache. Concurrent live queries
// over the same hot window therefore decode each frame once, and total
// decoded-frame memory is bounded by the cache capacity no matter how many
// navigators are alive.
//
// Entries are shared_ptr<const Frame>: eviction never invalidates a frame a
// query is still iterating, it only drops the cache's own reference.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "slog2/slog2.hpp"

namespace slog2 {

class FrameCache {
public:
  /// Default capacity: enough for the hot window of several concurrent
  /// sessions at the 10^6-event scale without approaching full-trace RSS.
  static constexpr std::size_t kDefaultCapacity = 256 * 1024 * 1024;

  /// Namespace tag separating frames of distinct files / byte buffers.
  using Owner = std::uint64_t;

  explicit FrameCache(std::size_t capacity_bytes = kDefaultCapacity)
      : capacity_(capacity_bytes) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  /// Return the cached frame for (owner, index), decoding it via `decode`
  /// on a miss. `decode` runs outside the cache lock (slow decodes never
  /// serialize other sessions); on a lost insert race the winner's frame is
  /// returned and the duplicate dropped. `weight` is the charged size in
  /// bytes (callers pass the encoded payload length).
  std::shared_ptr<const Frame> get(
      Owner owner, std::uint64_t index, std::size_t weight,
      const std::function<std::shared_ptr<const Frame>()>& decode);

  /// Drop every entry belonging to `owner` (a destroyed in-memory
  /// navigator's frames can never be requested again).
  void erase_owner(Owner owner);

  /// Drop everything (tests).
  void clear();

  [[nodiscard]] Stats stats() const;
  void set_capacity(std::size_t bytes);
  [[nodiscard]] std::size_t capacity() const;

  /// The process-wide shared instance.
  static FrameCache& global();

  /// A fresh private owner id (in-memory navigators, online converters).
  static Owner fresh_owner();

  /// Owner id for an on-disk file: one per canonical path, stamped with the
  /// file's size + mtime. Concurrent sessions over the same file share
  /// decoded frames; when the file has been rewritten, the path gets a fresh
  /// id and the previous version's frames are erased from the global cache
  /// (a navigator still open on the old bytes simply decodes again).
  static Owner owner_for_path(const std::filesystem::path& path);

private:
  struct Key {
    Owner owner;
    std::uint64_t index;
    bool operator==(const Key& o) const {
      return owner == o.owner && index == o.index;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix-style scramble; owner and index are both small integers.
      std::uint64_t x = k.owner * 0x9E3779B97F4A7C15ULL + k.index;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x * 0x94D049BB133111EBULL);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Frame> frame;
    std::size_t weight = 0;
  };

  void evict_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
};

}  // namespace slog2
