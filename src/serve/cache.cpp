#include "serve/cache.hpp"

#include "obs/counters.hpp"

namespace fhp::serve {

namespace {

/// splitmix64 finalizer (same mixer as Hypergraph::fingerprint()).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t config_hash(std::uint64_t seed, int starts,
                          ml::EngineChoice engine,
                          ml::RefinerChoice refiner) noexcept {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ static_cast<std::uint64_t>(starts));
  h = mix64(h ^ static_cast<std::uint64_t>(engine));
  h = mix64(h ^ static_cast<std::uint64_t>(refiner));
  return h;
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  return static_cast<std::size_t>(
      mix64(key.instance.hi ^ mix64(key.instance.lo ^ key.config)));
}

std::uint64_t ResultCache::entry_bytes(
    const ml::EngineResult& result) noexcept {
  // Payload is dominated by the sides vector; the constant approximates
  // the Entry struct + list node + index slot.
  return result.sides.size() + 256;
}

std::optional<ml::EngineResult> ResultCache::lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  FHP_COUNTER_ADD("cache/hits", 1);
  return it->second->result;
}

void ResultCache::insert(const CacheKey& key, const ml::EngineResult& result) {
  const std::uint64_t bytes = entry_bytes(result);
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes > max_bytes_) return;  // larger than the whole budget
  if (const auto it = index_.find(key); it != index_.end()) {
    // Same key raced in twice (e.g. a degraded-path miss while a full run
    // completed); keep the newer result and refresh recency.
    resident_bytes_ -= it->second->bytes;
    it->second->result = result;
    it->second->bytes = bytes;
    resident_bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, result, bytes});
    index_.emplace(key, lru_.begin());
    resident_bytes_ += bytes;
  }
  evict_to_budget();
  publish_gauges();
}

void ResultCache::evict_to_budget() {
  while (resident_bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
    FHP_COUNTER_ADD("cache/evictions", 1);
  }
}

void ResultCache::publish_gauges() const {
  FHP_GAUGE_SET("cache/bytes", static_cast<double>(resident_bytes_));
  FHP_GAUGE_SET("cache/entries", static_cast<double>(lru_.size()));
}

void ResultCache::note_miss() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  FHP_COUNTER_ADD("cache/misses", 1);
}

void ResultCache::note_coalesced_hit() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++hits_;
  FHP_COUNTER_ADD("cache/hits", 1);
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CacheStats{hits_, misses_, evictions_, resident_bytes_,
                    static_cast<std::uint64_t>(lru_.size())};
}

}  // namespace fhp::serve
