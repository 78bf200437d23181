#include "service/table_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"

namespace hdbscan::service {

TableCache::Handle TableCache::find(const Key& key) {
  if (!enabled()) return {};
  std::lock_guard lock(mutex_);
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    ++misses_;
    obs::Registry::global().counter("service_cache_misses").add(1);
    return {};
  }
  ++hits_;
  obs::Registry::global().counter("service_cache_hits").add(1);
  it->second.last_used = ++tick_;
  ++it->second.pins;
  return Handle(this, key, it->second.entry);
}

TableCache::Handle TableCache::insert(const Key& key, CachedTable entry) {
  if (!enabled()) return {};
  auto shared = std::make_shared<const CachedTable>(std::move(entry));
  std::lock_guard lock(mutex_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    if (it->second.pins != 0) {
      // Another group raced us here and its entry is in use; adopt theirs
      // (same key -> the same canonical rows, whichever build made them).
      it->second.last_used = ++tick_;
      ++it->second.pins;
      return Handle(this, key, it->second.entry);
    }
    resident_bytes_ -= it->second.entry->bytes;
    slots_.erase(it);
  }
  Slot slot;
  slot.entry = std::move(shared);
  slot.last_used = ++tick_;
  slot.pins = 1;  // the returned handle's pin — never evicted while held
  resident_bytes_ += slot.entry->bytes;
  auto [pos, inserted] = slots_.emplace(key, std::move(slot));
  evict_over_budget_locked();
  obs::Registry::global()
      .gauge("service_cache_bytes")
      .set(static_cast<double>(resident_bytes_));
  return Handle(this, key, pos->second.entry);
}

void TableCache::drop_dataset(const std::string& dataset) {
  std::lock_guard lock(mutex_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->first.dataset == dataset && it->second.pins == 0) {
      resident_bytes_ -= it->second.entry->bytes;
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
  obs::Registry::global()
      .gauge("service_cache_bytes")
      .set(static_cast<double>(resident_bytes_));
}

void TableCache::evict_over_budget_locked() {
  while (resident_bytes_ > bytes_budget_) {
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.pins != 0) continue;  // in-flight build: untouchable
      if (victim == slots_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == slots_.end()) return;  // everything left is pinned
    resident_bytes_ -= victim->second.entry->bytes;
    slots_.erase(victim);
    ++evictions_;
    obs::Registry::global().counter("service_cache_evictions").add(1);
  }
}

void TableCache::pin(const Key& key) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(key);
  if (it != slots_.end()) ++it->second.pins;
}

void TableCache::unpin(const Key& key) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(key);
  if (it != slots_.end() && it->second.pins != 0) {
    --it->second.pins;
    if (it->second.pins == 0) evict_over_budget_locked();
  }
}

std::uint64_t TableCache::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return resident_bytes_;
}

std::size_t TableCache::size() const {
  std::lock_guard lock(mutex_);
  return slots_.size();
}

std::uint64_t TableCache::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t TableCache::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

std::uint64_t TableCache::evictions() const {
  std::lock_guard lock(mutex_);
  return evictions_;
}

bool TableCache::contains(const Key& key) const {
  std::lock_guard lock(mutex_);
  return slots_.find(key) != slots_.end();
}

}  // namespace hdbscan::service
