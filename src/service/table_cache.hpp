// Eps-keyed neighbor-table cache with byte-budget LRU eviction — the
// paper's T-reuse insight turned into a service cache policy: a request
// for an (dataset, eps) the service has already built skips the GPU
// entirely and pays only the host-side DBSCAN over the cached table.
//
// Entries are immutable once inserted (tables canonical as built, plus
// the id map needed to unmap labels) and handed out as shared_ptrs, so
// eviction never invalidates a reader. A pin count per entry protects
// in-flight coalesced builds: the group that inserted (or found) an entry
// holds a Handle until its last job finished, and the evictor skips
// pinned entries even under byte pressure.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "dbscan/neighbor_table.hpp"

namespace hdbscan::service {

/// One cached build: the symmetric table, canonical as built
/// (NeighborTable::is_canonical), plus a copy of the grid index's id
/// permutation (labels computed over the table are in index order;
/// original_ids unmaps them).
struct CachedTable {
  NeighborTable table;
  std::vector<PointId> original_ids;
  std::size_t bytes = 0;  ///< resident estimate used for the byte budget
  /// Request whose build populated this entry — later cache hits record a
  /// span link back to it (0 = built outside a request, e.g. tests).
  std::uint64_t built_by_request = 0;

  [[nodiscard]] static std::size_t payload_bytes(const NeighborTable& t) {
    return t.total_pairs() * sizeof(PointId) +
           t.num_points() * 2 * sizeof(std::uint32_t);
  }
};

class TableCache {
 public:
  struct Key {
    std::string dataset;
    std::uint32_t eps_bits = 0;  ///< bit pattern of the float eps
    /// Which registration of `dataset` the table was built from: a name
    /// registered again starts a new generation, so tables of its old
    /// points never answer for the new ones.
    std::uint64_t generation = 0;
    // A cache belongs to one service, whose build policy is fixed, and a
    // table canonical as built has the same rows under either scan mode,
    // so the key carries no build configuration. Every cached table is
    // exact: cell-graph and fused groups return before the cache, so it
    // carries no quality either.

    bool operator==(const Key& o) const noexcept {
      return eps_bits == o.eps_bits && generation == o.generation &&
             dataset == o.dataset;
    }
  };

  /// RAII pin on one entry: while any Handle for a key is alive, the
  /// entry cannot be evicted. Copyable (shared pin).
  class Handle {
   public:
    Handle() = default;
    [[nodiscard]] const CachedTable* get() const noexcept {
      return entry_.get();
    }
    const CachedTable* operator->() const noexcept { return entry_.get(); }
    explicit operator bool() const noexcept { return entry_ != nullptr; }
    ~Handle() { release(); }
    Handle(const Handle& o) : cache_(o.cache_), key_(o.key_), entry_(o.entry_) {
      if (cache_ != nullptr) cache_->pin(key_);
    }
    Handle& operator=(const Handle& o) {
      if (this != &o) {
        release();
        cache_ = o.cache_;
        key_ = o.key_;
        entry_ = o.entry_;
        if (cache_ != nullptr) cache_->pin(key_);
      }
      return *this;
    }
    Handle(Handle&& o) noexcept
        : cache_(o.cache_), key_(std::move(o.key_)), entry_(std::move(o.entry_)) {
      o.cache_ = nullptr;
      o.entry_ = nullptr;
    }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        cache_ = o.cache_;
        key_ = std::move(o.key_);
        entry_ = std::move(o.entry_);
        o.cache_ = nullptr;
        o.entry_ = nullptr;
      }
      return *this;
    }

   private:
    friend class TableCache;
    Handle(TableCache* cache, Key key, std::shared_ptr<const CachedTable> e)
        : cache_(cache), key_(std::move(key)), entry_(std::move(e)) {}
    void release() {
      if (cache_ != nullptr) cache_->unpin(key_);
      cache_ = nullptr;
      entry_ = nullptr;
    }
    TableCache* cache_ = nullptr;
    Key key_;
    std::shared_ptr<const CachedTable> entry_;
  };

  /// `bytes_budget` 0 disables the cache entirely (find misses, insert
  /// drops).
  explicit TableCache(std::uint64_t bytes_budget)
      : bytes_budget_(bytes_budget) {}

  [[nodiscard]] bool enabled() const noexcept { return bytes_budget_ != 0; }

  /// Pinned lookup; an empty Handle is a miss.
  [[nodiscard]] Handle find(const Key& key);

  /// Inserts (replacing any unpinned previous entry for the key) and
  /// returns a pinned handle to the inserted entry. Evicts
  /// least-recently-used *unpinned* entries until the budget holds; the
  /// new entry itself is never evicted while the returned Handle lives.
  Handle insert(const Key& key, CachedTable entry);

  /// Drops every unpinned entry of `dataset`, whatever its generation, and
  /// returns its bytes to the budget; not counted as an eviction. A dataset
  /// registered again calls it: the old points' tables can never hit. A
  /// pinned entry stays until the budget evicts it.
  void drop_dataset(const std::string& dataset);

  [[nodiscard]] std::uint64_t resident_bytes() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;
  /// True when the key is currently resident (test hook).
  [[nodiscard]] bool contains(const Key& key) const;

 private:
  struct Slot {
    std::shared_ptr<const CachedTable> entry;
    std::uint64_t last_used = 0;
    unsigned pins = 0;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return (std::hash<std::string>{}(k.dataset) * 1000003u ^ k.eps_bits) *
                 1000003u ^
             k.generation;
    }
  };

  void pin(const Key& key);
  void unpin(const Key& key);
  void evict_over_budget_locked();

  std::uint64_t bytes_budget_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Slot, KeyHash> slots_;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;       ///< guarded by mutex_
  std::uint64_t misses_ = 0;     ///< guarded by mutex_
  std::uint64_t evictions_ = 0;  ///< guarded by mutex_
};

}  // namespace hdbscan::service
