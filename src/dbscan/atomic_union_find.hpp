// Lock-free concurrent disjoint-set forest (Anderson & Woll style):
// find uses path halving with relaxed loads; unite links the larger root
// under the smaller via CAS, retrying on contention. Linking by smaller
// root id (rather than by rank) makes every root its set's smallest id,
// whatever the thread interleaving — which in turn makes the parallel
// DBSCAN's output independent of the thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

namespace hdbscan {

class AtomicUnionFind {
 public:
  explicit AtomicUnionFind(std::size_t n)
      : n_(n), parent_(std::make_unique<std::atomic<std::uint32_t>[]>(n)) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i].store(static_cast<std::uint32_t>(i),
                       std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Thread-safe find with path halving.
  [[nodiscard]] std::uint32_t find(std::uint32_t x) noexcept {
    for (;;) {
      std::uint32_t p = parent_[x].load(std::memory_order_relaxed);
      if (p == x) return x;
      const std::uint32_t gp = parent_[p].load(std::memory_order_relaxed);
      if (gp == p) return p;
      parent_[x].compare_exchange_weak(p, gp, std::memory_order_relaxed);
      x = gp;
    }
  }

  /// Thread-safe union; the root with the smaller id wins. Returns true
  /// when the two elements were in different sets.
  bool unite(std::uint32_t a, std::uint32_t b) noexcept {
    std::uint32_t root = 0;
    return link(a, b, root);
  }

  /// unite() for a caller that unions one element with many others:
  /// `root_hint` is any member of the element's set — ideally the root
  /// this call returned last time, which find() then confirms with one
  /// load — and the merged set's root is returned for the next call. When
  /// b's parent is the hint and the hint is a root, the two are already
  /// one set (sets only merge), and the hint returns without a find.
  std::uint32_t unite_root(std::uint32_t root_hint, std::uint32_t b) noexcept {
    if (parent_[b].load(std::memory_order_relaxed) == root_hint &&
        parent_[root_hint].load(std::memory_order_relaxed) == root_hint) {
      return root_hint;
    }
    std::uint32_t root = 0;
    link(root_hint, b, root);
    return root;
  }

  [[nodiscard]] bool connected(std::uint32_t a, std::uint32_t b) noexcept {
    // Standard double-check loop: roots may move during the first pass.
    for (;;) {
      const std::uint32_t ra = find(a);
      const std::uint32_t rb = find(b);
      if (ra == rb) return true;
      if (parent_[ra].load(std::memory_order_acquire) == ra) return false;
    }
  }

 private:
  bool link(std::uint32_t a, std::uint32_t b, std::uint32_t& root) noexcept {
    for (;;) {
      std::uint32_t ra = find(a);
      std::uint32_t rb = find(b);
      if (ra == rb) {
        root = ra;
        return false;
      }
      if (ra > rb) std::swap(ra, rb);  // deterministic winner: smaller id
      std::uint32_t expected = rb;
      if (parent_[rb].compare_exchange_strong(expected, ra,
                                              std::memory_order_acq_rel)) {
        root = ra;
        return true;
      }
      // rb gained a parent concurrently; retry from the new roots.
      a = ra;
      b = rb;
    }
  }

  std::size_t n_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> parent_;
};

}  // namespace hdbscan
