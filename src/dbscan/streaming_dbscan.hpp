// The union-find consumer the fused passes (core/fused_clustering) write
// into: per-point degrees, core-recount flags, a lock-free union-find and
// border keys, all updated in place through fused_view() from the
// devices' pump threads and the host rung. Disjoint-set DBSCAN (Patwary
// et al., the basis of dbscan_parallel) is order-independent over
// core-core edges, so unions may land in any order, from any thread.
// finalize() settles the tail once the passes returned: cluster numbering
// by root in id order and dbscan_parallel's border rule (the core neighbor
// with the largest degree, ties to the smaller id), read from the border
// keys. The labels equal dbscan_parallel's over the full table, vector for
// vector. Its degrees follow the fused contract (degree()).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/cancel.hpp"
#include "common/types.hpp"
#include "dbscan/atomic_union_find.hpp"
#include "dbscan/cluster_result.hpp"

namespace hdbscan {

/// How the orchestration layers (hybrid_dbscan / pipeline / reuse) turn
/// eps-neighborhoods into labels.
enum class ClusterMode {
  /// Materialize T, then run DBSCAN over it (paper Alg. 4). Required when
  /// the caller wants the table itself (reuse across calls, OPTICS,
  /// export).
  kBatchTable,
  /// No table, no rows: a core pass counts degrees up to minpts, the
  /// cores that touch a non-core point get exact degrees, then a union
  /// pass unions core-core pairs and folds border keys straight into the
  /// consumer (core/fused_clustering). There is no fill pass and no
  /// result transfer: no result byte crosses the bus. Labels only; zero
  /// table bytes.
  kFused,
};

class StreamingDbscan final {
 public:
  /// `num_points` fixes the id space (the grid index's point order).
  StreamingDbscan(std::size_t num_points, int minpts);

  /// Settles the tail: dense renumbering by root, borders, noise. Call
  /// exactly once, after the passes returned (no concurrent writers).
  /// Labels are in the id order the passes used (the grid index's
  /// order). `num_threads` is unused: the tail is two id-order scans on
  /// the calling thread.
  ClusterResult finalize(unsigned num_threads = 0);

  /// Optional cooperative-cancellation hook (not owned; must outlive this
  /// consumer). finalize() polls it, so a cancelled job never pays the
  /// resolution tail.
  void set_cancel_token(const CancelToken* token) noexcept {
    cancel_ = token;
  }

  /// The fused passes' surface (ClusterMode::kFused): the degrees the
  /// core and recount passes store, the flags the mark pass sets, and the
  /// union-find and border keys the union pass writes and finalize()
  /// reads.
  struct FusedView {
    std::atomic<std::uint32_t>* degree = nullptr;
    std::atomic<std::uint8_t>* flag = nullptr;
    AtomicUnionFind* uf = nullptr;
    std::atomic<std::uint64_t>* border = nullptr;
    std::uint32_t required = 0;  ///< minpts as the core threshold

    /// Where the core pass stops counting: minpts, but at least 2, so a
    /// point alone in its eps-ball (degree 1) stays told apart.
    [[nodiscard]] std::uint32_t cap() const noexcept {
      return required > 2 ? required : 2;
    }

    /// Flags `point` (a core neighbor of a non-core point) for the
    /// recount pass; the byte is written only while unset.
    void mark(PointId point) const noexcept {
      if (flag[point].load(std::memory_order_relaxed) == 0) {
        flag[point].store(1, std::memory_order_relaxed);
      }
    }

    /// Raises `point`'s border key to `key` (a border_target_key of one
    /// of its core neighbors) when `key` is larger.
    void fold_border(PointId point, std::uint64_t key) const noexcept {
      std::uint64_t cur = border[point].load(std::memory_order_relaxed);
      while (key > cur && !border[point].compare_exchange_weak(
                              cur, key, std::memory_order_relaxed)) {
      }
    }
  };
  [[nodiscard]] FusedView fused_view() noexcept {
    return FusedView{degree_.get(), flag_.get(), &uf_, border_.get(),
                     required_};
  }

  /// Final degree of point i (self included) once the passes have
  /// returned — the test hook where a dropped or doubled batch shows up.
  /// After fused_cluster it follows the capped contract, with T =
  /// max(minpts, 2): exact when below T or when the mark pass flagged i (a
  /// core point with a non-core neighbor), and exactly T otherwise
  /// (expected_fused_degrees).
  [[nodiscard]] std::uint32_t degree(PointId i) const noexcept {
    return degree_[i].load(std::memory_order_relaxed);
  }

  /// Distinct cross pairs the final degrees count: (sum of degrees - n)/2.
  /// Meaningful only when every degree is exact (not after fused_cluster).
  [[nodiscard]] std::uint64_t cross_pairs() const noexcept;

  [[nodiscard]] std::size_t num_points() const noexcept { return n_; }
  [[nodiscard]] int minpts() const noexcept {
    return static_cast<int>(required_);
  }

  /// Resident bytes of the consumer: degrees, union-find parents, border
  /// keys and recount flags — what a fused run holds instead of T.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return n_ * (2 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                 sizeof(std::uint8_t));
  }

  /// High-water bytes across the whole run, including finalize's label
  /// array — the number to compare against the materialized table's
  /// footprint.
  [[nodiscard]] std::size_t peak_memory_bytes() const noexcept {
    return memory_bytes() + (finalized_ ? n_ * sizeof(std::int32_t) : 0);
  }

 private:
  [[nodiscard]] bool is_core(std::uint32_t i) const noexcept {
    return degree_[i].load(std::memory_order_relaxed) >= required_;
  }

  std::size_t n_;
  std::uint32_t required_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> degree_;
  AtomicUnionFind uf_;
  /// Per point, the border_target_key of its best core neighbor (0 =
  /// none seen); read for non-core points only.
  std::unique_ptr<std::atomic<std::uint64_t>[]> border_;
  /// Per point, set by the fused mark pass on a core point with a
  /// non-core neighbor: its degree is recounted exactly.
  std::unique_ptr<std::atomic<std::uint8_t>[]> flag_;

  bool finalized_ = false;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace hdbscan
