// Streaming PDSDBSCAN: union-find clustering that consumes the batched
// builder's CSR deliveries *while the GPU is still filling later batches*,
// instead of waiting for the merged (and, under ScanMode::kHalf, expanded)
// neighbor table.
//
// Why this is possible:
//  * Pass 1 of the two-pass CSR builder yields exact per-key degrees
//    before any values cross PCIe, and degrees only grow as contributions
//    land — so "degree >= minpts" (core status) is monotone: once a point
//    resolves as core mid-stream it stays core.
//  * Disjoint-set DBSCAN (Patwary et al., the basis of dbscan_parallel) is
//    order-independent over core-core edges: edges can be unioned in any
//    arrival order, from any thread.
// So each delivered row is scanned once, on the builder's stream thread:
// edges whose endpoints are both already core are unioned immediately;
// edges that cannot be decided yet (either endpoint still below minpts)
// are parked in a deferred buffer. Under kHalf every cross pair arrives
// exactly once (forward rows) and is unioned in both directions, so the
// clustering path never expands a half table. finalize() settles the
// tail: final core flags, the remaining deferred unions, cluster numbering
// by root in id order, and dbscan_parallel's border rule (the core
// neighbor with the largest degree, ties to the smaller id). The labels
// equal dbscan_parallel's over the full table, vector for vector.
//
// The fused mode (core/fused_clustering) writes degrees, core flags,
// unions and border keys in place through fused_view(); its degrees keep
// a weaker contract (degree()). Both modes keep borders in one key array
// that finalize() reads once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/types.hpp"
#include "dbscan/atomic_union_find.hpp"
#include "dbscan/batch_sink.hpp"
#include "dbscan/cluster_result.hpp"

namespace hdbscan {

/// How the orchestration layers (hybrid_dbscan / pipeline / reuse) turn a
/// neighbor-table build into labels.
enum class ClusterMode {
  /// Materialize T, then run DBSCAN over it (paper Alg. 4). Required when
  /// the caller wants the table itself (reuse across calls, OPTICS, ...).
  kBatchTable,
  /// Union CSR batches as they arrive; T is never materialized. Labels
  /// only — single-variant wall time approaches max(GPU build, host
  /// union) plus a short resolution tail.
  kStreaming,
  /// No table, no rows: a core pass counts degrees up to minpts, the
  /// cores that touch a non-core point get exact degrees, then a union
  /// pass unions core-core pairs and folds border keys straight into the
  /// consumer (core/fused_clustering). The fill pass, the value transfers
  /// and the delivery hop all disappear, and no result byte crosses the
  /// bus. Labels only; zero table bytes.
  kFused,
};

class StreamingDbscan final : public BatchSink {
 public:
  /// `num_points` fixes the id space (the grid index's point order).
  StreamingDbscan(std::size_t num_points, int minpts);

  // BatchSink: called concurrently from the builder's stream threads.
  void consume_counts(const CountDelivery& delivery) override;
  void consume(const BatchDelivery& delivery) override;

  /// Settles everything the stream could not decide: final core flags,
  /// deferred unions, dense renumbering, borders, noise. Call exactly
  /// once, after the build returned (no concurrent consume calls).
  /// `num_threads` workers (0 = hardware concurrency) settle the parked
  /// edges. Labels are in the id order the deliveries used (the grid
  /// index's order).
  ClusterResult finalize(unsigned num_threads = 0);

  struct Stats {
    std::uint64_t count_batches = 0;  ///< CountDelivery calls
    std::uint64_t row_batches = 0;    ///< BatchDelivery calls
    std::uint64_t edges_seen = 0;     ///< distinct cross edges ingested
    std::uint64_t edges_streamed = 0; ///< unioned during the build
    std::uint64_t edges_deferred = 0; ///< parked for finalize
    std::uint64_t deferred_peak = 0;  ///< high-water of parked edges
    double consume_seconds = 0.0;     ///< host CPU inside consume*(), summed
                                      ///< across all delivering threads
    /// Largest per-thread share of consume_seconds. Deliveries run
    /// concurrently (one per builder stream), so this — not the sum — is
    /// the union work's contribution to the critical path when each
    /// stream thread has its own core.
    double max_thread_consume_seconds = 0.0;
    double finalize_seconds = 0.0;    ///< wall time of the resolution tail

    /// Share of ingested edges that were settled while the GPU was still
    /// building.
    [[nodiscard]] double streamed_fraction() const noexcept {
      return edges_seen == 0
                 ? 0.0
                 : static_cast<double>(edges_streamed) /
                       static_cast<double>(edges_seen);
    }
    /// Share of the host clustering work that overlapped the build:
    /// consume / (consume + finalize).
    [[nodiscard]] double overlap_fraction() const noexcept {
      const double total = consume_seconds + finalize_seconds;
      return total <= 0.0 ? 0.0 : consume_seconds / total;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Optional cooperative-cancellation hook (not owned; must outlive this
  /// consumer). consume() and finalize() poll it: a cancelled token throws
  /// OperationCancelled out of the delivery callback, which the builder
  /// treats as a hard error — streams drain, pooled buffers return, and
  /// the abandoned clustering never reaches finalize.
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

  /// Final degree of point i (self included; full degree, both directions
  /// under kHalf) once the build has returned — the exactly-once test
  /// hook: any dropped or doubled delivery shows up here. Exact after a
  /// table, streaming or 3-D fused build. After fused_cluster it follows
  /// the capped contract, with T = max(minpts, 2): exact when below T or
  /// when the mark pass flagged i (a core point with a non-core
  /// neighbor), and exactly T otherwise (expected_fused_degrees).
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

  /// Current resident bytes of the consumer (degrees + union-find parents
  /// + border keys + parked edges). The streaming replacement for holding
  /// T in memory.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// High-water bytes across the whole run, including finalize's
  /// temporary arrays — the number to compare against the materialized
  /// table's footprint.
  [[nodiscard]] std::size_t peak_memory_bytes() const noexcept {
    return peak_memory_bytes_;
  }

 private:
  [[nodiscard]] bool is_core(std::uint32_t i) const noexcept {
    return degree_[i].load(std::memory_order_relaxed) >= required_;
  }

  /// Degrees, union-find parents, border keys and core flags: the fixed
  /// footprint.
  [[nodiscard]] std::size_t fixed_bytes() const noexcept {
    return n_ * (2 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                 sizeof(std::uint8_t));
  }

  /// Unites parked both-core edges and drops them; keeps the rest. Called
  /// under deferred_mutex_ when the buffer doubles, bounding its
  /// high-water to roughly the undecidable edges of the moment.
  void compact_deferred_locked();

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

  /// Accumulates consume CPU time per delivering thread (a handful of
  /// builder stream threads); guarded by deferred_mutex_.
  void add_thread_seconds_locked(double seconds);

  mutable std::mutex deferred_mutex_;
  std::vector<NeighborPair> deferred_;
  std::size_t compact_threshold_ = 1 << 15;
  std::vector<std::pair<std::thread::id, double>> thread_consume_;

  Stats stats_;  ///< guarded by deferred_mutex_ until finalize
  std::size_t peak_memory_bytes_ = 0;
  bool finalized_ = false;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace hdbscan
