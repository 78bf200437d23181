// The neighbor table T (paper §III and §V).
//
// T maps every point p_i in D to its eps-neighborhood N_eps(p_i): per point
// a range [Tmin_i, Tmax_i) into the value array B. The GPU pipeline fills T
// incrementally, one batch at a time — each batch arrives as a key-sorted
// run of (key, value) pairs whose values are appended to B and whose key
// ranges are recorded. Batches cover disjoint key sets (the strided
// assignment of §VI), so appends never interleave a single key's values.
//
// Self-pairs are included (dist(p, p) = 0 <= eps), matching the DBSCAN
// definition where |N_eps(p)| counts p itself.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/default_init.hpp"
#include "common/types.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

class NeighborTable {
 public:
  NeighborTable() = default;

  /// Creates an empty table for `num_points` points with all ranges empty.
  explicit NeighborTable(std::size_t num_points)
      : begin_(num_points, 0), end_(num_points, 0) {}

  [[nodiscard]] std::size_t num_points() const noexcept {
    return begin_.size();
  }

  /// The eps-neighborhood of point i (ids into the same point ordering the
  /// table was built from), including i itself.
  [[nodiscard]] std::span<const PointId> neighbors(PointId i) const noexcept {
    return {values_.data() + begin_[i], values_.data() + end_[i]};
  }

  [[nodiscard]] std::uint32_t neighbor_count(PointId i) const noexcept {
    return end_[i] - begin_[i];
  }

  /// Total number of (key, value) pairs stored (|B|).
  [[nodiscard]] std::size_t total_pairs() const noexcept {
    return values_.size();
  }

  /// Appends one batch of key-sorted pairs: values are copied into B and
  /// each distinct key's [Tmin, Tmax) range is recorded. Keys must not have
  /// appeared in a previous batch. Not thread-safe; the batched builder
  /// serializes appends.
  void append_sorted_batch(std::span<const NeighborPair> pairs);

  /// Appends one CSR batch from the two-pass builder. The batch covers the
  /// strided key set first_key + g * key_stride for g in [0, offsets.size());
  /// key g's values occupy [offsets[g], offsets[g+1]) of `values` (the last
  /// key runs to values.size()). `offsets` is the exclusive prefix scan the
  /// device produced, so no sort and no per-pair key material is needed.
  /// Keys must not have appeared in a previous batch. Not thread-safe.
  void append_csr_batch(std::uint32_t first_key, std::uint32_t key_stride,
                        std::span<const std::uint32_t> offsets,
                        std::span<const PointId> values);

  /// Merges a per-stream shard built over a disjoint key set into this
  /// table: shard values are appended to B and the shard's ranges are
  /// rebased. The shard is consumed. The serial reference for assemble().
  void absorb_shard(NeighborTable&& shard);

  /// Assembles this (empty) table from `parts` — tables of num_points()
  /// rows over pairwise-disjoint key sets: the stream shards and host
  /// batches of one build. The parts are read in place and
  /// the final table is written once, in key order:
  ///  * a row-source sweep records which part holds each key's row and
  ///    throws std::logic_error for a key found in two parts;
  ///  * without `expand_half` the rows are copied into key order (a single
  ///    part is taken over whole instead);
  ///  * with `expand_half` every part row is a *forward* row of a
  ///    ScanMode::kHalf build (self, same-cell ids >= k, forward-stencil
  ///    cells) and every cross pair (k, v) sits in exactly one of rows k
  ///    and v, so a counting-sort transpose (histogram, per-row offsets,
  ///    prefix, copy + scatter) writes each full row as its back
  ///    contributions in ascending key order followed by its forward row.
  /// Passes run in `chunks` pair-balanced chunks on global_pool() (one
  /// chunk for small tables). Throws std::invalid_argument on a part size
  /// mismatch or a non-empty target. The parts are consumed.
  ///
  /// Returns the assembly's critical-path CPU seconds: the serial passes
  /// plus, per parallel pass, the slowest chunk's thread CPU time. This
  /// is the number a performance model should charge — it reflects the
  /// work per core, not this machine's core count or scheduling noise.
  double assemble(std::vector<NeighborTable>&& parts, bool expand_half,
                  unsigned chunks);

  /// Reserve capacity for the expected total pair count.
  void reserve_values(std::size_t expected_pairs) {
    values_.reserve(expected_pairs);
  }

  /// Rewrites the table into its canonical form: values laid out in
  /// ascending key order with each neighbor list sorted. Any two tables
  /// holding the same neighborhood sets — whatever batch interleave, split
  /// schedule, or retry/failover history produced them — canonicalize to
  /// byte-identical begin/end/value arrays, which is how the resilience
  /// tests and the chaos harness assert that a degraded build lost nothing.
  void canonicalize();

  /// True when every row is strictly ascending: the rows canonicalize()
  /// would write. Every producer of a table over a grid index emits them as
  /// built — ids are cell-ordered, stencils list cells in ascending id, and
  /// assemble() puts a row's back contributions before its forward row
  /// (DESIGN.md §10) — so consumers that read rows (BFS, the banded pass,
  /// the service's table cache) never re-sort.
  [[nodiscard]] bool is_canonical() const noexcept;

  /// Byte equality of ranges and values (meaningful after canonicalize()).
  [[nodiscard]] bool identical_to(const NeighborTable& other) const noexcept {
    return begin_ == other.begin_ && end_ == other.end_ &&
           values_ == other.values_;
  }

  /// Direct access for tests.
  [[nodiscard]] std::span<const PointId> values() const noexcept {
    return values_;
  }

 private:
  /// B grows by whole batches whose every slot is immediately written, so
  /// the vector skips zero-fill on growth (DefaultInitAllocator).
  using ValueVector = std::vector<PointId, DefaultInitAllocator<PointId>>;

  std::vector<std::uint32_t> begin_;  ///< Tmin per point (index into B)
  std::vector<std::uint32_t> end_;    ///< Tmax per point (one past last)
  ValueVector values_;                ///< B
};

/// CPU-only construction of T straight from a grid index, one
/// grid_query per point — the oracle for kernel, builder and fault tests.
/// It shares no code with the kernels' traversal on purpose: the host
/// fallback the paper mentions ("a CPU-only implementation could also
/// compute and reuse T") runs the kernel bodies themselves on the host
/// (gpu::host_csr_batch), and this builder is what checks it.
template <typename Point>
NeighborTable build_neighbor_table_host(const BasicGridIndex<Point>& index,
                                        float eps);

}  // namespace hdbscan
