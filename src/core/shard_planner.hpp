// Spatial sharding of the grid index across k (simulated) devices.
//
// The planner cuts the grid into k contiguous slabs of *cell rows*,
// balanced by a per-row work estimate — each cell's occupancy times its
// 3x3-stencil occupancy, i.e. candidate distance tests, so a dense band
// does not land on one device while the others idle (row-major
// linearization makes a row slab a contiguous range of both the cell
// array G and the points D). Each shard owns the points of its rows and
// additionally holds the epsilon-halo: the one row above and the one row below the owned slab,
// whose points are resident *ghosts* — cells are exactly eps wide, so an
// owned point's whole 9-cell stencil lies inside owned-rows +/- 1.
//
// Shard sub-indexes keep the GLOBAL grid geometry (GridParams) so every
// point hashes to the same cell id as in the full index — re-deriving a
// local geometry would move float-boundary points across rows and silently
// clip true neighbors. The slab's cell array is indexed relative to
// GridIndex::cell_base instead.
//
// Local point numbering is owned-first: local ids [0, num_owned) are the
// owned points in ascending global id order, ids [num_owned, resident) the
// ghosts in ascending global id order. Ownership is row-homogeneous, so
// every slab cell's residents are one ascending run of local ids — its
// range, as on a whole index, which the half-comparison kernels scan from
// their own id — and, because the local order is a monotone relabeling
// of the global order within each cell, a pair is "forward" locally
// exactly when it is forward globally.
//
// Exactly-once cross-shard edges fall out of that consistency: a shard
// emits rows only for points it owns, every point has exactly one owner,
// and under ScanMode::kHalf each cross pair (a, b) appears in exactly one
// forward row — so it is produced by exactly one shard, with no dedup
// structure. Under kFull each pair still appears once per *endpoint row*,
// same as the single-device build.
#pragma once

#include <cstdint>
#include <vector>

#include "index/grid_index.hpp"

namespace hdbscan {

/// One shard: a slab sub-index plus the local<->global id mapping.
struct GridShard {
  std::uint32_t shard_id = 0;
  std::uint32_t row_begin = 0;  ///< first owned cell row
  std::uint32_t row_end = 0;    ///< one past the last owned cell row
  std::uint32_t num_owned = 0;  ///< owned (query) points == index.num_query
  /// Slab sub-index: global params, cells for owned rows +/- 1 halo,
  /// owned-first points. Empty (size() == 0) when the slab owns no
  /// points — such shards have nothing to build and are skipped.
  GridIndex index;
  /// Local id -> global id (into the full index's point order); size is
  /// the resident count (owned + ghosts).
  std::vector<PointId> to_global;

  [[nodiscard]] std::uint32_t num_ghosts() const noexcept {
    return static_cast<std::uint32_t>(to_global.size()) - num_owned;
  }
  [[nodiscard]] bool empty() const noexcept { return num_owned == 0; }
};

struct ShardPlan {
  std::vector<GridShard> shards;
  /// Global point id -> owning shard id; only points whose cell row lies
  /// in the planned row range are assigned (kUnowned otherwise).
  std::vector<std::uint32_t> owner_of;
  std::uint64_t total_ghosts = 0;  ///< summed halo residents across shards
  std::uint64_t owned_points = 0;  ///< points covered by the planned rows
  /// Host CPU on the planning critical path: the serial prefix (row
  /// weights, cuts, ownership table) plus the slowest of the per-shard
  /// assembly workers, which run one per shard on the reference host's
  /// cores. This is what a performance model should charge for planning —
  /// not the summed CPU of all workers.
  double critical_seconds = 0.0;

  static constexpr std::uint32_t kUnowned = 0xffffffffu;

  /// Halo duplication: ghost residents relative to owned points — the
  /// fraction of extra index data (not extra distance tests, under kHalf)
  /// the sharding pays.
  [[nodiscard]] double halo_overhead_fraction() const noexcept {
    return owned_points == 0 ? 0.0
                             : static_cast<double>(total_ghosts) /
                                   static_cast<double>(owned_points);
  }
};

/// Partitions cell rows [row_begin, row_end) of the *global* index (the
/// full-grid overload covers every row) into at most `num_shards`
/// contiguous slabs balanced by point count. Fewer shards come back when
/// the range has fewer rows than requested; shards that would own zero
/// points are dropped. shard_id values are assigned 0..k-1 in row order —
/// re-partitioning a dead shard's range yields fresh ids; callers keep
/// their own shard->device mapping.
///
/// Sub-index assembly (gather + relabel + slab cell rebuild) is
/// independent per shard and runs on up to `num_threads` workers
/// (0 = hardware concurrency); the result is bit-identical to serial
/// assembly and ShardPlan::critical_seconds charges the slowest worker.
ShardPlan plan_shards(const GridIndex& index, unsigned num_shards,
                      std::uint32_t row_begin, std::uint32_t row_end,
                      unsigned num_threads = 0);

ShardPlan plan_shards(const GridIndex& index, unsigned num_shards,
                      unsigned num_threads = 0);

}  // namespace hdbscan
