// Banded disjoint-set DBSCAN over a precomputed neighbor table: a whole
// minpts list from one walk of T. Union-find DBSCAN follows PDSDBSCAN
// (Patwary et al. 2012, the paper's citation [9]) and Wang–Gu–Shun.
//
// Core sets nest: a point is core for minpts m when its degree (its row
// length in T, self included, as Alg. 4 counts it) is >= m, so the cores
// at a larger m are a subset of the cores at a smaller one. With the
// distinct thresholds sorted descending, m_1 > ... > m_b, a point's band
// is the first i with degree >= m_i (or "never core"). The pass walks the
// bands from the largest minpts down:
//   1. each point of band i walks its row once and unions with every
//      neighbor whose degree is >= m_i (a same-band neighbor only when its
//      id is smaller, so each pair unions once), in parallel on a
//      lock-free AtomicUnionFind that links the larger root under the
//      smaller — every root is its component's smallest core id;
//   2. after band i, the root of every core at m_i is snapshotted: variant
//      i's core partition (later bands only merge components);
//   3. the same row walk records the point's border target, its neighbor
//      with the largest degree, ties to the smaller id (self excluded).
//      Never-core points walk their rows for this alone.
// Labels per variant: clusters are numbered by root in one id-order scan;
// a non-core point joins its target's cluster when the target's degree is
// >= m_i, else it is noise. If any neighbor is core at m_i, the target is
// too, so no border is missed. Each row of T is walked once for the whole
// list. StreamingDbscan::finalize applies the same border rule, so the
// fused and banded paths give identical label vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dbscan/cluster_result.hpp"
#include "dbscan/neighbor_table.hpp"

namespace hdbscan {

/// The border rule's key for a neighbor of `degree` (self included) and
/// id `id`: the maximum over a point's neighbors picks the largest degree,
/// ties to the smaller id.
[[nodiscard]] constexpr std::uint64_t border_target_key(
    std::uint32_t degree, PointId id) noexcept {
  return (static_cast<std::uint64_t>(degree) << 32) |
         static_cast<std::uint32_t>(~id);
}

/// The id a border_target_key() was built from.
[[nodiscard]] constexpr PointId border_target_id(std::uint64_t key) noexcept {
  return ~static_cast<std::uint32_t>(key);
}

/// One clustering per entry of `minpts_values` (indexed like it; repeats
/// and any order allowed), each identical to the one-value call for that
/// entry and to any worker count. Runs on global_pool() with at most
/// `num_threads` workers (0 = hardware concurrency).
///
/// `output_ids`, when not empty, places point i's label at output_ids[i]
/// (the grid index's original_ids give input order). `variant_seconds`,
/// when not empty, holds one slot per value and receives the worker
/// seconds spent on that value's band — its unions, snapshot, labels and
/// output write, summed over workers, split evenly among repeats — plus an
/// even share of the pass's shared work (degrees, band sort, never-core
/// border walk). Their sum is the pass's total worker time.
///
/// Throws std::invalid_argument when any minpts is < 1.
[[nodiscard]] std::vector<ClusterResult> dbscan_parallel(
    const NeighborTable& table, std::span<const int> minpts_values,
    unsigned num_threads = 0, std::span<const PointId> output_ids = {},
    std::span<double> variant_seconds = {});

/// The banded pass with one value.
[[nodiscard]] ClusterResult dbscan_parallel(const NeighborTable& table,
                                            int minpts,
                                            unsigned num_threads = 0);

}  // namespace hdbscan
