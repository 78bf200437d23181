// DBSCAN-aware clustering equivalence.
//
// Two valid DBSCAN runs over the same (D, eps, minpts) must agree exactly
// on (a) which points are core, (b) the partition of core points into
// clusters, and (c) which points are noise. What they may legitimately
// disagree on is *which* adjacent cluster a border point joins — border
// assignment is visit-order dependent by the algorithm's definition. The
// checker enforces (a)-(c) and, for border points, that the assigned
// cluster contains a core point within eps.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dbscan/cluster_result.hpp"
#include "dbscan/neighbor_table.hpp"

namespace hdbscan {

struct CompareOutcome {
  bool equivalent = true;
  std::string diagnostic;  ///< empty when equivalent
};

/// Compares two clusterings of the same point ordering. `table` must be
/// the eps-neighbor table for that ordering (it defines core points).
CompareOutcome compare_clusterings(const ClusterResult& a,
                                   const ClusterResult& b,
                                   const NeighborTable& table, int minpts);

/// Rand index of two label vectors over the same points: the fraction of
/// point pairs on which the clusterings agree (both together or both
/// apart). Noise points (label < 0) count as singletons — two noise
/// points are "apart" even though they share the sentinel label, matching
/// DBSCAN semantics where noise is unclustered rather than one cluster.
/// Invariant under label permutation. Returns 1.0 for n <= 1 (no pairs to
/// disagree on). Throws std::invalid_argument on size mismatch.
/// This is how the cell-graph quality mode (ClusterQuality::kCellGraph)
/// reports its agreement with the exact labels.
double rand_index(std::span<const std::int32_t> a,
                  std::span<const std::int32_t> b);

/// Validates a single clustering against DBSCAN's definition:
///  * every core point is clustered, and all cores within eps of each
///    other share a cluster;
///  * cores in the same cluster are connected through core-to-core eps
///    links (no accidental merges);
///  * border points belong to a cluster owning a core within eps;
///  * noise points have no core within eps.
CompareOutcome validate_dbscan_result(const ClusterResult& result,
                                      const NeighborTable& table, int minpts);

}  // namespace hdbscan
